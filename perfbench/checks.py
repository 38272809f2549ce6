"""Output checks and the counters the benchmark reads from the program's files.

Every check is one operation in the run's ``attempted`` count; a check that
does not hold adds one to ``failed``. The log-probability oracle is the
definition, written independently of the package: an unnormalized product
of Kraus maps for QHMMs and an unscaled matrix product for HMMs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from workloads import DECAY, LEARNING_RATE, SCENARIO_COUNTS

ORACLE_ROWS = 16          # seeded sample of eval rows recomputed per report
ORACLE_RTOL = 1e-9        # relative to max(1, |log P|)
UNDERFLOW_PROB = 1e-300   # the package reports log P = -inf at or below this


class Ledger:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _split_records(data_path, split):
    records = _read_jsonl(data_path)
    return records if split == "all" else [r for r in records if r["split"] == split]


def oracle_log_prob(model: dict, sequence) -> float:
    """Natural-log probability of a sequence straight from the model's definition."""
    if model["type"] == "qhmm":
        ops = np.asarray(model["kraus_re"]) + 1j * np.asarray(model["kraus_im"])
        rho = np.asarray(model["pi0_re"]) + 1j * np.asarray(model["pi0_im"])
        for x in sequence:
            rho = sum(a @ rho @ a.conj().T for a in ops[x])
        prob = float(rho.trace().real)
    else:
        transition = np.asarray(model["transition"])
        emission = np.asarray(model["emission"])
        alpha = np.asarray(model["start"]) * emission[:, sequence[0]]
        for x in sequence[1:]:
            alpha = (alpha @ transition) * emission[:, x]
        prob = float(alpha.sum())
    return math.log(prob) if prob > 0.0 else -math.inf


def _oracle_agrees(reported: float, model: dict, sequence) -> bool:
    expected = oracle_log_prob(model, sequence)
    if reported == -math.inf:
        return expected <= math.log(UNDERFLOW_PROB)
    return abs(reported - expected) <= ORACLE_RTOL * max(1.0, abs(expected))


def loss_trace(path):
    """Accepted steps and step halvings of one QHMM training run.

    A step's halvings are log2(scheduled tau / recorded tau), where the
    scheduled tau is lr * decay**epoch.
    """
    rows = _read_csv(path)
    halvings = 0
    for row in rows:
        scheduled = LEARNING_RATE * DECAY ** int(row["epoch"])
        halvings += round(math.log2(scheduled / float(row["tau"])))
    return len(rows), halvings


def check_stage(kind, argv, code, stdout, workload, seed, ledger) -> dict:
    """Check one CLI call's outputs; returns what the metrics need from them."""
    if not ledger.check(code == 0, f"{' '.join(argv[:3])} exited with {code}"):
        return {}
    out = Path(_flag(argv, "--out"))
    if kind == "make_dataset":
        counts = tuple(len(_read_jsonl(out / f"{name}.jsonl"))
                       for name in ("probable", "no_probable"))
        expected = SCENARIO_COUNTS[(workload.system, int(_flag(argv, "--max-len")))]
        ledger.check(counts == expected, f"scenario counts {counts}, expected {expected}")
        return {}
    if kind == "train_qhmm":
        from scengen.qhmm import validate_kraus
        from scengen.serialization import load_model
        ledger.check(validate_kraus(load_model(out / "model.json")).passes,
                     f"{out / 'model.json'} fails validate_kraus")
        steps, halvings = loss_trace(out / "loss.csv")
        return {"steps": steps, "halvings": halvings}
    if kind == "eval":
        return _check_eval(argv, out, stdout, seed, ledger)
    if kind == "classify":
        return _check_classify(argv, out, ledger)
    if kind == "generate":
        lines = _read_jsonl(out / "sequences.jsonl")
        count, length = int(_flag(argv, "--count")), int(_flag(argv, "--length"))
        ledger.check(len(lines) == count and all(len(r["sequence"]) == length
                                                 for r in lines),
                     f"{out}: expected {count} sequences of length {length}")
        legal = sum(r["steps"] is not None for r in lines)
        return {"seqs": len(lines), "legal": legal}
    if kind == "compare":
        rows = _read_csv(out / "comparison.csv")
        expected = 4 * argv.count("--data")
        ledger.check(len(rows) == expected
                     and all(r["mean_da"] != "failed" for r in rows),
                     f"{out}: expected {expected} trained comparison rows")
    return {}


def _check_eval(argv, out, stdout, seed, ledger) -> dict:
    records = _split_records(_flag(argv, "--data"), _flag(argv, "--split"))
    rows = _read_csv(out / "report.csv")
    ledger.check(len(rows) == len(records)
                 and all(int(r["length"]) == len(rec["sequence"])
                         for r, rec in zip(rows, records)),
                 f"{out}: report rows disagree with the split")
    with open(_flag(argv, "--model")) as fh:
        model = json.load(fh)
    rng = np.random.default_rng(seed)
    sample = rng.choice(len(rows), size=min(ORACLE_ROWS, len(rows)), replace=False)
    ledger.check(all(_oracle_agrees(float(rows[i]["log_prob"]), model,
                                    records[i]["sequence"]) for i in sample),
                 f"{out}: log_prob disagrees with the oracle")
    mean_da = float(stdout.split()[-1])
    return {"seqs": len(rows), "mean_da": mean_da}


def _check_classify(argv, out, ledger) -> dict:
    records = _split_records(_flag(argv, "--data"), _flag(argv, "--split"))
    rows = _read_csv(out / "report.csv")
    ledger.check(len(rows) == len(records)
                 and all(r["pred_label"] in ("probable", "no_probable") for r in rows),
                 f"{out}: report rows disagree with the split")
    held_out = [(r, rec) for r, rec in zip(rows, records) if rec["split"] == "test"]
    correct = sum(r["pred_label"] == rec["label"] for r, rec in held_out)
    return {"seqs": len(rows), "test_correct": correct, "test_total": len(held_out)}


def outputs_digest(work: Path) -> str:
    """Hash of every data output under ``work`` (manifests hold timestamps)."""
    digest = hashlib.sha256()
    for path in sorted(work.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            digest.update(str(path.relative_to(work)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()
