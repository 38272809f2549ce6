"""Benchmark of the scengen CLI pipeline, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

One process per workload runs the pipeline in-process through
``scengen.cli.main(argv)`` in a closed loop: each CLI call starts when the
previous one returns, and the pipeline repeats until ``--seconds`` have
passed. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced pipelines and reports the per-layer
metrics plus the tracing overhead. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPS = 5
SUBSEEDS = 4
# calibrate() reads this on a reference core; every reported time is the
# measured wall time scaled by reference / calibration measured beside it
CALIBRATION_REFERENCE_S = 1.2e-3
# the models are at most 32 x 16, below any BLAS threading threshold; one
# thread keeps the closed loop on one core of a shared machine
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "make_dataset_s": "s", "train_qhmm_s": "s",
    "train_hmm_s": "s", "compare_s": "s", "eval_seq_per_s": "1/s",
    "classify_seq_per_s": "1/s", "generate_seq_per_s": "1/s",
    "test_accuracy": "ratio", "test_da": "DA", "success_rate": "ratio",
    "peak_rss_mb": "MB",
}
STAGES = ("make_dataset", "train_qhmm", "train_hmm", "eval", "classify",
          "generate", "compare")


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "cpu": cpu, "nproc": os.cpu_count(), "seed": seed}


def _calibration_kernel():
    # the program's mix: small complex matmuls driven from a Python loop
    import numpy as np
    rho = np.eye(4, dtype=complex) / 4
    ops = np.full((2, 4, 4), 0.5, dtype=complex)
    total = 0.0
    for _ in range(100):
        updated = (ops @ rho @ ops.conj().transpose(0, 2, 1)).sum(axis=0)
        total += float(updated.trace().real)
    for i in range(5000):
        total += i * 0.5
    return total


def calibrate() -> float:
    """Seconds the calibration kernel takes now (the best of three)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def speed_factor(before: float, after: float) -> float:
    """Scale from wall seconds to seconds at the reference core speed.

    A shared machine runs the same code up to 1.7x slower for seconds to
    minutes while other tenants load it; the calibration kernel slows by
    the same factor, so scaled times track the program's own cost.
    """
    return CALIBRATION_REFERENCE_S / ((before + after) / 2)


def cli_call(argv):
    """Run one CLI command in-process; returns (seconds, exit code, stdout)."""
    main = sys.modules["scengen.cli"].main   # looked up per call: the tracer rebinds it
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = -1
    elapsed = time.perf_counter() - start
    if code != 0:
        print(err.getvalue(), file=sys.stderr, end="")
    return elapsed, code, out.getvalue()


def checked(calls, workload, seed, ledger):
    """Check each call's outputs; returns the facts the metrics need."""
    from checks import check_stage
    facts = []
    for kind, argv, code, stdout in calls:
        try:
            facts.append((kind, check_stage(kind, argv, code, stdout, workload,
                                            seed, ledger)))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            ledger.check(False, f"{' '.join(argv[:3])}: unreadable output ({exc!r})")
            facts.append((kind, {}))
    return facts


def set_up(workload, seed, work, ledger) -> float:
    """Import scengen afresh and make the untimed inputs; returns the seconds taken."""
    from workloads import setup_stages, write_system
    for name in [m for m in sys.modules if m == "scengen" or m.startswith("scengen.")]:
        del sys.modules[name]
    before = calibrate()
    start = time.perf_counter()
    import scengen.cli  # noqa: F401
    write_system(workload, work)
    calls = [(kind, argv, *cli_call(argv)[1:])
             for kind, argv in setup_stages(workload, seed, work)]
    elapsed = time.perf_counter() - start
    elapsed *= speed_factor(before, calibrate())
    checked(calls, workload, seed, ledger)
    return elapsed


def run_pipeline(stages, workload, seed, ledger, tracer=None):
    """One closed-loop pass.

    Returns the scaled seconds, the speed factor and the checked facts of
    each call.
    """
    seconds, factors, calls, speed = [], [], [], [calibrate()]
    if tracer is not None:
        tracer.install()
    try:
        for kind, argv in stages:
            elapsed, code, stdout = cli_call(argv)
            speed.append(calibrate())
            factors.append(speed_factor(speed[-2], speed[-1]))
            seconds.append(elapsed * factors[-1])
            calls.append((kind, argv, code, stdout))
    finally:
        if tracer is not None:
            tracer.remove()
    return seconds, factors, checked(calls, workload, seed, ledger)


def _total(facts, kind, key):
    return sum(f.get(key, 0) for k, f in facts if k == kind)


def end_to_end(stages, seconds, facts, repeats) -> dict:
    """Stage times and throughputs of one pass, counted for one pipeline."""
    from workloads import READ_STAGES
    stage = defaultdict(float)
    for (kind, _), elapsed in zip(stages, seconds):
        stage[kind] += elapsed
    row = {f"{kind}_seq_per_s": _total(facts, kind, "seqs") / stage[kind]
           for kind in ("eval", "classify", "generate")}
    for kind in READ_STAGES:
        stage[kind] /= repeats
    row.update({f"{kind}_s": stage[kind] for kind in
                ("make_dataset", "train_qhmm", "train_hmm", "compare")})
    row["pipeline_s"] = sum(stage.values())
    return row


def quality(facts) -> dict:
    evals = [f for k, f in facts if k == "eval" and f]
    held_out = _total(facts, "classify", "test_total")
    return {
        "test_da": (sum(f["mean_da"] * f["seqs"] for f in evals)
                    / sum(f["seqs"] for f in evals)) if evals else 0.0,
        "test_accuracy": (_total(facts, "classify", "test_correct") / held_out
                          if held_out else 0.0),
    }


def file_counters(facts) -> dict:
    samples = _total(facts, "generate", "seqs")
    return {
        "trainer.steps": _total(facts, "train_qhmm", "steps"),
        "trainer.halvings": _total(facts, "train_qhmm", "halvings"),
        "psa.legal_walk_ratio": (_total(facts, "generate", "legal") / samples
                                 if samples else 0.0),
    }


def _mean(rows) -> dict:
    return {key: statistics.fmean(row[key] for row in rows) for key in rows[0]}


def _median(rows) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def measure(workload, seed, seconds_budget, trace, work, ledger):
    """Repeat the pipeline for the time budget; returns (metrics, spans).

    Passes rotate over SUBSEEDS seeds derived from the workload seed, so a
    run covers several dataset splits and training seeds and one split
    moves its figures less. Times are medians over all passes; quality
    figures and counts are means over the sub-seeds' first passes, so
    they are deterministic per workload seed. With ``trace`` each
    sub-seed runs an untraced and then a traced pass, and the per-layer
    numbers come from the traced passes.
    """
    from checks import outputs_digest
    from tracer import Tracer
    from workloads import pipeline
    subseeds = [seed * SUBSEEDS + i for i in range(SUBSEEDS)]
    stages = {sub: pipeline(workload, sub, work) for sub in subseeds}
    untraced, traced = [], []
    first, digests, spans = {}, {}, []   # first[(sub, traced)] = (facts, row)
    start = time.perf_counter()
    passes = 0
    while len(first) < SUBSEEDS * (1 + trace) \
            or time.perf_counter() - start < seconds_budget:
        sub = subseeds[(passes // (1 + trace)) % SUBSEEDS]
        tracer = Tracer() if trace and passes % 2 else None
        passes += 1
        seconds, factors, facts = run_pipeline(stages[sub], workload, sub, ledger, tracer)
        # reruns with identical flags must reproduce every data output
        digest = outputs_digest(work)
        if sub in digests:
            ledger.check(digest == digests[sub], "a rerun changed the data outputs")
        digests.setdefault(sub, digest)
        row = end_to_end(stages[sub], seconds, facts, workload.read_repeats)
        if tracer is not None:
            counters = file_counters(facts)
            row.update(tracer.summary(counters["trainer.steps"], factors), **counters)
            spans = tracer.spans
        (traced if tracer is not None else untraced).append(row)
        first.setdefault((sub, tracer is not None), (facts, row))

    if not trace:
        metrics = _median(untraced)
        metrics.update(_mean([quality(first[(sub, False)][0]) for sub in subseeds]))
        return metrics, spans
    times, counts = _median(traced), _mean([first[(sub, True)][1] for sub in subseeds])
    layer = {key: times[key] if layer_unit(key) in ("s", "ms", "GFLOP/s") else counts[key]
             for key in times if key not in END_TO_END_UNITS}
    # each traced pass follows an untraced pass of the same sub-seed
    layer["trace.overhead_s"] = statistics.median(
        t["pipeline_s"] - u["pipeline_s"] for u, t in zip(untraced, traced))
    return layer, spans


def parse_args(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, one pass per sub-seed (smoke test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    args = parse_args(argv)
    if not (SRC / "scengen" / "__init__.py").is_file():
        print(f"error: no scengen package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from checks import Ledger
    from workloads import WORKLOADS, tiny

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    env = environment(args.seed)
    work = STATE / f"work-{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        setup = [set_up(workload, args.seed, work, ledger)
                 for _ in range(1 if args.tiny or args.trace else SETUP_REPS)]
        metrics, spans = measure(workload, args.seed, 0 if args.tiny else args.seconds,
                                 args.trace, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
        metrics["success_rate"] = (ledger.attempted - ledger.failed) / ledger.attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = END_TO_END_UNITS if not args.trace else {k: layer_unit(k) for k in metrics}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in sorted(units.items())}}

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"environment": env, **result, "spans": spans}, fh)
    print(f"environment {json.dumps(env)}")
    print(f"attempted {ledger.attempted} failed {ledger.failed} "
          f"error_rate {ledger.failed / ledger.attempted!r}")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
