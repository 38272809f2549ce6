"""Command-line front end.

Subcommands: make-dataset, train, eval, generate, classify, compare.
Every stochastic command takes a mandatory --seed and rerunning with
identical flags reproduces the data outputs byte-for-byte (timestamps
live only in the manifest written next to each run's outputs).

Exit codes: 0 success, 1 runtime failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
import time
from collections import Counter
from datetime import datetime, timezone
from itertools import chain, takewhile
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import TwoModelClassifier, write_classification_report
from .errors import AlphabetMismatchError, InputError, ScengenError, TrainingError
from .hmm import CategoricalHmm, baum_welch_fit, hmm_samples
from .metrics import _scores, write_da_report
from .psa import (SystemModel, apply_event, build_datasets, decode_scenario,
                  load_dataset)
from .qhmm import KrausModel, qhmm_samples, validate_kraus
from .serialization import load_model, save_model
from .trainer import (TrainConfig, TrainRecord, train_qhmm, train_qhmm_datasets,
                      write_training_log)


# symbols that generate draws and writes at a time (at least one row): its memory bound
_GENERATE_CHUNK = 4096 * 8

# the files each command writes into --out: main lists them in the manifest,
# and removes them and manifest.json when the command fails
_OUTPUTS = {
    "make-dataset": ("probable.jsonl", "no_probable.jsonl"),
    "train": ("model.json", "loss.csv"),
    "eval": ("report.csv",),
    "generate": ("sequences.jsonl",),
    "classify": ("report.csv",),
    "compare": ("comparison.csv",),
}


def _out_dir(args) -> Path:
    """--out, created just before a command writes, after its inputs have loaded."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


@functools.cache
def _environment() -> dict:
    """The numpy version, the BLAS library, the variables that set its
    thread count (None when unset) and the CPU count of a run.

    Read once per process: the BLAS library reads those variables when it
    loads, and reading them, the CPU count and numpy's build configuration
    took about 0.1 ms per call, 5-8% of a desk-sized ``make-dataset``.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # a numpy that only prints its build configuration
        blas = None
    return {"numpy": np.__version__, "blas": blas,
            **{name: os.environ.get(name)
               for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "cpu_count": os.cpu_count()}


def _write_manifest(args, out: Path, work, started_wall: str, started_clock: float) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    inputs = []
    for flag in ("model", "model_probable", "model_no_probable", "data", "system"):
        value = getattr(args, flag, None)  # compare's --data is a list
        if value is not None:
            inputs += value if isinstance(value, list) else [value]
    manifest = {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", getattr(args, "seeds", None)),
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(out / name) for name in _OUTPUTS[args.command]],
        "started_at": started_wall,
        "duration_seconds": time.perf_counter() - started_clock,
        "environment": _environment(),
    }
    if work:
        manifest["scoring"] = dict(work)
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")


def _int_list(text: str) -> list:
    """argparse type of a comma-separated integer list; empty fields are skipped."""
    try:
        return [int(s) for s in text.split(",") if s != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None


def _seed(text: str) -> int:
    """argparse type of a seed: numpy seeds its generators from non-negative
    integers only."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


def _seed_list(text: str) -> list:
    """argparse type of a comma-separated seed list; empty fields are skipped."""
    return [_seed(s) for s in text.split(",") if s != ""]


def _load_split(args, model_alphabet=None):
    """The nonempty ``args.split`` of ``args.data`` (every record for "all").

    Symbols outside ``model_alphabet``, when it is given, are rejected.
    """
    data = load_dataset(args.data, alphabet_size=getattr(args, "alphabet_size", None))
    data = data.subset(None if args.split == "all" else args.split)
    if not len(data):
        raise InputError(f"no sequences in split {args.split!r} of {args.data}")
    top = int(data.symbols.max())
    if model_alphabet is not None and top >= model_alphabet:
        raise AlphabetMismatchError(
            f"data uses symbol {top} but the model alphabet has size {model_alphabet}")
    return data


def _qhmm_config(args, seed: int) -> TrainConfig:
    return TrainConfig(dim=args.K, learning_rate=args.lr, decay=args.decay,
                       num_batches=args.batches, epochs=args.epochs,
                       multiplicity=args.mu, seed=seed)


def _train_one(kind: str, sequences, alphabet_size: int, args, seed: int):
    """Train one model of the requested kind; returns (model, loss records)."""
    if kind == "qhmm":
        return train_qhmm(sequences, _qhmm_config(args, seed), alphabet_size)
    result = baum_welch_fit(sequences, args.K, alphabet_size=alphabet_size,
                            max_iters=args.epochs, tol=args.tol, seed=seed)
    records = [TrainRecord(i, 0, -ll / len(sequences), 0.0)
               for i, ll in enumerate(result.log_likelihoods)]
    return result.model, records


# each command writes its _OUTPUTS files, and the scoring commands add their
# scoring work (see metrics._scores) to ``work``; main writes the manifest
def cmd_make_dataset(args, work: Counter) -> None:
    build_datasets(SystemModel.load(args.system), max_len=args.max_len,
                   p_min=args.p_min, test_fraction=args.test_fraction,
                   seed=args.seed, out_dir=args.out)


def cmd_train(args, work: Counter) -> None:
    data = _load_split(args)
    model, records = _train_one(args.kind, data.sequences(), data.alphabet_size,
                                args, args.seed)
    if isinstance(model, KrausModel) and not validate_kraus(model).passes:
        raise TrainingError("trained model fails the completeness check")
    out = _out_dir(args)
    save_model(model, out / "model.json")
    write_training_log(out / "loss.csv", records)


def cmd_eval(args, work: Counter) -> None:
    model = load_model(args.model)
    data = _load_split(args, model.alphabet_size)
    mean = write_da_report(_out_dir(args) / "report.csv", model, data, work=work)
    print(f"mean_da {mean!r}")


def cmd_generate(args, work: Counter) -> None:
    model = load_model(args.model)
    prefix = tuple(args.prefix)
    system = SystemModel.load(args.system) if args.system else None
    if system is not None and system.alphabet_size != model.alphabet_size:
        raise AlphabetMismatchError(f"the system alphabet has size {system.alphabet_size} "
                                    f"but the model alphabet has size {model.alphabet_size}")
    # generated sequences continue the prefix, so step decoding starts from
    # the system state the prefix walks to (all-up when there is none)
    decode_start = 0
    if system is not None and prefix:
        try:
            for idx, action in decode_scenario(system, prefix):
                decode_start = apply_event(decode_start, idx, action)
        except InputError as exc:
            print(f"warning: prefix is not a legal walk ({exc}); "
                  "decoding from the all-up state", file=sys.stderr)
    sample = hmm_samples if isinstance(model, CategoricalHmm) else qhmm_samples
    # rows are drawn and written a chunk at a time from one generator (one draw
    # at least, which checks the length, count and prefix); row i of a call
    # equals the i-th one-row call, so the file does not depend on the chunk
    # size. Opening the file after the draw saves about 3% of a 100-row call.
    rng = np.random.default_rng(args.seed)
    rows = max(1, _GENERATE_CHUNK // max(args.length, 1))
    path, illegal = _out_dir(args) / "sequences.jsonl", 0
    for start in range(0, max(args.count, 1), rows):
        chunk = sample(model, args.length, min(args.count - start, rows), rng, prefix=prefix)
        lines = {}  # the chunk's line of each distinct sample, and if it is illegal
        text = []  # the chunk's lines in row order
        for sequence in map(tuple, chunk.tolist()):
            if sequence not in lines:
                lines[sequence] = _sequence_line(sequence, system, decode_start)
            line, bad = lines[sequence]
            illegal += bad
            text.append(line)
        with open(path, "a" if start else "w") as fh:
            fh.writelines(text)
    if illegal:
        print(f"warning: {illegal} of {args.count} sequences do not decode "
              "as legal walks", file=sys.stderr)


def _sequence_line(sequence: tuple, system, decode_start: int):
    """The JSON line of one generated sequence, decoded into steps from
    ``decode_start`` when a system is given, and whether it failed to decode."""
    payload = {"sequence": list(sequence)}
    if system is None:
        return json.dumps(payload) + "\n", False
    try:
        steps = decode_scenario(system, sequence, initial_state=decode_start)
        payload["steps"] = [[system.events[idx].id, action] for idx, action in steps]
    except InputError:
        payload["steps"] = None
    return json.dumps(payload) + "\n", payload["steps"] is None


def cmd_classify(args, work: Counter) -> None:
    clf = TwoModelClassifier(load_model(args.model_probable),
                             load_model(args.model_no_probable))
    data = _load_split(args, clf.alphabet_size)
    accuracy = write_classification_report(_out_dir(args) / "report.csv", clf, data,
                                           work=work)
    if accuracy is not None:
        print(f"accuracy {accuracy!r}")


def cmd_compare(args, work: Counter) -> None:
    if not args.seeds:
        raise InputError("at least one seed is required")
    datasets = []
    for data_path in args.data:
        data = load_dataset(data_path)
        train, test = data.subset("train"), data.subset("test")
        if not len(train) or not len(test):
            raise InputError(f"{data_path}: both train and test splits are required")
        datasets.append((data_path, data.alphabet_size, train.sequences(), train, test))
    # one (model, records) pair or TrainingError per dataset and seed; the
    # QHMM runs of all datasets train in shared stacks
    qhmm_fits = train_qhmm_datasets([(seqs, alphabet_size)
                                     for _, alphabet_size, seqs, _, _ in datasets],
                                    _qhmm_config(args, args.seeds[0]), args.seeds)
    rows = []
    for (data_path, alphabet_size, train_seqs, train, test), qhmm in zip(datasets,
                                                                          qhmm_fits):
        # the HMM seeds train one at a time up to the first failure
        hmm_fits = []
        for seed in args.seeds:
            try:
                hmm_fits.append(_train_one("hmm", train_seqs, alphabet_size, args, seed))
            except TrainingError as exc:
                hmm_fits.append(exc)
                break
        for kind, fits in (("hmm", hmm_fits), ("qhmm", qhmm)):
            failure = next(((seed, fit) for seed, fit in zip(args.seeds, fits)
                            if isinstance(fit, TrainingError)), None)
            if failure is not None:
                print(f"warning: {kind} training failed on {data_path} "
                      f"(seed {failure[0]}): {failure[1]}", file=sys.stderr)
                rows += [[str(data_path), kind, split, "failed", "failed"]
                         for split in ("train", "test")]
                continue
            # each split is padded once and scored under all of the kind's models
            for split, split_data in (("train", train), ("test", test)):
                values = _scores([model for model, _ in fits], split_data,
                                 work=work)[2].mean(axis=1)
                rows.append([str(data_path), kind, split,
                             repr(float(values.mean())), repr(float(values.std()))])
    with open(_out_dir(args) / "comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "model_kind", "split", "mean_da", "std_da"])
        writer.writerows(rows)


def _add_training_options(p: argparse.ArgumentParser) -> None:
    """The model and training options that ``train`` and ``compare`` share."""
    p.add_argument("--K", type=int, required=True, help="hidden dimension")
    p.add_argument("--mu", type=int, default=1, help="Kraus operators per symbol")
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--decay", type=float, default=0.95)
    p.add_argument("--batches", type=int, default=5)
    p.add_argument("--epochs", type=int, default=100,
                   help="epochs (qhmm) or EM iterations (hmm)")
    p.add_argument("--tol", type=float, default=1e-6, help="EM stopping tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scengen",
        description="Learn and use generative models of failure scenarios.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-dataset",
                       help="enumerate a system and write labeled scenario datasets")
    p.add_argument("--system", required=True, help="system JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--p-min", type=float, default=1e-3)
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--seed", type=_seed, required=True)
    p.set_defaults(func=cmd_make_dataset)

    p = sub.add_parser("train", help="fit a model to a dataset split")
    p.add_argument("--kind", choices=("hmm", "qhmm"), required=True)
    p.add_argument("--data", required=True, help="dataset JSONL path")
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("train", "test", "all"), default="train")
    _add_training_options(p)
    p.add_argument("--alphabet-size", type=int, default=None)
    p.add_argument("--seed", type=_seed, required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a dataset and write a DA report")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("train", "test", "all"), default="all")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("generate", help="sample sequences from a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--prefix", type=_int_list, default="",
                   help="comma-separated symbols of the event history to "
                        "condition on (filters the belief before sampling)")
    p.add_argument("--system", default=None,
                   help="system JSON; when given, sequences are decoded "
                        "into event/action steps")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("classify", help="apply a two-model classifier to a dataset")
    p.add_argument("--model-probable", required=True)
    p.add_argument("--model-no-probable", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("train", "test", "all"), default="all")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("compare",
                       help="train both model kinds on each dataset and tabulate mean DA")
    p.add_argument("--data", action="append", required=True,
                   help="dataset JSONL path (repeatable)")
    p.add_argument("--out", required=True)
    _add_training_options(p)
    p.add_argument("--seeds", type=_seed_list, required=True,
                   help="comma-separated seed list")
    p.set_defaults(func=cmd_compare)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser: building the tree costs far more than a parse,
    and parsing leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started, clock = datetime.now(timezone.utc).isoformat(), time.perf_counter()
    out, work = Path(args.out), Counter()
    created = list(takewhile(lambda d: not d.exists(), chain([out], out.parents)))
    try:
        args.func(args, work)
        _write_manifest(args, out, work, started, clock)
        return 0
    except Exception as exc:
        # a command leaves its outputs and manifest, or none of its files; the
        # manifest goes first, so a run whose files cannot all go never looks done
        with contextlib.suppress(OSError):
            for name in ("manifest.json", *_OUTPUTS[args.command]):
                (out / name).unlink(missing_ok=True)
            for directory in created:  # --out and the parents this call made, deepest first
                directory.rmdir()
        if isinstance(exc, FileNotFoundError):
            print(f"error: missing file: {exc.filename}", file=sys.stderr)
            return 2
        if not isinstance(exc, (ScengenError, OSError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1


if __name__ == "__main__":
    sys.exit(main())
