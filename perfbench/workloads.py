"""The four benchmark workloads as sequences of scengen CLI calls.

Every workload runs the whole README pipeline in a closed loop
(make-dataset -> train -> eval -> classify -> generate -> compare), so each
end-to-end metric is measured on each workload; the sizes choose which
stage dominates. Why each workload exists is in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Tuple

LEARNING_RATE = 0.05
DECAY = 0.95
# stages whose calls a workload may repeat within one pass
READ_STAGES = ("make_dataset", "eval", "classify")

# the package's reference systems, written by the benchmark so the program
# reads only generated inputs
SYSTEMS = {
    "three": {"name": "three-event-reference",
              "events": [{"id": "A", "p_down": 0.1, "p_repair": 0.3},
                         {"id": "B", "p_down": 0.2, "p_repair": 0.4},
                         {"id": "C", "p_down": 0.05, "p_repair": 0.5}],
              "severe_states": [["A", "B"]]},
    "four": {"name": "four-event-reference",
             "events": [{"id": "A", "p_down": 0.08, "p_repair": 0.4},
                        {"id": "B", "p_down": 0.15, "p_repair": 0.35},
                        {"id": "C", "p_down": 0.06, "p_repair": 0.5},
                        {"id": "D", "p_down": 0.12, "p_repair": 0.45}],
             "severe_states": [["A", "B"], ["C", "D"]]},
}
# exact (probable, no_probable) scenario counts at p_min = 1e-3
SCENARIO_COUNTS = {("three", 4): (8, 8), ("four", 6): (12, 424), ("four", 8): (12, 3496)}


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    max_len: int
    dim: int                  # K of every trained model
    mu: int                   # Kraus operators per symbol
    epochs_probable: int      # QHMM epochs on the probable class
    epochs_no_probable: int   # QHMM epochs on the no_probable class
    hmm_iters: int            # EM iterations of every HMM fit
    generate_count: int       # sequences drawn per generating model
    compare_seeds: int
    compare_epochs: int
    compare_both: bool        # compare both classes, else the probable class only
    # (model, class) pairs that eval scores on the held-out split; the models
    # are qp/hp (QHMM/HMM of the probable class) and qn/hn (no_probable)
    evals: Tuple[Tuple[str, str], ...] = (("qn", "no_probable"), ("hn", "no_probable"))
    # the classifier pairs qp with this no_probable model
    classify_against: str = "hn"
    # desk is the README/C08 reference run: split seed 9, training seed 0
    fixed_inputs: bool = False
    # READ_STAGES calls are issued this many times in a row per pass: at
    # desk scale one call takes milliseconds, too short to time steadily
    read_repeats: int = 1
    # max_len of the dataset the no_probable models are trained on in set-up;
    # None trains them inside the timed pipeline
    setup_max_len: Optional[int] = None


WORKLOADS = {w.name: w for w in (
    Workload("desk", "three", 4, dim=4, mu=1, epochs_probable=100,
             epochs_no_probable=100, hmm_iters=100, generate_count=100,
             compare_seeds=3, compare_epochs=100, compare_both=True,
             evals=(("qp", "probable"), ("qn", "no_probable")),
             classify_against="qn", fixed_inputs=True, read_repeats=10),
    Workload("four-train", "four", 6, dim=4, mu=1, epochs_probable=50,
             epochs_no_probable=10, hmm_iters=10, generate_count=100,
             compare_seeds=1, compare_epochs=20, compare_both=False),
    Workload("four-score", "four", 8, dim=4, mu=1, epochs_probable=100,
             epochs_no_probable=15, hmm_iters=30, generate_count=400,
             compare_seeds=1, compare_epochs=20, compare_both=False,
             setup_max_len=6),
    Workload("wide", "four", 6, dim=16, mu=2, epochs_probable=20,
             epochs_no_probable=4, hmm_iters=5, generate_count=50,
             compare_seeds=1, compare_epochs=5, compare_both=False),
)}


def tiny(workload: Workload) -> Workload:
    """The same pipeline at the smallest sizes, for the smoke test."""
    return replace(workload, epochs_probable=1, epochs_no_probable=1,
                   hmm_iters=1, generate_count=3, compare_seeds=1,
                   compare_epochs=1, read_repeats=1)


Stage = Tuple[str, List[str]]


def write_system(workload: Workload, work: Path) -> Path:
    path = work / "system.json"
    path.write_text(json.dumps(SYSTEMS[workload.system], indent=2) + "\n")
    return path


def _train(kind: str, data: Path, out: Path, w: Workload, epochs: int, seed: int) -> Stage:
    argv = ["train", "--kind", kind, "--data", str(data), "--out", str(out),
            "--K", str(w.dim), "--epochs", str(epochs), "--seed", str(seed)]
    if kind == "qhmm":
        argv += ["--mu", str(w.mu), "--lr", str(LEARNING_RATE), "--decay", str(DECAY)]
    return f"train_{kind}", argv


def _make_dataset(system: Path, out: Path, max_len: int, seed: int) -> Stage:
    return "make_dataset", ["make-dataset", "--system", str(system), "--out", str(out),
                            "--max-len", str(max_len), "--seed", str(seed)]


def setup_stages(w: Workload, seed: int, work: Path) -> List[Stage]:
    """Untimed CLI calls that make the models the timed pipeline only reads."""
    if w.setup_max_len is None:
        return []
    data = work / "setup" / "data"
    return [
        _make_dataset(work / "system.json", data, w.setup_max_len, seed),
        _train("qhmm", data / "no_probable.jsonl", work / "setup" / "qn", w,
               w.epochs_no_probable, seed),
        _train("hmm", data / "no_probable.jsonl", work / "setup" / "hn", w,
               w.hmm_iters, seed),
    ]


def pipeline(w: Workload, seed: int, work: Path) -> List[Stage]:
    """The timed closed loop; each call starts when the previous one returns."""
    split_seed, train_seed = (9, 0) if w.fixed_inputs else (seed, seed)
    data = work / "data"
    probable, no_probable = data / "probable.jsonl", data / "no_probable.jsonl"
    models = {name: work / name / "model.json" for name in ("qp", "hp", "qn", "hn")}
    if w.setup_max_len is not None:
        models.update(qn=work / "setup" / "qn" / "model.json",
                      hn=work / "setup" / "hn" / "model.json")
    stages = [_make_dataset(work / "system.json", data, w.max_len, split_seed)] * w.read_repeats
    stages += [
        _train("qhmm", probable, work / "qp", w, w.epochs_probable, train_seed),
        _train("hmm", probable, work / "hp", w, w.hmm_iters, train_seed),
    ]
    if w.setup_max_len is None:
        stages += [
            _train("qhmm", no_probable, work / "qn", w, w.epochs_no_probable, train_seed),
            _train("hmm", no_probable, work / "hn", w, w.hmm_iters, train_seed),
        ]
    for name, label in w.evals:
        stages += [("eval", ["eval", "--model", str(models[name]),
                             "--data", str(data / f"{label}.jsonl"), "--split", "test",
                             "--out", str(work / f"eval-{name}")])] * w.read_repeats
    # four-score classifies every scenario, the others the held-out split
    split = "all" if w.setup_max_len is not None else "test"
    for data_path, out in ((probable, "clf-p"), (no_probable, "clf-n")):
        stages += [("classify", [
            "classify", "--model-probable", str(models["qp"]),
            "--model-no-probable", str(models[w.classify_against]),
            "--data", str(data_path), "--split", split,
            "--out", str(work / out)])] * w.read_repeats
    for name in ("qp", "hp"):
        stages.append(("generate", [
            "generate", "--model", str(models[name]),
            "--out", str(work / f"gen-{name}"), "--count", str(w.generate_count),
            "--length", str(w.max_len), "--seed", str(seed), "--prefix", "0",
            "--system", str(work / "system.json")]))
    compare_data = [probable, no_probable] if w.compare_both else [probable]
    argv = ["compare", "--out", str(work / "cmp"), "--K", str(w.dim), "--mu", str(w.mu),
            "--lr", str(LEARNING_RATE), "--decay", str(DECAY),
            "--epochs", str(w.compare_epochs),
            "--seeds", ",".join(str(seed + i) for i in range(w.compare_seeds))]
    for path in compare_data:
        argv += ["--data", str(path)]
    stages.append(("compare", argv))
    return stages
