"""Two-model classification: one generative model per scenario class.

A sequence is scored under both models with the description-accuracy
metric and assigned to the class whose model describes it better. An
exact tie resolves to no_probable: in a safety assessment a tie is not
evidence that a scenario is probable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .errors import AlphabetMismatchError, InputError
from .metrics import _scores
from .psa import NO_PROBABLE, PROBABLE

LABELS = (PROBABLE, NO_PROBABLE)


@dataclass
class TwoModelClassifier:
    """A model of the probable class paired with a model of the no-probable class.

    Either field may be a CategoricalHmm or a KrausModel; both kinds run
    through the same scoring path, so classical/quantum pairs are
    comparable like for like.
    """

    model_probable: object
    model_no_probable: object

    def __post_init__(self):
        if self.model_probable.alphabet_size != self.model_no_probable.alphabet_size:
            raise AlphabetMismatchError(
                f"models disagree on alphabet size "
                f"({self.model_probable.alphabet_size} vs "
                f"{self.model_no_probable.alphabet_size})")

    @property
    def alphabet_size(self) -> int:
        return self.model_probable.alphabet_size


@dataclass(frozen=True)
class ClassificationResult:
    label: str
    da_probable: float
    da_no_probable: float


def _classify_all(clf: TwoModelClassifier, sequences: list) -> list:
    """One ClassificationResult per sequence, each model scoring the whole list once."""
    _, da_p = _scores(clf.model_probable, sequences)
    _, da_n = _scores(clf.model_no_probable, sequences)
    return [ClassificationResult(PROBABLE if p > n else NO_PROBABLE, p, n)
            for p, n in zip(da_p, da_n)]


def classify(clf: TwoModelClassifier, sequence) -> ClassificationResult:
    """Label a sequence by the larger description accuracy (ties -> no_probable)."""
    return _classify_all(clf, [sequence])[0]


@dataclass
class ClassifierEvaluation:
    """Accuracy, 2x2 confusion counts, and per-class mean DA under each model.

    ``confusion[i, j]`` counts true label ``LABELS[i]`` predicted as
    ``LABELS[j]``. ``mean_da[true_label]`` maps "model_probable" /
    "model_no_probable" to that model's mean score over the class (NaN for
    an absent class).
    """

    accuracy: float
    confusion: np.ndarray
    mean_da: Dict[str, Dict[str, float]]


def evaluate_classifier(clf: TwoModelClassifier, labeled) -> ClassifierEvaluation:
    """Score a list of (sequence, label) pairs against ground truth."""
    labeled = list(labeled)
    if not labeled:
        raise InputError("labeled dataset must be nonempty")
    results = _classify_all(clf, [sequence for sequence, _ in labeled])
    confusion = np.zeros((2, 2), dtype=int)
    per_class = {label: {"model_probable": [], "model_no_probable": []}
                 for label in LABELS}
    correct = 0
    for (_, label), result in zip(labeled, results):
        if label not in LABELS:
            raise InputError(f"unknown label {label!r}")
        confusion[LABELS.index(label), LABELS.index(result.label)] += 1
        correct += int(result.label == label)
        per_class[label]["model_probable"].append(result.da_probable)
        per_class[label]["model_no_probable"].append(result.da_no_probable)
    mean_da = {
        label: {name: (float(np.mean(vals)) if vals else float("nan"))
                for name, vals in scores.items()}
        for label, scores in per_class.items()
    }
    return ClassifierEvaluation(correct / len(labeled), confusion, mean_da)


def write_classification_report(path, clf: TwoModelClassifier, data) -> Optional[float]:
    """Write the per-sequence CSV; returns accuracy when every record is labeled.

    ``data`` is a list of (sequence, label-or-None) pairs. Columns:
    sequence_id,true_label,pred_label,da_probable,da_no_probable.
    """
    data = list(data)
    if not data:
        raise InputError("dataset must be nonempty")
    results = _classify_all(clf, [sequence for sequence, _ in data])
    correct = 0
    labeled = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sequence_id", "true_label", "pred_label",
                         "da_probable", "da_no_probable"])
        for i, ((_, label), result) in enumerate(zip(data, results)):
            if label is not None:
                labeled += 1
                correct += int(result.label == label)
            writer.writerow([i, label if label is not None else "",
                             result.label, repr(result.da_probable),
                             repr(result.da_no_probable)])
    if labeled == len(data):
        return correct / len(data)
    return None
