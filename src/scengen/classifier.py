"""Two-model classification: one generative model per scenario class.

A sequence is scored under both models with the description-accuracy
metric and assigned to the class whose model describes it better. An
exact tie resolves to no_probable: in a safety assessment a tie is not
evidence that a scenario is probable.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .errors import AlphabetMismatchError, InputError
from .metrics import _check_model, _scores
from .psa import NO_PROBABLE, PROBABLE, ScenarioDataset

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
        _check_model(self.model_probable)
        _check_model(self.model_no_probable)
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


def _predictions(clf: TwoModelClassifier, data):
    """Arrays of the predicted labels and the DAs under the probable and
    the no-probable model of a list of sequences or a dataset, in input
    order, from rows padded once; a tie goes to no_probable."""
    da_p, da_n = _scores([clf.model_probable, clf.model_no_probable], data)[2]
    return np.where(da_p > da_n, PROBABLE, NO_PROBABLE), da_p, da_n


def _check_labels(labels, unlabeled=()) -> None:
    """Raise InputError on the first label outside LABELS and ``unlabeled``."""
    for label in labels:
        if label not in LABELS and label not in unlabeled:
            raise InputError(f"unknown label {label!r}")


def classify(clf: TwoModelClassifier, sequence) -> ClassificationResult:
    """Label a sequence by the larger description accuracy (ties -> no_probable)."""
    return ClassificationResult(*(column[0].item()
                                  for column in _predictions(clf, [sequence])))


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
    labels = [label for _, label in labeled]
    _check_labels(labels)
    predicted, da_p, da_n = _predictions(clf, [sequence for sequence, _ in labeled])
    # the index in LABELS of each true and each predicted label
    true, pred = np.array(labels) == NO_PROBABLE, predicted == NO_PROBABLE
    confusion = np.bincount(2 * true + pred, minlength=4).reshape(2, 2)
    mean_da = {label: {name: float(da[true == i].mean()) if confusion[i].any()
                       else float("nan")
                       for name, da in (("model_probable", da_p), ("model_no_probable", da_n))}
               for i, label in enumerate(LABELS)}
    return ClassifierEvaluation(np.count_nonzero(true == pred) / len(labels), confusion,
                                mean_da)


def write_classification_report(path, clf: TwoModelClassifier, data) -> Optional[float]:
    """Write the per-sequence CSV; returns accuracy when every record is labeled.

    ``data`` is a list of (sequence, label-or-None) pairs or a
    :class:`ScenarioDataset`; a label outside LABELS is an InputError, raised
    before the file is opened. Columns:
    sequence_id,true_label,pred_label,da_probable,da_no_probable.
    """
    if isinstance(data, ScenarioDataset):
        sequences, labels = data, data.labels
    else:
        data = list(data)
        sequences, labels = [sequence for sequence, _ in data], [label for _, label in data]
    if not labels:
        raise InputError("dataset must be nonempty")
    _check_labels(labels, unlabeled=(None,))
    predicted, da_p, da_n = (column.tolist() for column in _predictions(clf, sequences))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sequence_id", "true_label", "pred_label",
                         "da_probable", "da_no_probable"])
        # csv writes a missing (None) label as an empty field
        writer.writerows(zip(range(len(labels)), labels, predicted,
                             map(repr, da_p), map(repr, da_n)))
    if None in labels:
        return None
    return sum(map(operator.eq, labels, predicted)) / len(labels)
