import csv

import numpy as np
import pytest

from scengen import (AlphabetMismatchError, CategoricalHmm, InputError,
                     TwoModelClassifier, classify, da_for_sequence, embed_hmm,
                     evaluate_classifier, write_classification_report)
from scengen.classifier import LABELS, _predictions


def uniform_hmm(alphabet_size=2):
    return CategoricalHmm([[1.0]], [np.full(alphabet_size, 1.0 / alphabet_size)], [1.0])


@pytest.fixture
def separating_clf(det_hmm):
    # deterministic model is certain about all-zero sequences (DA = 1),
    # the uniform model scores them exactly 0
    return TwoModelClassifier(det_hmm, uniform_hmm())


class TestClassify:
    def test_perfect_model_wins(self, separating_clf):
        result = classify(separating_clf, [0, 0, 0])
        assert result.label == "probable"
        assert result.da_probable == 1.0
        assert result.da_no_probable == pytest.approx(0.0, abs=1e-12)

    def test_ties_resolve_to_no_probable(self, ref_hmm):
        clf = TwoModelClassifier(ref_hmm, ref_hmm)
        for seq in ([0], [0, 1], [1, 1, 0]):
            assert classify(clf, seq).label == "no_probable"

    def test_swapping_models_flips_every_non_tied_label(self, det_hmm, ref_hmm):
        clf = TwoModelClassifier(det_hmm, ref_hmm)
        flipped = TwoModelClassifier(ref_hmm, det_hmm)
        rng = np.random.default_rng(0)
        for _ in range(20):
            seq = list(rng.integers(0, 2, size=int(rng.integers(1, 6))))
            a = classify(clf, seq)
            b = classify(flipped, seq)
            assert a.da_probable == b.da_no_probable
            if a.da_probable != a.da_no_probable:
                assert a.label != b.label

    def test_mixed_model_kinds_share_the_code_path(self, det_hmm):
        clf = TwoModelClassifier(embed_hmm(det_hmm), uniform_hmm())
        assert classify(clf, [0, 0]).label == "probable"

    def test_alphabet_mismatch_rejected(self, det_hmm):
        with pytest.raises(AlphabetMismatchError):
            TwoModelClassifier(det_hmm, uniform_hmm(3))


class TestEvaluate:
    def test_perfect_separation(self, separating_clf):
        labeled = [([0, 0], "probable"), ([0, 0, 0], "probable"),
                   ([1, 1], "no_probable"), ([0, 1], "no_probable")]
        ev = evaluate_classifier(separating_clf, labeled)
        assert ev.accuracy == 1.0
        np.testing.assert_array_equal(ev.confusion, [[2, 0], [0, 2]])

    def test_accuracy_matches_per_sequence_recomputation(self, ref_hmm, det_hmm):
        clf = TwoModelClassifier(det_hmm, ref_hmm)
        rng = np.random.default_rng(1)
        labeled = [(list(rng.integers(0, 2, size=4)),
                    "probable" if rng.random() < 0.5 else "no_probable")
                   for _ in range(30)]
        ev = evaluate_classifier(clf, labeled)
        want = np.mean([classify(clf, seq).label == label for seq, label in labeled])
        assert ev.accuracy == pytest.approx(want, abs=1e-15)
        assert ev.confusion.sum() == 30

    def test_matches_per_record_tallies(self, ref_hmm):
        # the confusion counts, accuracy and per-class means of the
        # per-record results, bit for bit
        clf = TwoModelClassifier(ref_hmm, uniform_hmm())
        rng = np.random.default_rng(2)
        labeled = [(list(rng.integers(0, 2, size=int(rng.integers(1, 7)))),
                    LABELS[int(rng.random() < 0.4)]) for _ in range(40)]
        results = list(zip(*(column.tolist() for column in
                             _predictions(clf, [sequence for sequence, _ in labeled]))))
        confusion = np.zeros((2, 2), dtype=int)
        for (_, label), (predicted, _, _) in zip(labeled, results):
            confusion[LABELS.index(label), LABELS.index(predicted)] += 1
        ev = evaluate_classifier(clf, labeled)
        np.testing.assert_array_equal(ev.confusion, confusion)
        assert ev.confusion.dtype == confusion.dtype
        assert ev.accuracy == int(np.trace(confusion)) / len(labeled)
        for label in LABELS:
            mine = [result for (_, true), result in zip(labeled, results) if true == label]
            assert ev.mean_da[label] == {
                "model_probable": float(np.mean([da_p for _, da_p, _ in mine])),
                "model_no_probable": float(np.mean([da_n for _, _, da_n in mine]))}

    def test_single_sequence_accuracy_is_zero_or_one(self, separating_clf):
        assert evaluate_classifier(separating_clf, [([0, 0], "probable")]).accuracy == 1.0
        assert evaluate_classifier(separating_clf, [([0, 0], "no_probable")]).accuracy == 0.0

    def test_mean_da_structure(self, separating_clf):
        labeled = [([0, 0], "probable"), ([1, 0], "no_probable")]
        ev = evaluate_classifier(separating_clf, labeled)
        assert ev.mean_da["probable"]["model_probable"] == 1.0
        assert ev.mean_da["no_probable"]["model_probable"] == -1.0
        da_uniform = da_for_sequence(uniform_hmm(), [1, 0])
        assert ev.mean_da["no_probable"]["model_no_probable"] == pytest.approx(da_uniform)

    def test_absent_class_mean_is_nan(self, separating_clf):
        ev = evaluate_classifier(separating_clf, [([0, 0], "probable")])
        assert np.isnan(ev.mean_da["no_probable"]["model_probable"])

    def test_input_validation(self, separating_clf):
        with pytest.raises(InputError):
            evaluate_classifier(separating_clf, [])
        with pytest.raises(InputError):
            evaluate_classifier(separating_clf, [([0, 0], "maybe")])
        with pytest.raises(InputError, match="unknown label None"):
            evaluate_classifier(separating_clf, [([0, 0], None)])


class TestReport:
    def test_labeled_report_returns_accuracy(self, separating_clf, tmp_path):
        path = tmp_path / "report.csv"
        labeled = [([0, 0], "probable"), ([1, 1], "no_probable")]
        accuracy = write_classification_report(path, separating_clf, labeled)
        assert accuracy == 1.0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sequence_id", "true_label", "pred_label",
                           "da_probable", "da_no_probable"]
        assert len(rows) == 3

    def test_unknown_label_is_rejected_before_writing(self, separating_clf, tmp_path):
        path = tmp_path / "report.csv"
        records = [([0, 0], None), ([1, 1], "Probable")]
        with pytest.raises(InputError, match="unknown label 'Probable'"):
            write_classification_report(path, separating_clf, records)
        assert not path.exists()
        with pytest.raises(InputError, match="unknown label 'Probable'"):
            evaluate_classifier(separating_clf, records[1:])

    def test_unlabeled_report_returns_none(self, separating_clf, tmp_path):
        path = tmp_path / "report.csv"
        accuracy = write_classification_report(
            path, separating_clf, [([0, 0], None), ([1, 1], "no_probable")])
        assert accuracy is None
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][1] == ""
