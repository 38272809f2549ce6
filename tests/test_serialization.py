import csv
import io
import json
import math

import numpy as np
import pytest

from scengen import (CategoricalHmm, InputError, KrausModel, TrainRecord, TwoModelClassifier,
                     classifier, load_model, metrics, save_model, write_classification_report,
                     write_da_report, write_training_log)
from scengen.serialization import _json_text

from oracles import random_hmm, random_kraus_model


def json_bytes(model):
    return (json.dumps(model.to_dict(), indent=2) + "\n").encode()


class TestSaveModel:
    @pytest.mark.parametrize("kind", ["qhmm", "hmm"])
    @pytest.mark.parametrize("dim, alphabet, mu", [(1, 2, 1), (2, 3, 2), (3, 8, 1),
                                                   (16, 8, 2)])
    def test_bytes_equal_json_dumps_with_an_indent(self, tmp_path, kind, dim, alphabet, mu):
        rng = np.random.default_rng(100 * dim + 10 * alphabet + mu)
        for seed in range(3):
            model = (random_kraus_model(rng, dim, alphabet, mu) if kind == "qhmm"
                     else random_hmm(rng, dim, alphabet))
            path = tmp_path / f"{seed}.json"
            save_model(model, path)
            assert path.read_bytes() == json_bytes(model)
            loaded = load_model(path)
            assert type(loaded) is type(model)
            for key, value in model.to_dict().items():
                assert loaded.to_dict()[key] == value

    def test_non_finite_and_signed_zero_entries(self, tmp_path):
        # a model holds finite entries only, so the json spellings of nan and
        # inf are checked on a model's payload with such entries put in
        rng = np.random.default_rng(3)
        model = random_kraus_model(rng, 2, 3, 2)
        ops = model.operators.copy()
        ops[0, 0] = [[0.5, 1.0], [-2.0, -0.0]]
        ops[1, 1, 0, 0] = complex(-0.0, 5e-324)
        ops[2, 0, 1, 1] = complex(1e308, -0.0)
        model = KrausModel(ops, model.initial_state)
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_bytes()
        assert text == json_bytes(model)
        for token in (b"-0.0", b"5e-324", b"1e+308"):
            assert token in text
        payload = model.to_dict()
        payload["kraus_re"][0][0] = [[np.nan, np.inf], [-np.inf, -0.0]]
        payload["kraus_im"][2][0][1][1] = -np.nan
        text = "".join(_json_text(payload))
        assert text == json.dumps(payload, indent=2) + "\n"
        for token in ("NaN", "Infinity", "-Infinity", "-0.0"):
            assert token in text

    @pytest.mark.parametrize("payload", [
        {"a": []}, {"a": [[], []]}, {"a": [[[], []], [[], []]]},
        {"a": np.zeros((2, 0, 3)).tolist(), "b": np.zeros((0, 3)).tolist()},
        {"type": "x", "K": 1, "v": [[[[0.5]]]], "w": 1e-300, "s": "a, [b]"},
    ])
    def test_empty_lists_and_scalars(self, payload):
        assert "".join(_json_text(payload)) == json.dumps(payload, indent=2) + "\n"


class TestLoadModel:
    @pytest.mark.parametrize("kind, field, value", [
        ("hmm", "transition", np.nan), ("hmm", "emission", np.nan), ("hmm", "start", np.nan),
        ("hmm", "emission", np.inf), ("qhmm", "kraus_re", np.nan), ("qhmm", "pi0_re", np.nan),
        ("qhmm", "kraus_im", -np.inf), ("qhmm", "pi0_im", np.nan),
    ])
    def test_non_finite_parameters_are_malformed(self, tmp_path, kind, field, value):
        rng = np.random.default_rng(4)
        model = random_kraus_model(rng, 2, 3) if kind == "qhmm" else random_hmm(rng, 2, 3)
        payload = model.to_dict()
        entries = np.array(payload[field])
        entries.flat[0] = value
        payload[field] = entries.tolist()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError, match="malformed model"):
            load_model(path)


def csv_writer_bytes(header, rows):
    """The bytes ``csv.writer`` writes for a header and rows: the reference
    for the report writers, which write from columns."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode()


# floats whose repr is unusual: a signed zero, the smallest subnormal, a
# large exponent, infinities and the -1 DA sentinel
LOG_PROBS = [-math.inf, -0.0, -5e-324, -1e300, 0.0, -2.5]
DAS = [-1.0, -0.0, 5e-324, 1e300, 1.0, -0.3]


class TestReportWriters:
    """The three per-row writers write the bytes ``csv.writer`` wrote."""

    @pytest.mark.parametrize("rows", [1, len(DAS)])
    def test_da_report(self, monkeypatch, tmp_path, rows):
        lengths = np.arange(1, rows + 1)
        log_probs, das = np.array(LOG_PROBS[:rows]), np.array(DAS[:rows])
        monkeypatch.setattr(metrics, "_scores",
                            lambda models, data, work=None: (lengths, log_probs[None], das[None]))
        path = tmp_path / "report.csv"
        write_da_report(path, None, None)
        assert path.read_bytes() == csv_writer_bytes(
            ["sequence_id", "length", "log_prob", "da"],
            zip(range(rows), lengths.tolist(), map(repr, LOG_PROBS), map(repr, DAS)))

    def test_da_report_of_a_model(self, tmp_path, det_hmm):
        # [1, 0] cannot be produced: a -inf log-probability and the -1 sentinel
        sequences = [[0, 0], [1, 0], [0]]
        path = tmp_path / "report.csv"
        write_da_report(path, det_hmm, sequences)
        lengths, (log_probs,), (das,) = metrics._scores([det_hmm], sequences)
        assert log_probs[1] == -math.inf and das[1] == -1.0
        assert path.read_bytes() == csv_writer_bytes(
            ["sequence_id", "length", "log_prob", "da"],
            zip(range(3), lengths.tolist(), map(repr, log_probs.tolist()),
                map(repr, das.tolist())))

    @pytest.mark.parametrize("rows", [1, len(DAS)])
    def test_classification_report(self, monkeypatch, tmp_path, det_hmm, rows):
        # unlabeled records, which csv writes as an empty field, among
        # labeled ones
        labels = [None, "probable", "no_probable", None, "no_probable", "probable"][:rows]
        da_p, da_n = np.array(DAS[:rows]), np.array(DAS[::-1][:rows])
        monkeypatch.setattr(classifier, "_scores",
                            lambda models, data, work=None: (None, None, np.array([da_p, da_n])))
        clf = TwoModelClassifier(det_hmm, det_hmm)
        path = tmp_path / "report.csv"
        write_classification_report(path, clf, [([0], label) for label in labels])
        predicted = ["probable" if p > n else "no_probable" for p, n in zip(da_p, da_n)]
        assert path.read_bytes() == csv_writer_bytes(
            ["sequence_id", "true_label", "pred_label", "da_probable", "da_no_probable"],
            zip(range(rows), labels, predicted, map(repr, da_p.tolist()),
                map(repr, da_n.tolist())))

    def test_classification_report_of_models(self, tmp_path, det_hmm):
        # the -1 sentinel under det_hmm, and an unlabeled record
        uniform = CategoricalHmm([[1.0]], [[0.5, 0.5]], [1.0])
        clf = TwoModelClassifier(det_hmm, uniform)
        records = [([0, 0], "probable"), ([1, 0], None), ([1, 1], "no_probable")]
        path = tmp_path / "report.csv"
        assert write_classification_report(path, clf, records) is None
        predicted, da_p, da_n = classifier._predictions(clf, [seq for seq, _ in records])
        assert da_p[1] == -1.0
        assert path.read_bytes() == csv_writer_bytes(
            ["sequence_id", "true_label", "pred_label", "da_probable", "da_no_probable"],
            zip(range(3), [label for _, label in records], predicted.tolist(),
                map(repr, da_p.tolist()), map(repr, da_n.tolist())))

    def test_a_label_that_needs_quoting_is_unknown(self, tmp_path, det_hmm):
        path = tmp_path / "report.csv"
        with pytest.raises(InputError, match="unknown label 'no,probable'"):
            write_classification_report(path, TwoModelClassifier(det_hmm, det_hmm),
                                        [([0], "probable"), ([0], "no,probable")])
        assert not path.exists()

    @pytest.mark.parametrize("rows", [0, 1, len(DAS)])
    def test_training_log(self, tmp_path, rows):
        records = [TrainRecord(epoch, epoch % 3, loss, tau)
                   for epoch, loss, tau in zip(range(rows), DAS, LOG_PROBS[::-1])]
        path = tmp_path / "loss.csv"
        write_training_log(path, records)
        assert path.read_bytes() == csv_writer_bytes(
            ["epoch", "batch", "loss", "tau"],
            [[rec.epoch, rec.batch, repr(rec.loss), repr(rec.tau)] for rec in records])
