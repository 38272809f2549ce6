import argparse
import csv
import io
import json
import os
from collections import Counter

import numpy as np
import pytest

from scengen import (CategoricalHmm, InputError, TrainConfig, TrainingError,
                     apply_event, average_da, baum_welch_fit, da_score,
                     decode_scenario, embed_hmm, load_dataset, load_model,
                     random_stiefel, reference_four_event_system, save_model,
                     validate_kraus)
from scengen import cli, psa
from scengen.cli import main
from scengen.hmm import _trellis_blocks
from scengen.qhmm import _BLOCK_BUDGET, _propagate

from oracles import (distinct_prefixes_per_block, hmm_sample_reference, pad_reference,
                     qhmm_sample_reference, train_qhmm_reference)


def run(*argv):
    return main([str(a) for a in argv])


def read_data_files(directory):
    """Data outputs only; manifests carry timestamps and are excluded."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.name != "manifest.json"}


@pytest.fixture
def system_path(ref_system, tmp_path):
    path = tmp_path / "system.json"
    ref_system.save(path)
    return path


@pytest.fixture
def dataset_dir(system_path, tmp_path):
    out = tmp_path / "data"
    assert run("make-dataset", "--system", system_path, "--out", out, "--seed", 0) == 0
    return out


def train_small(dataset_dir, out, kind="qhmm", epochs=5, seed=0, **extra):
    argv = ["train", "--kind", kind, "--data", dataset_dir / "probable.jsonl",
            "--out", out, "--K", 2, "--epochs", epochs, "--seed", seed]
    for flag, value in extra.items():
        argv += [f"--{flag}", value]
    return run(*argv)


def reference_split(path, split):
    """(sequence, label) pairs of a dataset split, read one line at a time."""
    pairs = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if split == "all" or record.get("split") == split:
            pairs.append((record["sequence"], record.get("label")))
    return pairs


def reference_scores(model, sequences):
    """Log-probabilities of reference-padded rows and the scalar DA of each."""
    padded, lengths, order = pad_reference(sequences, model.alphabet_size)
    log_probs = np.empty(len(sequences))
    if isinstance(model, CategoricalHmm):
        for rows, block, *_ in _trellis_blocks(model, padded, lengths):
            log_probs[order[rows]] = block
    else:
        log_probs[order] = _propagate(model.operators, model.initial_state.matrix,
                                      padded, lengths)
    return log_probs.tolist(), [da_score(lp, len(seq), model.alphabet_size)
                                for lp, seq in zip(log_probs, sequences)]


def csv_bytes(header, rows):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return out.getvalue().encode()


@pytest.fixture(scope="module")
def four_event_run(tmp_path_factory):
    """Four-event max_len=8 data (3508 scenarios), a QHMM and an HMM of the
    probable class, and 50 unlabeled generated sequences."""
    work = tmp_path_factory.mktemp("four")
    system = work / "system.json"
    reference_four_event_system().save(system)
    data = work / "data"
    assert run("make-dataset", "--system", system, "--out", data, "--max-len", 8,
               "--seed", 3) == 0
    for kind in ("qhmm", "hmm"):
        assert run("train", "--kind", kind, "--data", data / "probable.jsonl",
                   "--out", work / kind, "--K", 4, "--epochs", 5, "--seed", 1) == 0
    assert run("generate", "--model", work / "qhmm" / "model.json", "--out",
               work / "gen", "--count", 50, "--length", 8, "--seed", 2) == 0
    return work


class TestReadPathAgainstReferences:
    """eval and classify reports on four-event max_len=8 data equal reports
    built one record at a time from the reference padding and scalar DA."""

    @pytest.mark.parametrize("kind", ["qhmm", "hmm"])
    @pytest.mark.parametrize("split", ["test", "all"])
    def test_eval_report(self, four_event_run, tmp_path, capsys, kind, split):
        data = four_event_run / "data" / "no_probable.jsonl"
        model_path = four_event_run / kind / "model.json"
        assert run("eval", "--model", model_path, "--data", data, "--out", tmp_path,
                   "--split", split) == 0
        sequences = [seq for seq, _ in reference_split(data, split)]
        log_probs, scores = reference_scores(load_model(model_path), sequences)
        assert len(sequences) == (874 if split == "test" else 3496)
        want = csv_bytes(["sequence_id", "length", "log_prob", "da"],
                         [[i, len(seq), repr(lp), repr(da)] for i, (seq, lp, da)
                          in enumerate(zip(sequences, log_probs, scores))])
        assert (tmp_path / "report.csv").read_bytes() == want
        assert capsys.readouterr().out == f"mean_da {float(np.mean(scores))!r}\n"

    @pytest.mark.parametrize("data_name", ["data/no_probable.jsonl",
                                           "data/probable.jsonl",
                                           "gen/sequences.jsonl"])
    def test_classify_report(self, four_event_run, tmp_path, capsys, data_name):
        data = four_event_run / data_name
        models = [four_event_run / kind / "model.json" for kind in ("qhmm", "hmm")]
        assert run("classify", "--model-probable", models[0], "--model-no-probable",
                   models[1], "--data", data, "--out", tmp_path) == 0
        pairs = reference_split(data, "all")
        sequences = [seq for seq, _ in pairs]
        da_p = reference_scores(load_model(models[0]), sequences)[1]
        da_n = reference_scores(load_model(models[1]), sequences)[1]
        predicted = ["probable" if p > n else "no_probable" for p, n in zip(da_p, da_n)]
        want = csv_bytes(
            ["sequence_id", "true_label", "pred_label", "da_probable", "da_no_probable"],
            [[i, "" if label is None else label, pred, repr(p), repr(n)]
             for i, ((_, label), pred, p, n)
             in enumerate(zip(pairs, predicted, da_p, da_n))])
        assert (tmp_path / "report.csv").read_bytes() == want
        labels = [label for _, label in pairs]
        printed = capsys.readouterr().out
        if None in labels:
            assert printed == ""
        else:
            correct = sum(label == pred for label, pred in zip(labels, predicted))
            assert printed == f"accuracy {correct / len(labels)!r}\n"


class TestMakeDataset:
    def test_writes_both_classes_and_manifest(self, dataset_dir):
        probable = load_dataset(dataset_dir / "probable.jsonl")
        no_probable = load_dataset(dataset_dir / "no_probable.jsonl")
        assert len(probable.records) == 8 and len(no_probable.records) == 8
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert manifest["command"] == "make-dataset"
        assert manifest["seed"] == 0

    def test_missing_system_exits_two(self, tmp_path, capsys):
        code = run("make-dataset", "--system", tmp_path / "nope.json",
                   "--out", tmp_path / "out", "--seed", 0)
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_empty_class_exits_nonzero(self, system_path, tmp_path):
        code = run("make-dataset", "--system", system_path, "--out",
                   tmp_path / "out", "--max-len", 2, "--seed", 0)
        assert code == 1

    @pytest.mark.parametrize("argv, code", [
        (["--test-fraction", 1.5], 2),
        (["--p-min", 0.9], 1),   # no probable scenario
    ])
    def test_failing_make_dataset_leaves_no_output_directory(self, system_path, tmp_path,
                                                             argv, code):
        out = tmp_path / "out"
        assert run("make-dataset", "--system", system_path, "--out", out, "--seed", 0,
                   *argv) == code
        assert not out.exists()

    def test_reruns_are_byte_identical(self, system_path, tmp_path):
        for out in ("a", "b"):
            assert run("make-dataset", "--system", system_path,
                       "--out", tmp_path / out, "--seed", 7) == 0
        assert read_data_files(tmp_path / "a") == read_data_files(tmp_path / "b")


class TestTrain:
    def test_qhmm_model_validates(self, dataset_dir, tmp_path):
        out = tmp_path / "model"
        assert train_small(dataset_dir, out) == 0
        model = load_model(out / "model.json")
        assert validate_kraus(model).passes
        with open(out / "loss.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "batch", "loss", "tau"]
        assert len(rows) > 1

    def test_zero_epochs_returns_seeded_initialization(self, dataset_dir, tmp_path):
        out = tmp_path / "model"
        assert train_small(dataset_dir, out, epochs=0, seed=3) == 0
        model = load_model(out / "model.json")
        want = random_stiefel(6 * 1 * 2, 2, 3).matrix
        np.testing.assert_array_equal(model.to_stiefel(), want)

    def test_hmm_model_is_stochastic(self, dataset_dir, tmp_path):
        out = tmp_path / "model"
        assert train_small(dataset_dir, out, kind="hmm", epochs=20) == 0
        model = load_model(out / "model.json")
        assert isinstance(model, CategoricalHmm)
        np.testing.assert_allclose(model.transition.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(model.emission.sum(axis=1), 1.0, atol=1e-9)

    def test_reruns_are_byte_identical(self, dataset_dir, tmp_path):
        for out in ("a", "b"):
            assert train_small(dataset_dir, tmp_path / out, seed=11) == 0
        assert read_data_files(tmp_path / "a") == read_data_files(tmp_path / "b")

    def test_missing_data_exits_two(self, tmp_path):
        assert train_small(tmp_path / "missing", tmp_path / "out") == 2

    def test_failed_training_removes_earlier_outputs(self, dataset_dir, tmp_path,
                                                     capsys, capped_steps):
        # with steps capped, seed 2 fails at epoch 0 batch 0
        capped_steps(0.1, max_halvings=1)
        out = tmp_path / "out"
        out.mkdir()
        for name in ("model.json", "loss.csv"):
            (out / name).write_text("from an earlier run\n")
        assert train_small(dataset_dir, out, seed=2) == 1
        assert capsys.readouterr().err.startswith("error: step failed after 1 halvings")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("kind, flags", [
        ("qhmm", {"K": 0}), ("hmm", {"K": 0}), ("qhmm", {"lr": -1}),
        ("qhmm", {"epochs": -3}), ("hmm", {"epochs": -3}), ("hmm", {"tol": "nan"})])
    def test_failing_train_leaves_no_output_directory(self, dataset_dir, tmp_path,
                                                      kind, flags):
        out = tmp_path / "out"
        assert train_small(dataset_dir, out, kind=kind, **flags) == 2
        assert not out.exists()


class TestEval:
    def test_mean_matches_library_recomputation(self, dataset_dir, tmp_path, capsys):
        model_dir = tmp_path / "model"
        train_small(dataset_dir, model_dir)
        out = tmp_path / "eval"
        assert run("eval", "--model", model_dir / "model.json",
                   "--data", dataset_dir / "probable.jsonl",
                   "--out", out, "--split", "test") == 0
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        assert printed.startswith("mean_da ")
        mean = float(printed.split()[1])
        model = load_model(model_dir / "model.json")
        data = load_dataset(dataset_dir / "probable.jsonl")
        assert mean == pytest.approx(average_da(model, data.sequences("test")),
                                     abs=1e-12)
        with open(out / "report.csv", newline="") as fh:
            assert next(csv.reader(fh)) == ["sequence_id", "length", "log_prob", "da"]

    def test_empty_data_exits_two(self, dataset_dir, tmp_path):
        model_dir = tmp_path / "model"
        train_small(dataset_dir, model_dir)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("eval", "--model", model_dir / "model.json",
                   "--data", empty, "--out", tmp_path / "eval") == 2

    def test_alphabet_mismatch_exits_two(self, tmp_path):
        model_path = tmp_path / "hmm.json"
        save_model(CategoricalHmm([[1.0]], [[0.5, 0.5]], [1.0]), model_path)
        data = tmp_path / "data.jsonl"
        data.write_text('{"sequence": [0, 5]}\n')
        assert run("eval", "--model", model_path, "--data", data,
                   "--out", tmp_path / "eval") == 2

    @pytest.mark.parametrize("payload", [
        {"type": "hmm"},
        {"type": "qhmm", "K": 2},
        {"type": "hmm", "K": 1, "M": 2, "transition": [[1.0]],
         "emission": [[0.5, 0.5]], "start": ["one"]},
        [{"type": "hmm"}],
    ], ids=["hmm-no-arrays", "qhmm-no-operators", "text-start", "list"])
    def test_malformed_model_file_exits_two(self, tmp_path, capsys, payload):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(payload))
        data = tmp_path / "data.jsonl"
        data.write_text('{"sequence": [0, 1]}\n')
        out = tmp_path / "eval"
        assert run("eval", "--model", model_path, "--data", data, "--out", out) == 2
        assert str(model_path) in capsys.readouterr().err
        assert not out.exists()


class TestGenerate:
    def test_zero_count_writes_empty_file(self, dataset_dir, tmp_path):
        model_dir = tmp_path / "model"
        train_small(dataset_dir, model_dir)
        out = tmp_path / "gen"
        assert run("generate", "--model", model_dir / "model.json", "--out", out,
                   "--count", 0, "--length", 4, "--seed", 0) == 0
        assert (out / "sequences.jsonl").read_text() == ""

    def test_seeded_reruns_are_byte_identical(self, dataset_dir, tmp_path):
        model_dir = tmp_path / "model"
        train_small(dataset_dir, model_dir)
        for out in ("a", "b"):
            assert run("generate", "--model", model_dir / "model.json",
                       "--out", tmp_path / out, "--count", 5, "--length", 6,
                       "--seed", 2) == 0
        assert read_data_files(tmp_path / "a") == read_data_files(tmp_path / "b")

    def test_prefix_and_decoding(self, dataset_dir, system_path, tmp_path):
        model_dir = tmp_path / "model"
        train_small(dataset_dir, model_dir)
        out = tmp_path / "gen"
        assert run("generate", "--model", model_dir / "model.json", "--out", out,
                   "--count", 8, "--length", 3, "--seed", 1,
                   "--prefix", "0", "--system", system_path) == 0
        lines = (out / "sequences.jsonl").read_text().strip().splitlines()
        assert len(lines) == 8
        for line in lines:
            record = json.loads(line)
            assert len(record["sequence"]) == 3
            assert "steps" in record

    def test_continuations_decode_from_the_post_prefix_state(self, system_path,
                                                             tmp_path, capsys):
        # a one-state model over the 6-symbol alphabet that only emits
        # fail-A or repair-A, so continuations of prefix [fail A] that
        # start with repair-A are legal walks from the prefixed state
        model_path = tmp_path / "hmm.json"
        save_model(CategoricalHmm([[1.0]], [[0.5, 0.5, 0, 0, 0, 0]], [1.0]),
                   model_path)
        out = tmp_path / "gen"
        assert run("generate", "--model", model_path, "--out", out,
                   "--count", 8, "--length", 2, "--seed", 0,
                   "--prefix", "0", "--system", system_path) == 0
        records = [json.loads(line) for line in
                   (out / "sequences.jsonl").read_text().strip().splitlines()]

        def legal_from_prefixed_state(sequence):
            state = 0b001  # the prefix [fail A] leaves event A down
            for symbol in sequence:
                bit = 1 << (symbol // 2)
                if bool(state & bit) != bool(symbol % 2):
                    return False
                state ^= bit
            return True

        assert any(r["steps"] is not None for r in records)
        assert any(r["steps"] is None for r in records)
        for record in records:
            expect = legal_from_prefixed_state(record["sequence"])
            assert (record["steps"] is not None) == expect
            if record["steps"] is not None and record["sequence"][0] == 1:
                assert record["steps"][0] == ["A", "repair"]
        illegal = sum(r["steps"] is None for r in records)
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if "do not decode" in line]
        assert warnings == [f"warning: {illegal} of 8 sequences do not decode "
                            "as legal walks"]

    def test_illegal_prefix_warns_and_decodes_from_all_up(self, ref_system, system_path,
                                                          tmp_path, capsys):
        # the prefix [repair A] is not a legal walk: A is up in the all-up state
        model_path = tmp_path / "hmm.json"
        save_model(CategoricalHmm([[1.0]], [[0.5, 0.5, 0, 0, 0, 0]], [1.0]),
                   model_path)
        out = tmp_path / "gen"
        assert run("generate", "--model", model_path, "--out", out,
                   "--count", 8, "--length", 2, "--seed", 0,
                   "--prefix", "1", "--system", system_path) == 0
        assert capsys.readouterr().err.splitlines()[0].startswith(
            "warning: prefix is not a legal walk (")
        records = [json.loads(line) for line in
                   (out / "sequences.jsonl").read_text().strip().splitlines()]
        assert any(r["steps"] is not None for r in records)
        for record in records:
            try:
                want = [[ref_system.events[idx].id, action]
                        for idx, action in decode_scenario(ref_system, record["sequence"])]
            except InputError:
                want = None
            assert record["steps"] == want

    @pytest.mark.parametrize("kind", ["hmm", "qhmm"])
    @pytest.mark.parametrize("argv", [
        ["--count", 3, "--length", 2, "--prefix", "2"],  # symbol 2 is never emitted
        ["--count", 3, "--length", 2, "--prefix", "6"],  # outside the alphabet
        ["--count", 3, "--length", 0],
        ["--count", 0, "--length", 0],
        ["--count", -1, "--length", 2],
    ])
    def test_failing_generate_leaves_no_output(self, tmp_path, kind, argv):
        hmm = CategoricalHmm([[1.0]], [[0.5, 0.5, 0, 0, 0, 0]], [1.0])
        model_path = tmp_path / "model.json"
        save_model(hmm if kind == "hmm" else embed_hmm(hmm), model_path)
        out = tmp_path / "gen"
        assert run("generate", "--model", model_path, "--out", out, "--seed", 0,
                   *argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["qhmm", "hmm"])
    def test_readme_output_equals_reference_loop(self, ref_system, system_path,
                                                 tmp_path, kind):
        # the README pipeline: split seed 9, K=4, training seed 0
        data, model_dir, out = tmp_path / "desk", tmp_path / "model", tmp_path / "gen"
        assert run("make-dataset", "--system", system_path, "--out", data, "--seed", 9) == 0
        assert run("train", "--kind", kind, "--data", data / "probable.jsonl",
                   "--out", model_dir, "--K", 4, "--seed", 0) == 0
        assert run("generate", "--model", model_dir / "model.json", "--out", out,
                   "--count", 10, "--length", 4, "--seed", 1, "--prefix", "0",
                   "--system", system_path) == 0
        model = load_model(model_dir / "model.json")
        sample = qhmm_sample_reference if kind == "qhmm" else hmm_sample_reference
        start = 0
        for idx, action in decode_scenario(ref_system, [0]):
            start = apply_event(start, idx, action)
        rng = np.random.default_rng(1)
        want = ""
        for _ in range(10):
            sequence = sample(model, 4, rng, prefix=[0])
            try:
                steps = [[ref_system.events[idx].id, action] for idx, action
                         in decode_scenario(ref_system, sequence, initial_state=start)]
            except InputError:
                steps = None
            want += json.dumps({"sequence": sequence, "steps": steps}) + "\n"
        assert (out / "sequences.jsonl").read_bytes() == want.encode()

    @staticmethod
    def chunk_rows(dataset_dir, system_path, tmp_path, monkeypatch, kind, prefix,
                   symbols):
        """The rows of each draw of an 11-row, length-4 call chunked at
        ``symbols`` symbols, after checking its file equals the one-chunk file."""
        model_dir = tmp_path / "model"
        assert train_small(dataset_dir, model_dir, kind=kind) == 0
        argv = ["generate", "--model", model_dir / "model.json", "--count", 11,
                "--length", 4, "--seed", 5, "--system", system_path, *prefix]
        assert run(*argv, "--out", tmp_path / "one") == 0
        name = f"{kind}_samples"
        real, rows = getattr(cli, name), []

        def recording(model, length, count, rng, **kwargs):
            rows.append(count)
            return real(model, length, count, rng, **kwargs)

        monkeypatch.setattr(cli, name, recording)
        monkeypatch.setattr(cli, "_GENERATE_CHUNK", symbols)
        assert run(*argv, "--out", tmp_path / "chunked") == 0
        assert read_data_files(tmp_path / "chunked") == read_data_files(tmp_path / "one")
        return rows

    @pytest.mark.parametrize("prefix", [[], ["--prefix", "0"]])
    @pytest.mark.parametrize("kind", ["hmm", "qhmm"])
    def test_chunked_file_equals_the_one_chunk_file(self, dataset_dir, system_path,
                                                    tmp_path, monkeypatch, kind, prefix):
        # 12 symbols hold three rows of length 4
        assert self.chunk_rows(dataset_dir, system_path, tmp_path, monkeypatch, kind,
                               prefix, 12) == [3, 3, 3, 2]

    @pytest.mark.parametrize("kind", ["hmm", "qhmm"])
    def test_rows_longer_than_a_chunk_are_drawn_one_at_a_time(
            self, dataset_dir, system_path, tmp_path, monkeypatch, kind):
        assert self.chunk_rows(dataset_dir, system_path, tmp_path, monkeypatch, kind,
                               [], 3) == [1] * 11

    def test_failure_in_a_later_chunk_removes_the_file(self, dataset_dir, tmp_path,
                                                       monkeypatch, capsys):
        model_dir = tmp_path / "model"
        assert train_small(dataset_dir, model_dir) == 0
        real, calls = cli.qhmm_samples, []

        def failing_second_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise InputError("chunk failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "qhmm_samples", failing_second_call)
        monkeypatch.setattr(cli, "_GENERATE_CHUNK", 2)
        out = tmp_path / "gen"
        assert run("generate", "--model", model_dir / "model.json", "--out", out,
                   "--count", 5, "--length", 3, "--seed", 0) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: chunk failed"
        assert not (out / "sequences.jsonl").exists()

    def test_each_distinct_sample_is_decoded_once(self, system_path, tmp_path,
                                                  monkeypatch):
        # two symbols over length 2 give at most 4 distinct samples of 40
        model_path = tmp_path / "hmm.json"
        save_model(CategoricalHmm([[1.0]], [[0.5, 0.5, 0, 0, 0, 0]], [1.0]),
                   model_path)
        real, decoded = cli.decode_scenario, []

        def recording(system, sequence, **kwargs):
            decoded.append(tuple(sequence))
            return real(system, sequence, **kwargs)

        monkeypatch.setattr(cli, "decode_scenario", recording)
        out = tmp_path / "gen"
        assert run("generate", "--model", model_path, "--out", out, "--count", 40,
                   "--length", 2, "--seed", 0, "--system", system_path) == 0
        records = [json.loads(line) for line in
                   (out / "sequences.jsonl").read_text().splitlines()]
        assert len(records) == 40
        assert sorted(decoded) == sorted({tuple(r["sequence"]) for r in records})

    def test_system_of_another_alphabet_exits_two(self, system_path, tmp_path, capsys):
        # a four-event model (8 symbols) with the three-event system (6 symbols)
        model_path = tmp_path / "hmm.json"
        save_model(CategoricalHmm([[1.0]], [[0.125] * 8], [1.0]), model_path)
        out = tmp_path / "gen"
        assert run("generate", "--model", model_path, "--out", out, "--count", 20,
                   "--length", 4, "--seed", 0, "--system", system_path) == 2
        assert capsys.readouterr().err == (
            "error: the system alphabet has size 6 but the model alphabet has size 8\n")
        assert not out.exists()

    def test_symbols_stay_in_alphabet(self, dataset_dir, tmp_path):
        model_dir = tmp_path / "model"
        train_small(dataset_dir, model_dir)
        out = tmp_path / "gen"
        assert run("generate", "--model", model_dir / "model.json", "--out", out,
                   "--count", 10, "--length", 5, "--seed", 3) == 0
        for line in (out / "sequences.jsonl").read_text().strip().splitlines():
            assert all(0 <= s < 6 for s in json.loads(line)["sequence"])


class TestClassify:
    def test_identical_models_predict_no_probable(self, dataset_dir, tmp_path, capsys):
        model_dir = tmp_path / "model"
        train_small(dataset_dir, model_dir)
        out = tmp_path / "clf"
        assert run("classify", "--model-probable", model_dir / "model.json",
                   "--model-no-probable", model_dir / "model.json",
                   "--data", dataset_dir / "no_probable.jsonl", "--out", out) == 0
        printed = capsys.readouterr().out
        assert "accuracy 1.0" in printed
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(row[2] == "no_probable" for row in rows)

    def test_unlabeled_data_reports_without_accuracy(self, dataset_dir, tmp_path,
                                                     capsys):
        model_dir = tmp_path / "model"
        train_small(dataset_dir, model_dir)
        gen = tmp_path / "gen"
        run("generate", "--model", model_dir / "model.json", "--out", gen,
            "--count", 3, "--length", 4, "--seed", 0)
        out = tmp_path / "clf"
        assert run("classify", "--model-probable", model_dir / "model.json",
                   "--model-no-probable", model_dir / "model.json",
                   "--data", gen / "sequences.jsonl", "--out", out) == 0
        assert "accuracy" not in capsys.readouterr().out

    def test_unknown_label_exits_two_without_a_report(self, dataset_dir, tmp_path,
                                                      capsys):
        model_dir = tmp_path / "model"
        train_small(dataset_dir, model_dir)
        lines = (dataset_dir / "probable.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record["label"] = "Probable"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
        out = tmp_path / "clf"
        assert run("classify", "--model-probable", model_dir / "model.json",
                   "--model-no-probable", model_dir / "model.json",
                   "--data", bad, "--out", out) == 2
        assert "unknown label 'Probable'" in capsys.readouterr().err
        assert not out.exists()

    def test_alphabet_mismatch_exits_two(self, dataset_dir, tmp_path):
        model_dir = tmp_path / "model"
        train_small(dataset_dir, model_dir)
        other = tmp_path / "hmm.json"
        save_model(CategoricalHmm([[1.0]], [[0.5, 0.5]], [1.0]), other)
        assert run("classify", "--model-probable", model_dir / "model.json",
                   "--model-no-probable", other,
                   "--data", dataset_dir / "probable.jsonl",
                   "--out", tmp_path / "clf") == 2


class TestCompare:
    def test_row_arithmetic_and_std(self, dataset_dir, tmp_path):
        out = tmp_path / "cmp"
        assert run("compare", "--data", dataset_dir / "probable.jsonl",
                   "--out", out, "--K", 2, "--epochs", 3, "--seeds", "0,1") == 0
        with open(out / "comparison.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["dataset", "model_kind", "split", "mean_da", "std_da"]
        assert len(rows) == 5
        kinds_splits = [(r[1], r[2]) for r in rows[1:]]
        assert kinds_splits == [("hmm", "train"), ("hmm", "test"),
                                ("qhmm", "train"), ("qhmm", "test")]
        for row in rows[1:]:
            float(row[3])
            float(row[4])

    def test_two_datasets_give_eight_rows(self, dataset_dir, tmp_path):
        out = tmp_path / "cmp"
        assert run("compare", "--data", dataset_dir / "probable.jsonl",
                   "--data", dataset_dir / "no_probable.jsonl",
                   "--out", out, "--K", 2, "--epochs", 2, "--seeds", "0") == 0
        with open(out / "comparison.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 9

    def test_unloadable_data_leaves_no_output_directory(self, dataset_dir, tmp_path):
        out = tmp_path / "cmp"
        assert run("compare", "--data", dataset_dir / "probable.jsonl",
                   "--data", tmp_path / "nope.jsonl", "--out", out,
                   "--K", 2, "--epochs", 1, "--seeds", "0") == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--K", 0], ["--batches", 0]])
    def test_failing_compare_leaves_no_output_directory(self, dataset_dir, tmp_path,
                                                        argv):
        out = tmp_path / "cmp"
        assert run("compare", "--data", dataset_dir / "probable.jsonl", "--out", out,
                   "--K", 2, "--epochs", 1, "--seeds", "0", *argv) == 2
        assert not out.exists()

    def test_reruns_are_byte_identical(self, dataset_dir, tmp_path):
        for out in ("a", "b"):
            assert run("compare", "--data", dataset_dir / "probable.jsonl",
                       "--out", tmp_path / out, "--K", 2, "--epochs", 2,
                       "--seeds", "0,1") == 0
        assert read_data_files(tmp_path / "a") == read_data_files(tmp_path / "b")

    def test_desk_table_equals_separate_reference_runs(self, system_path, tmp_path):
        # the README pipeline: split seed 9, K=4, three seeds, default epochs
        data = tmp_path / "desk"
        assert run("make-dataset", "--system", system_path, "--out", data, "--seed", 9) == 0
        paths = [data / "probable.jsonl", data / "no_probable.jsonl"]
        out = tmp_path / "cmp"
        assert run("compare", "--data", paths[0], "--data", paths[1], "--out", out,
                   "--K", 4, "--seeds", "0,1,2") == 0
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["dataset", "model_kind", "split", "mean_da", "std_da"])
        for path in paths:
            ds = load_dataset(path)
            train, test = ds.sequences("train"), ds.sequences("test")
            fits = {
                "hmm": [baum_welch_fit(train, 4, alphabet_size=ds.alphabet_size,
                                       max_iters=100, tol=1e-6, seed=seed).model
                        for seed in (0, 1, 2)],
                "qhmm": [train_qhmm_reference(train, TrainConfig(dim=4, seed=seed),
                                              ds.alphabet_size)[0]
                         for seed in (0, 1, 2)],
            }
            for kind, models in fits.items():
                for split, seqs in (("train", train), ("test", test)):
                    values = np.asarray([average_da(model, seqs) for model in models])
                    writer.writerow([str(path), kind, split, repr(float(values.mean())),
                                     repr(float(values.std()))])
        assert (out / "comparison.csv").read_bytes() == want.getvalue().encode()

    def test_failing_seed_warns_once_in_seed_order(self, dataset_dir, tmp_path, capsys,
                                                   capped_steps):
        # with steps capped, seed 0 trains, seed 3 fails at epoch 0 batch 4
        # and seed 2, listed after it, fails earlier (batch 0)
        capped_steps(0.1, max_halvings=1)
        path = dataset_dir / "probable.jsonl"
        out = tmp_path / "cmp"
        assert run("compare", "--data", path, "--out", out, "--K", 2, "--epochs", 3,
                   "--seeds", "0,3,2") == 0
        ds = load_dataset(path)
        errors = {}
        for seed in (0, 3, 2):
            try:
                train_qhmm_reference(ds.sequences("train"), TrainConfig(dim=2, epochs=3,
                                                                       seed=seed),
                                     ds.alphabet_size)
            except TrainingError as exc:
                errors[seed] = str(exc)
        assert sorted(errors) == [2, 3]
        assert "batch 4" in errors[3] and "batch 0" in errors[2]
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert warnings == [f"warning: qhmm training failed on {path} (seed 3): {errors[3]}"]
        with open(out / "comparison.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[3:] == [[str(path), "qhmm", "train", "failed", "failed"],
                            [str(path), "qhmm", "test", "failed", "failed"]]
        for row in rows[1:3]:
            float(row[3])

    def test_failing_hmm_seed_leaves_the_qhmm_rows_alone(self, dataset_dir, tmp_path,
                                                         capsys, monkeypatch):
        path = dataset_dir / "probable.jsonl"
        argv = ["compare", "--data", path, "--K", 2, "--epochs", 3, "--seeds", "0,1,2"]
        assert run(*argv, "--out", tmp_path / "ok") == 0
        real_fit, fitted = cli.baum_welch_fit, []

        def fit(*args, seed, **kwargs):
            fitted.append(seed)
            if seed == 1:
                raise TrainingError("EM failed")
            return real_fit(*args, seed=seed, **kwargs)

        monkeypatch.setattr(cli, "baum_welch_fit", fit)
        capsys.readouterr()
        assert run(*argv, "--out", tmp_path / "cmp") == 0
        # the HMM seeds stop at the first failure
        assert fitted == [0, 1]
        assert capsys.readouterr().err.splitlines() == [
            f"warning: hmm training failed on {path} (seed 1): EM failed"]
        rows = {}
        for name in ("ok", "cmp"):
            with open(tmp_path / name / "comparison.csv", newline="") as fh:
                rows[name] = list(csv.reader(fh))
        assert rows["cmp"][1:3] == [[str(path), "hmm", split, "failed", "failed"]
                                    for split in ("train", "test")]
        assert rows["cmp"][3:] == rows["ok"][3:]
        assert "failed" not in rows["ok"][1] + rows["ok"][2]

    @pytest.fixture
    def two_systems(self, dataset_dir, tmp_path):
        """Dataset A of the three-event system (M=6) and dataset B of the
        four-event system at max_len 6 (M=8)."""
        system = tmp_path / "four.json"
        reference_four_event_system().save(system)
        assert run("make-dataset", "--system", system, "--out", tmp_path / "four",
                   "--max-len", 6, "--seed", 1) == 0
        return dataset_dir / "probable.jsonl", tmp_path / "four" / "no_probable.jsonl"

    def compare(self, tmp_path, capsys, name, paths, *flags):
        argv = ["compare", "--out", tmp_path / name, "--seeds", "0,1,2", *flags]
        for path in paths:
            argv += ["--data", path]
        assert run(*argv) == 0
        with open(tmp_path / name / "comparison.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        return rows, capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("a_first", [True, False])
    def test_rows_equal_one_call_per_dataset(self, two_systems, tmp_path, capsys,
                                             a_first):
        # at K=4 the QHMM runs pack into a stack of the three runs of A and
        # one of B, and a stack of two runs of B (in the other order: two
        # runs of B, then one of B and the three of A)
        a, b = two_systems if a_first else two_systems[::-1]
        flags = ("--K", 4, "--epochs", 3)
        both, _ = self.compare(tmp_path, capsys, "ab", [a, b], *flags)
        only_a, _ = self.compare(tmp_path, capsys, "a", [a], *flags)
        only_b, _ = self.compare(tmp_path, capsys, "b", [b], *flags)
        assert both == only_a + only_b[1:]
        assert len(both) == 9 and "failed" not in both[4] + both[8]

    def test_warnings_keep_the_dataset_order(self, two_systems, tmp_path, capsys,
                                             capped_steps):
        # with steps capped, seed 0 fails on A (first stack) and seed 1 on
        # B (second stack)
        capped_steps(0.05, max_halvings=0)
        a, b = two_systems
        flags = ("--K", 4, "--epochs", 3)
        both, both_err = self.compare(tmp_path, capsys, "ab", [a, b], *flags)
        only_a, a_err = self.compare(tmp_path, capsys, "a", [a], *flags)
        only_b, b_err = self.compare(tmp_path, capsys, "b", [b], *flags)
        assert both == only_a + only_b[1:]
        assert both_err == a_err + b_err
        assert [line.split(" (seed")[0] for line in both_err] == [
            f"warning: qhmm training failed on {path}" for path in (a, b)]


class TestManifest:
    def test_every_command_records_its_inputs_and_outputs(self, dataset_dir,
                                                           system_path, tmp_path):
        probable = dataset_dir / "probable.jsonl"
        no_probable = dataset_dir / "no_probable.jsonl"
        model = tmp_path / "model" / "model.json"
        train_small(dataset_dir, model.parent)
        runs = {
            "eval": ["--model", model, "--data", probable],
            "classify": ["--model-probable", model, "--model-no-probable", model,
                         "--data", no_probable],
            "generate": ["--model", model, "--count", 2, "--length", 3, "--seed", 0,
                         "--system", system_path],
            "compare": ["--data", probable, "--data", no_probable, "--K", 2,
                        "--epochs", 1, "--seeds", "0"],
        }
        for command, argv in runs.items():
            assert run(command, *argv, "--out", tmp_path / command) == 0
        expected = {
            dataset_dir: ("make-dataset", [system_path],
                          ["probable.jsonl", "no_probable.jsonl"]),
            model.parent: ("train", [probable], ["model.json", "loss.csv"]),
            tmp_path / "eval": ("eval", [model, probable], ["report.csv"]),
            tmp_path / "classify": ("classify", [model, model, no_probable],
                                    ["report.csv"]),
            tmp_path / "generate": ("generate", [model, system_path],
                                    ["sequences.jsonl"]),
            tmp_path / "compare": ("compare", [probable, no_probable],
                                   ["comparison.csv"]),
        }
        for out, (command, inputs, outputs) in expected.items():
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["command"] == command
            assert manifest["inputs"] == [str(p) for p in inputs]
            assert manifest["outputs"] == [str(out / name) for name in outputs]
        # every manifest records the numpy/BLAS build and the BLAS thread settings
        for out in expected:
            environment = json.loads((out / "manifest.json").read_text())["environment"]
            assert environment == cli._environment()
        # a command that fails (here on an empty split) writes no manifest,
        # even into an existing output directory
        empty_split = tmp_path / "train-only.jsonl"
        empty_split.write_text('{"sequence": [0, 1], "split": "train"}\n')
        failed = tmp_path / "failed"
        failed.mkdir()
        assert run("eval", "--model", model, "--data", empty_split, "--split", "test",
                   "--out", failed) == 2
        assert not (failed / "manifest.json").exists()


    def test_scoring_work_of_the_scoring_commands(self, dataset_dir, tmp_path):
        # K=2 models: a Kraus model filters each distinct prefix of a
        # lexicographic row block of 2048 // 2**2 rows once, an HMM every
        # symbol position
        probable = dataset_dir / "probable.jsonl"
        no_probable = dataset_dir / "no_probable.jsonl"
        for kind in ("qhmm", "hmm"):
            assert train_small(dataset_dir, tmp_path / kind, kind=kind) == 0
        qhmm_model, hmm_model = (tmp_path / kind / "model.json" for kind in ("qhmm", "hmm"))

        def work(path, split, kraus_models, hmm_models):
            sequences = [seq for seq, _ in reference_split(path, split)]
            positions = sum(map(len, sequences))
            prefixes = sum(distinct_prefixes_per_block(sequences, _BLOCK_BUDGET // 2 ** 2))
            return Counter(sequences_scored=(kraus_models + hmm_models) * len(sequences),
                           symbol_positions=(kraus_models + hmm_models) * positions,
                           prefixes_filtered=kraus_models * prefixes + hmm_models * positions)

        runs = {
            "eval": (["eval", "--model", qhmm_model, "--data", probable, "--split", "test"],
                     work(probable, "test", 1, 0)),
            "classify": (["classify", "--model-probable", qhmm_model,
                          "--model-no-probable", hmm_model, "--data", no_probable],
                         work(no_probable, "all", 1, 1)),
            # two seeds of each kind score each split of each dataset
            "compare": (["compare", "--data", probable, "--data", no_probable, "--K", 2,
                         "--epochs", 1, "--seeds", "0,1"],
                        sum((work(path, split, 2, 2) for path in (probable, no_probable)
                             for split in ("train", "test")), Counter())),
        }
        for command, (argv, want) in runs.items():
            out = tmp_path / command
            assert run(*argv, "--out", out) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["scoring"] == dict(want)
            assert 0 < want["prefixes_filtered"] < 2 * want["symbol_positions"]
            # the counts live in the manifest only
            for path in out.iterdir():
                if path.name != "manifest.json":
                    assert b"prefixes" not in path.read_bytes()
        for command in ("qhmm", "hmm"):
            assert "scoring" not in json.loads(
                (tmp_path / command / "manifest.json").read_text())

    def test_environment_block(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert cli._environment.__wrapped__() == {
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None,
            "cpu_count": os.cpu_count()}


class TestUsage:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["generate", "--model", "m.json", "--out", "gen", "--count", 1,
         "--length", 2, "--seed", 0, "--prefix", "a"],
        ["compare", "--data", "d.jsonl", "--out", "cmp", "--K", 2,
         "--seeds", "0,x"],
    ])
    def test_malformed_integer_list_exits_two(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            run(*argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command, flags", [
        ("make-dataset", ["--seed", -1]),
        ("train", ["--kind", "qhmm", "--seed", -3]),
        ("train", ["--kind", "hmm", "--seed", -3]),
        ("generate", ["--count", 2, "--length", 3, "--seed", -1]),
        ("compare", ["--seeds", -1]),
        ("compare", ["--seeds", "0,-1"]),
    ])
    def test_negative_seed_exits_two(self, dataset_dir, system_path, tmp_path, capsys,
                                     command, flags):
        model = tmp_path / "model" / "model.json"
        if command == "generate":
            assert train_small(dataset_dir, model.parent) == 0
        inputs = {
            "make-dataset": ["--system", system_path],
            "train": ["--data", dataset_dir / "probable.jsonl", "--K", 2],
            "generate": ["--model", model],
            "compare": ["--data", dataset_dir / "probable.jsonl", "--K", 2],
        }[command]
        capsys.readouterr()
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            run(command, *inputs, *flags, "--out", out)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "non-negative" in errors[0]
        assert not out.exists()

    def test_empty_seed_list_is_an_input_error(self, tmp_path, capsys):
        assert run("compare", "--data", tmp_path / "d.jsonl",
                   "--out", tmp_path / "cmp", "--K", 2, "--seeds", "") == 2
        assert "at least one seed" in capsys.readouterr().err

    def test_one_parser_parses_as_fresh_ones_after_a_usage_error(
            self, dataset_dir, system_path, tmp_path, monkeypatch):
        model = tmp_path / "model" / "model.json"
        train_small(dataset_dir, model.parent)
        with pytest.raises(SystemExit) as excinfo:
            run("train", "--kind", "qhmm", "--data", dataset_dir / "probable.jsonl")
        assert excinfo.value.code == 2
        fresh_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        calls = {
            "generate": ["--model", model, "--count", 2, "--length", 3, "--seed", 0,
                         "--prefix", ""],
            "eval": ["--model", model, "--data", dataset_dir / "probable.jsonl"],
            "compare": ["--data", dataset_dir / "probable.jsonl", "--K", 2,
                        "--epochs", 1, "--seeds", "0"],
            "make-dataset": ["--system", system_path, "--seed", 1, "--p-min", 0.01],
        }
        for command, flags in calls.items():
            out = tmp_path / command
            argv = [str(a) for a in (command, *flags, "--out", out)]
            assert main(argv) == 0
            fresh = {k: v for k, v in sorted(vars(fresh_parser().parse_args(argv)).items())
                     if k != "func"}
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert config == json.loads(json.dumps(fresh, default=str))
        assert json.loads((tmp_path / "generate" / "manifest.json").read_text()
                          )["config"]["prefix"] == []

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


def write_then_fail(real):
    """``real``, made to raise once it has written."""
    def failing(*args, **kwargs):
        real(*args, **kwargs)
        raise OSError("disk full")
    return failing


class TestRunContract:
    """A command leaves its outputs and manifest, or none of its files."""

    @pytest.fixture
    def calls(self, dataset_dir, system_path, tmp_path):
        """Each case's command and flags (all but --out), and the exit code it
        fails with."""
        model = tmp_path / "model" / "model.json"
        assert train_small(dataset_dir, model.parent) == 0
        # a one-symbol model trains, but DA needs at least two symbols
        one_symbol = tmp_path / "one-symbol.json"
        save_model(CategoricalHmm([[1.0]], [[1.0]], [1.0]), one_symbol)
        zeros = tmp_path / "zeros.jsonl"
        zeros.write_text('{"sequence": [0, 0], "label": "probable"}\n')
        probable = dataset_dir / "probable.jsonl"
        return {
            "make-dataset": (["make-dataset", "--system", system_path, "--seed", 0], 1),
            "train": (["train", "--kind", "qhmm", "--data", probable, "--K", 2,
                       "--epochs", 1, "--seed", 0], 1),
            "eval": (["eval", "--model", model, "--data", probable], 1),
            "eval-one-symbol": (["eval", "--model", one_symbol, "--data", zeros], 2),
            "generate": (["generate", "--model", model, "--count", 3, "--length", 2,
                          "--seed", 0], 1),
            "classify": (["classify", "--model-probable", model,
                          "--model-no-probable", model, "--data", probable], 1),
            "classify-one-symbol": (["classify", "--model-probable", one_symbol,
                                     "--model-no-probable", one_symbol,
                                     "--data", zeros], 2),
            "compare": (["compare", "--data", probable, "--K", 2, "--epochs", 1,
                         "--seeds", "0"], 1),
        }

    # the writer each case's failure is injected into, after it has written;
    # the one-symbol cases fail in scoring, after --out is created
    WRITERS = {"make-dataset": (psa, "save_dataset"), "train": (cli, "write_training_log"),
               "eval": (cli, "write_da_report"), "generate": (cli, "_sequence_line"),
               "classify": (cli, "write_classification_report"), "compare": (csv, "writer")}

    @pytest.mark.parametrize("case", ["make-dataset", "train", "eval", "eval-one-symbol",
                                      "generate", "classify", "classify-one-symbol",
                                      "compare"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_a_failed_command_leaves_none_of_its_files(self, calls, tmp_path, capsys,
                                                       monkeypatch, case, existing):
        argv, code = calls[case]
        command = argv[0]
        if existing:
            out = tmp_path / "out"
            out.mkdir()
            for name in (*cli._OUTPUTS[command], "manifest.json", "notes.txt"):
                (out / name).write_text("from an earlier run\n")
        else:
            out = tmp_path / "new" / "nested" / "out"
        if case in self.WRITERS:
            module, name = self.WRITERS[case]
            monkeypatch.setattr(module, name, write_then_fail(getattr(module, name)))
        capsys.readouterr()
        assert run(*argv, "--out", out) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        if existing:
            assert [p.name for p in out.iterdir()] == ["notes.txt"]
        else:
            assert not (tmp_path / "new").exists()

    def test_outputs_table_names_every_command(self):
        (commands,) = [action.choices for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        assert sorted(cli._OUTPUTS) == sorted(commands)

    @pytest.mark.parametrize("command", list(cli._OUTPUTS))
    def test_out_below_a_file_is_one_error_line(self, calls, tmp_path, capsys, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file\n")
        capsys.readouterr()
        assert run(*calls[command][0], "--out", blocker / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert blocker.read_text() == "a file\n"

    def test_missing_model_below_a_file_is_a_missing_file(self, dataset_dir, tmp_path,
                                                          capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file\n")
        missing = tmp_path / "nope.json"
        assert run("eval", "--model", missing, "--data", dataset_dir / "probable.jsonl",
                   "--out", blocker / "out") == 2
        assert capsys.readouterr().err == f"error: missing file: {missing}\n"
