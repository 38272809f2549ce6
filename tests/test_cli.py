import argparse
import csv
import io
import json
import math
import os
from collections import Counter

import numpy as np
import pytest

from scengen import (CategoricalHmm, InputError, TrainConfig, TrainingError,
                     apply_event, average_da, baum_welch_fit, da_score,
                     decode_scenario, embed_hmm, hmm_forward, load_dataset, load_model,
                     random_stiefel, reference_four_event_system, save_model,
                     validate_kraus)
from scengen import cli, psa, qhmm
from scengen.cli import main
from scengen.qhmm import _BLOCK_BUDGET, _loss_and_gradient

from oracles import (distinct_prefixes_per_block, hmm_sample_reference, pad_reference,
                     qhmm_sample_reference, random_hmm, random_kraus_model,
                     train_qhmm_reference)


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
    """Log-probabilities of the sequences and the scalar DA of each: an
    HMM's from one-row :func:`hmm_forward` calls, a Kraus model's from the
    row filter of the loss's forward pass over reference-padded rows, which
    builds no prefix tree: one call with each row a run of its own, whose
    log-probability sum is that row's."""
    if isinstance(model, CategoricalHmm):
        log_probs = np.array([hmm_forward(model, seq).log_likelihood for seq in sequences])
    else:
        padded, lengths = pad_reference(sequences, model.alphabet_size)
        runs = [(model.operators, padded[i:i + 1], lengths[i:i + 1])
                for i in range(len(lengths))]
        log_probs = np.array([total for total, _ in _loss_and_gradient(
            runs, model.initial_state.matrix)])
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

    @pytest.mark.parametrize("kind", ["qhmm", "hmm"])
    def test_eval_of_a_split_gives_each_row_its_whole_file_bits(self, four_event_run,
                                                                 tmp_path, kind):
        # a model of the no_probable class scores every row finite
        data = four_event_run / "data" / "no_probable.jsonl"
        model_path = tmp_path / "model" / "model.json"
        assert run("train", "--kind", kind, "--data", data, "--out", model_path.parent,
                   "--K", 4, "--epochs", 2, "--seed", 1) == 0
        reports = {}
        for split in ("test", "all"):
            assert run("eval", "--model", model_path, "--data", data, "--out",
                       tmp_path / split, "--split", split) == 0
            with open(tmp_path / split / "report.csv", newline="") as fh:
                reports[split] = [row[1:] for row in list(csv.reader(fh))[1:]]
        places = [i for i, line in enumerate(data.read_text().splitlines())
                  if json.loads(line)["split"] == "test"]
        assert len(reports["test"]) == len(places) == 874
        assert "-inf" not in {log_prob for _, log_prob, _ in reports["all"]}
        assert reports["test"] == [reports["all"][i] for i in places]

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

    @pytest.mark.parametrize("system, max_len, walk_steps", [
        ("three", 4, 84),
        # README's count: a psa.MAX_WALK_STEPS of 102,979 rejects this search
        ("four", 10, 102_980),
    ])
    def test_manifest_counts_the_enumeration(self, tmp_path, system, max_len,
                                             walk_steps):
        path = tmp_path / "system.json"
        getattr(psa, f"reference_{system}_event_system")().save(path)
        out = tmp_path / "out"
        assert run("make-dataset", "--system", path, "--out", out, "--seed", 0,
                   "--max-len", max_len) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        sizes = {label: len((out / f"{label}.jsonl").read_text().splitlines())
                 for label in ("probable", "no_probable")}
        assert manifest["enumeration"] == {"walk_steps": walk_steps, **sizes}
        assert "scoring" not in manifest

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
        (["--p-min", "nan"], 2),
    ])
    def test_failing_make_dataset_leaves_no_output_directory(self, system_path, tmp_path,
                                                             argv, code):
        out = tmp_path / "out"
        assert run("make-dataset", "--system", system_path, "--out", out, "--seed", 0,
                   *argv) == code
        assert not out.exists()

    def test_severe_state_written_as_a_string_exits_two(self, ref_system, tmp_path, capsys):
        payload = ref_system.to_dict()
        payload["severe_states"] = ["AB"]
        system = tmp_path / "system.json"
        system.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert run("make-dataset", "--system", system, "--out", out, "--seed", 0) == 2
        assert "list of lists of event ids" in capsys.readouterr().err
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
        ("qhmm", {"epochs": -3}), ("hmm", {"epochs": -3}), ("hmm", {"tol": "nan"}),
        ("qhmm", {"lr": "inf"})])
    def test_failing_train_leaves_no_output_directory(self, dataset_dir, tmp_path,
                                                      kind, flags):
        out = tmp_path / "out"
        assert train_small(dataset_dir, out, kind=kind, **flags) == 2
        assert not out.exists()

    def test_overflowing_steps_warn_nothing(self, dataset_dir, tmp_path, capsys):
        # at tau = 1e308 Cayley steps overflow, fail with their own error and
        # halve; the suite turns any warning into an error
        assert train_small(dataset_dir, tmp_path / "out", lr=1e308) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("kind", ["hmm", "qhmm"])
    def test_one_symbol_alphabet_exits_two(self, tmp_path, capsys, kind):
        # DA needs at least two symbols, so no scoring command could use the model
        data = tmp_path / "zeros.jsonl"
        data.write_text('{"sequence": [0, 0]}\n{"sequence": [0]}\n')
        out = tmp_path / "out"
        assert run("train", "--kind", kind, "--data", data, "--out", out, "--split", "all",
                   "--alphabet-size", 1, "--K", 2, "--epochs", 1, "--seed", 0) == 2
        assert "at least two symbols" in capsys.readouterr().err
        assert not out.exists()

    def test_a_class_without_the_last_event_needs_the_systems_alphabet(self, tmp_path,
                                                                        capsys):
        # event C almost never fails, so no probable scenario holds symbols 4
        # or 5 and train infers 4 symbols from probable.jsonl; a model of
        # that alphabet fails every command that meets the system's 6 symbols,
        # and the error names the remedy, which passes
        system = tmp_path / "system.json"
        system.write_text(json.dumps({
            "name": "abc", "severe_states": [["A", "B"]],
            "events": [{"id": "A", "p_down": 0.5, "p_repair": 0.3},
                       {"id": "B", "p_down": 0.5, "p_repair": 0.4},
                       {"id": "C", "p_down": 0.001, "p_repair": 0.5}]}))
        data = tmp_path / "data"
        assert run("make-dataset", "--system", system, "--out", data, "--max-len", 4,
                   "--seed", 1) == 0
        models = {}
        for name in ("probable", "no_probable"):
            models[name] = tmp_path / name / "model.json"
            assert run("train", "--kind", "qhmm", "--data", data / f"{name}.jsonl", "--out",
                       models[name].parent, "--K", 2, "--epochs", 2, "--seed", 0) == 0
        commands = [
            ("classify", "--model-probable", models["probable"], "--model-no-probable",
             models["no_probable"], "--data", data / "probable.jsonl"),
            ("eval", "--model", models["probable"], "--data", data / "no_probable.jsonl"),
            ("generate", "--model", models["probable"], "--count", 3, "--length", 3,
             "--seed", 0, "--system", system)]
        assert load_model(models["probable"]).alphabet_size == 4
        capsys.readouterr()
        for i, argv in enumerate(commands):
            assert run(*argv, "--out", tmp_path / f"out{i}") == 2
            assert "train each model with --alphabet-size 2n" in capsys.readouterr().err
        assert run("train", "--kind", "qhmm", "--data", data / "probable.jsonl", "--out",
                   models["probable"].parent, "--K", 2, "--epochs", 2, "--seed", 0,
                   "--alphabet-size", 6) == 0
        for i, argv in enumerate(commands):
            assert run(*argv, "--out", tmp_path / f"out{i}") == 0


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
        {"type": "hmm", "K": 1, "M": 2, "transition": [[float("nan")]],
         "emission": [[0.5, 0.5]], "start": [1.0]},
    ], ids=["hmm-no-arrays", "qhmm-no-operators", "text-start", "list", "nan-transition"])
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

    @staticmethod
    def reference_lines(model, system, count, length, seed, prefix):
        """The generated file as bytes, drawn one sample at a time and each
        decoded with :func:`decode_scenario` from the post-prefix state."""
        sample = (hmm_sample_reference if isinstance(model, CategoricalHmm)
                  else qhmm_sample_reference)
        start = 0
        for idx, action in decode_scenario(system, prefix):
            start = apply_event(start, idx, action)
        rng = np.random.default_rng(seed)
        want = ""
        for _ in range(count):
            sequence = sample(model, length, rng, prefix=prefix)
            try:
                steps = [[system.events[idx].id, action] for idx, action
                         in decode_scenario(system, sequence, initial_state=start)]
            except InputError:
                steps = None
            want += json.dumps({"sequence": sequence, "steps": steps}) + "\n"
        return want.encode()

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
        assert (out / "sequences.jsonl").read_bytes() == \
            self.reference_lines(model, ref_system, 10, 4, 1, [0])

    @pytest.mark.parametrize("kind", ["qhmm", "hmm"])
    def test_event_ids_needing_json_escapes(self, tmp_path, monkeypatch, kind):
        # each step is written as json.dumps writes it: quotes and
        # backslashes escaped, non-ASCII as \u escapes; 60 rows in at least 4 chunks
        system = psa.SystemModel("escapes", [psa.BasicEvent('say "up"', 0.1, 0.3),
                                             psa.BasicEvent("back\\slash", 0.2, 0.4),
                                             psa.BasicEvent("caf\u00e9", 0.05, 0.5)],
                                 [('say "up"', "back\\slash")])
        system.save(tmp_path / "system.json")
        rng = np.random.default_rng(8)  # each event has a legal step
        model = (random_hmm(rng, 3, 6) if kind == "hmm"
                 else random_kraus_model(rng, 2, 6, 2))
        save_model(model, tmp_path / "model.json")
        monkeypatch.setattr(cli, "_GENERATE_CHUNK", 60)
        out = tmp_path / "gen"
        assert run("generate", "--model", tmp_path / "model.json", "--out", out,
                   "--count", 60, "--length", 3, "--seed", 3, "--prefix", "2",
                   "--system", tmp_path / "system.json") == 0
        got = (out / "sequences.jsonl").read_bytes()
        assert got == self.reference_lines(model, system, 60, 3, 3, [2])
        for text in (b'"say \\"up\\""', b'"back\\\\slash"', b'"caf\\u00e9"'):
            assert text in got
        assert b'"steps": null' in got

    @staticmethod
    def chunk_rows(dataset_dir, system_path, tmp_path, monkeypatch, kind, prefix,
                   symbols, length=4):
        """The rows of each draw of an 11-row call of a K=2 model chunked at
        ``symbols`` symbols, after checking its file equals the one-chunk file."""
        model_dir = tmp_path / "model"
        assert train_small(dataset_dir, model_dir, kind=kind) == 0
        argv = ["generate", "--model", model_dir / "model.json", "--count", 11,
                "--length", length, "--seed", 5, "--system", system_path, *prefix]
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
    def test_a_row_counts_as_k_squared_symbols_when_longer(
            self, dataset_dir, system_path, tmp_path, monkeypatch, kind):
        # a length-2 row of a K=2 model counts as 4 symbols, the entries of
        # the belief a Kraus model may hold for it
        assert self.chunk_rows(dataset_dir, system_path, tmp_path, monkeypatch, kind,
                               [], 12, length=2) == [3, 3, 3, 2]

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

    def test_an_interrupted_rerun_removes_the_earlier_runs_files(self, dataset_dir, tmp_path,
                                                                monkeypatch):
        # Ctrl-C runs main's cleanup and is raised again: the earlier, longer
        # run's rows and manifest go, so the directory does not look done;
        # --out stays, since this call did not create it
        model_dir, out = tmp_path / "model", tmp_path / "gen"
        assert train_small(dataset_dir, model_dir) == 0
        argv = ("generate", "--model", model_dir / "model.json", "--length", 3, "--seed", 0)
        monkeypatch.setattr(cli, "_GENERATE_CHUNK", 2)
        assert run(*argv, "--count", 40, "--out", out) == 0
        assert (out / "manifest.json").exists()
        real, calls = cli.qhmm_samples, []

        def interrupted_third_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "qhmm_samples", interrupted_third_call)
        with pytest.raises(KeyboardInterrupt):
            run(*argv, "--count", 5, "--out", out)
        assert len(calls) == 3 and out.is_dir() and not any(out.iterdir())

    def test_each_chunk_is_decoded_in_one_call(self, system_path, tmp_path,
                                               monkeypatch):
        # only the prefix goes through decode_scenario; each chunk's rows are
        # decided by one legal_walks call from the post-prefix state
        model_path = tmp_path / "hmm.json"
        save_model(CategoricalHmm([[1.0]], [[0.5, 0.5, 0, 0, 0, 0]], [1.0]),
                   model_path)
        real_decode, real_walks, decoded, calls = cli.decode_scenario, cli.legal_walks, [], []

        def recording_decode(system, sequence, **kwargs):
            decoded.append(tuple(sequence))
            return real_decode(system, sequence, **kwargs)

        def recording_walks(system, symbols, initial_state=0):
            calls.append((symbols.tolist(), initial_state))
            return real_walks(system, symbols, initial_state)

        monkeypatch.setattr(cli, "decode_scenario", recording_decode)
        monkeypatch.setattr(cli, "legal_walks", recording_walks)
        monkeypatch.setattr(cli, "_GENERATE_CHUNK", 30)  # 15 rows of length 2
        out = tmp_path / "gen"
        assert run("generate", "--model", model_path, "--out", out, "--count", 40,
                   "--length", 2, "--seed", 0, "--prefix", "0",
                   "--system", system_path) == 0
        records = [json.loads(line) for line in
                   (out / "sequences.jsonl").read_text().splitlines()]
        assert decoded == [(0,)]
        assert [len(rows) for rows, _ in calls] == [15, 15, 10]
        assert [row for rows, _ in calls for row in rows] == [r["sequence"] for r in records]
        assert {start for _, start in calls} == {0b001}  # [fail A] leaves A down

    @pytest.mark.parametrize("kind", ["hmm", "qhmm"])
    @pytest.mark.parametrize("prefix, message", [
        ("6", "symbol out of range for alphabet of size 6"),
        ("-1", "symbol -1 is negative"),
    ])
    def test_prefix_outside_the_alphabet_is_one_error_line(self, system_path, tmp_path,
                                                           capsys, kind, prefix, message):
        # an error, with no warning that the prefix is not a legal walk
        hmm = CategoricalHmm([[1.0]], [[0.5, 0.5, 0, 0, 0, 0]], [1.0])
        model_path = tmp_path / "model.json"
        save_model(hmm if kind == "hmm" else embed_hmm(hmm), model_path)
        out = tmp_path / "gen"
        assert run("generate", "--model", model_path, "--out", out, "--count", 3,
                   "--length", 2, "--seed", 0, f"--prefix={prefix}",
                   "--system", system_path) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("count", [1, 30, 1000])
    def test_beliefs_held_per_chunk_stay_within_the_bound(self, tmp_path, monkeypatch,
                                                          count):
        # a chunk of _GENERATE_CHUNK // K^2 rows of a K=4 model at most,
        # however many rows the call draws
        real, held = qhmm._symbol_probabilities, []

        def recording(effects, rho):
            held.append(len(rho))
            return real(effects, rho)

        monkeypatch.setattr(qhmm, "_symbol_probabilities", recording)
        monkeypatch.setattr(cli, "_GENERATE_CHUNK", 640)
        save_model(random_kraus_model(np.random.default_rng(2), 4, 6), tmp_path / "m.json")
        assert run("generate", "--model", tmp_path / "m.json", "--out", tmp_path / "gen",
                   "--count", count, "--length", 6, "--seed", 0) == 0
        assert max(held) == min(count, 640 // 4 ** 2)

    def test_system_of_another_alphabet_exits_two(self, system_path, tmp_path, capsys):
        # a four-event model (8 symbols) with the three-event system (6 symbols)
        model_path = tmp_path / "hmm.json"
        save_model(CategoricalHmm([[1.0]], [[0.125] * 8], [1.0]), model_path)
        out = tmp_path / "gen"
        assert run("generate", "--model", model_path, "--out", out, "--count", 20,
                   "--length", 4, "--seed", 0, "--system", system_path) == 2
        assert capsys.readouterr().err == (
            "error: the system alphabet has size 6 but the model alphabet has size 8; "
            "train infers a model's alphabet from its data file, so train each model "
            "with --alphabet-size 2n for a system of n events\n")
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

    @pytest.mark.parametrize("argv", [["--K", 0], ["--batches", 0], ["--lr", "inf"]])
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

    def test_desk_hmm_seeds_fit_in_one_stack(self, system_path, tmp_path):
        # each desk dataset's three HMM runs share one stack: its E-steps
        # number that dataset's longest run's iterations, not their sum
        data = tmp_path / "desk"
        assert run("make-dataset", "--system", system_path, "--out", data, "--seed", 9) == 0
        paths = [data / "probable.jsonl", data / "no_probable.jsonl"]
        out = tmp_path / "cmp"
        assert run("compare", "--data", paths[0], "--data", paths[1], "--out", out,
                   "--K", 4, "--seeds", "0,1,2") == 0
        iterations = []
        for path in paths:
            ds = load_dataset(path)
            iterations.append([len(baum_welch_fit(ds.sequences("train"), 4,
                                                  alphabet_size=ds.alphabet_size,
                                                  seed=seed).log_likelihoods)
                               for seed in (0, 1, 2)])
        em = json.loads((out / "manifest.json").read_text())["em"]
        assert em == {"em_iterations": sum(map(sum, iterations)),
                      "em_passes": sum(map(max, iterations)), "runs_failed": 0}
        assert em["em_passes"] < em["em_iterations"]

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
                                                         capsys, emissions_without):
        path = dataset_dir / "probable.jsonl"
        argv = ["compare", "--data", path, "--K", 2, "--epochs", 3, "--seeds", "0,1,2"]
        assert run(*argv, "--out", tmp_path / "ok") == 0
        # seed 1's initial emissions never produce a symbol of the first
        # training sequence, so its first E-step fails
        emissions_without(load_dataset(path).sequences("train")[0][0], 6, seed=1)
        capsys.readouterr()
        assert run(*argv, "--out", tmp_path / "cmp") == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: hmm training failed on {path} (seed 1): a training sequence "
            "has zero probability under the current parameters"]
        rows = {}
        for name in ("ok", "cmp"):
            with open(tmp_path / name / "comparison.csv", newline="") as fh:
                rows[name] = list(csv.reader(fh))
        assert rows["cmp"][1:3] == [[str(path), "hmm", split, "failed", "failed"]
                                    for split in ("train", "test")]
        assert rows["cmp"][3:] == rows["ok"][3:]
        assert "failed" not in rows["ok"][1] + rows["ok"][2]
        # the seeds after the failing one still fit: the stack runs all three
        em = json.loads((tmp_path / "cmp" / "manifest.json").read_text())["em"]
        assert em["runs_failed"] == 1 and em["em_iterations"] == 1 + 2 * 3

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
        # lexicographic row block of 2048 // 2**2 rows once, an HMM each
        # distinct prefix of the split, whose tree fits one block
        probable = dataset_dir / "probable.jsonl"
        no_probable = dataset_dir / "no_probable.jsonl"
        for kind in ("qhmm", "hmm"):
            assert train_small(dataset_dir, tmp_path / kind, kind=kind) == 0
        qhmm_model, hmm_model = (tmp_path / kind / "model.json" for kind in ("qhmm", "hmm"))

        def work(path, split, kraus_models, hmm_models):
            sequences = [seq for seq, _ in reference_split(path, split)]
            positions = sum(map(len, sequences))
            prefixes = sum(distinct_prefixes_per_block(sequences, _BLOCK_BUDGET // 2 ** 2))
            nodes = sum(distinct_prefixes_per_block(sequences, len(sequences)))
            return Counter(sequences_scored=(kraus_models + hmm_models) * len(sequences),
                           symbol_positions=(kraus_models + hmm_models) * positions,
                           prefixes_filtered=kraus_models * prefixes + hmm_models * nodes)

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

    def test_em_block_of_the_hmm_fits(self, dataset_dir, tmp_path):
        for kind in ("hmm", "qhmm"):
            assert train_small(dataset_dir, tmp_path / kind, kind=kind) == 0
        iterations = len((tmp_path / "hmm" / "loss.csv").read_text().splitlines()) - 1
        manifest = json.loads((tmp_path / "hmm" / "manifest.json").read_text())
        assert manifest["em"] == {"em_iterations": iterations, "em_passes": iterations,
                                  "runs_failed": 0}
        assert "em" not in json.loads((tmp_path / "qhmm" / "manifest.json").read_text())
        out = tmp_path / "compare"
        assert run("compare", "--data", dataset_dir / "probable.jsonl", "--K", 2,
                   "--epochs", 2, "--seeds", "0,1", "--out", out) == 0
        em = json.loads((out / "manifest.json").read_text())["em"]
        assert em == {"em_iterations": 4, "em_passes": 2, "runs_failed": 0}
        # the counts live in the manifest only
        for path in (tmp_path / "hmm" / "loss.csv", tmp_path / "hmm" / "model.json",
                     out / "comparison.csv"):
            assert not any(key in path.read_bytes()
                           for key in (b"em_iterations", b"em_passes", b"runs_failed"))

    @pytest.mark.parametrize("cap", [None, 0.02])
    def test_training_block_of_qhmm_training(self, dataset_dir, tmp_path, capped_steps,
                                             cap):
        # with the cap, steps longer than it fail and halve tau
        if cap is not None:
            capped_steps(cap)
        for kind in ("qhmm", "hmm"):
            assert train_small(dataset_dir, tmp_path / kind, kind=kind, epochs=20) == 0
        out = tmp_path / "qhmm"
        with open(out / "loss.csv", newline="") as fh:
            records = list(csv.DictReader(fh))
        halvings = sum(round(math.log2(0.05 * 0.95 ** int(r["epoch"]) / float(r["tau"])))
                       for r in records)
        assert (halvings > 0) == (cap is not None)
        residual = validate_kraus(load_model(out / "model.json")).completeness_residual
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["training"] == {"steps": len(records), "step_halvings": halvings,
                                        "failed_checks": 0,
                                        "completeness_residual": residual}
        assert 0 < residual <= 1e-8
        assert "training" not in json.loads((tmp_path / "hmm" / "manifest.json").read_text())
        # the counts live in the manifest only
        for name in ("loss.csv", "model.json"):
            assert not any(key in (out / name).read_bytes()
                           for key in (b"steps", b"halvings", b"checks", b"residual"))

    def test_training_block_of_compare(self, system_path, tmp_path):
        # the README's compare: three seeds on each desk class, 500 steps each
        data = tmp_path / "desk"
        assert run("make-dataset", "--system", system_path, "--out", data, "--seed", 9) == 0
        out = tmp_path / "cmp"
        assert run("compare", "--data", data / "probable.jsonl", "--data",
                   data / "no_probable.jsonl", "--out", out, "--K", 4,
                   "--seeds", "0,1,2") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["training"] == {"steps": 3000, "step_halvings": 0, "failed_checks": 0}
        assert not any(key in (out / "comparison.csv").read_bytes()
                       for key in (b"steps", b"halvings", b"checks"))

    @pytest.mark.parametrize("kind", ["qhmm", "hmm"])
    def test_generation_block(self, dataset_dir, system_path, tmp_path, kind):
        # with --system, the legal walks are the lines whose steps are not
        # null; a Kraus model advances each distinct drawn prefix once
        model = tmp_path / "model" / "model.json"
        assert train_small(dataset_dir, model.parent, kind=kind) == 0
        for system in ([], ["--system", system_path]):
            out = tmp_path / f"gen{len(system)}"
            assert run("generate", "--model", model, "--out", out, "--count", 300,
                       "--length", 5, "--seed", 4, *system) == 0
            records = [json.loads(line) for line in
                       (out / "sequences.jsonl").read_text().splitlines()]
            rows = [tuple(r["sequence"]) for r in records]
            want = {"samples": 300}
            if system:
                want["legal_walks"] = sum(r["steps"] is not None for r in records)
                assert 0 < want["legal_walks"] < 300
            if kind == "qhmm":
                want["beliefs_advanced"] = sum(len({row[:t] for row in rows})
                                               for t in range(1, 5))
                assert want["beliefs_advanced"] < 4 * 300
            assert json.loads((out / "manifest.json").read_text())["generation"] == want
            # the counts live in the manifest only
            assert not any(key in (out / "sequences.jsonl").read_bytes()
                           for key in (b"samples", b"legal", b"beliefs"))

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


def mode(path):
    return os.stat(path).st_mode & 0o777


def current_umask():
    umask = os.umask(0)
    os.umask(umask)
    return umask


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
        # a one-symbol model loads, but DA needs at least two symbols (train
        # rejects such an alphabet, so the model is saved directly)
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
                          "--seed", 0, "--system", system_path], 1),
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
               "eval": (cli, "write_da_report"), "generate": (cli, "legal_walks"),
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

    @pytest.fixture
    def shorter_reruns(self, dataset_dir):
        """Each command's flags (beside those of ``calls``) of an earlier run
        whose files are longer than a rerun's, and of the rerun."""
        return {"make-dataset": (["--max-len", 6], []),
                "train": (["--epochs", 4], []),
                "eval": ([], ["--split", "test"]),
                "generate": (["--count", 40], []),
                "classify": ([], ["--split", "test"]),
                "compare": (["--data", dataset_dir / "no_probable.jsonl"], [])}

    @pytest.mark.parametrize("command", list(cli._OUTPUTS))
    def test_a_rerun_over_a_larger_run_writes_a_fresh_runs_bytes(
            self, calls, shorter_reruns, tmp_path, command):
        argv = calls[command][0]
        earlier, later = shorter_reruns[command]
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert run(*argv, *later, "--out", fresh) == 0
        assert run(*argv, *earlier, "--out", out) == 0
        longer = read_data_files(out)
        assert run(*argv, *later, "--out", out) == 0
        assert read_data_files(out) == read_data_files(fresh)
        assert any(len(longer[name]) > len(data)
                   for name, data in read_data_files(fresh).items())

    @pytest.mark.parametrize("command", list(cli._OUTPUTS))
    def test_a_rerun_over_padded_files_writes_a_fresh_runs_bytes(self, calls, tmp_path,
                                                                 monkeypatch, command):
        # generate writes its three rows in three chunks
        monkeypatch.setattr(cli, "_GENERATE_CHUNK", 4)
        argv = calls[command][0]
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        for directory in (fresh, out):
            assert run(*argv, "--out", directory) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for name in (*cli._OUTPUTS[command], "manifest.json"):
            with open(out / name, "a") as fh:
                fh.write("a tail from an earlier, longer run\n" * 50)
            (out / name).chmod(0o640)
        assert run(*argv, "--out", out) == 0
        assert read_data_files(out) == read_data_files(fresh)
        rewritten = json.loads((out / "manifest.json").read_text())
        for key in ("started_at", "duration_seconds"):
            del manifest[key], rewritten[key]
        assert rewritten == manifest
        assert {mode(out / name) for name in (*cli._OUTPUTS[command], "manifest.json")} \
            == {0o640}

    @pytest.mark.parametrize("command", list(cli._OUTPUTS))
    def test_outputs_that_are_symlinks_are_written_through(self, calls, tmp_path, command):
        argv = calls[command][0]
        fresh, out, elsewhere = tmp_path / "fresh", tmp_path / "out", tmp_path / "elsewhere"
        assert run(*argv, "--out", fresh) == 0
        out.mkdir()
        elsewhere.mkdir()
        for name in cli._OUTPUTS[command]:
            (elsewhere / name).write_text("an earlier, longer file\n" * 200)
            (out / name).symlink_to(elsewhere / name)
        assert run(*argv, "--out", out) == 0
        for name in cli._OUTPUTS[command]:
            assert (out / name).is_symlink()
            assert (elsewhere / name).read_bytes() == (fresh / name).read_bytes()
        # a new file gets the mode open(path, "w") gives it
        assert mode(out / "manifest.json") == mode(fresh / "manifest.json") \
            == 0o666 & ~current_umask()

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
