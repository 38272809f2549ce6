import hashlib
import json

import numpy as np
import pytest

from scengen import psa
from scengen import (FAIL, REPAIR, BasicEvent, DatasetConstructionError,
                     InputError, ResourceLimitError, Scenario, ScenarioDataset,
                     SystemModel, TransitionError, apply_event, build_datasets,
                     decode_scenario, encode_scenario, enumerate_scenarios,
                     is_severe, legal_walks, load_dataset,
                     reference_four_event_system,
                     save_dataset, scenario_probability)

from oracles import all_sequences, bfs_scenarios


class TestSystemModel:
    def test_construction_and_lookup(self, ref_system):
        assert ref_system.num_events == 3
        assert ref_system.alphabet_size == 6
        assert ref_system.event_index("B") == 1

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError):
            SystemModel("bad", [BasicEvent("A", 0.1, 0.2), BasicEvent("A", 0.1, 0.2)], [])

    def test_unknown_severe_reference_rejected(self):
        with pytest.raises(InputError):
            SystemModel("bad", [BasicEvent("A", 0.1, 0.2)], [("A", "Z")])

    def test_empty_severe_subset_rejected(self):
        with pytest.raises(InputError):
            SystemModel("bad", [BasicEvent("A", 0.1, 0.2)], [()])

    @pytest.mark.parametrize("ids, severe_states", [
        (["A", "B"], "AB"),  # would be two one-event states, {A} and {B}
        (["A", "B"], ["AB"]),  # would be {A, B}
        (["pump", "m", "u", "p"], ["pump"]),  # would name the events m, p and u
    ])
    def test_severe_state_written_as_a_string_rejected(self, ids, severe_states):
        payload = {"name": "bad", "severe_states": severe_states,
                   "events": [{"id": eid, "p_down": 0.1, "p_repair": 0.2} for eid in ids]}
        with pytest.raises(InputError, match="must be a list of lists of event ids"):
            SystemModel.from_dict(payload)

    def test_probability_bounds(self):
        with pytest.raises(InputError):
            BasicEvent("A", 0.0, 0.5)
        with pytest.raises(InputError):
            BasicEvent("A", 0.5, 1.0)

    def test_json_round_trip(self, ref_system, tmp_path):
        path = tmp_path / "system.json"
        ref_system.save(path)
        loaded = SystemModel.load(path)
        assert loaded.to_dict() == ref_system.to_dict()

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError):
            SystemModel.load(path)


class TestStateOperations:
    def test_fail_marks_event_down(self):
        assert apply_event(0b000, 0, FAIL) == 0b001

    def test_repair_marks_event_up(self):
        assert apply_event(0b001, 0, REPAIR) == 0b000

    def test_illegal_actions(self):
        with pytest.raises(TransitionError):
            apply_event(0b000, 0, REPAIR)
        with pytest.raises(TransitionError):
            apply_event(0b001, 0, FAIL)
        with pytest.raises(InputError):
            apply_event(0b000, 0, "toggle")

    def test_is_severe_superset_containment(self, ref_system):
        broken_ab_c = 0b111
        assert is_severe(broken_ab_c, ref_system)
        assert not is_severe(0b001, ref_system)

    def test_is_severe_any_subset(self):
        system = SystemModel(
            "two-severe",
            [BasicEvent("A", 0.1, 0.2), BasicEvent("B", 0.1, 0.2),
             BasicEvent("C", 0.1, 0.2)],
            [("A",), ("B", "C")])
        assert is_severe(0b110, system)
        assert is_severe(0b001, system)
        assert not is_severe(0b010, system)


class TestScenarioProbability:
    def test_single_fail(self, ref_system):
        assert scenario_probability(ref_system, [(0, FAIL)]) == pytest.approx(0.1)

    def test_two_fails_multiply(self, ref_system):
        got = scenario_probability(ref_system, [(0, FAIL), (1, FAIL)])
        assert got == pytest.approx(0.02, rel=1e-12)

    def test_fail_repair_fail(self, ref_system):
        got = scenario_probability(ref_system, [(0, FAIL), (0, REPAIR), (0, FAIL)])
        assert got == pytest.approx(0.003, rel=1e-12)

    def test_illegal_walk_rejected(self, ref_system):
        with pytest.raises(TransitionError):
            scenario_probability(ref_system, [(0, REPAIR)])

    def test_empty_scenario_rejected(self, ref_system):
        with pytest.raises(InputError):
            scenario_probability(ref_system, [])


class TestEncodeDecode:
    def test_fail_encodes_to_even(self, ref_system):
        assert encode_scenario(ref_system, [(0, FAIL)]) == [0]

    def test_fail_repair_pair(self, ref_system):
        assert encode_scenario(ref_system, [(1, FAIL), (1, REPAIR)]) == [2, 3]

    def test_round_trip_on_random_legal_walks(self, ref_system):
        rng = np.random.default_rng(0)
        for _ in range(50):
            state, steps = 0, []
            for _ in range(int(rng.integers(1, 9))):
                idx = int(rng.integers(0, 3))
                down = bool(state >> idx & 1)
                action = REPAIR if down else FAIL
                state ^= 1 << idx
                steps.append((idx, action))
            assert decode_scenario(ref_system, encode_scenario(ref_system, steps)) == steps

    def test_decode_checks_legality(self, ref_system):
        with pytest.raises(TransitionError):
            decode_scenario(ref_system, [1])
        with pytest.raises(InputError):
            decode_scenario(ref_system, [6])


class TestLegalWalks:
    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_rows_are_legal_when_decode_scenario_decodes_them(self, ref_system, length):
        rows = np.array(list(all_sequences(ref_system.alphabet_size, length)))
        for start in range(1 << ref_system.num_events):
            want = []
            for row in rows.tolist():
                try:
                    decode_scenario(ref_system, row, initial_state=start)
                except InputError:
                    want.append(False)
                else:
                    want.append(True)
            got = legal_walks(ref_system, rows, start)
            assert got.dtype == bool and got.tolist() == want
            assert 0 < sum(want) < len(want)

    def test_no_rows(self, ref_system):
        assert legal_walks(ref_system, np.zeros((0, 3), dtype=np.int64)).tolist() == []

    @pytest.mark.parametrize("bad", [6, -1])
    def test_symbols_outside_the_alphabet_raise(self, ref_system, bad):
        with pytest.raises(InputError, match=f"symbol {bad} outside alphabet of size 6"):
            legal_walks(ref_system, [[0, 1], [2, bad]])


class TestEnumerate:
    def test_single_event_system(self):
        system = SystemModel("one", [BasicEvent("A", 0.3, 0.5)], [("A",)])
        probable, no_probable = enumerate_scenarios(system, max_len=1, p_min=1e-3)
        assert len(probable) == 1 and len(no_probable) == 0
        assert probable[0].steps == ((0, FAIL),)
        assert probable[0].probability == pytest.approx(0.3)

    def test_symmetric_two_event_system(self):
        system = SystemModel("two", [BasicEvent("A", 0.2, 0.5),
                                     BasicEvent("B", 0.3, 0.5)], [("A", "B")])
        probable, no_probable = enumerate_scenarios(system, max_len=2, p_min=1e-3)
        scenarios = probable + no_probable
        assert len(scenarios) == 2
        for sc in scenarios:
            assert sc.probability == pytest.approx(0.06, rel=1e-12)

    def test_reference_system_matches_bfs_oracle(self, ref_system):
        probable, no_probable = enumerate_scenarios(ref_system, max_len=4, p_min=1e-3)
        got = {(sc.steps, sc.probability) for sc in probable + no_probable}
        want = {(steps, prob) for steps, prob in bfs_scenarios(ref_system, 0, 4)}
        assert {s for s, _ in got} == {s for s, _ in want}
        want_probs = dict(want)
        for steps, prob in got:
            assert prob == want_probs[steps]
        assert len(probable) == 8 and len(no_probable) == 8

    @pytest.mark.parametrize("seed", range(30))
    def test_random_systems_match_bfs_oracle_exactly(self, seed):
        # 1-6 events, 1-3 severe subsets, max_len 1-7: the same scenarios,
        # probabilities equal bit for bit, each class in (-prob, symbols) order
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        events = [BasicEvent(f"E{i}", *map(float, rng.uniform(0.01, 0.99, 2)))
                  for i in range(n)]
        severe = [[f"E{i}" for i in rng.choice(n, int(rng.integers(1, n + 1)),
                                                 replace=False)]
                  for _ in range(int(rng.integers(1, 4)))]
        system = SystemModel("random", events, severe)
        max_len = int(rng.integers(1, 8))
        want = bfs_scenarios(system, 0, max_len)
        p_min = float(np.median([prob for _, prob in want])) if want else 1e-3
        probable, no_probable = enumerate_scenarios(system, max_len=max_len, p_min=p_min)
        for label, group in (("probable", probable), ("no_probable", no_probable)):
            keyed = sorted((-prob, tuple(encode_scenario(system, steps)), steps)
                           for steps, prob in want if (prob > p_min) == (label == "probable"))
            assert [(sc.steps, sc.probability, sc.symbols, sc.label) for sc in group] == \
                [(steps, -key, symbols, label) for key, symbols, steps in keyed]

    def test_scenarios_end_severe_without_severe_prefix(self, ref_system):
        probable, no_probable = enumerate_scenarios(ref_system, max_len=4, p_min=1e-3)
        for sc in probable + no_probable:
            state = 0
            for i, (idx, action) in enumerate(sc.steps):
                state = apply_event(state, idx, action)
                if i < len(sc.steps) - 1:
                    assert not is_severe(state, ref_system)
            assert is_severe(state, ref_system)

    def test_probabilities_recompute_exactly(self, ref_system):
        probable, no_probable = enumerate_scenarios(ref_system, max_len=4, p_min=1e-3)
        for sc in probable + no_probable:
            assert scenario_probability(ref_system, sc) == pytest.approx(
                sc.probability, rel=1e-15)

    def test_partition_is_strict_threshold(self, ref_system):
        p_min = 1e-3
        probable, no_probable = enumerate_scenarios(ref_system, max_len=4, p_min=p_min)
        assert all(sc.probability > p_min for sc in probable)
        assert all(sc.probability <= p_min for sc in no_probable)
        assert all(sc.label == "probable" for sc in probable)
        assert all(sc.label == "no_probable" for sc in no_probable)

    def test_sorted_by_descending_probability(self, ref_system):
        probable, no_probable = enumerate_scenarios(ref_system, max_len=4, p_min=1e-3)
        for group in (probable, no_probable):
            probs = [sc.probability for sc in group]
            assert probs == sorted(probs, reverse=True)

    def test_symbols_are_the_encoded_steps(self):
        system = psa.reference_four_event_system()
        probable, no_probable = enumerate_scenarios(system, max_len=6, p_min=1e-3)
        for group in (probable, no_probable):
            assert all(sc.symbols == tuple(encode_scenario(system, sc)) for sc in group)
            # ties in probability are broken by the encoded symbols
            keys = [(-sc.probability, sc.symbols) for sc in group]
            assert keys == sorted(keys)

    def test_deterministic_order(self, ref_system):
        a = enumerate_scenarios(ref_system, max_len=4, p_min=1e-3)
        b = enumerate_scenarios(ref_system, max_len=4, p_min=1e-3)
        assert a == b

    def test_resource_limits(self):
        events = [BasicEvent(f"E{i}", 0.1, 0.2) for i in range(13)]
        big = SystemModel("big", events, [("E0",)])
        with pytest.raises(ResourceLimitError):
            enumerate_scenarios(big, max_len=2)
        small = SystemModel("small", events[:2], [("E0",)])
        with pytest.raises(ResourceLimitError):
            enumerate_scenarios(small, max_len=13)

    def test_walk_budget(self, ref_system, monkeypatch):
        # the three-event system explores 84 walk steps at max_len 4
        monkeypatch.setattr(psa, "MAX_WALK_STEPS", 84)
        probable, no_probable = enumerate_scenarios(ref_system, max_len=4)
        assert len(probable) + len(no_probable) == 16
        monkeypatch.setattr(psa, "MAX_WALK_STEPS", 83)
        with pytest.raises(ResourceLimitError, match="walk steps"):
            enumerate_scenarios(ref_system, max_len=4)

    def test_walk_budget_of_the_four_event_system(self, monkeypatch):
        # README's count: 102,980 walk steps at max_len 10
        system = reference_four_event_system()
        monkeypatch.setattr(psa, "MAX_WALK_STEPS", 102_980)
        assert psa._scenario_columns(system, 10)[3] == 102_980
        monkeypatch.setattr(psa, "MAX_WALK_STEPS", 102_979)
        with pytest.raises(ResourceLimitError, match="walk steps"):
            build_datasets(system, max_len=10)


class TestBuildDatasets:
    @pytest.mark.parametrize("system, max_len, seed, digests", [
        (psa.reference_three_event_system, 4, 9,
         ("cc9fafc37c460eeadcd3ecfb6103c7bebd8008becdc36760ef9e2e25a31b305b",
          "cb77ff0955e51ec8918d0d6d4d7fc80247be9ac0a056677e270dda0bf3bdae00")),
        (psa.reference_four_event_system, 8, 1,
         ("4cc7cbc0cfa05e4174051bd3560b3a699827b7bf2505ecf25707d9bc57bc34f5",
          "52ec0c9df9a305550d206aa6dcbf4611603d78307955c0480e07ab151c11dc94")),
    ])
    def test_saved_bytes_are_pinned(self, tmp_path, system, max_len, seed, digests):
        # SHA-256 of the files as encode_scenario's symbols give them; the
        # symbols built during the walk must not change a byte
        build_datasets(system(), max_len=max_len, p_min=1e-3, test_fraction=0.25,
                       seed=seed, out_dir=tmp_path)
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("probable.jsonl", "no_probable.jsonl"))
        assert got == digests

    def test_nan_p_min_is_rejected(self, ref_system):
        # NaN compares false, so every scenario would be labeled no_probable
        with pytest.raises(InputError, match="p_min"):
            enumerate_scenarios(ref_system, max_len=4, p_min=float("nan"))
        with pytest.raises(InputError, match="p_min"):
            build_datasets(ref_system, p_min=float("nan"), seed=0)

    def test_split_sizes(self, ref_system):
        probable, no_probable = build_datasets(ref_system, test_fraction=0.25, seed=0)
        for ds in (probable, no_probable):
            assert len(ds.sequences("test")) == round(0.25 * len(ds.records))
            assert len(ds.sequences("train")) + len(ds.sequences("test")) == len(ds.records)

    def test_same_seed_same_split(self, ref_system):
        a = build_datasets(ref_system, seed=3)
        b = build_datasets(ref_system, seed=3)
        assert a[0].records == b[0].records
        assert a[1].records == b[1].records

    def test_union_covers_enumeration_without_duplicates(self, ref_system):
        probable, no_probable = build_datasets(ref_system, seed=1)
        enum_p, enum_n = enumerate_scenarios(ref_system, max_len=4, p_min=1e-3)
        for ds, scenarios in ((probable, enum_p), (no_probable, enum_n)):
            got = [r.sequence for r in ds.records]
            want = [tuple(encode_scenario(ref_system, sc)) for sc in scenarios]
            assert got == want
            assert len(set(got)) == len(got)

    def test_split_follows_one_seeded_permutation_per_class(self, ref_system):
        probable, no_probable = build_datasets(ref_system, test_fraction=0.25, seed=4)
        rng = np.random.default_rng(4)
        for ds in (probable, no_probable):
            n = len(ds)
            test = set(rng.permutation(n)[:round(0.25 * n)].tolist())
            assert ds.splits == ["test" if i in test else "train" for i in range(n)]

    def test_alphabet_and_labels(self, ref_system):
        probable, no_probable = build_datasets(ref_system, seed=0)
        assert probable.alphabet_size == 6
        assert {r.label for r in probable.records} == {"probable"}
        assert {r.label for r in no_probable.records} == {"no_probable"}

    def test_empty_class_raises_with_diagnostic(self, ref_system):
        with pytest.raises(DatasetConstructionError):
            build_datasets(ref_system, max_len=2, p_min=1e-3, seed=0)

    def test_writes_jsonl_files(self, ref_system, tmp_path):
        build_datasets(ref_system, seed=0, out_dir=tmp_path)
        for name in ("probable.jsonl", "no_probable.jsonl"):
            lines = (tmp_path / name).read_text().strip().splitlines()
            assert len(lines) == 8
            record = json.loads(lines[0])
            assert set(record) == {"sequence", "label", "prob", "split"}

    def test_fraction_bounds(self, ref_system):
        with pytest.raises(InputError):
            build_datasets(ref_system, test_fraction=0.0, seed=0)


class TestDatasetIo:
    def test_round_trip(self, ref_system, tmp_path):
        probable, _ = build_datasets(ref_system, seed=0)
        path = tmp_path / "probable.jsonl"
        save_dataset(probable, path)
        loaded = load_dataset(path)
        assert loaded.alphabet_size == probable.alphabet_size
        assert loaded.records == probable.records

    def test_alphabet_inference_rounds_up_to_even(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"sequence": [0, 4]}\n')
        assert load_dataset(path).alphabet_size == 6
        path.write_text('{"sequence": [0, 5]}\n')
        assert load_dataset(path).alphabet_size == 6

    def test_explicit_alphabet_validated(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"sequence": [0, 7]}\n')
        with pytest.raises(InputError):
            load_dataset(path, alphabet_size=6)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(InputError):
            load_dataset(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"sequence": [0]}\nnot json\n')
        with pytest.raises(InputError):
            load_dataset(path)

    def test_record_constructor_matches_loaded_columns(self, ref_system, tmp_path):
        _, no_probable = build_datasets(ref_system, seed=2)
        path = tmp_path / "no_probable.jsonl"
        save_dataset(no_probable, path)
        loaded = load_dataset(path)
        rebuilt = ScenarioDataset(loaded.alphabet_size, loaded.records)
        for ds in (loaded, rebuilt):
            assert ds.symbols.dtype == np.int64 and ds.lengths.dtype == np.int64
            np.testing.assert_array_equal(ds.symbols, no_probable.symbols)
            np.testing.assert_array_equal(ds.lengths, no_probable.lengths)
            assert (ds.labels, ds.probs, ds.splits) == \
                (no_probable.labels, no_probable.probs, no_probable.splits)
        save_dataset(rebuilt, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_lines_are_json_dumps_of_the_records(self, tmp_path):
        nan, inf = float("nan"), float("inf")
        # repeated strings and nonzero finite floats are encoded once; the
        # values equal to one of them but printed differently keep their own
        repeats = [0.25, 1e-05, 0.25, 0.0, -0.0, 0.0, -0.0, 1.0, True, 1, 1.0, True,
                   np.float64(0.5), 0.5, np.float64(0.5), 0.5, "0.25", 0.25]
        labels = [None, 'say "hi"', "back\\slash", "naïve ✓ \n", ["a", 1], "probable",
                  'say "hi"', True, 1] + repeats
        probs = [None, 1e-05, 1e16, -0.0, nan, inf, -inf, 0.1 + 0.2, np.float64(0.5)] + repeats
        splits = [True, 1, 1.0, "train", "test", "train", 7, 2 ** 70, False] + repeats[::-1]
        lengths = np.arange(1, len(labels) + 1, dtype=np.int64)
        symbols = np.arange(lengths.sum(), dtype=np.int64) % 6
        dataset = ScenarioDataset.from_columns(6, symbols, lengths, labels, probs, splits)
        path = tmp_path / "data.jsonl"
        save_dataset(dataset, path)
        want = [json.dumps({"sequence": list(seq), "label": label, "prob": prob,
                            "split": split}) + "\n"
                for seq, label, prob, split in zip(dataset.sequences(), labels, probs,
                                                   splits)]
        assert path.read_text(encoding="utf-8").splitlines(keepends=True) == want

    def test_record_constructor_rejects_empty_sequences(self):
        with pytest.raises(InputError):
            ScenarioDataset(6, [psa.ScenarioRecord((0, 1)), psa.ScenarioRecord(())])

    @pytest.mark.parametrize("split", [None, "train", "test", "other"])
    def test_views_filter_records_by_split(self, ref_system, split):
        probable, _ = build_datasets(ref_system, seed=5)
        kept = [r for r in probable.records if split is None or r.split == split]
        assert probable.sequences(split) == [r.sequence for r in kept]
        assert probable.labeled(split) == [(r.sequence, r.label) for r in kept]
        subset = probable.subset(split)
        assert len(subset) == len(kept) and subset.records == kept
        assert all(type(x) is int for seq in probable.sequences(split) for x in seq)

    @pytest.mark.parametrize("lines, line_no", [
        (['{"sequence": [0, 1.5, "3", true]}'], 1),
        (['{"sequence": [0, 1]}', '{"sequence": [0, true]}'], 2),
        (['{"sequence": [0, 1.0]}'], 1),
        (['{"sequence": [0, "3"]}'], 1),
        (['{"sequence": [0, null]}'], 1),
        (['{"sequence": [0, [1]]}'], 1),
        (['{"sequence": [0, 1]}', '', '{"sequence": []}'], 3),
        (['{"sequence": "01"}'], 1),
        (['{"sequence": {"0": 1}}'], 1),
        (['{"sequence": [0, -1]}'], 1),
        (['{"sequence": [0, 18446744073709551616]}'], 1),
        (['{"label": "probable"}'], 1),
        (['[0, 1]'], 1),
        (['{"sequence": [0]}', '{"sequence": [0]} {"sequence": [1]}'], 2),
        (['{"sequence": [0]}, {"sequence": [1', '2]}'], 1),
    ])
    def test_invalid_record_names_its_line(self, tmp_path, lines, line_no):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=f"bad.jsonl:{line_no}: "):
            load_dataset(path)

    def test_file_longer_than_one_chunk(self, tmp_path):
        _, no_probable = build_datasets(reference_four_event_system(), max_len=8,
                                        p_min=1e-3, test_fraction=0.25, seed=1)
        path = tmp_path / "data.jsonl"
        save_dataset(no_probable, path)
        lines = path.read_text().splitlines()
        assert len(lines) > 2 * psa._DECODE_LINES
        lines.insert(psa._DECODE_LINES - 1, "")  # a blank line moves the rest
        path.write_text("\n".join(lines) + "\n")
        loaded = load_dataset(path)
        assert loaded.alphabet_size == no_probable.alphabet_size
        np.testing.assert_array_equal(loaded.symbols, no_probable.symbols)
        np.testing.assert_array_equal(loaded.lengths, no_probable.lengths)
        assert (loaded.labels, loaded.probs, loaded.splits) == \
            (no_probable.labels, no_probable.probs, no_probable.splits)
        line_no = 2 * psa._DECODE_LINES + 7
        lines[line_no - 1] = '{"sequence": [0, true]}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=f"data.jsonl:{line_no}: symbol true "):
            load_dataset(path)

    def test_symbol_outside_explicit_alphabet_names_its_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"sequence": [0, 5]}\n\n{"sequence": [6, 1]}\n')
        assert load_dataset(path, alphabet_size=7).alphabet_size == 7
        with pytest.raises(InputError, match="data.jsonl:3: symbol 6 "):
            load_dataset(path, alphabet_size=6)
