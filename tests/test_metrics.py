import csv
import math
import re
from collections import Counter

import numpy as np
import pytest

from scengen import (CategoricalHmm, InputError, average_da, da_for_sequence,
                     da_nonlinearity, da_score, da_scores, embed_hmm, enumerate_scenarios,
                     hmm_forward, log_likelihoods, qhmm_log_likelihood,
                     reference_four_event_system, sequence_log_prob, write_da_report)
from scengen import hmm, qhmm
from scengen.metrics import _scores
from scengen.qhmm import _BLOCK_BUDGET

from oracles import (da_score_reference, distinct_prefixes_per_block,
                     kraus_path_probability, pad_reference, path_sum_probability,
                     random_hmm, random_kraus_model)

F_AT_MINUS_FOUR = (1.0 - math.e) / (1.0 + math.e)  # = -0.46211715726000974


class TestNonlinearity:
    def test_zero_is_fixed(self):
        assert da_nonlinearity(0.0) == 0.0

    def test_one_is_fixed(self):
        assert da_nonlinearity(1.0) == 1.0

    def test_value_at_minus_four(self):
        assert da_nonlinearity(-4.0) == pytest.approx(F_AT_MINUS_FOUR, abs=1e-15)

    def test_matches_exponential_form_where_it_is_finite(self):
        for x in np.linspace(-40.0, -1e-9, 57):
            explicit = (1.0 - math.exp(-x / 4.0)) / (1.0 + math.exp(-x / 4.0))
            assert da_nonlinearity(x) == pytest.approx(explicit, rel=1e-12)

    def test_saturates_at_minus_one(self):
        assert da_nonlinearity(float("-inf")) == -1.0
        # the open bound holds wherever float64 can still resolve it
        assert da_nonlinearity(-100.0) > -1.0

    def test_strictly_increasing(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = np.sort(rng.uniform(-50.0, 1.0, size=2))
            if a == b:
                continue
            assert da_nonlinearity(a) < da_nonlinearity(b)

    def test_domain_ends_at_one(self):
        with pytest.raises(InputError):
            da_nonlinearity(1.001)


class TestDaScore:
    def test_certain_prediction_scores_one(self):
        for length, s in ((1, 2), (7, 3), (100, 6)):
            assert da_score(0.0, length, s) == 1.0

    def test_uniform_model_scores_zero(self):
        for length, s in ((1, 2), (5, 3), (12, 6)):
            assert da_score(-length * math.log(s), length, s) == pytest.approx(0.0, abs=1e-12)

    def test_half_probability_single_binary_symbol(self):
        assert da_score(math.log(0.5), 1, 2) == pytest.approx(0.0, abs=1e-12)

    def test_impossible_sequence_scores_sentinel(self):
        assert da_score(float("-inf"), 4, 2) == -1.0

    def test_positive_iff_beats_uniform(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            length = int(rng.integers(1, 20))
            s = int(rng.integers(2, 7))
            log_prob = -float(rng.uniform(0.0, 3.0)) * length
            score = da_score(log_prob, length, s)
            beats_uniform = log_prob / (length * math.log(s)) > -1.0
            if beats_uniform:
                assert score > 0.0
            elif log_prob / (length * math.log(s)) < -1.0:
                assert score < 0.0

    def test_input_validation(self):
        with pytest.raises(InputError):
            da_score(0.0, 0, 2)
        with pytest.raises(InputError):
            da_score(0.0, 3, 1)
        with pytest.raises(InputError):
            da_score(0.5, 3, 2)


class TestDaScores:
    """The vectorised score against a scalar one, bit for bit."""

    @staticmethod
    def assert_bitwise_equal(log_probs, lengths, alphabet_size):
        got = da_scores(log_probs, lengths, alphabet_size)
        want = np.array([da_score_reference(lp, n, alphabet_size)
                         for lp, n in zip(log_probs, lengths)])
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_anchor_points(self):
        log_probs = [-np.inf, 0.0, -0.0, 1e-9, 5e-10, -1e-300, -np.log(6) * 3]
        self.assert_bitwise_equal(log_probs, [3] * len(log_probs), 6)
        assert da_scores([-np.inf, 1e-9], [1, 4], 2).tolist() == [-1.0, 1.0]

    @pytest.mark.parametrize("alphabet_size", [2, 6, 8, 24])
    def test_random_negative_log_probs(self, alphabet_size):
        rng = np.random.default_rng(alphabet_size)
        count = 100_000
        # spread over both branches: P from near 1 down to far below s^-L
        log_probs = -np.exp(rng.uniform(-20.0, 8.0, count))
        lengths = rng.integers(1, 13, count)
        self.assert_bitwise_equal(log_probs, lengths, alphabet_size)

    def test_input_validation(self):
        for log_probs, lengths, alphabet_size in (
                ([0.0], [0], 2), ([0.0], [3], 1), ([0.5], [3], 2),
                ([-1.0, 2e-9], [3, 3], 2), ([np.nan], [3], 2)):
            with pytest.raises(InputError):
                da_scores(log_probs, lengths, alphabet_size)

    def test_scalar_score_is_the_one_entry_array(self):
        for log_prob in (-np.inf, 0.0, -0.0, 1e-10, 1e-9, -1e-300, -0.3, -7.5):
            for length, alphabet_size in ((1, 2), (2, 6), (7, 24)):
                got = da_score(log_prob, length, alphabet_size)
                want = da_score_reference(log_prob, length, alphabet_size)
                assert type(got) is float
                assert math.copysign(1.0, got) == math.copysign(1.0, want)
                assert got == want
        for args in ((0.0, 0, 2), (0.0, 3, 1), (0.5, 3, 2), (np.nan, 3, 2)):
            with pytest.raises(InputError) as want:
                da_score_reference(*args)
            with pytest.raises(InputError, match=f"^{re.escape(str(want.value))}$"):
                da_score(*args)


class TestAverageDa:
    def test_certain_model_scores_one(self, det_hmm):
        assert average_da(det_hmm, [[0, 0], [0, 0, 0]]) == 1.0

    def test_single_sequence_equals_its_score(self, ref_hmm):
        seq = [0, 1, 1]
        assert average_da(ref_hmm, [seq]) == da_for_sequence(ref_hmm, seq)

    def test_mean_matches_recomputation(self, ref_hmm):
        dataset = [[0, 1], [1, 1, 0], [0], [1, 0, 1, 0]]
        want = np.mean([da_for_sequence(ref_hmm, s) for s in dataset])
        assert average_da(ref_hmm, dataset) == pytest.approx(want, abs=1e-12)

    def test_sentinel_terms_included(self, det_hmm):
        got = average_da(det_hmm, [[0, 0], [0, 1]])
        assert got == pytest.approx((1.0 + -1.0) / 2.0, abs=1e-12)

    def test_empty_dataset_errors(self, ref_hmm):
        with pytest.raises(InputError):
            average_da(ref_hmm, [])

    def test_quantum_and_classical_models_agree(self, ref_hmm):
        dataset = [[0, 1, 1], [1, 0]]
        classical = average_da(ref_hmm, dataset)
        quantum = average_da(embed_hmm(ref_hmm), dataset)
        assert quantum == pytest.approx(classical, abs=1e-10)


class TestSequenceLogProb:
    def test_dispatch(self, ref_hmm):
        classical = sequence_log_prob(ref_hmm, [0, 1])
        quantum = sequence_log_prob(embed_hmm(ref_hmm), [0, 1])
        assert quantum == pytest.approx(classical, abs=1e-10)

    def test_unknown_model_kind(self):
        with pytest.raises(InputError):
            sequence_log_prob(object(), [0, 1])
        with pytest.raises(InputError):
            log_likelihoods(object(), [[0, 1]])


class TestLogLikelihoods:
    def test_mixed_lengths_match_kraus_path_enumeration(self):
        rng = np.random.default_rng(3)
        model = random_kraus_model(rng, 3, 3, multiplicity=2)
        seqs = [list(rng.integers(0, 3, size=length)) for length in (2, 5, 1, 4, 5, 3)]
        got = log_likelihoods(model, seqs)
        assert got.shape == (len(seqs),)
        for seq, log_prob in zip(seqs, got):
            assert np.exp(log_prob) == pytest.approx(kraus_path_probability(model, seq),
                                                     rel=1e-10)

    def test_underflowing_row_is_isolated(self, absorbing_hmm, underflow_batch):
        model = embed_hmm(absorbing_hmm)
        got = log_likelihoods(model, underflow_batch)
        assert got[1] == float("-inf")
        for i in (0, 2, 3):
            assert math.isfinite(got[i])
            assert got[i] == qhmm_log_likelihood(model, underflow_batch[i])

    @pytest.mark.parametrize("k", [2, 5])
    def test_hmm_batch_matches_path_sum(self, tree_cap, k):
        # mixed lengths, over several prefix-tree blocks of the forward pass
        rng = np.random.default_rng(k)
        model = random_hmm(rng, k, 3)
        seqs = [tuple(rng.integers(0, 3, size=int(rng.integers(1, 5))))
                for _ in range(1024 // k + 40)]
        assert tree_cap(16, k, seqs, 3) > 3
        oracle = {s: path_sum_probability(model, s) for s in set(seqs)}
        got = log_likelihoods(model, seqs)
        np.testing.assert_allclose(np.exp(got), [oracle[s] for s in seqs], rtol=1e-12)

    def test_impossible_hmm_row_is_isolated(self, absorbing_hmm, underflow_batch, tree_cap):
        # one tree block per distinct row
        possible = [underflow_batch[i] for i in (0, 2, 3)]
        seqs = [possible[i % 3] for i in range(1024 // 2 + 11)]
        middle = len(seqs) // 2
        seqs[middle] = underflow_batch[1]
        assert tree_cap(5, 2, seqs, 3) == 4
        got = log_likelihoods(absorbing_hmm, seqs)
        assert np.flatnonzero(np.isinf(got)).tolist() == [middle]
        assert got[middle] == float("-inf")
        for seq, log_prob in zip(seqs[:middle] + seqs[middle + 1:],
                                 np.delete(got, middle)):
            assert np.exp(log_prob) == pytest.approx(
                path_sum_probability(absorbing_hmm, seq), rel=1e-12)

    def test_hmm_rows_match_forward(self, ref_hmm):
        seqs = [[0, 1], [1, 1, 0], [0]]
        want = [hmm_forward(ref_hmm, s).log_likelihood for s in seqs]
        np.testing.assert_array_equal(log_likelihoods(ref_hmm, seqs), want)

    def test_empty_dataset_errors(self, ref_hmm):
        with pytest.raises(InputError):
            log_likelihoods(embed_hmm(ref_hmm), [])


class TestReport:
    def test_csv_columns_and_mean(self, ref_hmm, tmp_path):
        dataset = [[0, 1], [1, 1, 0]]
        path = tmp_path / "report.csv"
        mean = write_da_report(path, ref_hmm, dataset)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sequence_id", "length", "log_prob", "da"]
        assert len(rows) == 3
        das = [float(r[3]) for r in rows[1:]]
        assert mean == pytest.approx(np.mean(das), abs=1e-15)
        assert mean == pytest.approx(average_da(ref_hmm, dataset), abs=1e-12)


def row_wise_log_probs(model, sequences):
    """Each sequence's log-probability from a filter over its own row: for
    a Kraus model, the forward pass of a one-row
    :func:`qhmm._loss_and_gradient`, which builds no prefix tree; for an
    HMM, a one-row :func:`hmm_forward` call."""
    if isinstance(model, CategoricalHmm):
        return np.array([hmm_forward(model, seq).log_likelihood for seq in sequences])
    return np.array([qhmm._loss_and_gradient([(model.operators, np.array([seq]),
                                               np.array([len(seq)]))],
                                             model.initial_state.matrix)[0][0]
                     for seq in sequences])


def stem_sequences(rng, alphabet_size, count, max_len, stems=3):
    """Sequences that share prefixes: cuts of a few random stems, some
    extended by up to three random symbols."""
    roots = [rng.integers(0, alphabet_size, size=max_len).tolist() for _ in range(stems)]
    sequences = []
    for _ in range(count):
        seq = roots[int(rng.integers(stems))][:int(rng.integers(1, max_len + 1))]
        if rng.random() < 0.3:
            seq = seq + rng.integers(0, alphabet_size, size=int(rng.integers(4))).tolist()
        sequences.append(seq)
    return sequences


def assert_scores_equal_row_wise(models, sequences):
    lengths, log_probs, das = _scores(models, sequences)
    assert lengths.tolist() == [len(seq) for seq in sequences]
    for model, got, got_da in zip(models, log_probs, das):
        want = row_wise_log_probs(model, sequences)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            got_da, [da_score(lp, len(seq), model.alphabet_size)
                     for lp, seq in zip(want, sequences)])


class TestPrefixSharedScores:
    """Every row of :func:`metrics._scores` equals its own row-wise filter
    at tolerance 0, whichever prefixes the rows share."""

    def test_duplicates_and_sequences_that_prefix_others(self):
        model = random_kraus_model(np.random.default_rng(1), 4, 3)
        sequences = [[0, 1, 2], [0, 1], [0, 1, 2], [0], [0, 1, 2, 0], [1], [0, 1],
                     [2, 2, 2, 2, 2], [0, 1, 2], [0, 0]]
        assert_scores_equal_row_wise([model], sequences)

    def test_underflowing_row_beside_a_live_sibling(self):
        # symbol 2 cannot be emitted: [0, 1, 2] and its extension score -inf,
        # while [0, 1, 1] and [0, 1], which share its prefix, do not
        ops = random_kraus_model(np.random.default_rng(2), 3, 3).operators.copy()
        ops[2] = 0.0
        model = qhmm.KrausModel(ops, qhmm.DensityMatrix.maximally_mixed(3))
        sequences = [[0, 1, 2], [0, 1, 1], [0, 1, 2, 0], [0, 1], [2], [0, 1, 1, 0]]
        log_probs = _scores([model], sequences, da=False)[1][0]
        assert np.isinf(log_probs).tolist() == [True, False, True, False, True, False]
        assert_scores_equal_row_wise([model], sequences)

    def test_k16_mu2_over_several_row_blocks(self):
        rng = np.random.default_rng(3)
        model = random_kraus_model(rng, 16, 4, 2)
        sequences = stem_sequences(rng, 4, 60, 6)
        assert len(sequences) > 5 * (_BLOCK_BUDGET // (2 * 16 ** 2))  # 8 rows a block
        assert_scores_equal_row_wise([model], sequences)

    @pytest.mark.parametrize("sequence", [[2], [0, 1, 2, 1]])
    def test_one_row(self, sequence):
        rng = np.random.default_rng(4)
        assert_scores_equal_row_wise([random_kraus_model(rng, 4, 3), random_hmm(rng, 4, 3)],
                                     [sequence])

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_a_one_row_call_has_the_bits_of_its_row_in_a_sorted_call(self, k):
        # a one-row call is its own tree: it skips the sort and the layout
        rng = np.random.default_rng(20 + k)
        models = [random_kraus_model(rng, k, 3), random_hmm(rng, k, 3)]
        sequences = stem_sequences(rng, 3, 30, 8)
        together = _scores(models, sequences)[1]
        for i, seq in enumerate(sequences):
            np.testing.assert_array_equal(_scores(models, [seq])[1][:, 0], together[:, i])
            assert qhmm_log_likelihood(models[0], seq) == together[0, i]

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_hmm_rows_equal_their_one_row_calls(self, tree_cap, k):
        # several prefix-tree blocks of rows of lengths up to 12, and one row
        # that the model cannot produce
        rng = np.random.default_rng(5 + k)
        model = random_hmm(rng, k, 3)
        emission = model.emission.copy()
        emission[:, 2] = 0.0
        model = CategoricalHmm(model.transition, emission / emission.sum(axis=1, keepdims=True),
                               model.start)
        sequences = [[symbol % 2 for symbol in seq]
                     for seq in stem_sequences(rng, 3, 1024 // k + 40, 12)]
        sequences[len(sequences) // 3] = [0, 1, 2, 0]
        assert tree_cap(12, k, sequences, 3) > 3
        log_probs = _scores([model], sequences)[1][0]
        assert np.flatnonzero(np.isinf(log_probs)).tolist() == [len(sequences) // 3]
        assert_scores_equal_row_wise([model], sequences)

    def test_hmm_bits_do_not_depend_on_the_row_blocks(self, monkeypatch):
        rng = np.random.default_rng(8)
        models = [random_hmm(rng, 4, 3), random_hmm(rng, 16, 3), random_hmm(rng, 4, 3)]
        sequences = stem_sequences(rng, 3, 300, 10)
        want = _scores(models, sequences)
        monkeypatch.setattr(hmm, "_TREE_BUDGET", 1)  # one row a block
        got = _scores(models, sequences)
        for got_array, want_array in zip(got, want):
            np.testing.assert_array_equal(got_array, want_array)

    def test_qhmm_and_hmm_share_one_padding(self):
        rng = np.random.default_rng(6)
        models = [random_kraus_model(rng, 4, 3), random_hmm(rng, 4, 3),
                  random_kraus_model(rng, 2, 3, 2), random_kraus_model(rng, 4, 3)]
        sequences = stem_sequences(rng, 3, 300, 9)
        assert_scores_equal_row_wise(models, sequences)
        together = _scores(models, sequences)[1]
        for model, row in zip(models, together):
            np.testing.assert_array_equal(row, _scores([model], sequences)[1][0])


@pytest.fixture
def recorded_kraus_rows(monkeypatch):
    """The number of rows of each :func:`qhmm._kraus_step` call the filter makes."""
    real_step, rows = qhmm._kraus_step, []

    def recording_step(operators, rho, symbols):
        rows.append(len(symbols))
        return real_step(operators, rho, symbols)

    monkeypatch.setattr(qhmm, "_kraus_step", recording_step)
    return rows


class TestScoringWork:
    def test_four_event_scenarios_filter_each_prefix_of_a_block_once(
            self, recorded_kraus_rows):
        _, no_probable = enumerate_scenarios(reference_four_event_system(), 8)
        sequences = [list(scenario.symbols) for scenario in no_probable]
        model = random_kraus_model(np.random.default_rng(7), 4, 8)
        work = Counter()
        got = _scores([model], sequences, work=work)[1][0]
        want = distinct_prefixes_per_block(sequences, _BLOCK_BUDGET // 4 ** 2)
        assert recorded_kraus_rows == want
        assert (len(sequences), sum(want)) == (3496, 6863)
        assert work == Counter(sequences_scored=3496, symbol_positions=25880,
                               prefixes_filtered=6863)
        # an unbounded tree would filter 6712 prefixes
        assert len({tuple(seq[:depth]) for seq in sequences
                    for depth in range(1, len(seq) + 1)}) == 6712
        np.testing.assert_array_equal(got, row_wise_log_probs(model, sequences))

    def test_hmm_scores_the_four_event_scenarios_on_one_tree(self):
        # 6712 nodes at K=4 fit one tree block of 32768 // 4 nodes
        _, no_probable = enumerate_scenarios(reference_four_event_system(), 8)
        sequences = [list(scenario.symbols) for scenario in no_probable]
        model = random_hmm(np.random.default_rng(7), 4, 8)
        work = Counter()
        got = _scores([model], sequences, work=work)[1][0]
        assert work == Counter(sequences_scored=3496, symbol_positions=25880,
                               prefixes_filtered=6712)
        np.testing.assert_array_equal(got, row_wise_log_probs(model, sequences))

    def test_every_model_adds_its_work(self):
        rng = np.random.default_rng(8)
        sequences = [[0, 1], [0, 1, 2], [0, 1], [2]]
        models = [random_kraus_model(rng, 2, 3), random_hmm(rng, 2, 3),
                  random_kraus_model(rng, 16, 3, 2)]
        work = Counter(prefixes_filtered=1)
        _scores(models, sequences, work=work)
        # every model filters the prefixes 0, 01, 012 and 2; at K=16, mu=2 a
        # Kraus block holds 8 rows, all four here
        assert work == Counter(sequences_scored=12, symbol_positions=24,
                               prefixes_filtered=1 + 4 + 4 + 4)

    def test_training_filters_one_row_per_running_sequence_per_step(
            self, recorded_kraus_rows):
        rng = np.random.default_rng(9)
        model = random_kraus_model(rng, 4, 3)
        sequences = stem_sequences(rng, 3, 300, 7)
        qhmm._loss_and_gradient([(model.operators, *pad_reference(sequences, 3))],
                                model.initial_state.matrix)
        # each block's steps, one row per sequence still running in the
        # kernel's order
        lengths = np.sort([len(seq) for seq in sequences])[::-1]
        block = _BLOCK_BUDGET // 4 ** 2
        want = [int(np.count_nonzero(lengths[start:start + block] > t))
                for start in range(0, len(lengths), block)
                for t in range(lengths[start])]
        assert len(want) > lengths[0]  # more than one row block
        assert recorded_kraus_rows == want
