import csv
import math

import numpy as np
import pytest

from scengen import (InputError, average_da, da_for_sequence, da_nonlinearity,
                     da_score, embed_hmm, hmm_forward, log_likelihoods,
                     qhmm_log_likelihood, sequence_log_prob, write_da_report)

from oracles import kraus_path_probability, random_kraus_model

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
