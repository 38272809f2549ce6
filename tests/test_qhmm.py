import numpy as np
import pytest

from scengen import (DensityMatrix, InputError, KrausModel,
                     belief_update, embed_hmm, hmm_forward,
                     next_symbol_distribution, qhmm_log_likelihood,
                     qhmm_sample, random_stiefel, validate_kraus)

from oracles import all_sequences, kraus_path_probability, random_kraus_model

LN_P_011 = -2.3018853378797726


def identity_channel():
    return KrausModel(np.eye(1, dtype=complex).reshape(1, 1, 1, 1),
                      DensityMatrix.maximally_mixed(1))


def projective_model():
    ops = np.zeros((2, 1, 2, 2), dtype=complex)
    ops[0, 0] = np.diag([1.0, 0.0])
    ops[1, 0] = np.diag([0.0, 1.0])
    return KrausModel(ops, DensityMatrix.maximally_mixed(2))


class TestDensityMatrix:
    def test_valid_constructions(self):
        DensityMatrix(np.eye(3) / 3)
        DensityMatrix.pure(4, 2)
        DensityMatrix.from_diagonal([0.25, 0.75])

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            DensityMatrix([[0.5, 0.4], [0.1, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(InputError):
            DensityMatrix(np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(InputError):
            DensityMatrix([[1.5, 0.0], [0.0, -0.5]])

    def test_validate_flag_skips_checks(self):
        m = DensityMatrix(np.eye(2), validate=False)
        assert m.dim == 2

    def test_read_only(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestKrausModel:
    def test_shape_validation(self):
        with pytest.raises(InputError):
            KrausModel(np.zeros((2, 1, 2, 3)), DensityMatrix.maximally_mixed(2))
        with pytest.raises(InputError):
            KrausModel(np.zeros((2, 1, 3, 3)), DensityMatrix.maximally_mixed(2))

    def test_stiefel_round_trip(self):
        rng = np.random.default_rng(0)
        model = random_kraus_model(rng, 3, 2, multiplicity=2)
        stacked = model.to_stiefel()
        assert stacked.shape == (2 * 2 * 3, 3)
        clone = KrausModel.from_stiefel(stacked, 2, 2, model.initial_state)
        np.testing.assert_array_equal(clone.operators, model.operators)

    def test_from_stiefel_rejects_bad_rows(self):
        with pytest.raises(InputError):
            KrausModel.from_stiefel(np.eye(3, 2), 2, 1,
                                    DensityMatrix.maximally_mixed(2))

    def test_dict_round_trip(self):
        rng = np.random.default_rng(1)
        model = random_kraus_model(rng, 2, 3, multiplicity=2)
        payload = model.to_dict()
        assert payload["type"] == "qhmm"
        assert np.asarray(payload["kraus_re"]).shape == (3, 2, 2, 2)
        clone = KrausModel.from_dict(payload)
        np.testing.assert_array_equal(clone.operators, model.operators)
        np.testing.assert_array_equal(clone.initial_state.matrix,
                                      model.initial_state.matrix)

    def test_from_dict_rejects_mismatched_header(self):
        payload = identity_channel().to_dict()
        payload["mu"] = 2
        with pytest.raises(InputError):
            KrausModel.from_dict(payload)


class TestBeliefUpdate:
    def test_identity_channel_is_a_fixed_point(self):
        model = identity_channel()
        rho, prob = belief_update(model.initial_state, model, 0)
        assert prob == 1.0
        np.testing.assert_array_equal(rho.matrix, model.initial_state.matrix)

    def test_projective_measurement_collapses(self):
        model = projective_model()
        rho, prob = belief_update(model.initial_state, model, 0)
        assert prob == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            model = random_kraus_model(rng, 3, 2, multiplicity=2)
            rho = model.initial_state
            total = sum(belief_update(rho, model, x)[1] for x in range(2))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_updated_belief_stays_valid(self):
        rng = np.random.default_rng(3)
        model = random_kraus_model(rng, 3, 3, multiplicity=2)
        rho = model.initial_state
        for x in (0, 2, 1, 1, 0):
            rho, prob = belief_update(rho, model, x)
            assert 0.0 <= prob <= 1.0
            m = rho.matrix
            assert np.max(np.abs(m - m.conj().T)) <= 1e-10
            assert abs(m.trace() - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(m)[0] >= -1e-9

    def test_impossible_symbol_flags_invalid(self):
        model = projective_model()
        collapsed, _ = belief_update(DensityMatrix.pure(2, 0), model, 0)
        rho, prob = belief_update(collapsed, model, 1)
        assert rho is None
        assert prob == 0.0

    def test_symbol_out_of_range(self):
        with pytest.raises(InputError):
            belief_update(DensityMatrix.maximally_mixed(2), projective_model(), 2)


class TestLogLikelihood:
    def test_identity_channel_is_certain(self):
        model = identity_channel()
        assert qhmm_log_likelihood(model, [0, 0, 0, 0]) == 0.0

    def test_projective_hand_computation(self):
        model = projective_model()
        assert qhmm_log_likelihood(model, [0, 0]) == pytest.approx(np.log(0.5),
                                                                   abs=1e-12)

    def test_matches_belief_update_chain(self):
        rng = np.random.default_rng(4)
        model = random_kraus_model(rng, 3, 2, multiplicity=2)
        seq = [0, 1, 1, 0, 1]
        rho, total = model.initial_state, 0.0
        for x in seq:
            rho, prob = belief_update(rho, model, x)
            total += np.log(prob)
        assert qhmm_log_likelihood(model, seq) == pytest.approx(total, abs=1e-10)

    def test_matches_kraus_path_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            model = random_kraus_model(rng, int(rng.integers(1, 4)),
                                       int(rng.integers(1, 4)),
                                       multiplicity=int(rng.integers(1, 3)))
            seq = list(rng.integers(0, model.alphabet_size,
                                    size=int(rng.integers(1, 5))))
            want = kraus_path_probability(model, seq)
            assert np.exp(qhmm_log_likelihood(model, seq)) == pytest.approx(
                want, rel=1e-10)

    @pytest.mark.parametrize("k,m,mu,length", [(3, 3, 2, 4), (2, 2, 1, 5)])
    def test_total_probability_sums_to_one(self, k, m, mu, length):
        model = random_kraus_model(np.random.default_rng(k + m), k, m, mu)
        total = sum(np.exp(qhmm_log_likelihood(model, list(seq)))
                    for seq in all_sequences(m, length))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_underflow_reports_minus_inf(self, det_hmm):
        model = embed_hmm(det_hmm)
        assert qhmm_log_likelihood(model, [0, 1]) == float("-inf")


class TestSample:
    def test_projective_from_pure_state_is_constant(self):
        ops = projective_model().operators
        model = KrausModel(ops, DensityMatrix.pure(2, 0))
        assert qhmm_sample(model, 6, 3) == [0, 0, 0, 0, 0, 0]

    def test_seed_determinism(self):
        model = random_kraus_model(np.random.default_rng(6), 2, 2)
        assert qhmm_sample(model, 20, 7) == qhmm_sample(model, 20, 7)
        assert qhmm_sample(model, 20, 7) != qhmm_sample(model, 20, 8)

    def test_step_distributions_sum_to_one(self):
        model = random_kraus_model(np.random.default_rng(8), 3, 3, 2)
        rho = model.initial_state
        probs = next_symbol_distribution(model, rho)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_length_one_frequencies_match_analytic(self):
        model = random_kraus_model(np.random.default_rng(9), 2, 2)
        want = next_symbol_distribution(model, model.initial_state)
        rng = np.random.default_rng(99)
        draws = np.array([qhmm_sample(model, 1, rng)[0] for _ in range(100_000)])
        assert abs(draws.mean() - want[1]) < 0.01

    def test_any_model_passing_validation_samples(self):
        # a completeness residual of 8e-9 passes validate_kraus, so sampling
        # must accept the probability sum it moves (by at most K * 8e-9)
        stacked = random_stiefel(6, 3, 0).matrix * (1.0 + 4e-9)
        model = KrausModel.from_stiefel(stacked, 2, 1, DensityMatrix.maximally_mixed(3))
        report = validate_kraus(model)
        assert report.passes and report.completeness_residual > 1e-9
        assert len(qhmm_sample(model, 10, 0)) == 10

    def test_incomplete_model_is_rejected(self):
        ops = np.full((1, 1, 1, 1), 1.1, dtype=complex)
        model = KrausModel(ops, DensityMatrix.maximally_mixed(1))
        with pytest.raises(InputError):
            qhmm_sample(model, 3, 0)

    def test_prefix_conditioning(self, det_hmm):
        model = embed_hmm(det_hmm)
        assert qhmm_sample(model, 3, 0, prefix=[0]) == [0, 0, 0]
        with pytest.raises(InputError):
            qhmm_sample(model, 3, 0, prefix=[1])


class TestEmbedHmm:
    def test_single_state_scalar(self, single_state_hmm):
        model = embed_hmm(single_state_hmm)
        assert model.dim == 1 and model.multiplicity == 1
        np.testing.assert_allclose(model.operators[0, 0], [[np.sqrt(0.5)]])
        # sqrt(0.5)**2 lands one ulp from 0.5, so "exact" means machine epsilon
        assert validate_kraus(model).completeness_residual <= 1e-15

    def test_deterministic_chain_probabilities(self, det_hmm):
        model = embed_hmm(det_hmm)
        assert qhmm_log_likelihood(model, [0, 0, 0]) == pytest.approx(0.0, abs=1e-12)
        assert qhmm_log_likelihood(model, [0, 1]) == float("-inf")

    def test_reference_all_length_three_sequences(self, ref_hmm):
        model = embed_hmm(ref_hmm)
        for seq in all_sequences(2, 3):
            want = hmm_forward(ref_hmm, list(seq)).log_likelihood
            got = qhmm_log_likelihood(model, list(seq))
            assert got == pytest.approx(want, rel=1e-10)

    def test_reference_frozen_value(self, ref_hmm):
        got = qhmm_log_likelihood(embed_hmm(ref_hmm), [0, 1, 1])
        assert got == pytest.approx(LN_P_011, abs=1e-12)

    def test_multiplicity_equals_num_states(self, ref_hmm):
        model = embed_hmm(ref_hmm)
        assert model.multiplicity == ref_hmm.num_states
        assert model.initial_state.matrix[0, 0] == ref_hmm.start[0]

    def test_completeness_holds(self):
        rng = np.random.default_rng(10)
        from oracles import random_hmm
        for _ in range(5):
            hmm = random_hmm(rng, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
            assert validate_kraus(embed_hmm(hmm)).passes


class TestValidateKraus:
    def test_identity_channel_all_zero_residuals(self):
        report = validate_kraus(identity_channel())
        assert report.completeness_residual == 0.0
        assert report.state_hermiticity_residual == 0.0
        assert report.state_trace_residual == 0.0
        assert report.state_min_eigenvalue == pytest.approx(1.0)
        assert report.passes

    def test_scaled_operator_breaks_completeness(self):
        ops = np.full((1, 1, 1, 1), 1.1, dtype=complex)
        model = KrausModel(ops, DensityMatrix.maximally_mixed(1))
        report = validate_kraus(model)
        assert report.completeness_residual == pytest.approx(0.21, abs=1e-12)
        assert not report.passes

    def test_random_stiefel_model_passes(self):
        model = random_kraus_model(np.random.default_rng(11), 3, 2, 2)
        report = validate_kraus(model)
        assert report.completeness_residual <= 1e-8
        assert report.passes
