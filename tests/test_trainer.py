import csv
import math

import numpy as np
import pytest

from scengen import (DensityMatrix, GradientUndefinedError, InputError,
                     StiefelPoint, TrainConfig, cayley_step, embed_hmm,
                     nll_gradient, nll_loss, qhmm_log_likelihood, qhmm_sample,
                     random_stiefel, train_qhmm, validate_kraus,
                     write_training_log)

from oracles import central_difference_gradient, random_kraus_model


def random_instance(rng, dim=None, alphabet=None, mu=None, batch_size=3, max_len=5):
    dim = dim or int(rng.integers(1, 4))
    alphabet = alphabet or int(rng.integers(1, 4))
    mu = mu or int(rng.integers(1, 3))
    kappa = random_stiefel(alphabet * mu * dim, dim, int(rng.integers(2**31)))
    pi0 = DensityMatrix.maximally_mixed(dim)
    batch = [tuple(rng.integers(0, alphabet, size=int(rng.integers(1, max_len + 1))))
             for _ in range(batch_size)]
    return kappa, batch, pi0, alphabet, mu


class TestRandomStiefel:
    def test_scalar_case_is_unit_modulus(self):
        point = random_stiefel(1, 1, 3)
        assert abs(abs(point.matrix[0, 0]) - 1.0) < 1e-12

    def test_orthonormal_columns(self):
        point = random_stiefel(4, 2, 0)
        assert point.residual() <= 1e-10

    def test_seed_contract(self):
        a = random_stiefel(6, 3, 1)
        b = random_stiefel(6, 3, 1)
        c = random_stiefel(6, 3, 2)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert np.max(np.abs(a.matrix - c.matrix)) > 1e-3

    def test_rejects_wide_matrices(self):
        with pytest.raises(InputError):
            random_stiefel(2, 3, 0)

    def test_stiefel_point_validates(self):
        with pytest.raises(InputError):
            StiefelPoint(np.ones((4, 2), dtype=complex))


class TestNllLoss:
    def test_identity_channel_has_zero_loss(self):
        kappa = np.eye(1, dtype=complex)
        assert nll_loss(kappa, [(0, 0, 0)], DensityMatrix.maximally_mixed(1), 1) == 0.0

    def test_impossible_sequence_gives_infinite_loss(self, det_hmm, absorbing_hmm,
                                                     underflow_batch):
        for hmm, batch in ((det_hmm, [(0, 1)]), (absorbing_hmm, underflow_batch)):
            model = embed_hmm(hmm)
            loss = nll_loss(model.to_stiefel(), batch, model.initial_state,
                            model.alphabet_size, model.multiplicity)
            assert loss == math.inf

    def test_matches_per_sequence_log_likelihoods(self):
        rng = np.random.default_rng(0)
        model = random_kraus_model(rng, 2, 2, 1)
        batch = [(0, 1), (1, 1, 0), (0,)]
        want = -np.mean([qhmm_log_likelihood(model, seq) for seq in batch])
        got = nll_loss(model.to_stiefel(), batch, model.initial_state, 2, 1)
        assert got == pytest.approx(want, abs=1e-12)

    def test_equal_length_fast_path_matches_loop(self):
        rng = np.random.default_rng(12)
        model = random_kraus_model(rng, 3, 2, 2)
        batch = [tuple(rng.integers(0, 2, size=6)) for _ in range(9)]
        want = -np.mean([qhmm_log_likelihood(model, seq) for seq in batch])
        got = nll_loss(model.to_stiefel(), batch, model.initial_state, 2, 2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_equal_length_fast_path_reports_underflow(self, det_hmm):
        model = embed_hmm(det_hmm)
        loss = nll_loss(model.to_stiefel(), [(0, 0), (0, 1)], model.initial_state,
                        model.alphabet_size, model.multiplicity)
        assert loss == math.inf

    def test_empty_batch_errors(self):
        with pytest.raises(InputError):
            nll_loss(np.eye(1, dtype=complex), [], DensityMatrix.maximally_mixed(1), 1)

    def test_row_count_must_match_partition(self):
        with pytest.raises(InputError):
            nll_loss(np.eye(3, 2, dtype=complex), [(0,)],
                     DensityMatrix.maximally_mixed(2), 2, 1)


class TestNllGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            kappa, batch, pi0, alphabet, mu = random_instance(rng)
            analytic = nll_gradient(kappa, batch, pi0, alphabet, mu)
            oracle = central_difference_gradient(
                lambda m: nll_loss(m, batch, pi0, alphabet, mu), kappa.matrix)
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(analytic - oracle)) <= 1e-5 * max(scale, 1e-3)

    def test_artifact_fd_gradient_agrees(self):
        rng = np.random.default_rng(7)
        kappa, batch, pi0, alphabet, mu = random_instance(rng, dim=2, alphabet=2, mu=1)
        a = nll_gradient(kappa, batch, pi0, alphabet, mu)
        b = central_difference_gradient(
            lambda m: nll_loss(m, batch, pi0, alphabet, mu), kappa.matrix)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_scalar_radial_gradient(self):
        kappa = np.array([[np.exp(0.3j)]])
        batch = [(0, 0, 0)]
        grad = nll_gradient(kappa, batch, DensityMatrix.maximally_mixed(1), 1, 1)
        np.testing.assert_allclose(grad, -3.0 * kappa, atol=1e-12)

    def test_unused_symbol_block_is_zero(self):
        kappa = random_stiefel(4, 2, 5)
        grad = nll_gradient(kappa, [(0, 0)], DensityMatrix.maximally_mixed(2), 2, 1)
        np.testing.assert_allclose(grad[2:], 0.0, atol=1e-8)
        assert np.max(np.abs(grad[:2])) > 1e-3

    def test_infinite_loss_is_rejected(self, det_hmm, absorbing_hmm, underflow_batch):
        for hmm, batch in ((det_hmm, [(0, 1)]), (absorbing_hmm, underflow_batch)):
            model = embed_hmm(hmm)
            with pytest.raises(GradientUndefinedError):
                nll_gradient(model.to_stiefel(), batch, model.initial_state,
                             model.alphabet_size, model.multiplicity)


class TestCayleyStep:
    def test_zero_tau_is_exact_identity(self):
        kappa = random_stiefel(6, 2, 0)
        grad = np.ones((6, 2), dtype=complex)
        out = cayley_step(kappa, grad, 0.0)
        np.testing.assert_array_equal(out.matrix, kappa.matrix)

    def test_stays_on_manifold(self):
        rng = np.random.default_rng(1)
        kappa = random_stiefel(8, 2, 3)
        grad = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        out = cayley_step(kappa, grad, 0.1)
        assert out.residual() <= 1e-8

    def test_hundred_random_steps_preserve_manifold(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            rows = int(rng.integers(1, 5)) * 2
            cols = int(rng.integers(1, min(rows, 3) + 1))
            kappa = random_stiefel(rows, cols, int(rng.integers(2**31)))
            grad = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            tau = float(rng.uniform(0.01, 0.5))
            assert cayley_step(kappa, grad, tau).residual() <= 1e-8

    def test_scalar_radial_direction_is_a_fixed_point(self):
        # a gradient proportional to kappa is normal to the manifold, so the
        # retraction leaves the point in place and on the unit circle
        kappa = StiefelPoint(np.array([[np.exp(0.7j)]]))
        for c in (0.5, 2.0):
            out = cayley_step(kappa, -c * kappa.matrix, 0.1)
            assert abs(abs(out.matrix[0, 0]) - 1.0) <= 1e-12
            np.testing.assert_allclose(out.matrix, kappa.matrix, atol=1e-12)

    def test_input_validation(self):
        kappa = random_stiefel(4, 2, 0)
        with pytest.raises(InputError):
            cayley_step(kappa, np.ones((2, 2), dtype=complex), 0.1)
        with pytest.raises(InputError):
            cayley_step(kappa, np.ones((4, 2), dtype=complex), -0.1)


class TestTrainConfig:
    def test_defaults_are_valid(self):
        config = TrainConfig(dim=2)
        assert config.learning_rate == 0.05 and config.epochs == 100

    @pytest.mark.parametrize("kwargs", [
        {"dim": 0}, {"dim": 2, "learning_rate": 0.0},
        {"dim": 2, "decay": 0.0}, {"dim": 2, "decay": 1.5},
        {"dim": 2, "num_batches": 0}, {"dim": 2, "epochs": -1},
        {"dim": 2, "multiplicity": 0},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(InputError):
            TrainConfig(**kwargs)

    def test_json_round_trip(self):
        config = TrainConfig(dim=3, learning_rate=0.1, epochs=7, seed=2)
        assert TrainConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        with pytest.raises(InputError):
            TrainConfig.from_dict({"dim": 2, "momentum": 0.9})
        with pytest.raises(InputError):
            TrainConfig.from_dict({"epochs": 3})


class TestTrainQhmm:
    def test_recovers_generating_model_likelihood(self):
        truth = random_kraus_model(np.random.default_rng(3), 2, 2, 1)
        rng = np.random.default_rng(4)
        dataset = [qhmm_sample(truth, 8, rng) for _ in range(30)]
        config = TrainConfig(dim=2, multiplicity=1, epochs=50, seed=0)
        init = train_qhmm(dataset, TrainConfig(dim=2, epochs=0, seed=0), 2)[0]
        final, records = train_qhmm(dataset, config, 2)
        pi0 = DensityMatrix.maximally_mixed(2)
        initial_nll = nll_loss(init.to_stiefel(), dataset, pi0, 2, 1)
        final_nll = nll_loss(final.to_stiefel(), dataset, pi0, 2, 1)
        assert final_nll <= initial_nll
        assert validate_kraus(final).passes

    def test_zero_epochs_returns_seeded_initialization(self):
        config = TrainConfig(dim=3, multiplicity=2, epochs=0, seed=11)
        model, records = train_qhmm([(0, 1)], config, 2)
        assert records == []
        want = random_stiefel(2 * 2 * 3, 3, 11).matrix
        np.testing.assert_array_equal(model.to_stiefel(), want)

    def test_small_step_full_batch_descent(self):
        rng = np.random.default_rng(5)
        dataset = [tuple(rng.integers(0, 2, size=6)) for _ in range(8)]
        config = TrainConfig(dim=2, learning_rate=1e-4, decay=1.0,
                             num_batches=1, epochs=10, seed=2)
        _, records = train_qhmm(dataset, config, 2)
        losses = [r.loss for r in records]
        assert len(losses) == 10
        assert all(b - a <= 1e-6 for a, b in zip(losses, losses[1:]))

    def test_single_random_steps_do_not_increase_loss(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            kappa, batch, pi0, alphabet, mu = random_instance(rng)
            loss = nll_loss(kappa, batch, pi0, alphabet, mu)
            if not math.isfinite(loss):
                continue
            grad = nll_gradient(kappa, batch, pi0, alphabet, mu)
            stepped = cayley_step(kappa, grad, 1e-4)
            new_loss = nll_loss(stepped, batch, pi0, alphabet, mu)
            assert new_loss <= loss + 1e-8

    def test_seed_reproducibility(self):
        dataset = [(0, 1, 0), (1, 1), (0,)]
        config = TrainConfig(dim=2, epochs=5, seed=9)
        a_model, a_records = train_qhmm(dataset, config, 2)
        b_model, b_records = train_qhmm(dataset, config, 2)
        np.testing.assert_array_equal(a_model.to_stiefel(), b_model.to_stiefel())
        assert a_records == b_records

    def test_empty_dataset_errors(self):
        with pytest.raises(InputError):
            train_qhmm([], TrainConfig(dim=2), 2)

    def test_loss_decreases_on_scenario_data(self, ref_system):
        from scengen import build_datasets
        probable, _ = build_datasets(ref_system, seed=0)
        config = TrainConfig(dim=3, epochs=20, seed=1)
        model, records = train_qhmm(probable.sequences("train"), config,
                                    probable.alphabet_size)
        assert records[-1].loss < records[0].loss
        assert validate_kraus(model).passes


class TestTrainingLog:
    def test_csv_format(self, tmp_path):
        dataset = [(0, 1), (1, 0, 1)]
        config = TrainConfig(dim=2, epochs=3, num_batches=2, seed=0)
        _, records = train_qhmm(dataset, config, 2)
        path = tmp_path / "loss.csv"
        write_training_log(path, records)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "batch", "loss", "tau"]
        assert len(rows) == len(records) + 1
        for row, rec in zip(rows[1:], records):
            assert int(row[0]) == rec.epoch and int(row[1]) == rec.batch
            assert float(row[2]) == rec.loss and float(row[3]) == rec.tau
