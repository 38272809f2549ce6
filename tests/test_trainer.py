import csv
import math
from collections import Counter
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest

from scengen import (DensityMatrix, GradientUndefinedError, InputError,
                     StepFailureError, StiefelPoint, TrainConfig, TrainingError,
                     build_datasets, cayley_step, embed_hmm, nll_gradient,
                     nll_loss, qhmm, qhmm_log_likelihood, qhmm_sample,
                     random_stiefel, reference_four_event_system,
                     reference_three_event_system, train_qhmm, train_qhmm_datasets,
                     trainer, validate_kraus, write_training_log)
from scengen.hmm import _row_blocks
from scengen.qhmm import _BLOCK_BUDGET

from oracles import (adjoint_reference, cayley_step_reference,
                     central_difference_gradient, pad_reference, random_kraus_model,
                     train_qhmm_reference)


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

    @pytest.mark.parametrize("dim", [1, 2, 3, 16])
    @pytest.mark.parametrize("mu", [1, 2, 3])
    def test_adjoint_is_within_ulps_of_the_four_product_reference(self, monkeypatch,
                                                                   dim, mu):
        # the operators of two models stacked, alphabets 2 and 3, over rows
        # of lengths 1 to 9; symbol 4 cannot be emitted, and the one row
        # holding it underflows at its third step
        rng = np.random.default_rng(10 * dim + mu)
        ops = np.concatenate([random_kraus_model(rng, dim, 2, mu).operators,
                              random_kraus_model(rng, dim, 3, mu).operators])
        ops[4] = 0.0
        rows = [rng.integers(0, 2, size=int(rng.integers(1, 10))) for _ in range(20)]
        rows += [2 + rng.integers(0, 2, size=int(rng.integers(1, 10))) for _ in range(20)]
        rows.append([2, 3, 4, 2])
        rho0 = DensityMatrix.maximally_mixed(dim).matrix
        real_kernel, kernel_calls = qhmm._row_kernel, []

        def kernel(ops, rho0, padded, lengths):
            kernel_calls.append((padded, lengths, real_kernel(ops, rho0, padded, lengths)))
            return kernel_calls[-1][2]

        monkeypatch.setattr(qhmm, "_row_kernel", kernel)
        ((total, got),) = qhmm._loss_and_gradient(
            [(ops, *pad_reference([tuple(row) for row in rows], 5))], rho0)
        ((_, _, (log_probs, _)),) = kernel_calls
        assert np.isinf(log_probs).sum() == 1 and total == -np.inf

        def forward():  # the kernel's rows, in its row blocks
            ((padded, lengths, _),) = kernel_calls
            for block in _row_blocks(len(lengths), dim ** 2, _BLOCK_BUDGET):
                history, steps = [], qhmm._running_layout(padded[block], lengths[block],
                                                          np.zeros(len(lengths[block])))
                qhmm._filter(ops, rho0, steps, history)
                yield padded[block], history

        want = adjoint_reference(ops, forward())
        # A^dagger (S A) and (A^dagger S) A round apart: every entry stays
        # within 8 ulps of the gradient's largest entry (2.5 to 406 here)
        assert np.isfinite(want).all()
        assert np.abs(got - want).max() <= 8 * np.spacing(np.abs(want).max())

    def test_underflowing_row_leaves_the_other_operators_alone(self, monkeypatch,
                                                                absorbing_hmm,
                                                                underflow_batch):
        # two runs in one kernel call, stacked as symbols 0-1 and 2-4; one
        # row of the second underflows, and the first run's gradient is
        # still its own
        live = random_kraus_model(np.random.default_rng(8), 2, 2, 2)
        dead = embed_hmm(absorbing_hmm)  # starts maximally mixed, as live does
        runs = [(live.operators, *pad_reference([(0, 1, 1), (1, 0)], 2)),
                (dead.operators, *pad_reference(underflow_batch, 3))]
        rho0 = live.initial_state.matrix
        real_kernel, kernel_calls = qhmm._row_kernel, []

        def kernel(ops, *args):
            kernel_calls.append((len(ops), real_kernel(ops, *args)))
            return kernel_calls[-1][1]

        monkeypatch.setattr(qhmm, "_row_kernel", kernel)
        (live_total, grad), (dead_total, dead_grad) = qhmm._loss_and_gradient(runs, rho0)
        ((symbols, (log_probs, _)),) = kernel_calls
        assert symbols == 5 and np.isinf(log_probs).sum() == 1
        assert dead_total == -np.inf and np.isfinite(dead_grad).all()
        want_total, want = qhmm._loss_and_gradient(runs[:1], rho0)[0]
        np.testing.assert_array_equal(live_total, want_total)
        np.testing.assert_array_equal(grad, want)


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

    @pytest.mark.parametrize("tau, message", [(1e308, "non-finite entries"),
                                              (1e200, "inner solve is singular")])
    def test_overflowing_step_fails_with_its_own_error(self, tau, message):
        # the suite turns warnings into errors, so an overflow warning fails
        with pytest.raises(StepFailureError, match=message):
            cayley_step(random_stiefel(6, 2, 0), np.ones((6, 2), dtype=complex), tau)

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
        for tau in (-0.1, math.nan, math.inf):
            with pytest.raises(InputError, match="^tau must be >= 0 and finite$"):
                cayley_step(kappa, np.ones((4, 2), dtype=complex), tau)

    def test_nan_gradient_raises_step_failure(self):
        gradient = np.zeros((4, 2), dtype=complex)
        gradient[1, 0] = np.nan
        with np.errstate(invalid="ignore"), \
                pytest.raises(StepFailureError, match="^step produced non-finite entries$"):
            cayley_step(random_stiefel(4, 2, 0), gradient, 0.1)


def step_entries(rng, shapes, tau_range=(0.01, 0.5)):
    """(point, gradient, tau) per (alphabet, multiplicity, dim) shape, with
    gradients of the size training produces."""
    entries = []
    for alphabet, mu, dim in shapes:
        rows = alphabet * mu * dim
        grad = 0.3 * (rng.standard_normal((rows, dim))
                      + 1j * rng.standard_normal((rows, dim)))
        entries.append((random_stiefel(rows, dim, int(rng.integers(2**31))), grad,
                        float(rng.uniform(*tau_range))))
    return entries


# the independent one-point arithmetic, returning the StepFailureError it earns
one_point_step = cayley_step_reference


def assert_same_step(got, want):
    if isinstance(want, StepFailureError):
        assert isinstance(got, StepFailureError) and str(got) == str(want)
        return
    assert isinstance(got, StiefelPoint)
    np.testing.assert_array_equal(got.matrix, want.matrix)


def list_step(entries):
    return cayley_step(*(list(column) for column in zip(*entries)))


class TestCayleyStepList:
    @pytest.mark.parametrize("shapes", [
        [(6, 1, 4)],                       # one run
        [(6, 1, 4)] * 2,
        [(6, 1, 4)] * 6,                   # desk compare: one stack
        [(6, 1, 4), (8, 1, 4), (6, 1, 4), (8, 1, 4), (8, 1, 4)],  # two systems
        [(8, 1, 4)] * 20,                  # stacks of 16 and 4 entries
        [(8, 2, 16)] * 3,                  # wide: one entry per stack
    ])
    def test_each_entry_equals_its_one_point_call(self, shapes):
        entries = step_entries(np.random.default_rng(len(shapes)), shapes)
        got = list_step(entries)
        assert len(got) == len(entries)
        for result, entry in zip(got, entries):
            assert_same_step(result, one_point_step(*entry))
            assert result.residual() <= trainer.COMPLETENESS_TOL

    def test_one_batched_solve_per_shape(self, monkeypatch):
        entries = step_entries(np.random.default_rng(3), [(6, 1, 4), (8, 1, 4)] * 3)
        real_solve, solved = np.linalg.solve, []

        def spy(a, b):
            solved.append(a.shape)
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        list_step(entries)
        assert solved == [(3, 8, 8), (3, 8, 8)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_fails_alone(self, bad):
        entries = step_entries(np.random.default_rng(4), [(6, 1, 4)] * 4)
        point, grad, tau = entries[2]
        grad = grad.copy()
        grad[5, 1] = bad
        entries[2] = point, grad, tau
        with np.errstate(invalid="ignore", over="ignore"):
            got = list_step(entries)
            want = [one_point_step(*entry) for entry in entries]
        assert isinstance(want[2], StepFailureError)
        for result, expected in zip(got, want):
            assert_same_step(result, expected)

    def test_singular_entry_falls_back_to_separate_solves(self, monkeypatch):
        # no finite input makes the solve singular, so one entry's matrix is
        # made to fail the solve, alone and within the batch
        entries = step_entries(np.random.default_rng(5), [(6, 1, 4)] * 4)
        point, grad, tau = entries[1]
        u = np.concatenate([grad, point.matrix], axis=1)
        v = np.concatenate([point.matrix, -grad], axis=1)
        poisoned = np.eye(8) + (tau / 2.0) * (v.conj().T @ u)
        real_solve = np.linalg.solve

        def solve(a, b):
            if any(np.allclose(m, poisoned) for m in a.reshape(-1, 8, 8)):
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        got = list_step(entries)
        want = [one_point_step(*entry) for entry in entries]
        assert str(want[1]) == "inner solve is singular"
        for result, expected in zip(got, want):
            assert_same_step(result, expected)

    def test_zero_tau_returns_its_point(self):
        entries = step_entries(np.random.default_rng(6), [(6, 1, 4)] * 3)
        point, grad, _ = entries[1]
        entries[1] = point, grad, 0.0
        got = list_step(entries)
        assert got[1] is point
        for i in (0, 2):
            assert_same_step(got[i], one_point_step(*entries[i]))

    @pytest.mark.parametrize("position", [0, 2])
    def test_input_errors_name_the_one_point_fault(self, position):
        entries = step_entries(np.random.default_rng(7), [(6, 1, 4)] * 3)
        point, grad, tau = entries[position]
        for bad, message in (((point, grad[:-1], tau), "gradient shape must match kappa"),
                             ((point, grad, -0.1), "tau must be >= 0"),
                             ((point, grad, math.nan), "tau must be >= 0 and finite"),
                             ((point, grad, math.inf), "tau must be >= 0 and finite")):
            with pytest.raises(InputError, match=message):
                cayley_step(*bad)
            wrong = list(entries)
            wrong[position] = bad
            with pytest.raises(InputError, match=message):
                list_step(wrong)
        with pytest.raises(InputError):
            cayley_step([point, point], [grad], [tau, tau])

    def test_empty_lists_step_nothing(self):
        assert cayley_step([], [], []) == []


class TestTrainConfig:
    def test_defaults_are_valid(self):
        config = TrainConfig(dim=2)
        assert config.learning_rate == 0.05 and config.epochs == 100

    @pytest.mark.parametrize("kwargs", [
        {"dim": 0}, {"dim": 2, "learning_rate": 0.0},
        {"dim": 2, "decay": 0.0}, {"dim": 2, "decay": 1.5},
        {"dim": 2, "num_batches": 0}, {"dim": 2, "epochs": -1},
        {"dim": 2, "multiplicity": 0},
        {"dim": 2.5}, {"dim": True}, {"dim": "3"}, {"dim": 2, "epochs": 1.5},
        {"dim": 2, "num_batches": 2.0}, {"dim": 2, "multiplicity": None},
        {"dim": 2, "learning_rate": "0.1"}, {"dim": 2, "learning_rate": float("nan")},
        {"dim": 2, "decay": None},
        {"dim": 2, "seed": -1}, {"dim": 2, "seed": True}, {"dim": 2, "seed": 1.5},
        {"dim": 2, "seed": "3"}, {"dim": 2, "seed": None},
        {"dim": 2, "learning_rate": float("inf")},
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


class TestSchedule:
    """A run cuts each epoch's permutation where ``np.array_split`` cuts it,
    and draws what it drew with ``np.array_split``."""

    @pytest.mark.parametrize("rows, num_batches", [(3, 5), (5, 5), (11, 4), (1, 1)])
    def test_batches_equal_array_split(self, rows, num_batches):
        config = TrainConfig(dim=2, num_batches=num_batches, epochs=3, seed=4)
        lengths = np.arange(rows, 0, -1)
        run = trainer._Run(np.zeros((rows, rows), np.int64), lengths, 2, config.seed, config)
        rng = np.random.default_rng(config.seed)
        trainer._draw_stiefel(rng, 2 * config.multiplicity * config.dim, config.dim)
        want, tau = [], config.learning_rate
        for epoch in range(config.epochs):
            chunks = np.array_split(rng.permutation(rows), num_batches)
            want += [(epoch, index, tau, np.sort(chunk))
                     for index, chunk in enumerate(chunks) if chunk.size]
            tau *= config.decay
        got = run.pending[::-1]
        assert [entry[:3] for entry in got] == [entry[:3] for entry in want]
        for (*_, got_rows), (*_, want_rows) in zip(got, want):
            np.testing.assert_array_equal(got_rows, want_rows)


def desk_training_sets():
    """Train splits of the README pipeline's two datasets (split seed 9)."""
    datasets = build_datasets(reference_three_event_system(), max_len=4, p_min=1e-3,
                              test_fraction=0.25, seed=9)
    return [(ds.sequences("train"), ds.alphabet_size) for ds in datasets]


def reference_or_error(dataset, config, alphabet_size):
    try:
        return train_qhmm_reference(dataset, config, alphabet_size)
    except TrainingError as exc:
        return exc


def assert_same_fit(got, want):
    if isinstance(want, TrainingError):
        assert isinstance(got, TrainingError) and str(got) == str(want)
        return
    (model, records), (want_model, want_records) = got, want
    np.testing.assert_array_equal(model.operators, want_model.operators)
    assert records == want_records


def halvings(records, config):
    return sum(round(math.log2(config.learning_rate * config.decay ** r.epoch / r.tau))
               for r in records)


@pytest.fixture
def record_kernels(monkeypatch):
    """Returns an installer that wraps the trainer's kernels, and
    ``cayley_step`` as it is then (so it goes after any patch of it), and
    returns a new list that it records their calls into, in order:

    - ``("runs", runs, batches)`` opens the training; ``batches`` maps each
      run to its mini-batches' rows, in step order, as (length, symbols)
      pairs;
    - ``("step", runs, results, live, fresh)`` is a list call of
      :func:`cayley_step`, with the runs whose gradients it took; ``live``
      holds the runs then still training, and ``fresh`` whether each run
      stepped at its step's scheduled tau;
    - ``("pass", entries, state)`` is a call of the loss-and-gradient entry,
      with each run's rows, as (length, symbols) pairs, and operators;
      ``state`` maps each run to its point and its accepted steps so far;
    - ``("kernel", rows, ops)`` is a row-kernel call that entry makes;
    - ``("forward-only",)`` is a ``_log_likelihoods`` call.
    """

    real_entry, real_likelihoods = trainer._loss_and_gradient, trainer._log_likelihoods
    real_kernel, real_run = qhmm._row_kernel, trainer._Run

    def install():
        calls, runs, batches = [], [], {}
        real_step = trainer.cayley_step

        class Run(real_run):
            def __init__(self, *args):
                super().__init__(*args)
                if not runs:
                    calls.append(("runs", runs, batches))
                runs.append(self)
                batches[self] = [as_rows(self.padded[rows], self.lengths[rows])
                                 for *_, rows in reversed(self.pending)]

        def entry(entries, rho0):
            state = {run: (run.kappa.matrix, len(run.records)) for run in runs}
            calls.append(("pass", [(as_rows(padded, lengths), ops)
                                   for ops, padded, lengths in entries], state))
            return real_entry(entries, rho0)

        def kernel(ops, rho0, padded, lengths):
            calls.append(("kernel", as_rows(padded, lengths), ops))
            return real_kernel(ops, rho0, padded, lengths)

        def likelihoods(pairs, padded, lengths):
            calls.append(("forward-only",))
            return real_likelihoods(pairs, padded, lengths)

        def step(kappa, gradient, tau):
            stepping = [next(run for run in runs if run.grad is grad) for grad in gradient]
            live = [run for run in runs if run.error is None and run.pending]
            fresh = [run.step_tau == run.pending[-1][2] for run in stepping]
            results = real_step(kappa, gradient, tau)
            calls.append(("step", stepping, results, live, fresh))
            return results

        monkeypatch.setattr(trainer, "_Run", Run)
        monkeypatch.setattr(trainer, "_loss_and_gradient", entry)
        monkeypatch.setattr(qhmm, "_row_kernel", kernel)
        monkeypatch.setattr(trainer, "_log_likelihoods", likelihoods)
        monkeypatch.setattr(trainer, "cayley_step", step)
        return calls

    return install


def as_rows(padded, lengths):
    return [(length, tuple(symbols[:length])) for length, symbols in zip(lengths.tolist(),
                                                                         padded.tolist())]


def assert_kernel_calls(entries, kernels):
    """Check that the row-kernel calls of one entry call hold its runs'
    ``(rows, ops)`` entries whole and in order: a call of several runs
    holds at most one row block, merged longest first, with each run's
    symbols offset past the runs before it in the call, under exactly
    those runs' operators."""
    rest = list(entries)
    for rows, ops in kernels:
        members, symbols = [], 0
        while symbols < len(ops):
            members.append(rest.pop(0))
            symbols += len(members[-1][1])
        assert symbols == len(ops)
        np.testing.assert_array_equal(ops, np.concatenate([op for _, op in members]))
        if len(members) > 1:
            assert len(rows) <= _BLOCK_BUDGET // ops.shape[-1] ** 2
        want, offsets = [], accumulate([len(op) for _, op in members], initial=0)
        for (own, _), offset in zip(members, offsets):
            want += [(length, tuple(x + offset for x in row)) for length, row in own]
        assert rows == sorted(want, key=lambda row: -row[0])
    assert not rest


def assert_call_pattern(calls):
    """Check the recorded calls of a training:

    - it opens with one pass over every run's first batch, under the runs'
      points;
    - a round of steps opens with one :func:`cayley_step` call over every
      run still training, at the step's scheduled tau; each later halving
      round of it steps only runs that halve;
    - each halving round is one :func:`cayley_step` call and, when it makes
      a candidate, exactly one pass: over the candidates' next batches
      (their own at a last step), each under its candidate;
    - every pass runs its rows in row-kernel calls of whole runs (see
      :func:`assert_kernel_calls`), and no call is forward-only.

    Returns the number of entries of each step call."""
    assert ("forward-only",) not in calls
    sizes, expect, kernels = [], None, []  # expect: the pass due next, (opening, candidates)
    for call in calls + [("end",)]:
        if call[0] == "kernel":
            kernels.append(call[1:])
            continue
        if kernels:
            assert_kernel_calls(entries, kernels)
            kernels = []
        if call[0] == "runs":
            assert not sizes and expect is None
            _, runs, batches = call
            expect = True, {}
        elif call[0] == "step":
            assert expect is None
            _, stepping, results, live, fresh = call
            assert (all(fresh) and stepping == live) or not any(fresh)
            sizes.append(len(stepping))
            candidates = {run: result for run, result in zip(stepping, results)
                          if isinstance(result, StiefelPoint)}
            expect = (False, candidates) if candidates else None
        elif call[0] == "pass":
            _, entries, state = call
            assert expect is not None
            opening, candidates = expect
            members = [run for run in runs if batches[run]] if opening else list(candidates)
            assert len(entries) == len(members)
            for (rows, ops), run in zip(entries, members):
                steps = batches[run]
                at = state[run][1] if opening else min(state[run][1] + 1, len(steps) - 1)
                assert rows == steps[at]
                point = candidates[run].matrix if run in candidates else state[run][0]
                np.testing.assert_array_equal(ops, point.reshape(ops.shape))
            expect = None
    assert expect is None
    return sizes


class TestTrainQhmmSeeds:
    def test_single_block_stacks_are_bit_identical_to_separate_runs(self):
        config = TrainConfig(dim=4, epochs=20)
        for dataset, alphabet in desk_training_sets():
            results = train_qhmm_datasets([(dataset, alphabet)], config, [1, 2, 3])[0]
            for seed, got in zip([1, 2, 3], results):
                want = train_qhmm_reference(dataset, replace(config, seed=seed), alphabet)
                assert_same_fit(got, want)

    @pytest.mark.parametrize("dim, mu, epochs, num_batches", [
        (4, 1, 3, 5),      # 64-row batches, two seeds per 128-row block
        (16, 2, 1, 5),     # 64-row batches over 8-row blocks, no stacking
        (16, 2, 1, 106),   # 3-row batches, two seeds per 8-row block
        (2, 1, 3, 5),      # 512-row blocks, three seeds' batches in one call
        (3, 1, 3, 5),      # 227-row blocks, three seeds' batches in one call
        (2, 1, 1, 5),      # one epoch: the last step has no next batch
        (4, 1, 2, 400),    # 82 empty batches closing each epoch
        (1, 1, 2, 5),      # one gradient entry per symbol
    ], ids=["4-1-3-5", "16-2-1-5", "16-2-1-106", "2-1-3-5", "3-1-3-5", "2-1-1-5",
            "4-1-2-400", "1-1-2-5"])
    def test_four_event_seeds_match_separate_runs(self, dim, mu, epochs, num_batches):
        _, no_probable = build_datasets(reference_four_event_system(), max_len=6,
                                        p_min=1e-3, test_fraction=0.25, seed=1)
        dataset = no_probable.sequences("train")
        config = TrainConfig(dim=dim, multiplicity=mu, epochs=epochs,
                             num_batches=num_batches)
        results = train_qhmm_datasets([(dataset, no_probable.alphabet_size)], config,
                                      [0, 1, 2])[0]
        for seed, got in zip([0, 1, 2], results):
            want = train_qhmm_reference(dataset, replace(config, seed=seed),
                                        no_probable.alphabet_size)
            assert_same_fit(got, want)

    def test_train_qhmm_is_bit_identical_to_reference(self):
        (dataset, alphabet), _ = desk_training_sets()
        config = TrainConfig(dim=3, multiplicity=2, epochs=10, seed=5)
        assert_same_fit(train_qhmm(dataset, config, alphabet),
                        train_qhmm_reference(dataset, config, alphabet))

    def test_halving_and_failing_seeds_leave_the_others_alone(self, capped_steps,
                                                              record_kernels):
        (dataset, alphabet), _ = desk_training_sets()
        config = TrainConfig(dim=2, epochs=3)
        seeds = [4, 1, 3, 2]
        capped_steps(0.1, max_halvings=1)
        solo = [reference_or_error(dataset, replace(config, seed=s), alphabet)
                for s in seeds]
        calls = record_kernels()
        results = train_qhmm_datasets([(dataset, alphabet)], config, seeds)[0]
        for got, want in zip(results, solo):
            assert_same_fit(got, want)
        # seed 4 never halves, seeds 3 and 2 halve, seed 1 needs too many
        assert halvings(results[0][1], config) == 0
        assert isinstance(results[1], TrainingError)
        assert str(results[1]).startswith("step failed after 1 halvings")
        assert halvings(results[2][1], config) > 0 and halvings(results[3][1], config) > 0
        # seed 3 halves at the last batch of epochs 0 and 2, where the next
        # batch comes from the next epoch's permutation
        assert [(r.epoch, r.batch) for r in results[2][1]
                if halvings([r], config) and r.batch == config.num_batches - 1] \
            == [(0, 4), (2, 4)]
        # one step call per halving round: the rounds after a step's first
        # hold only the seeds that halve, and a round whose steps all fail
        # runs no pass
        sizes = assert_call_pattern(calls)
        assert min(sizes) < len(seeds)
        assert sum(call[0] == "pass" for call in calls) < 1 + len(sizes)

    def test_candidate_rejected_at_an_epochs_last_batch(self, monkeypatch, patch_steps,
                                                        record_kernels):
        # every sequence holds a 0, so a candidate whose symbol-0 operator is
        # zero fails its check; seeds 0 and 2 get one at the last batch of
        # epoch 0, which is checked with the rows of epoch 1's first batch
        data = [(0,), (0, 1), (1, 0), (0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 1, 0)]
        config = TrainConfig(dim=2, epochs=3, num_batches=4)
        seeds, last = [0, 1, 2], config.num_batches - 1
        real_step, targets = trainer.cayley_step, []
        for seed in (0, 2):
            points = []

            def spy(kappa, gradient, tau):
                points.append(kappa.matrix)
                return real_step(kappa, gradient, tau)

            monkeypatch.setattr(trainer, "cayley_step", spy)
            _, records = train_qhmm_reference(data, replace(config, seed=seed), 2)
            assert halvings(records[:last], config) == 0
            targets.append(points[last])
        monkeypatch.setattr(trainer, "cayley_step", real_step)
        silent_zero = StiefelPoint(np.vstack([np.zeros((2, 2)), np.eye(2)]))

        def poisoned(kappa, gradient, tau):
            if tau == config.learning_rate and any(np.array_equal(kappa.matrix, t)
                                                   for t in targets):
                return silent_zero
            return None

        patch_steps(poisoned)
        solo = [train_qhmm_reference(data, replace(config, seed=s), 2) for s in seeds]
        calls, work = record_kernels(), Counter()
        results = train_qhmm_datasets([(data, 2)], config, seeds, work=work)[0]
        for got, want in zip(results, solo):
            assert_same_fit(got, want)
        halved = [[(r.epoch, r.batch) for r in records if halvings([r], config)]
                  for _, records in results]
        assert halved[0] == halved[2] == [(0, last)] and halved[1] == []
        # each of those halvings followed a failed check
        assert work == Counter(steps=sum(len(records) for _, records in results),
                               step_halvings=2, failed_checks=2)
        # the rejected round and the passing round each ran one pass, the
        # second over the halving seeds' rows alone
        sizes = assert_call_pattern(calls)
        assert sizes == [3] * (last + 1) + [2] + [3] * (len(sizes) - last - 2)

    def test_candidate_under_which_the_next_batch_underflows_halves(self, patch_steps):
        # every seed's first candidate cannot emit symbol 0, and every seed's
        # second batch holds a 0: each first step halves once. Checked on
        # their own rows instead, the candidates of the seeds whose first
        # batch holds no 0 would be accepted, and those runs would end at
        # their second batch with a loss that is not finite
        data = [(1,), (1, 1), (0, 1), (1, 0), (0,), (0, 0)]
        config = TrainConfig(dim=2, epochs=2, num_batches=len(data))
        seeds = list(range(8))
        starts = [random_stiefel(4, 2, seed).matrix for seed in seeds]
        silent_zero = StiefelPoint(np.vstack([np.zeros((2, 2)), np.eye(2)]))

        def poisoned(kappa, gradient, tau):
            if tau == config.learning_rate and any(np.array_equal(kappa.matrix, start)
                                                   for start in starts):
                return silent_zero
            return None

        patch_steps(poisoned)
        work = Counter()
        results = train_qhmm_datasets([(data, 2)], config, seeds, work=work)[0]
        assert not any(isinstance(got, TrainingError) for got in results)
        for seed, got in zip(seeds, results):
            assert_same_fit(got, train_qhmm_reference(data, replace(config, seed=seed), 2))
            _, records = got
            assert len(records) == 12
            assert [(r.epoch, r.batch) for r in records if halvings([r], config)] == [(0, 0)]
        assert work == Counter(steps=96, step_halvings=8, failed_checks=8)

    # the steps of seeds 3 and 7 land on operators that cannot emit symbol
    # 0 and emit 1 with probability 1. Seed 3's second batch holds a 0, so
    # every candidate of its first step fails its check. Seed 7's second and
    # third batches hold no 0, so it takes two such steps, and every
    # candidate of its third fails the check on its fourth batch, which
    # holds a 0
    impossible_data = [(1,), (0, 1), (1, 1), (1, 0), (1, 1, 1), (0,)]
    impossible_config = TrainConfig(dim=2, epochs=2, num_batches=len(impossible_data))

    def train_impossible(self, seeds):
        return train_qhmm_datasets([(self.impossible_data, 2)], self.impossible_config,
                                   seeds)[0]

    @staticmethod
    def poison_steps(patch_steps):
        targets = [random_stiefel(4, 2, seed).matrix for seed in (3, 7)]
        silent_zero = StiefelPoint(np.vstack([np.zeros((2, 2)), np.eye(2)]))

        def poisoned(kappa, gradient, tau):
            if kappa is silent_zero or any(np.array_equal(kappa.matrix, t) for t in targets):
                return silent_zero
            return None

        patch_steps(poisoned)

    def test_impossible_batches_drop_only_their_seeds(self, patch_steps):
        self.poison_steps(patch_steps)
        # seed 3's next batch has zero probability under every candidate of
        # its first step, so that step halves until it fails: no candidate
        # is accepted onto a point under which a later batch underflows
        for seeds in ([5, 3, 6, 7], [5, 3, 6]):
            results = self.train_impossible(seeds)
            for seed, got in zip(seeds, results):
                assert_same_fit(got, reference_or_error(
                    self.impossible_data, replace(self.impossible_config, seed=seed), 2))
            assert str(results[1]).startswith("step failed after 30 halvings at epoch 0 batch 0")
            assert not isinstance(results[0], TrainingError)
            assert not isinstance(results[2], TrainingError)
            if 7 in seeds:
                assert str(results[3]).startswith("step failed after 30 halvings")

    def test_one_stack_layout_per_step(self, monkeypatch, patch_steps, record_kernels):
        self.poison_steps(patch_steps)
        poisoned = trainer.cayley_step
        for seeds, step_sizes in [
            # seed 3 halves alone at the first step and fails; seeds 5, 6 and
            # 7 take two steps, then seed 7 halves alone and fails, and seeds
            # 5 and 6 take the other nine
            ([5, 3, 6, 7], [4] + [1] * 30 + [3, 3] + [1] * 30 + [2] * 9),
            ([5, 3, 6], [3] + [1] * 30 + [2] * 11),
            ([3], [1] * 31),
        ]:
            monkeypatch.setattr(trainer, "cayley_step", poisoned)
            calls = record_kernels()
            results = self.train_impossible(seeds)
            assert [isinstance(got, TrainingError) for got in results] \
                == [seed in (3, 7) for seed in seeds]
            # one step call per halving round, and one pass after each, as
            # every round makes a candidate
            assert assert_call_pattern(calls) == step_sizes
            assert sum(call[0] == "pass" for call in calls) == 1 + len(step_sizes)

    def test_step_after_a_skipped_step_runs_its_own_forward(self, patch_steps,
                                                             record_kernels):
        # seed 7 fails after 30 halvings at epoch 0 batch 2 (see
        # impossible_data). The one-sequence dataset has rows only in each
        # epoch's first batch, so its run has two steps, which it takes
        # beside the other run's first two: its first candidate is checked
        # on its row of epoch 1, and its last, at epoch 1, on its own rows
        self.poison_steps(patch_steps)
        datasets = [(self.impossible_data, 2), ([(1, 1)], 2)]
        solo = [reference_or_error(data, replace(self.impossible_config, seed=7), alphabet)
                for data, alphabet in datasets]
        calls = record_kernels()
        results = [group[0] for group in
                   train_qhmm_datasets(datasets, self.impossible_config, [7])]
        for got, want in zip(results, solo):
            assert_same_fit(got, want)
        assert str(results[0]).startswith("step failed after 30 halvings at epoch 0 batch 2")
        assert [(r.epoch, r.batch) for r in results[1][1]] == [(0, 0), (1, 0)]
        assert assert_call_pattern(calls) == [2, 2] + [1] * 31
        passes = [[rows for rows, _ in call[1]] for call in calls if call[0] == "pass"]
        assert passes[1][1] == passes[2][1] == [(2, (1, 1))] and len(passes[3]) == 1
        # in the kernel call beside the other run's row, the one sequence's
        # symbols are offset past the other run's
        kernels = [call[1] for call in calls if call[0] == "kernel"]
        assert (2, (3, 3)) in kernels[1] and (2, (3, 3)) in kernels[2]

    def test_no_seeds_train_nothing(self):
        assert train_qhmm_datasets([([(0, 1)], 2)], TrainConfig(dim=2), []) == [[]]


def two_system_training_sets():
    """Train splits of two systems' datasets: the desk probable class (M=6,
    6 sequences of length <= 4) and the four-event max_len=6 no_probable
    class (M=8, 318 sequences of length <= 6)."""
    desk = build_datasets(reference_three_event_system(), max_len=4, p_min=1e-3,
                          test_fraction=0.25, seed=9)[0]
    four = build_datasets(reference_four_event_system(), max_len=6, p_min=1e-3,
                          test_fraction=0.25, seed=1)[1]
    return [(ds.sequences("train"), ds.alphabet_size) for ds in (desk, four)]


class TestTrainQhmmDatasets:
    # at K=4 a kernel row block holds 128 rows, and the runs of a pass are
    # packed in order: the three desk runs (1-2 rows per batch) share a
    # kernel call with one four-event run (63-64 rows), and two four-event
    # runs fill another
    config = TrainConfig(dim=4, epochs=3)
    seeds = [0, 1, 2]

    @pytest.mark.parametrize("desk_first", [True, False])
    @pytest.mark.parametrize("dim, num_batches", [
        # two kernel calls per pass, one of them holding runs of both datasets
        (4, 5),
        # each pass one kernel call, within K=2's 512-row block: the desk
        # runs' last two chunks of every epoch are empty, so they have 18
        # steps and the four-event runs 24, and a desk run's candidate at
        # batch 5 is checked on the next epoch's first batch
        (2, 8),
    ])
    def test_runs_of_two_systems_are_bit_identical_to_separate_runs(
            self, monkeypatch, record_kernels, desk_first, dim, num_batches):
        config = replace(self.config, dim=dim, num_batches=num_batches)
        sets = two_system_training_sets()[::1 if desk_first else -1]
        calls = record_kernels()
        results = train_qhmm_datasets(sets, config, self.seeds)
        monkeypatch.undo()
        assert [len(group) for group in results] == [3, 3]
        for (dataset, alphabet), group in zip(sets, results):
            for seed, got in zip(self.seeds, group):
                assert_same_fit(got, train_qhmm_reference(
                    dataset, replace(config, seed=seed), alphabet))
        # no run halves: one step call per step, over every run that still
        # has steps
        sizes = assert_call_pattern(calls)
        if num_batches == 5:
            assert sizes == [6] * 15
        else:
            assert sizes == [6] * 18 + [3] * 6

    @pytest.mark.parametrize("cap, max_halvings", [
        (0.02, 2),   # every desk run fails, the four-event runs halve
        (0.05, 1),   # desk seeds 1 and 2 fail
    ])
    def test_failing_runs_leave_the_other_dataset_alone(self, capped_steps, cap,
                                                        max_halvings):
        sets = two_system_training_sets()
        capped_steps(cap, max_halvings=max_halvings)
        results = train_qhmm_datasets(sets, self.config, self.seeds)
        desk, four = ([reference_or_error(dataset, replace(self.config, seed=seed),
                                          alphabet) for seed in self.seeds]
                      for dataset, alphabet in sets)
        assert isinstance(desk[1], TrainingError) and isinstance(desk[2], TrainingError)
        assert not any(isinstance(want, TrainingError) for want in four)
        for group, solo in zip(results, (desk, four)):
            for got, want in zip(group, solo):
                assert_same_fit(got, want)

    def test_one_step_call_per_halving_round(self, monkeypatch):
        calls = []
        real_step = trainer.cayley_step

        def spy(kappa, gradient, tau):
            calls.append(len(tau))
            return real_step(kappa, gradient, tau)

        monkeypatch.setattr(trainer, "cayley_step", spy)
        # the six desk runs share one stack and never halve
        results = train_qhmm_datasets(desk_training_sets(), self.config, self.seeds)
        assert all(halvings(records, self.config) == 0
                   for group in results for _, records in group)
        assert calls == [6] * self.config.epochs * self.config.num_batches
        # a run on its own makes one one-entry call per step
        calls.clear()
        (dataset, alphabet), _ = desk_training_sets()
        _, records = train_qhmm(dataset, self.config, alphabet)
        assert halvings(records, self.config) == 0
        assert calls == [1] * len(records)

    def test_no_datasets_or_no_seeds_train_nothing(self):
        assert train_qhmm_datasets([], self.config, self.seeds) == []
        assert train_qhmm_datasets(two_system_training_sets(), self.config, []) == [[], []]


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
