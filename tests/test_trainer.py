import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from scengen import (DensityMatrix, GradientUndefinedError, InputError,
                     StepFailureError, StiefelPoint, TrainConfig, TrainingError,
                     build_datasets, cayley_step, embed_hmm, nll_gradient,
                     nll_loss, qhmm_log_likelihood, qhmm_sample, random_stiefel,
                     reference_four_event_system, reference_three_event_system,
                     train_qhmm, train_qhmm_datasets, trainer, validate_kraus,
                     write_training_log)

from oracles import (cayley_step_reference, central_difference_gradient,
                     pad_reference, random_kraus_model, train_qhmm_reference)


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

    def test_underflowing_row_leaves_the_other_operators_alone(self, absorbing_hmm,
                                                                underflow_batch):
        # a stack of two models, symbols 0-1 and 2-4; one row of the second
        # underflows, and the first model's gradient is still its own
        live = random_kraus_model(np.random.default_rng(8), 2, 2, 2)
        dead = embed_hmm(absorbing_hmm)  # starts maximally mixed, as live does
        live_batch = [(0, 1, 1), (1, 0)]
        stacked = live_batch + [tuple(x + 2 for x in seq) for seq in underflow_batch]
        ops = np.concatenate([live.operators, dead.operators])
        rho0 = live.initial_state.matrix
        log_probs, grad = trainer._loss_and_gradient(ops, rho0,
                                                     *pad_reference(stacked, 5)[:2])
        assert np.isinf(log_probs).sum() == 1 and np.isfinite(grad).all()
        _, want = trainer._loss_and_gradient(live.operators, rho0,
                                             *pad_reference(live_batch, 2)[:2])
        np.testing.assert_array_equal(grad[:2], want)


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
                             ((point, grad, -0.1), "tau must be >= 0")):
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

    - ``("stack",)`` starts each training stack;
    - ``("forward", padded, lengths, fresh, ops)`` starts each step, fresh
      when the step ran its own forward pass and not when it ran only the
      adjoint over history an earlier check kept;
    - ``("step", entries)`` is a :func:`cayley_step` call;
    - ``("check", padded, lengths, kept, ops)`` is a candidate check, kept
      when it kept history for the next step.
    """

    real_loss, real_adjoint = trainer._loss_and_gradient, trainer._adjoint
    real_propagate, real_stack = trainer._propagate, trainer._train_stack

    def install():
        calls, inside_loss = [], []
        real_step = trainer.cayley_step

        def train_stack(runs, config):
            calls.append(("stack",))
            return real_stack(runs, config)

        def loss(ops, rho0, padded, lengths):
            calls.append(("forward", padded, lengths, True, ops))
            inside_loss.append(True)
            try:
                return real_loss(ops, rho0, padded, lengths)
            finally:
                inside_loss.pop()

        def adjoint(ops, blocks):
            if not inside_loss:
                ((padded, history),) = blocks = list(blocks)
                # a row runs for as many steps as the history has entries for it
                lengths = np.array([sum(len(probs) > row for _, probs in history)
                                    for row in range(len(padded))])
                calls.append(("forward", padded, lengths, False, ops))
            return real_adjoint(ops, blocks)

        def propagate(ops, rho0, padded, lengths, history=None):
            if not inside_loss:
                calls.append(("check", padded, lengths, history is not None, ops))
            return real_propagate(ops, rho0, padded, lengths, history)

        def step(kappa, gradient, tau):
            calls.append(("step", len(tau)))
            return real_step(kappa, gradient, tau)

        monkeypatch.setattr(trainer, "_train_stack", train_stack)
        monkeypatch.setattr(trainer, "_loss_and_gradient", loss)
        monkeypatch.setattr(trainer, "_adjoint", adjoint)
        monkeypatch.setattr(trainer, "_propagate", propagate)
        monkeypatch.setattr(trainer, "cayley_step", step)
        return calls

    return install


def recorded_stacks(calls):
    """The recorded kernel calls split into stacks, each a list of steps led
    by their forward passes."""
    stacks = []
    for call in calls:
        if call[0] == "stack":
            stacks.append([])
        elif call[0] == "forward":
            stacks[-1].append([call])
        else:
            stacks[-1][-1].append(call)
    return stacks


def recorded_steps(calls):
    """The recorded kernel calls split into steps, each led by its forward pass."""
    return [step for stack in recorded_stacks(calls) for step in stack]


def as_rows(padded, lengths):
    return [(length, tuple(symbols)) for length, symbols in zip(lengths.tolist(),
                                                                padded.tolist())]


def assert_one_forward_per_step(calls, dim):
    """Check the recorded calls of a training, stack after stack:

    - a step runs its own forward pass only at its stack's first step, when
      its rows and the next step's overflow one kernel row block, and after
      a step in which no check ran;
    - every check filters its step's rows, merged longest first with the
      next step's and keeping history when both fit one row block, and
      alone otherwise;
    - a step that ran no forward pass of its own ran the adjoint under the
      operators of the previous step's last check;
    - the one-hot scatter sees a step's rows only, at most 128 of them.

    Returns, per step, whether it ran its own forward pass."""
    fresh = []
    for stack in recorded_stacks(calls):
        assert stack[0][0][3]
        for i, ((_, padded, lengths, own, _), *rest) in enumerate(stack):
            assert len(lengths) <= 128
            rows = as_rows(padded, lengths)
            checks = [call[1:] for call in rest if call[0] == "check"]
            following, fits = None, False
            if i + 1 < len(stack):
                _, next_padded, next_lengths, next_own, next_ops = stack[i + 1][0]
                following = as_rows(next_padded, next_lengths)
                fits = len(rows) + len(following) <= 2048 // dim ** 2
            for check_padded, check_lengths, kept, _ in checks:
                assert kept == fits
                assert as_rows(check_padded, check_lengths) == (
                    sorted(rows + following, key=lambda row: -row[0]) if fits else rows)
            if following is not None:
                assert next_own == (not (fits and checks))
                if not next_own:
                    assert next_ops is checks[-1][3]
            fresh.append(own)
    return fresh


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
        (2, 1, 3, 5),      # 512-row blocks, stacks capped at 128 rows
        (3, 1, 3, 5),      # 227-row blocks, stacks capped at 128 rows
        (2, 1, 1, 5),      # one epoch: the last step has no next batch
        (4, 1, 2, 400),    # 82 empty batches closing each epoch
    ], ids=["4-1-3-5", "16-2-1-5", "16-2-1-106", "2-1-3-5", "3-1-3-5", "2-1-1-5",
            "4-1-2-400"])
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
        # halving rounds do not make a step run its own forward pass: the
        # last check of a step that halved carried the next step's rows
        fresh = assert_one_forward_per_step(calls, config.dim)
        assert fresh == [True] + [False] * (len(fresh) - 1)
        assert any(sum(call[0] == "check" for call in step) > 1
                   for step in recorded_steps(calls))

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
        calls = record_kernels()
        results = train_qhmm_datasets([(data, 2)], config, seeds)[0]
        for got, want in zip(results, solo):
            assert_same_fit(got, want)
        halved = [[(r.epoch, r.batch) for r in records if halvings([r], config)]
                  for _, records in results]
        assert halved[0] == halved[2] == [(0, last)] and halved[1] == []
        # the rejected round's check and the passing round's both carried
        # the next rows, and the step after the halving ran only the adjoint
        fresh = assert_one_forward_per_step(calls, config.dim)
        assert fresh == [True] + [False] * (len(fresh) - 1)
        assert [call[0] for call in recorded_steps(calls)[last][1:]] \
            == ["step", "check"] * 2

    # the steps of seeds 3 and 7 land on operators that cannot emit symbol
    # 0: seed 3 accepts one and then meets a batch with a 0, the candidates
    # of seed 7 fail the check on its first batch
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
        # without seed 7 every candidate of the first step passes, so seed
        # 3's batch underflows in the forward pass of that step's check
        for seeds in ([5, 3, 6, 7], [5, 3, 6]):
            results = self.train_impossible(seeds)
            for seed, got in zip(seeds, results):
                assert_same_fit(got, reference_or_error(
                    self.impossible_data, replace(self.impossible_config, seed=seed), 2))
            assert str(results[1]) == "batch loss is not finite at epoch 0 batch 1"
            assert not isinstance(results[0], TrainingError)
            assert not isinstance(results[2], TrainingError)
            if 7 in seeds:
                assert str(results[3]).startswith("step failed after 30 halvings")

    def test_one_stack_layout_per_step(self, monkeypatch, patch_steps, record_kernels):
        self.poison_steps(patch_steps)
        poisoned = trainer.cayley_step
        for seeds, fresh, kept, step_sizes in [
            # seed 7's candidate fails the first step's check; seed 7 then
            # halves alone and fails, each of its checks filtering both
            # steps' rows; its rows of the second step are ignored there,
            # and seed 3 fails in the forward pass of the first step's last
            # check
            ([5, 3, 6, 7], [True] + [False] * 11, [True] * 11 + [False],
             [4] + [1] * 30 + [2] * 11),
            # every candidate of the first step passes: seed 3 fails in the
            # forward pass of that step's check
            ([5, 3, 6], [True] + [False] * 11, [True] * 11 + [False], [3] + [2] * 11),
            # seed 3 alone fails in its second step, before any check; its
            # third step was stacked a step early, and is skipped
            ([3], [True, False], [True, False], [1]),
        ]:
            monkeypatch.setattr(trainer, "cayley_step", poisoned)
            calls = record_kernels()
            results = self.train_impossible(seeds)
            assert [isinstance(got, TrainingError) for got in results] \
                == [seed in (3, 7) for seed in seeds]
            # a fresh forward pass at the first step, and after a step in
            # which no check ran, though runs fail and halve; the last step
            # has no next batch to check
            assert assert_one_forward_per_step(calls, self.impossible_config.dim) == fresh
            assert [any(call[0] == "check" and call[3] for call in step)
                    for step in recorded_steps(calls)] == kept
            # one step call per halving round, and one check after each
            assert [call[1] for call in calls if call[0] == "step"] == step_sizes
            assert sum(call[0] == "check" for call in calls) == len(step_sizes)

    def test_step_after_a_skipped_step_runs_its_own_forward(self, patch_steps,
                                                             record_kernels):
        # seed 7 fails after 30 halvings at the first batch, and every check
        # of that step carries the second batch, which holds seed 7's rows
        # alone and is skipped; the one-sequence dataset has rows only in
        # each epoch's first batch, so its run steps next at epoch 1
        self.poison_steps(patch_steps)
        datasets = [(self.impossible_data, 2), ([(1, 1)], 2)]
        solo = [reference_or_error(data, replace(self.impossible_config, seed=7), alphabet)
                for data, alphabet in datasets]
        calls = record_kernels()
        results = [group[0] for group in
                   train_qhmm_datasets(datasets, self.impossible_config, [7])]
        for got, want in zip(results, solo):
            assert_same_fit(got, want)
        assert str(results[0]).startswith("step failed after 30 halvings at epoch 0 batch 0")
        steps = recorded_steps(calls)
        assert [step[0][3] for step in steps] == [True, True]
        assert all(call[3] for call in steps[0] if call[0] == "check")
        assert steps[1][0][2].tolist() == [2]

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
    # at K=4 a kernel row block holds 128 rows, and the runs are packed in
    # order: the three desk runs (1-2 rows per batch) share a stack with one
    # four-event run (63-64 rows), and two four-event runs fill the other
    config = TrainConfig(dim=4, epochs=3)
    seeds = [0, 1, 2]

    @pytest.mark.parametrize("desk_first", [True, False])
    @pytest.mark.parametrize("dim, num_batches", [
        # two stacks per step, one of them holding runs of both datasets;
        # two steps' rows never fit one row block, so every step runs its
        # own forward pass
        (4, 5),
        # one stack of all six runs, in a 512-row block: the desk runs' last
        # two chunks of every epoch are empty, so the set of runs changes
        # at batches 6 and 0, and still only the first step runs its own
        # forward pass
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
        fresh = assert_one_forward_per_step(calls, dim)
        if num_batches == 5:
            assert fresh == [True] * 2 * config.epochs * num_batches
        else:
            assert fresh == [True] + [False] * (config.epochs * num_batches - 1)

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
