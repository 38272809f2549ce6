"""Learning Kraus operators by gradient descent constrained to the Stiefel manifold.

The M * mu operators of a model are stacked into one tall complex matrix
with orthonormal columns; each update moves along the manifold with a
Cayley-style retraction, so the completeness constraint holds after every
accepted step. The retraction is written once, for stacks of points, and
one point is a stack of one. Per-sequence loss terms within a batch are
independent, and results are deterministic for a fixed seed. The loss and
its gradient come from one kernel, :func:`qhmm._loss_and_gradient`, which
runs the forward filter and then backwards over the history it kept; the
history never leaves it. A loss alone (:func:`nll_loss`) comes from the
forward-only :func:`qhmm._log_likelihoods`, which scoring runs too.

A step's candidate passes when every row of the run's next mini-batch (the
next one that has rows; at the run's last step, its own batch) has a
nonzero probability under it, and the pass that checks this gives the next
step its loss and gradient. So every step starts from the pass that
accepted the step before it (the first, from a pass over the first batch),
no pass filters rows whose result is thrown away, and a candidate that
fails is halved, as is a step whose Cayley solve fails.

Several runs, one per (dataset, seed) pair, train together, and this
module keeps only their optimizer policy. Training opens with one pass
over every run's first batch. Then, round after round, every run still
training takes the next step of its own schedule: each halving round
retracts the runs still stepping with one call of the list form of
:func:`cayley_step` and checks their candidates with one call of
:func:`qhmm._loss_and_gradient` over the candidates' next rows. How the
runs of a call share kernel calls is ``qhmm``'s to decide. A run that
fails keeps its last point, which nothing reads, and steps no more.

Step sizes, halvings, random streams and failures stay per run, and the
kernel gives each run the bits of a call over its own rows, so every run
gets the model, loss trace and error of a run on its own, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real

import numpy as np

from .errors import (GradientUndefinedError, InputError, StepFailureError,
                     TrainingError)
from .hmm import _flatten, _padded, _prefix_rows, _row_blocks
from .qhmm import (_BLOCK_BUDGET, COMPLETENESS_TOL, DensityMatrix, KrausModel,
                   _as_matrix, _log_likelihoods, _loss_and_gradient, _partition,
                   orthonormality_residual)
from .serialization import _write_columns

MAX_STEP_HALVINGS = 30


@dataclass
class StiefelPoint:
    """A tall complex matrix with orthonormal columns (stacked Kraus operators)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] < m.shape[1] or m.shape[1] < 1:
            raise InputError("expected a tall 2-D matrix (rows >= cols >= 1)")
        res = orthonormality_residual(m)
        if res > COMPLETENESS_TOL:
            raise InputError(f"columns are not orthonormal (residual {res:.3e})")
        m.setflags(write=False)
        self.matrix = m

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def residual(self) -> float:
        return orthonormality_residual(self.matrix)

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "StiefelPoint":
        """A point over a read-only complex matrix whose residual the caller
        has already checked against COMPLETENESS_TOL; not validated again."""
        point = cls.__new__(cls)
        point.matrix = matrix
        return point


def _draw_stiefel(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    z = (rng.standard_normal((rows, cols))
         + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    # fix the QR phase ambiguity so the draw is a deterministic function of z
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d)).conj()


def random_stiefel(rows: int, cols: int, seed) -> StiefelPoint:
    """Orthonormalization of an i.i.d. standard complex Gaussian matrix."""
    if cols < 1 or rows < cols:
        raise InputError("need rows >= cols >= 1")
    return StiefelPoint(_draw_stiefel(np.random.default_rng(seed), rows, cols))


def _as_kappa(kappa) -> np.ndarray:
    if isinstance(kappa, StiefelPoint):
        return kappa.matrix
    arr = np.asarray(kappa, dtype=complex)
    if arr.ndim != 2:
        raise InputError("kappa must be a 2-D complex matrix")
    return arr


def nll_loss(kappa, batch, pi0, alphabet_size: int, multiplicity: int = 1) -> float:
    """Mean negative log-likelihood of a batch under the stacked operators.

    A sequence with zero (or underflowed) probability makes the whole
    batch loss +inf. Off-manifold matrices are accepted, which keeps the
    loss differentiable for finite-difference probes.
    """
    ops = _partition(_as_kappa(kappa), alphabet_size, multiplicity)
    padded, lengths, _, starts = _prefix_rows(*_flatten(batch), alphabet_size)
    log_probs, _ = _log_likelihoods([(ops, _as_matrix(pi0))], padded, lengths, starts)
    return float(-log_probs[0].sum() / len(lengths))


def nll_gradient(kappa, batch, pi0, alphabet_size: int, multiplicity: int = 1) -> np.ndarray:
    """Gradient of :func:`nll_loss` with respect to the conjugated kappa.

    Wirtinger convention: for the real-valued loss l, the returned G holds
    dl/d(conj(kappa)), so -G is the steepest-descent direction and central
    finite differences on the real/imaginary parts of kappa recover
    2*Re(G) and 2*Im(G).

    Raises
    ------
    GradientUndefinedError
        If the loss is not finite on the batch.
    """
    ops = _partition(_as_kappa(kappa), alphabet_size, multiplicity)
    symbols, lengths = _flatten(batch)
    ((total, grad),) = _loss_and_gradient(
        [(ops, _padded(symbols, lengths, alphabet_size), lengths)], _as_matrix(pi0))
    if total == -math.inf:
        raise GradientUndefinedError("loss is not finite on this batch")
    return grad.reshape(-1, ops.shape[3]) / len(lengths)


def cayley_step(kappa, gradient, tau):
    """One descent step along the manifold.

    Computes ``kappa - tau * U (I + (tau/2) V^dagger U)^-1 V^dagger kappa``
    with U = [G | kappa], V = [kappa | -G]; the result has orthonormal
    columns for any G. ``tau = 0`` returns kappa unchanged.

    Given lists of points, gradients and taus (one entry per run), returns
    a list with one :class:`StiefelPoint` or one :class:`StepFailureError`
    per entry. Entries of one shape are retracted together, in batched
    solves; each entry's result does not depend on the others, and a
    single point is the list form's one-entry call.

    Raises
    ------
    InputError
        If a gradient's shape differs from its point's, or a tau is not finite and >= 0.
    StepFailureError
        If the inner solve is singular or orthonormality is lost to
        roundoff; callers halve tau and retry.
    """
    if isinstance(tau, list):
        return _cayley_steps(kappa, gradient, tau)
    (point,) = _cayley_steps([kappa], [gradient], [tau])
    if isinstance(point, StepFailureError):
        raise point
    return point


def _cayley_steps(points, gradients, taus) -> list:
    """The list form of :func:`cayley_step`.

    Entries are grouped by shape, never padded. A group is retracted in
    stacks of at most ``_BLOCK_BUDGET`` kappa entries (at least one): past
    that the stacked temporaries outgrow the cache.
    """
    if not len(points) == len(gradients) == len(taus):
        raise InputError("need one gradient and one tau per point")
    inputs, groups, results = [], {}, {}
    for i, (kappa, gradient, tau) in enumerate(zip(points, gradients, taus)):
        arr, grad = _as_kappa(kappa), np.asarray(gradient, dtype=complex)
        if grad.shape != arr.shape:
            raise InputError("gradient shape must match kappa")
        if not 0 <= tau < math.inf:  # halving never makes a NaN or infinite tau finite
            raise InputError("tau must be >= 0 and finite")
        inputs.append((arr, grad))
        if tau == 0.0:
            results[i] = kappa if isinstance(kappa, StiefelPoint) else StiefelPoint(arr)
        else:
            groups.setdefault(arr.shape, []).append(i)
    for (rows, cols), members in groups.items():
        for block in _row_blocks(len(members), rows * cols, _BLOCK_BUDGET):
            stack = members[block]
            results.update(zip(stack, _stacked_steps(
                [inputs[i] for i in stack], [taus[i] for i in stack])))
    return [results[i] for i in range(len(points))]


def _stacked_steps(inputs, taus) -> list:
    """:func:`cayley_step`'s arithmetic on an (S, rows, cols) stack of
    ``(kappa, gradient)`` pairs, with one batched Gram residual: one point,
    or the StepFailureError it earns, per pair. Arithmetic that overflows
    fails its entry with that error, not with a warning."""
    arr = np.array([entry[0] for entry in inputs])
    grad = np.array([entry[1] for entry in inputs])
    tau = np.array(taus)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.concatenate([grad, arr], axis=2)
        v = np.concatenate([arr, -grad], axis=2)
        vh = v.conj().swapaxes(1, 2)
        lhs = np.eye(u.shape[2], dtype=complex) + (tau / 2.0) * (vh @ u)
        rhs = vh @ arr
        singular = set()
        try:
            y = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            # the batched solve fails as a whole; find the singular entries
            y = np.zeros_like(rhs)
            for j in range(len(inputs)):
                try:
                    y[j] = np.linalg.solve(lhs[j], rhs[j])
                except np.linalg.LinAlgError:
                    singular.add(j)
        new = arr - tau * (u @ y)
        new.setflags(write=False)
        finite = np.isfinite(new).all(axis=(1, 2))
        gram = new.conj().swapaxes(1, 2) @ new
        residual = np.abs(gram - np.eye(new.shape[2])).max(axis=(1, 2))
    results = []
    for j in range(len(inputs)):
        if j in singular:
            results.append(StepFailureError("inner solve is singular"))
        elif not finite[j]:
            results.append(StepFailureError("step produced non-finite entries"))
        elif residual[j] > COMPLETENESS_TOL:
            results.append(StepFailureError(
                f"columns are not orthonormal (residual {residual[j]:.3e})"))
        else:
            results.append(StiefelPoint._trusted(new[j]))
    return results


@dataclass
class TrainConfig:
    """Hyper-parameters for :func:`train_qhmm`.

    The defaults are desk-scale tunables, not recommendations from theory:
    learning_rate is the initial step size, multiplied by ``decay`` after
    every epoch; each epoch shuffles the dataset (seeded) and splits it
    into ``num_batches`` contiguous batches with one manifold step each.
    ``epochs = 0`` returns the seeded random initialization untouched.
    """

    dim: int
    learning_rate: float = 0.05
    decay: float = 0.95
    num_batches: int = 5
    epochs: int = 100
    multiplicity: int = 1
    seed: int = 0

    def __post_init__(self):
        integers = ("dim", "num_batches", "epochs", "multiplicity", "seed")
        for name in integers + ("learning_rate", "decay"):
            value, kind = getattr(self, name), Integral if name in integers else Real
            if isinstance(value, bool) or not isinstance(value, kind):
                noun = "an integer" if kind is Integral else "a real number"
                raise InputError(f"{name} must be {noun}, not {value!r}")
        if self.dim < 1:
            raise InputError("dim must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise InputError("learning_rate must be positive and finite")
        if not 0.0 < self.decay <= 1.0:
            raise InputError("decay must lie in (0, 1]")
        if self.num_batches < 1:
            raise InputError("num_batches must be >= 1")
        if self.epochs < 0:
            raise InputError("epochs must be >= 0")
        if self.multiplicity < 1:
            raise InputError("multiplicity must be >= 1")
        if self.seed < 0:  # numpy seeds its generators from non-negative integers
            raise InputError("seed must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainConfig":
        """Build a config from a JSON-style mapping (unknown keys rejected)."""
        unknown = set(payload) - {field.name for field in fields(cls)}
        if unknown:
            raise InputError(f"unknown config fields {sorted(unknown)}")
        if "dim" not in payload:
            raise InputError("config requires the 'dim' field")
        return cls(**payload)


@dataclass(frozen=True)
class TrainRecord:
    """One mini-batch step: loss at the pre-step iterate and the tau used."""

    epoch: int
    batch: int
    loss: float
    tau: float


def train_qhmm(dataset, config: TrainConfig, alphabet_size: int, work=None):
    """Fit Kraus operators to a dataset of symbol sequences.

    Returns ``(model, records)``: the trained model (stacked operators
    repartitioned, fixed initial state) and one :class:`TrainRecord` per
    processed batch. The initial state is maximally mixed, not learned. A
    step whose solve fails, or whose candidate gives a row of the next
    mini-batch (at the last step, of its own) zero probability, is retried
    with tau halved, up to 30 times, before training aborts with a
    :class:`TrainingError`; so does a first batch with a row of zero
    probability under the initialization. ``work``, when a
    :class:`collections.Counter`, has the run's counts added to it, as
    :func:`train_qhmm_datasets` adds them.
    """
    ((result,),) = train_qhmm_datasets([(dataset, alphabet_size)], config, [config.seed],
                                       work=work)
    if isinstance(result, TrainingError):
        raise result
    return result


class _Run:
    """The training state of one (dataset, seed) run: its schedule of steps,
    drawn up front, its point, and the loss and gradient its current step
    starts from."""

    def __init__(self, padded, lengths, alphabet_size: int, seed, config):
        # the dataset's padded rows and their lengths; shared by the runs of
        # one dataset
        self.padded, self.lengths = padded, lengths
        self.alphabet_size = alphabet_size
        rng = np.random.default_rng(seed)
        self.kappa = StiefelPoint(_draw_stiefel(
            rng, alphabet_size * config.multiplicity * config.dim, config.dim))
        # the steps still to take, last first: (epoch, index, tau, rows) per
        # mini-batch that has rows, its rows in increasing order; the
        # permutations are the run's only draws after its initialization, so
        # they are all drawn here; each permutation is cut where
        # np.array_split cuts it, at bounds found once
        batches = [(index, slice(chunk[0], chunk[-1] + 1)) for index, chunk in enumerate(
            np.array_split(range(len(lengths)), config.num_batches)) if chunk.size]
        self.pending, tau = [], config.learning_rate
        for epoch in range(config.epochs):
            permutation = rng.permutation(len(lengths))
            self.pending += [(epoch, index, tau, np.sort(permutation[chunk]))
                             for index, chunk in batches]
            tau *= config.decay
        self.pending.reverse()
        self.records = []
        self.error = None  # the TrainingError that ended the run
        # the current step: pre-step loss and gradient, and the step size
        self.loss = self.grad = self.step_tau = None
        # the step halvings so far, and how many of them a failed check made
        self.halvings = self.failed_checks = 0

    def next_rows(self) -> np.ndarray:
        """The rows a candidate of the current step is checked on: the next
        step's, or the current step's own at the run's last step."""
        return self.pending[-2 if len(self.pending) > 1 else -1][3]


def train_qhmm_datasets(datasets, config: TrainConfig, seeds, work=None) -> list:
    """Train one model per seed on each dataset, all runs together.

    ``datasets`` holds ``(sequences, alphabet_size)`` pairs. Returns one list
    per dataset with one entry per seed, in order: the ``(model, records)``
    pair that :func:`train_qhmm` returns on that dataset for ``config`` with
    its seed replaced by that seed, or the :class:`TrainingError` it raises.
    A failing run stops and the others carry on. The datasets may differ in
    alphabet size and sequence length. In each round of steps, every run
    still training takes the next step of its own schedule; each halving
    round retracts the runs still stepping in one :func:`cayley_step` call
    and checks their candidates in one :func:`qhmm._loss_and_gradient`
    call. ``work``, when a :class:`collections.Counter`, has added to it the
    accepted steps (``steps``), the halvings of tau (``step_halvings``) and
    the candidates under which a row of the run's next mini-batch had zero
    probability (``failed_checks``), summed over runs.
    """
    # each dataset is validated and padded once
    seeds, groups = list(seeds), []
    for sequences, alphabet_size in datasets:
        symbols, lengths = _flatten(sequences)
        padded = _padded(symbols, lengths, alphabet_size)
        groups.append([_Run(padded, lengths, alphabet_size, seed, config) for seed in seeds])
    runs = [run for group in groups for run in group]
    initial_state = DensityMatrix.maximally_mixed(config.dim)
    rho0 = initial_state.matrix
    shape = (-1, config.multiplicity, config.dim, config.dim)

    def losses_and_gradients(batch):
        # per (run, point, rows) triple, the run's loss on those rows at
        # that point and its gradient there, all from one kernel entry call
        results = _loss_and_gradient([(point.matrix.reshape(shape), run.padded[rows],
                                       run.lengths[rows]) for run, point, rows in batch], rho0)
        return [(float(-total / len(rows)), grad.reshape(point.matrix.shape) / len(rows))
                for (_, point, rows), (total, grad) in zip(batch, results)]

    # one pass over every run's first batch gives each its first loss and
    # gradient; every later pass checks a round's candidates
    stepping = [run for run in runs if run.pending]
    first = losses_and_gradients([(run, run.kappa, run.pending[-1][3]) for run in stepping])
    for run, (loss, grad) in zip(stepping, first):
        run.loss, run.grad = loss, grad
        if not math.isfinite(loss):
            epoch, index = run.pending[-1][:2]
            run.error = TrainingError(f"batch loss is not finite at epoch {epoch} batch {index}")
    while stepping := [run for run in runs if run.error is None and run.pending]:
        for run in stepping:
            run.step_tau = run.pending[-1][2]
        # every run still halving tries one step per round, all in one call;
        # a candidate passes when every row the run's next step needs has a
        # nonzero probability under it, and that pass gives the run its next
        # loss and gradient
        for _ in range(1 + MAX_STEP_HALVINGS):
            steps = cayley_step([run.kappa for run in stepping], [run.grad for run in stepping],
                                [run.step_tau for run in stepping])
            candidates = [(run, step) for run, step in zip(stepping, steps)
                          if not isinstance(step, StepFailureError)]
            checked = {}
            if candidates:
                checked = dict(zip((run for run, _ in candidates), losses_and_gradients(
                    [(run, step, run.next_rows()) for run, step in candidates])))
            for run, step in zip(list(stepping), steps):
                if run in checked and math.isfinite(checked[run][0]):
                    epoch, index = run.pending.pop()[:2]
                    run.records.append(TrainRecord(epoch, index, run.loss, run.step_tau))
                    run.kappa, (run.loss, run.grad) = step, checked[run]
                    stepping.remove(run)
                else:  # its step or its candidate failed
                    run.failed_checks += run in checked
                    run.halvings += 1
                    run.step_tau /= 2.0
            if not stepping:
                break
        for run in stepping:
            epoch, index, tau, _ = run.pending[-1]
            run.error = TrainingError(
                f"step failed after {MAX_STEP_HALVINGS} halvings at epoch {epoch} "
                f"batch {index} (loss {run.loss:.6g}, tau {tau:.3g})")
    if work is not None:
        work.update(steps=sum(len(run.records) for run in runs),
                    step_halvings=sum(run.halvings for run in runs),
                    failed_checks=sum(run.failed_checks for run in runs))
    return [[run.error if run.error is not None else
             (KrausModel.from_stiefel(run.kappa.matrix, run.alphabet_size,
                                      config.multiplicity, initial_state), run.records)
             for run in group] for group in groups]


def write_training_log(path, records) -> None:
    """Write the per-batch loss trace as CSV with header epoch,batch,loss,tau."""
    header = ["epoch", "batch", "loss", "tau"]
    _write_columns(path, header, [[getattr(rec, name) for rec in records] for name in header])
