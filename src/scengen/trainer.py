"""Learning Kraus operators by gradient descent constrained to the Stiefel manifold.

The M * mu operators of a model are stacked into one tall complex matrix
with orthonormal columns; each update moves along the manifold with a
Cayley-style retraction, so the completeness constraint holds after every
accepted step. The retraction is written once, for stacks of points, and
one point is a stack of one. Per-sequence loss terms within a batch are
independent and reduced longest sequence first, so results are
deterministic for a fixed seed.

Several runs, one per (dataset, seed) pair, train in one stacked pass.
Every step stacks the operators of all runs symbol by symbol, so each
run's symbols are offset once, by the alphabet sizes of the runs before it
(datasets of different systems may differ in M); every dataset is
zero-padded to one width, and the mini-batch rows of all runs are merged
longest first. The batched kernels then run unchanged on the stack, and
the one-hot gradient scatter keeps each run's gradient apart. A run that
fails keeps its last point, which nothing reads, and its rows are ignored
from then on: a run whose batch rows underflow leaves the step with its
error, each round of step halvings retracts the runs still stepping with
one call of the list form of :func:`cayley_step`, and one filter pass over
the step's rows checks their candidates (a run without a candidate keeps
its point).

Once a step's last candidate passes, its check has filtered under the
operators the next step starts from. So whenever both steps' rows fit one
kernel row block, every check also filters the next step's rows and keeps
their history, and the last check that ran is the next step's forward
pass: that step runs only the adjoint, over the history gathered into its
own layout, which was stacked one step early. A step runs its own forward
pass only at a stack's first step, when its rows and the next step's
overflow one row block, and after a step in which no check ran (every run
of it failed) or that was skipped: a step whose runs have all failed,
which the lookahead stacked before they did, runs no pass. Every row is
filtered by the same arithmetic in either pass, and the one-hot scatter
sums the same rows in the same order, so nothing depends on which pass
filtered a row.

Step sizes, halvings, random streams and failures stay per run, so every
run gets the model, loss trace and error of a run on its own, bit for
bit. Runs are packed greedily, in order, into stacks whose mini-batches
fit one row block of the kernels together and hold at most 128 rows: over
longer sums the scatter's matrix product may group its terms differently
in OpenBLAS (0.3.31), and a run would then differ from its own in the
last bits.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, fields
from itertools import accumulate
from numbers import Integral, Real

import numpy as np

from .errors import (GradientUndefinedError, InputError, StepFailureError,
                     TrainingError)
from .hmm import _flatten, _pad, _row_blocks
from .qhmm import (_BLOCK_BUDGET, COMPLETENESS_TOL, DensityMatrix, KrausModel,
                   _as_matrix, _kraus_step, _partition, _propagate,
                   orthonormality_residual)

MAX_STEP_HALVINGS = 30
# the most mini-batch rows a training stack holds
_STACK_ROWS = 128


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
    padded, lengths, _ = _pad(*_flatten(batch), alphabet_size)
    return float(-_propagate(ops, _as_matrix(pi0), padded, lengths).sum() / len(lengths))


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
    padded, lengths, _ = _pad(*_flatten(batch), alphabet_size)
    log_probs, grad = _loss_and_gradient(ops, _as_matrix(pi0), padded, lengths)
    if log_probs.min() == -math.inf:
        raise GradientUndefinedError("loss is not finite on this batch")
    return grad.reshape(-1, ops.shape[3]) / len(lengths)


def _loss_and_gradient(ops: np.ndarray, rho0: np.ndarray, padded: np.ndarray,
                       lengths: np.ndarray):
    """Natural-log probability of each padded row (longest first), as
    :func:`_propagate` computes it, and the gradient of their negated sum
    w.r.t. conj(ops); callers divide by their row counts.

    This is the forward pass, :func:`_propagate` keeping history, then
    :func:`_adjoint` over that history, one row block at a time, so history
    is held for one block only. A training step whose rows an earlier pass
    already filtered under ``ops`` runs :func:`_adjoint` alone.
    """
    log_probs = np.zeros(len(lengths))

    def forward():
        for rows in _row_blocks(len(lengths), ops.shape[2] ** 2, _BLOCK_BUDGET):
            block, history = padded[rows], []
            log_probs[rows] = _propagate(ops, rho0, block, lengths[rows], history)
            yield block, history

    return log_probs, _adjoint(ops, forward())


def _adjoint(ops: np.ndarray, blocks) -> np.ndarray:
    """Gradient w.r.t. conj(ops) of the negated log-probability sum of
    padded rows, from the history their forward pass recorded.

    ``blocks`` yields ``(padded, history)`` pairs, one per row block: the
    block's rows, longest first, and the history :func:`_propagate` kept
    while filtering them. The terms of each block are summed into the
    gradient in order, by a one-hot matrix product over the block's rows,
    so the result depends on the rows and their order, not on which pass
    filtered them.

    The gradient is finite even when a row underflows: :func:`_propagate`
    takes that step's probability as 1, so the row adds finite terms, and
    only to the operators of the symbols it holds. A caller whose rows
    score -inf discards its own part of the gradient.
    """
    m, _, k, _ = ops.shape
    adjoint_ops = ops.conj().swapaxes(2, 3)
    symbol_ids = np.arange(m)[:, None]
    grad = np.zeros((m, ops[0].size), dtype=complex)
    for block, history in blocks:
        # last step first: each position adds its term, then the dual
        # matrix is pulled back through that position's operators (the
        # first position has no earlier one to pass it to)
        dual = np.repeat(np.eye(k, dtype=complex)[None], len(block), axis=0)
        for t in range(len(history) - 1, -1, -1):
            rho, probs = history[t]
            n = len(probs)
            x = block[:n, t]
            scaled = dual[:n] / probs[:, None, None]
            terms = scaled[:, None] @ ops[x] @ rho[:, None]
            grad -= (x == symbol_ids) @ terms.reshape(n, -1)
            if t:
                dual[:n] = _kraus_step(adjoint_ops, scaled, x)[0]
        # freed before the next block's forward pass records its own
        del history
    return grad.reshape(ops.shape)


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
        if tau < 0:
            raise InputError("tau must be >= 0")
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
    or the StepFailureError it earns, per pair."""
    arr = np.array([entry[0] for entry in inputs])
    grad = np.array([entry[1] for entry in inputs])
    tau = np.array(taus)[:, None, None]
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
        if not self.learning_rate > 0:
            raise InputError("learning_rate must be positive")
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


def train_qhmm(dataset, config: TrainConfig, alphabet_size: int):
    """Fit Kraus operators to a dataset of symbol sequences.

    Returns ``(model, records)``: the trained model (stacked operators
    repartitioned, fixed initial state) and one :class:`TrainRecord` per
    processed batch. The initial state is maximally mixed, not learned. A
    step whose solve fails or whose post-step batch loss is not finite is
    retried with tau halved, up to 30 times, before training aborts with a
    :class:`TrainingError`.
    """
    ((result,),) = train_qhmm_datasets([(dataset, alphabet_size)], config, [config.seed])
    if isinstance(result, TrainingError):
        raise result
    return result


class _Run:
    """The training state of one (dataset, seed) run within a stacked pass."""

    def __init__(self, padded, lengths, row_of, alphabet_size: int, seed, config):
        # the dataset's padded rows (longest first), their lengths, and the
        # row of each input sequence; shared by the runs of one dataset
        self.padded, self.lengths, self.row_of = padded, lengths, row_of
        self.alphabet_size = alphabet_size
        self.rng = np.random.default_rng(seed)
        self.kappa = StiefelPoint(_draw_stiefel(
            self.rng, alphabet_size * config.multiplicity * config.dim, config.dim))
        self.records = []
        self.error = None  # the TrainingError that ended the run
        # the current step: pre-step loss and gradient, and the step size
        self.loss = self.grad = self.step_tau = None


def train_qhmm_datasets(datasets, config: TrainConfig, seeds) -> list:
    """Train one model per seed on each dataset, all runs in shared stacks.

    ``datasets`` holds ``(sequences, alphabet_size)`` pairs. Returns one list
    per dataset with one entry per seed, in order: the ``(model, records)``
    pair that :func:`train_qhmm` returns on that dataset for ``config`` with
    its seed replaced by that seed, or the :class:`TrainingError` it raises.
    A failing run leaves its stack and the others carry on.
    """
    # each dataset is validated and padded once, all to one width; each
    # mini-batch is a set of rows, kept longest first by taking the row
    # indices in increasing order
    padded = [_pad(*_flatten(sequences), alphabet_size)
              for sequences, alphabet_size in datasets]
    width = max((rows.shape[1] for rows, _, _ in padded), default=0)
    seeds, groups = list(seeds), []
    for (rows, lengths, order), (_, alphabet_size) in zip(padded, datasets):
        if rows.shape[1] < width:
            rows = np.pad(rows, ((0, 0), (0, width - rows.shape[1])))
        row_of = np.argsort(order)
        groups.append([_Run(rows, lengths, row_of, alphabet_size, seed, config)
                       for seed in seeds])
    # a stack pays while its runs' mini-batches fit one row block of the
    # kernels together: past that the blocks are full anyway, and the
    # one-hot gradient scatter grows with the number of stacked symbols.
    # The scatter's matrix product sums every stacked row, and OpenBLAS
    # may group a sum of more than 128 rows differently from each run's
    # own sum, so a stack holds at most 128 rows.
    block_rows, stacks = min(_BLOCK_BUDGET // config.dim ** 2, _STACK_ROWS), []
    for run in (run for group in groups for run in group):
        batch_rows = -(-len(run.lengths) // config.num_batches)
        if stacks and used + batch_rows <= block_rows:
            stacks[-1].append(run)
            used += batch_rows
        else:
            stacks.append([run])
            used = batch_rows
    for stack in stacks:
        _train_stack(stack, config)
    initial_state = DensityMatrix.maximally_mixed(config.dim)
    return [[run.error if run.error is not None else
             (KrausModel.from_stiefel(run.kappa.matrix, run.alphabet_size,
                                      config.multiplicity, initial_state), run.records)
             for run in group] for group in groups]


def _train_stack(runs, config: TrainConfig) -> None:
    """:func:`train_qhmm_datasets` for runs that share every kernel call."""
    rho0 = DensityMatrix.maximally_mixed(config.dim).matrix
    shape = (-1, config.multiplicity, config.dim, config.dim)
    # the rows of one kernel row block, the most a pass keeping history may
    # filter at once
    block_rows = max(1, _BLOCK_BUDGET // config.dim ** 2)
    # every step stacks the operators of all runs, so each run's symbols are
    # offset once, by the alphabet sizes of the runs before it
    offsets = dict(zip(runs, accumulate([run.alphabet_size for run in runs[:-1]],
                                        initial=0)))
    symbols = {run: run.padded + offset for run, offset in offsets.items()}

    def merge(parts):
        # (symbols, lengths) row sets, each longest first, merged longest
        # first; also the positions of each set's rows among the merged
        # rows, in increasing order, as the rows keep their order
        lens = np.concatenate([part[1] for part in parts])
        merged = np.argsort(-lens, kind="stable")
        position = np.empty_like(merged)
        position[merged] = np.arange(len(merged))
        ends = list(accumulate(len(part[1]) for part in parts))
        return (np.concatenate([part[0] for part in parts])[merged], lens[merged],
                [position[start:end] for start, end in zip([0] + ends, ends)])

    def stack(batch):
        # the batch's rows and lengths, and members[j], the positions of
        # batch[j]'s rows among them
        if len(batch) == 1:
            # nothing to merge; merging one run anyway made desk one-run
            # training about 10% slower
            ((run, rows),) = batch
            return symbols[run][rows], run.lengths[rows], [slice(None)]
        return merge([(symbols[run][rows], run.lengths[rows]) for run, rows in batch])

    def batches():
        # every mini-batch that has rows, in order, as (epoch, index, tau,
        # [(run, rows)], layout), over the runs with rows in it; each batch
        # is looked ahead to one step early, so an epoch's permutations are
        # drawn at the previous epoch's last batch, from the same stream
        tau = config.learning_rate
        for epoch in range(config.epochs):
            chunks = [np.array_split(run.rng.permutation(len(run.lengths)),
                                     config.num_batches) for run in runs]
            for index in range(config.num_batches):
                batch = [(run, np.sort(run.row_of[chunk[index]]))
                         for run, chunk in zip(runs, chunks)
                         if run.error is None and chunk[index].size]
                if batch:
                    yield epoch, index, tau, batch, stack(batch)
            tau *= config.decay

    def stacked_ops(points):
        return np.concatenate([point.matrix.reshape(shape) for point in points])

    def gathered(history, positions):
        # the history of the rows at ``positions`` of a check's rows (longest
        # first, so the rows running at step t are a leading slice, as many
        # as that step's probabilities); the first step's belief is the one
        # that all rows share
        running = np.searchsorted(positions, [len(probs) for _, probs in history])
        return [(rho if t == 0 else rho[positions[:n]], probs[positions[:n]])
                for t, ((rho, probs), n) in enumerate(zip(history, running.tolist()))
                if n]

    schedule = batches()
    # carried: the operators, log-probabilities and history of the last
    # check that ran, and the positions of the next step's rows in it, when
    # it filtered them
    upcoming, carried = next(schedule, None), None
    while upcoming is not None:
        (epoch, index, tau, batch, (padded, lens, members)), upcoming = \
            upcoming, next(schedule, None)
        if all(run.error is not None for run, _ in batch):
            # the lookahead stacked this step before its runs failed: no
            # pass over its rows would be read, and the next step runs its
            # own forward pass
            carried = None
            continue
        if carried is None:
            # held until replaced: freeing it before the Cayley step let glibc trim the
            # heap, and at K=16 the step's temporaries re-faulted (10x on wide compare)
            ops = stacked_ops([run.kappa for run in runs])
            log_probs, grad = _loss_and_gradient(ops, rho0, padded, lens)
        else:
            ops, scored, history, positions = carried
            log_probs = scored[positions]
            grad = _adjoint(ops, [(padded, gathered(history, positions))])
            carried = None
        stepping = []
        for (run, rows), own_rows in zip(batch, members):
            # the layout was stacked one step early: a run that failed in
            # that step keeps its rows in it, and they are ignored
            if run.error is not None:
                continue
            run.loss = float(-log_probs[own_rows].sum() / len(rows))
            own = grad[offsets[run]:offsets[run] + run.alphabet_size]
            own /= len(rows)
            run.grad = own.reshape(run.kappa.matrix.shape)  # a view
            run.step_tau = tau
            if math.isfinite(run.loss):
                stepping.append(run)
            else:
                run.error = TrainingError(
                    f"batch loss is not finite at epoch {epoch} batch {index}")
        # once a step's last candidate passes, its check has filtered under
        # the operators the next step starts from; so when both steps' rows
        # fit one row block, every check also filters the next step's rows
        # and keeps their history, and the last one is the next step's
        # forward pass
        check = None
        if upcoming is not None and len(lens) + len(upcoming[4][1]) <= block_rows:
            check = merge([(padded, lens), upcoming[4][:2]])
        # every run still halving tries one step per round, all in one
        # call; their candidates are checked together for a finite batch
        # loss, each run without one keeping its point
        for _ in range(1 + MAX_STEP_HALVINGS):
            if not stepping:
                break
            steps = cayley_step([run.kappa for run in stepping],
                                [run.grad for run in stepping],
                                [run.step_tau for run in stepping])
            candidates = {run: step for run, step in zip(stepping, steps)
                          if not isinstance(step, StepFailureError)}
            if candidates:
                ops = stacked_ops([candidates.get(run, run.kappa) for run in runs])
                if check is None:
                    log_probs = _propagate(ops, rho0, padded, lens)
                else:
                    (check_padded, check_lens, (this_rows, next_rows)), history = check, []
                    scored = _propagate(ops, rho0, check_padded, check_lens, history)
                    log_probs = scored[this_rows]
                    carried = ops, scored, history, next_rows
            for (run, _), rows in zip(batch, members):
                if run in candidates and log_probs[rows].min() > -math.inf:
                    run.records.append(TrainRecord(epoch, index, run.loss, run.step_tau))
                    run.kappa = candidates[run]
                    stepping.remove(run)
                elif run in stepping:  # its step or its candidate failed
                    run.step_tau /= 2.0
        for run in stepping:
            run.error = TrainingError(
                f"step failed after {MAX_STEP_HALVINGS} halvings at "
                f"epoch {epoch} batch {index} (loss {run.loss:.6g}, tau {tau:.3g})")


def write_training_log(path, records) -> None:
    """Write the per-batch loss trace as CSV with header epoch,batch,loss,tau."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "batch", "loss", "tau"])
        for rec in records:
            writer.writerow([rec.epoch, rec.batch, repr(rec.loss), repr(rec.tau)])
