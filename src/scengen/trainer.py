"""Learning Kraus operators by gradient descent constrained to the Stiefel manifold.

The M * mu operators of a model are stacked into one tall complex matrix
with orthonormal columns; each update moves along the manifold with a
Cayley-style retraction, so the completeness constraint holds after every
accepted step. Per-sequence loss terms within a batch are independent and
reduced longest sequence first, so results are deterministic for a fixed
seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (GradientUndefinedError, InputError, StepFailureError,
                     TrainingError)
from .qhmm import (DensityMatrix, KrausModel, _as_matrix, _kraus_step, _pad,
                   _propagate, _row_blocks)

STIEFEL_TOL = 1e-8
MAX_STEP_HALVINGS = 30


def orthonormality_residual(matrix) -> float:
    """Max-norm of (matrix^dagger matrix - identity)."""
    m = np.asarray(matrix)
    gram = m.conj().T @ m
    return float(np.max(np.abs(gram - np.eye(m.shape[1]))))


@dataclass
class StiefelPoint:
    """A tall complex matrix with orthonormal columns (stacked Kraus operators)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] < m.shape[1] or m.shape[1] < 1:
            raise InputError("expected a tall 2-D matrix (rows >= cols >= 1)")
        res = orthonormality_residual(m)
        if res > STIEFEL_TOL:
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


def _partition(arr: np.ndarray, alphabet_size: int, multiplicity: int) -> np.ndarray:
    k = arr.shape[1]
    if arr.shape[0] != alphabet_size * multiplicity * k:
        raise InputError(
            f"kappa has {arr.shape[0]} rows, expected "
            f"{alphabet_size * multiplicity * k} (= M * mu * K)")
    return arr.reshape(alphabet_size, multiplicity, k, k)


def nll_loss(kappa, batch, pi0, alphabet_size: int, multiplicity: int = 1) -> float:
    """Mean negative log-likelihood of a batch under the stacked operators.

    A sequence with zero (or underflowed) probability makes the whole
    batch loss +inf. Off-manifold matrices are accepted, which keeps the
    loss differentiable for finite-difference probes.
    """
    ops = _partition(_as_kappa(kappa), alphabet_size, multiplicity)
    padded, lengths, _ = _pad(batch, alphabet_size)
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
    arr = _as_kappa(kappa)
    ops = _partition(arr, alphabet_size, multiplicity)
    padded, lengths, _ = _pad(batch, alphabet_size)
    _, grad = _loss_and_gradient(ops, _as_matrix(pi0), padded, lengths)
    if grad is None:
        raise GradientUndefinedError("loss is not finite on this batch")
    return grad.reshape(arr.shape)


def _loss_and_gradient(ops: np.ndarray, rho0: np.ndarray, padded: np.ndarray,
                       lengths: np.ndarray):
    """Mean NLL of padded rows (longest first), as :func:`nll_loss` computes it,
    and its gradient w.r.t. conj(ops).

    Returns ``(inf, None)`` when a row's probability underflows.
    """
    m, _, k, _ = ops.shape
    adjoint_ops = ops.conj().swapaxes(2, 3)
    symbol_ids = np.arange(m)[:, None]
    grad = np.zeros((m, ops[0].size), dtype=complex)
    log_probs = np.empty(len(lengths))
    for rows in _row_blocks(len(lengths), k):
        block, steps = padded[rows], []
        log_probs[rows] = _propagate(ops, rho0, block, lengths[rows], steps)
        if log_probs[rows].min() == -math.inf:
            return math.inf, None
        # adjoint pass, last step first: each position adds its term, then
        # the dual matrix is pulled back through that position's operators
        dual = np.repeat(np.eye(k, dtype=complex)[None], len(block), axis=0)
        for t in range(len(steps) - 1, -1, -1):
            rho, probs = steps[t]
            n = len(probs)
            x = block[:n, t]
            scaled = dual[:n] / probs[:, None, None]
            terms = scaled[:, None] @ ops[x] @ rho[:, None]
            grad -= (x == symbol_ids) @ terms.reshape(n, -1)
            dual[:n] = _kraus_step(adjoint_ops, scaled, x)[0]
    return float(-log_probs.sum() / len(lengths)), grad.reshape(ops.shape) / len(lengths)


def cayley_step(kappa, gradient, tau: float) -> StiefelPoint:
    """One descent step along the manifold.

    Computes ``kappa - tau * U (I + (tau/2) V^dagger U)^-1 V^dagger kappa``
    with U = [G | kappa], V = [kappa | -G]; the result has orthonormal
    columns for any G. ``tau = 0`` returns kappa unchanged.

    Raises
    ------
    StepFailureError
        If the inner solve is singular or orthonormality is lost to
        roundoff; callers halve tau and retry.
    """
    arr = _as_kappa(kappa)
    grad = np.asarray(gradient, dtype=complex)
    if grad.shape != arr.shape:
        raise InputError("gradient shape must match kappa")
    if tau < 0:
        raise InputError("tau must be >= 0")
    if tau == 0.0:
        return kappa if isinstance(kappa, StiefelPoint) else StiefelPoint(arr)
    u = np.concatenate([grad, arr], axis=1)
    v = np.concatenate([arr, -grad], axis=1)
    lhs = np.eye(2 * arr.shape[1], dtype=complex) + (tau / 2.0) * (v.conj().T @ u)
    try:
        y = np.linalg.solve(lhs, v.conj().T @ arr)
    except np.linalg.LinAlgError as exc:
        raise StepFailureError("inner solve is singular") from exc
    new = arr - tau * (u @ y)
    if not np.all(np.isfinite(new)):
        raise StepFailureError("step produced non-finite entries")
    try:
        return StiefelPoint(new)
    except InputError as exc:
        raise StepFailureError(str(exc)) from exc


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
        if self.dim < 1:
            raise InputError("dim must be >= 1")
        if self.learning_rate <= 0:
            raise InputError("learning_rate must be positive")
        if not 0.0 < self.decay <= 1.0:
            raise InputError("decay must lie in (0, 1]")
        if self.num_batches < 1:
            raise InputError("num_batches must be >= 1")
        if self.epochs < 0:
            raise InputError("epochs must be >= 0")
        if self.multiplicity < 1:
            raise InputError("multiplicity must be >= 1")

    def to_dict(self) -> dict:
        return {"dim": self.dim, "learning_rate": self.learning_rate,
                "decay": self.decay, "num_batches": self.num_batches,
                "epochs": self.epochs, "multiplicity": self.multiplicity,
                "seed": self.seed}

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainConfig":
        """Build a config from a JSON-style mapping (unknown keys rejected)."""
        known = {"dim", "learning_rate", "decay", "num_batches", "epochs",
                 "multiplicity", "seed"}
        unknown = set(payload) - known
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


def train_qhmm(dataset, config: TrainConfig, alphabet_size: int,
               initial_state: Optional[DensityMatrix] = None):
    """Fit Kraus operators to a dataset of symbol sequences.

    Returns ``(model, records)``: the trained model (stacked operators
    repartitioned, fixed initial state) and one :class:`TrainRecord` per
    processed batch. The initial state defaults to maximally mixed and is
    not learned. A step whose solve fails or whose post-step batch loss is
    not finite is retried with tau halved, up to 30 times, before training
    aborts with a :class:`TrainingError`.
    """
    # validated and padded once; each mini-batch is a set of rows, kept
    # longest first by taking the row indices in increasing order
    padded, lengths, order = _pad(dataset, alphabet_size)
    row_of = np.argsort(order)
    k, mu = config.dim, config.multiplicity
    shape = (alphabet_size, mu, k, k)
    if initial_state is None:
        initial_state = DensityMatrix.maximally_mixed(k)
    if initial_state.dim != k:
        raise InputError("initial state dimension disagrees with config.dim")
    rho0 = initial_state.matrix

    rng = np.random.default_rng(config.seed)
    kappa = StiefelPoint(_draw_stiefel(rng, alphabet_size * mu * k, k))

    records = []
    tau = config.learning_rate
    for epoch in range(config.epochs):
        permutation = rng.permutation(len(lengths))
        for index, chunk in enumerate(np.array_split(permutation, config.num_batches)):
            if chunk.size == 0:
                continue
            rows = np.sort(row_of[chunk])
            batch = padded[rows], lengths[rows]
            loss, grad = _loss_and_gradient(kappa.matrix.reshape(shape), rho0, *batch)
            if grad is None:
                raise TrainingError(
                    f"batch loss is not finite at epoch {epoch} batch {index}")
            grad = grad.reshape(kappa.matrix.shape)
            step_tau = tau
            for _ in range(1 + MAX_STEP_HALVINGS):
                try:
                    candidate = cayley_step(kappa, grad, step_tau)
                except StepFailureError:
                    step_tau /= 2.0
                    continue
                if _propagate(candidate.matrix.reshape(shape), rho0, *batch).min() > -math.inf:
                    break
                step_tau /= 2.0
            else:
                raise TrainingError(
                    f"step failed after {MAX_STEP_HALVINGS} halvings at "
                    f"epoch {epoch} batch {index} (loss {loss:.6g}, tau {tau:.3g})")
            records.append(TrainRecord(epoch, index, loss, step_tau))
            kappa = candidate
        tau *= config.decay
    model = KrausModel.from_stiefel(kappa.matrix, alphabet_size, mu, initial_state)
    return model, records


def write_training_log(path, records) -> None:
    """Write the per-batch loss trace as CSV with header epoch,batch,loss,tau."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "batch", "loss", "tau"])
        for rec in records:
            writer.writerow([rec.epoch, rec.batch, repr(rec.loss), repr(rec.tau)])
