"""Density-matrix sequence models driven by Kraus operators.

The belief state is a Hermitian, positive semidefinite, unit-trace complex
matrix; observing a symbol applies that symbol's operators and renormalizes
by the observation probability. Models are immutable after construction and
all operations return new objects, so concurrent evaluation across
sequences is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InputError
from .hmm import CategoricalHmm, _as_symbols

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
COMPLETENESS_TOL = 1e-8
UNDERFLOW_PROB = 1e-300


def hermiticity_residual(matrix: np.ndarray) -> float:
    """Largest absolute deviation from matrix == matrix^dagger."""
    m = np.asarray(matrix)
    return float(np.max(np.abs(m - m.conj().T)))


def min_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of a (near-Hermitian) matrix."""
    m = np.asarray(matrix, dtype=complex)
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])


class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace belief state."""

    def __init__(self, matrix, *, validate: bool = True):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError("density matrix must be square")
        if validate:
            res = hermiticity_residual(m)
            if res > HERMITICITY_TOL:
                raise InputError(f"matrix is not Hermitian (residual {res:.3e})")
            tr = m.trace()
            if abs(tr - 1.0) > TRACE_TOL:
                raise InputError(f"trace must be 1 (got {tr})")
            lo = min_eigenvalue(m)
            if lo < -PSD_TOL:
                raise InputError(f"matrix is not positive semidefinite (min eig {lo:.3e})")
        m.setflags(write=False)
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        """Identity / dim: the symmetric full-rank default belief."""
        if dim < 1:
            raise InputError("dim must be >= 1")
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def pure(cls, dim: int, index: int = 0) -> "DensityMatrix":
        """Rank-one belief concentrated on one basis state."""
        if not 0 <= index < dim:
            raise InputError("index must lie in [0, dim)")
        m = np.zeros((dim, dim), dtype=complex)
        m[index, index] = 1.0
        return cls(m)

    @classmethod
    def from_diagonal(cls, probabilities) -> "DensityMatrix":
        p = np.asarray(probabilities, dtype=float)
        return cls(np.diag(p).astype(complex))


class KrausModel:
    """Sequence model over M symbols with mu Kraus operators per symbol.

    Construction checks shapes only; use :func:`validate_kraus` to measure
    how far a model is from the completeness and initial-state constraints.
    """

    def __init__(self, operators, initial_state: DensityMatrix):
        ops = np.array(operators, dtype=complex)
        if ops.ndim != 4 or ops.shape[2] != ops.shape[3]:
            raise InputError("operators must have shape (M, mu, K, K)")
        if not isinstance(initial_state, DensityMatrix):
            initial_state = DensityMatrix(initial_state)
        if initial_state.dim != ops.shape[2]:
            raise InputError("initial state dimension disagrees with the operators")
        ops.setflags(write=False)
        self.operators = ops
        self.initial_state = initial_state

    @property
    def dim(self) -> int:
        return self.operators.shape[2]

    @property
    def alphabet_size(self) -> int:
        return self.operators.shape[0]

    @property
    def multiplicity(self) -> int:
        return self.operators.shape[1]

    @classmethod
    def from_stiefel(cls, matrix, alphabet_size: int, multiplicity: int,
                     initial_state: DensityMatrix) -> "KrausModel":
        """Partition a stacked (M*mu*K, K) matrix into the (M, mu, K, K) operators."""
        arr = np.asarray(matrix, dtype=complex)
        if arr.ndim != 2:
            raise InputError("expected a 2-D stacked operator matrix")
        k = arr.shape[1]
        if arr.shape[0] != alphabet_size * multiplicity * k:
            raise InputError(
                f"stacked matrix has {arr.shape[0]} rows, expected "
                f"{alphabet_size * multiplicity * k} (= M * mu * K)")
        return cls(arr.reshape(alphabet_size, multiplicity, k, k), initial_state)

    def to_stiefel(self) -> np.ndarray:
        """Stack the operators back into one (M*mu*K, K) matrix."""
        return self.operators.reshape(-1, self.dim)

    def to_dict(self) -> dict:
        return {
            "type": "qhmm",
            "K": self.dim,
            "M": self.alphabet_size,
            "mu": self.multiplicity,
            "kraus_re": self.operators.real.tolist(),
            "kraus_im": self.operators.imag.tolist(),
            "pi0_re": self.initial_state.matrix.real.tolist(),
            "pi0_im": self.initial_state.matrix.imag.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "KrausModel":
        if payload.get("type") != "qhmm":
            raise InputError("payload does not describe a Kraus-operator model")
        ops = np.asarray(payload["kraus_re"], dtype=float) \
            + 1j * np.asarray(payload["kraus_im"], dtype=float)
        pi0 = np.asarray(payload["pi0_re"], dtype=float) \
            + 1j * np.asarray(payload["pi0_im"], dtype=float)
        model = cls(ops, DensityMatrix(pi0))
        shape = (payload.get("M"), payload.get("mu"), payload.get("K"), payload.get("K"))
        if model.operators.shape != shape:
            raise InputError("K/M/mu fields disagree with the array shapes")
        return model


def _as_matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def _kraus_step(operators: np.ndarray, rho: np.ndarray, symbols: np.ndarray):
    """Updates sum_l A_{x,l} rho A_{x,l}^dagger of (B, K, K) beliefs, row b by
    symbol x = symbols[b], and their traces (the observation probabilities).
    A single (1, K, K) belief is shared by every symbol."""
    ops = operators[symbols]
    updated = (ops @ rho[:, None] @ ops.conj().swapaxes(2, 3)).sum(axis=1)
    return updated, updated.trace(axis1=1, axis2=2).real


def _renormalize(updated: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Next beliefs: each update Hermitized and divided by its probability."""
    return (updated + updated.conj().swapaxes(1, 2)) / (2.0 * probs)[:, None, None]


def _pad(sequences, alphabet_size: int):
    """Validated sequences as zero-padded rows, longest first: ``(padded,
    lengths, order)``, where row i holds input sequence ``order[i]``."""
    seqs = [_as_symbols(s, alphabet_size) for s in sequences]
    if not seqs:
        raise InputError("need at least one sequence")
    lengths = np.array([s.size for s in seqs])
    order = np.argsort(-lengths, kind="stable")
    padded = np.zeros((len(seqs), lengths[order[0]]), dtype=np.int64)
    for row, i in enumerate(order):
        padded[row, :lengths[i]] = seqs[i]
    return padded, lengths[order], order


def _row_blocks(count: int, dim: int) -> list:
    """Slices of at most 2048 // K^2 rows, which bounds the per-step temporaries."""
    size = max(1, 2048 // dim ** 2)
    return [slice(start, start + size) for start in range(0, count, size)]


def _propagate(operators: np.ndarray, rho0: np.ndarray, padded: np.ndarray,
               lengths: np.ndarray, history: Optional[list] = None) -> np.ndarray:
    """Natural-log probability of each padded row, filtering from ``rho0``.

    Rows come longest first, so the rows still running at step t are a
    leading slice. A row whose step probability underflows scores -inf
    while the other rows carry on. When ``history`` is a list, the beliefs
    entering each step and the step probabilities are appended to it;
    callers collecting history pass one row block at a time.
    """
    log_probs = np.zeros(len(lengths))
    dim = rho0.shape[0]
    for rows in _row_blocks(len(lengths), dim):
        symbols, block_ll, block_len = padded[rows], log_probs[rows], lengths[rows]
        rho = rho0[None]  # broadcasts against the rows until the first update
        running = np.count_nonzero(block_len[:, None] > np.arange(block_len[0]), axis=0)
        for t, n in enumerate(running.tolist()):
            updated, probs = _kraus_step(operators, rho[:n], symbols[:n, t])
            if history is not None:
                history.append((rho[:n], probs))
            if probs.min() <= UNDERFLOW_PROB:
                dead = probs <= UNDERFLOW_PROB
                block_ll[:n][dead] = -np.inf
                probs = np.where(dead, 1.0, probs)
            block_ll[:n] += np.log(probs)
            rho = _renormalize(updated, probs)
    return log_probs


def belief_update(rho, model: KrausModel, symbol) -> Tuple[Optional[DensityMatrix], float]:
    """Condition a belief state on one observed symbol.

    Returns
    -------
    (next_belief, probability)
        ``probability`` is the trace of the unnormalized update, clamped
        to [0, 1]. When it falls at or below the underflow threshold the
        belief cannot be renormalized and ``next_belief`` is None.
    """
    symbols = _as_symbols([symbol], model.alphabet_size)
    updated, probs = _kraus_step(model.operators, _as_matrix(rho)[None], symbols)
    prob = float(probs[0])
    if prob <= UNDERFLOW_PROB:
        return None, max(prob, 0.0)
    return DensityMatrix(_renormalize(updated, probs)[0]), min(max(prob, 0.0), 1.0)


def qhmm_log_likelihood(model: KrausModel, sequence) -> float:
    """Natural-log probability of a symbol sequence.

    Equals the trace of the nested unnormalized operator applications
    starting from the initial state; computed stably as the running sum of
    per-step observation log-probabilities. Returns ``-inf`` once a step
    underflows.
    """
    seq = _as_symbols(sequence, model.alphabet_size)
    return float(_propagate(model.operators, model.initial_state.matrix,
                            seq[None], np.array([seq.size]))[0])


def next_symbol_distribution(model: KrausModel, rho) -> np.ndarray:
    """Probability of each symbol being observed next from the given belief."""
    _, probs = _kraus_step(model.operators, _as_matrix(rho)[None],
                           np.arange(model.alphabet_size))
    return np.clip(probs, 0.0, None)


def qhmm_sample(model: KrausModel, length: int, rng_seed, *, prefix=()) -> list:
    """Draw a symbol sequence of the given length, deterministic per seed.

    At each step the per-symbol distribution (which sums to 1 for a
    complete model) is computed from the current belief, a symbol is
    drawn, and the belief advances. A nonempty ``prefix`` first filters
    the belief through those symbols; the output continues the prefix
    without including it. Raises InputError for a zero-probability prefix,
    or when the probabilities miss 1 by more than K * COMPLETENESS_TOL, the
    most a model passing :func:`validate_kraus` can move them.
    """
    if length < 1:
        raise InputError("length must be >= 1")
    m, k = model.alphabet_size, model.dim
    prefix = _as_symbols(prefix, m).tolist() if len(prefix) else []
    rng = np.random.default_rng(rng_seed)
    rho = model.initial_state.matrix
    symbols, every_symbol = [], np.arange(m)
    for step in range(len(prefix) + length):
        updated, probs = _kraus_step(model.operators, rho[None], every_symbol)
        if step < len(prefix):
            x = prefix[step]
            if probs[x] <= UNDERFLOW_PROB:
                raise InputError("prefix has zero probability under the model")
        else:
            probs = np.clip(probs, 0.0, None)
            if abs(probs.sum() - 1.0) > k * COMPLETENESS_TOL:
                raise InputError("per-symbol probabilities do not sum to 1; "
                                 "the operators are not complete")
            x = int(rng.choice(m, p=probs / probs.sum()))
            symbols.append(x)
        rho = _renormalize(updated[x:x + 1], probs[x:x + 1])[0]
    return symbols


def embed_hmm(hmm: CategoricalHmm) -> KrausModel:
    """Lift a categorical HMM into a Kraus-operator model with identical likelihoods.

    Operator (x, l) drains hidden state l: its only nonzero column is l,
    with entries ``sqrt(transition[l, k] * emission[l, x])``, and the
    initial state is ``diag(start)``. The resulting model assigns every
    sequence the same probability as :func:`scengen.hmm.hmm_forward`, and
    the operators satisfy the completeness constraint exactly.
    """
    k, m = hmm.num_states, hmm.alphabet_size
    ops = np.zeros((m, k, k, k), dtype=complex)
    for x in range(m):
        for l in range(k):
            ops[x, l, :, l] = np.sqrt(hmm.transition[l] * hmm.emission[l, x])
    return KrausModel(ops, DensityMatrix.from_diagonal(hmm.start))


@dataclass(frozen=True)
class KrausValidationReport:
    """Residuals of the model constraints; ``passes`` applies the type tolerances."""

    completeness_residual: float
    state_hermiticity_residual: float
    state_trace_residual: float
    state_min_eigenvalue: float
    passes: bool


def validate_kraus(model: KrausModel) -> KrausValidationReport:
    """Measure the completeness residual and the initial-state invariants.

    Report-only: never raises. ``passes`` is true iff the summed
    ``op^dagger op`` matrix is the identity within 1e-8 (max norm) and the
    initial state is Hermitian/unit-trace within 1e-10 with smallest
    eigenvalue >= -1e-9.
    """
    flat = model.operators.reshape(-1, model.dim, model.dim)
    gram = np.einsum("nij,nik->jk", flat.conj(), flat)
    completeness = float(np.max(np.abs(gram - np.eye(model.dim))))
    state = model.initial_state.matrix
    herm = hermiticity_residual(state)
    trace = float(abs(state.trace() - 1.0))
    lo = min_eigenvalue(state)
    passes = (completeness <= COMPLETENESS_TOL and herm <= HERMITICITY_TOL
              and trace <= TRACE_TOL and lo >= -PSD_TOL)
    return KrausValidationReport(completeness, herm, trace, lo, passes)
