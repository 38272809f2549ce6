"""Density-matrix sequence models driven by Kraus operators.

The belief state is a Hermitian, positive semidefinite, unit-trace complex
matrix; observing a symbol applies that symbol's operators and renormalizes
by the observation probability. Models are immutable after construction and
all operations return new objects, so concurrent evaluation across
sequences is safe.

One filter loop, :func:`_filter`, runs every batched likelihood. It takes
a per-step layout: which of the previous step's beliefs continue, with
which symbols. Every forward-only likelihood (:func:`_log_likelihoods`:
scoring, :func:`qhmm_log_likelihood` and :func:`trainer.nll_loss`) runs a
prefix tree, in which rows that share a prefix share its beliefs; HMM
scoring runs the same trees (:func:`hmm._tree_log_likelihoods`), built
from rows that :func:`hmm._prefix_rows` sorts once. The loss and gradient
(:func:`_loss_and_gradient`), which training runs on every pass, run
padded rows, each its own path (:func:`_running_layout`), because the
adjoint runs backwards along each row over the beliefs the filter kept,
which never leave this module. Both layouts give each row the same bits.
Training passes its runs to :func:`_loss_and_gradient` with their rows in
its own order; the entry packs them into kernel calls of whole runs
(:func:`_row_kernel`) and sorts each call's rows itself, longest first,
so that the rows still running at each step are a leading slice. A call
of several runs merges their rows (:func:`_merged`) into one row block,
and each step's bincount adds the gradient terms of each symbol's rows in
row order, so every run gets the bits of a call of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Optional, Tuple

import numpy as np

from .errors import InputError
from .hmm import (CategoricalHmm, _as_symbols, _inverse_cdf, _row_blocks,
                  _tree_log_likelihoods)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
COMPLETENESS_TOL = 1e-8
UNDERFLOW_PROB = 1e-300
# rows per block of the batched filter are this many entries over K^2, the
# entries of one belief; the beliefs of one sampler call over mu * K^2, the
# entries of one belief's Kraus update
_BLOCK_BUDGET = 2048


def hermiticity_residual(matrix: np.ndarray) -> float:
    """Largest absolute deviation from matrix == matrix^dagger."""
    m = np.asarray(matrix)
    return float(np.max(np.abs(m - m.conj().T)))


def orthonormality_residual(matrix) -> float:
    """Max-norm of (matrix^dagger matrix - identity): the completeness
    residual of a stacked (M*mu*K, K) operator matrix."""
    m = np.asarray(matrix)
    gram = m.conj().T @ m
    return float(np.max(np.abs(gram - np.eye(m.shape[1]))))


def min_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of a (near-Hermitian) matrix."""
    m = np.asarray(matrix, dtype=complex)
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])


class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace belief state."""

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError("density matrix must be square")
        if not np.isfinite(m).all():
            raise InputError("density matrix entries must be finite")
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
        if not np.isfinite(ops).all():
            raise InputError("operator entries must be finite")
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
        return cls(_partition(matrix, alphabet_size, multiplicity), initial_state)

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
        with np.errstate(invalid="ignore"):  # 1j * inf is nan + inf j, rejected below
            ops = np.asarray(payload["kraus_re"], dtype=float) \
                + 1j * np.asarray(payload["kraus_im"], dtype=float)
            pi0 = np.asarray(payload["pi0_re"], dtype=float) \
                + 1j * np.asarray(payload["pi0_im"], dtype=float)
        model = cls(ops, DensityMatrix(pi0))
        shape = (payload.get("M"), payload.get("mu"), payload.get("K"), payload.get("K"))
        if model.operators.shape != shape:
            raise InputError("K/M/mu fields disagree with the array shapes")
        return model


def _partition(matrix, alphabet_size: int, multiplicity: int) -> np.ndarray:
    """The (M, mu, K, K) operators of a stacked (M*mu*K, K) matrix, as a view."""
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2:
        raise InputError("expected a 2-D stacked operator matrix")
    k = arr.shape[1]
    if arr.shape[0] != alphabet_size * multiplicity * k:
        raise InputError(
            f"stacked matrix has {arr.shape[0]} rows, expected "
            f"{alphabet_size * multiplicity * k} (= M * mu * K)")
    return arr.reshape(alphabet_size, multiplicity, k, k)


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


def _running_layout(padded: np.ndarray, lengths: np.ndarray, log_probs: np.ndarray) -> list:
    """The per-step layout of padded rows, longest first: each row is its own
    path, and the rows still running at step t, a leading slice of the
    previous step's, continue with their step-t symbols and keep their
    running log-probability in their entry of ``log_probs``."""
    running = np.searchsorted(-lengths, -np.arange(lengths[0]))  # rows longer than t
    return [(slice(n), padded[:n, t], log_probs[:n]) for t, n in enumerate(running.tolist())]


def _filter(operators: np.ndarray, rho0: np.ndarray, steps, history: Optional[list] = None):
    """Filter the nodes of a per-step layout from ``rho0``, writing each
    node's natural-log probability.

    ``steps`` is a list of one ``(parents, symbols, log_probs)`` triple per
    step: node j of step t continues node ``parents[j]`` of step t - 1
    (``parents`` is a slice or an index array into that step's nodes),
    observes ``symbols[j]`` and gets its log-probability written to
    ``log_probs[j]``; the nodes of step 0 continue ``rho0``. A node whose
    step probability underflows scores -inf, as does every node continuing
    it; that probability is taken as 1, so its belief stays finite. When
    ``history`` is a list, the beliefs entering each step and the step
    probabilities, with that 1 in place, are appended to it.

    A node's belief and log-probability depend only on its own path: the
    Kraus update of a row does not depend on the rows beside it, and each
    log-probability adds the step's log to its parent's, as a running sum
    along one row would. So longest-first rows, each its own path
    (:func:`_running_layout`), and a prefix tree's nodes get the same bits.
    """
    rho, previous = rho0[None], None  # rho0 broadcasts against step 0's nodes
    for t, (parents, symbols, log_probs) in enumerate(steps):
        rho = rho[parents]
        updated, probs = _kraus_step(operators, rho, symbols)
        dead = None
        if probs.min() <= UNDERFLOW_PROB:
            dead = probs <= UNDERFLOW_PROB
            probs = np.where(dead, 1.0, probs)
        if history is not None:
            history.append((rho, probs))
        if previous is None:  # step 0 adds to 0, which leaves its logs as they are
            np.log(probs, out=log_probs)
        else:
            np.add(previous[parents], np.log(probs), out=log_probs)
        if dead is not None:
            log_probs[dead] = -np.inf
        previous = log_probs
        if t + 1 < len(steps):  # nothing reads the last step's beliefs
            rho = _renormalize(updated, probs)


def _log_likelihoods(pairs, padded: np.ndarray, lengths: np.ndarray, starts: np.ndarray):
    """Natural-log probability of each row of :func:`hmm._prefix_rows` under
    each ``(operators, rho0)`` pair of one K, as a ``(pairs, rows)`` array in
    row order, and the number of beliefs filtered, summed over the pairs.

    :func:`hmm._tree_log_likelihoods` runs :func:`_filter` on the prefix
    tree of each row block, so the pairs filter each distinct prefix of a
    block once. A row that underflows scores -inf, and every row gets the
    bits of a filter over that row alone.
    """
    filters = [partial(_filter, operators, rho0) for operators, rho0 in pairs]
    blocks = _row_blocks(len(lengths), pairs[0][1].shape[0] ** 2, _BLOCK_BUDGET)
    return _tree_log_likelihoods(filters, padded, lengths, starts, blocks)


def _loss_and_gradient(runs, rho0: np.ndarray) -> list:
    """Per run of ``runs``, ``(operators, padded, lengths)`` triples of one
    K and mu whose padded rows may come in any order: the sum of the
    natural-log probabilities of the run's rows, and the gradient w.r.t.
    conj(operators) of its negation; callers divide by their row counts.
    A row that underflows makes its run's sum -inf.

    The runs are packed in order into kernel calls of whole runs that fit
    one row block together; a larger run is a call of its own. A call of
    several runs stacks their operators and merges their rows
    (:func:`_merged`), each run's symbols offset past the operators of the
    runs before it. Each call's rows are sorted longest first, as
    :func:`_row_kernel` takes them, with a stable sort, so rows of equal
    length keep the order the runs give them; each sum adds its run's
    log-probabilities in that order. Every run gets the bits of a call over
    its own rows.
    """
    results = []
    for call in _packed(runs, [len(lengths) for *_, lengths in runs],
                        _BLOCK_BUDGET // rho0.shape[0] ** 2):
        offsets = list(accumulate((len(ops) for ops, *_ in call), initial=0))
        # one run has nothing to merge, so it skips the offset copy
        operators, padded, lengths = call[0] if len(call) == 1 else _merged(call, offsets)
        order = np.argsort(-lengths, kind="stable")
        log_probs, grad = _row_kernel(operators, rho0, padded[order], lengths[order])
        if len(call) == 1:
            results.append((log_probs.sum(), grad))
            continue
        owners = np.repeat(np.arange(len(call)), [len(run[2]) for run in call])[order]
        results += [(log_probs[owners == r].sum(), grad[offset:end])
                     for r, (offset, end) in enumerate(zip(offsets, offsets[1:]))]
    return results


def _packed(items, sizes, cap: int) -> list:
    """``items`` cut, in order, into groups whose ``sizes`` sum to at most
    ``cap``; an item larger than that is a group of its own."""
    groups = []
    for item, size in zip(items, sizes):
        if groups and used + size <= cap:
            groups[-1].append(item)
            used += size
        else:
            groups.append([item])
            used = size
    return groups


def _merged(runs, offsets):
    """Several runs' ``(operators, padded, lengths)`` triples as one: their
    operators stacked, and their padded rows stacked in turn with run r's
    symbols offset by ``offsets[r]``, past the operators before its own."""
    starts = list(accumulate((len(lengths) for *_, lengths in runs), initial=0))
    symbols = np.zeros((starts[-1], max(padded.shape[1] for _, padded, _ in runs)), np.int64)
    for (_, padded, _), offset, start in zip(runs, offsets, starts):
        np.add(padded, offset, out=symbols[start:start + len(padded), :padded.shape[1]])
    return (np.concatenate([ops for ops, *_ in runs]), symbols,
            np.concatenate([lengths for *_, lengths in runs]))


def _row_kernel(operators: np.ndarray, rho0: np.ndarray, padded: np.ndarray,
                lengths: np.ndarray):
    """One kernel call of :func:`_loss_and_gradient`, over the padded rows
    it sorted longest first: the natural-log probability of each row and
    the gradient w.r.t. conj(operators) of the negated log-probability sum.

    Each row block is filtered keeping its history, which is run backwards
    before the next block is filtered. A row that underflows adds finite
    terms (its step probability is taken as 1), and only to the operators
    of the symbols it holds; a caller whose rows score -inf discards its
    part. Each step scatters its rows' terms with one bincount, which adds
    the terms of each symbol's rows one after another, whatever rows sit
    beside them. So rows over disjoint symbol sets that fit one row block,
    sorted together, give each set's operators the gradient of a call over
    that set's rows alone, in their order, bit for bit.

    Each position forms P = S A_x once, from the scaled dual S and the
    position's operators A_x: its term is P rho and the dual it passes back
    is sum_l A_{x,l}^dagger P_l, which rounds as A^dagger (S A), not as
    (A^dagger S) A, so gradients differ from a four-product adjoint in the
    last bits.
    """
    m, _, k, _ = operators.shape
    adjoint_ops = operators.conj().swapaxes(2, 3)
    # one symbol's gradient row as floats, real and imaginary parts interleaved
    columns = np.arange(2 * operators[0].size)
    grad = np.zeros(m * len(columns))
    log_probs = np.zeros(len(lengths))
    for rows in _row_blocks(len(lengths), k ** 2, _BLOCK_BUDGET):
        history, block = [], padded[rows]
        _filter(operators, rho0, _running_layout(block, lengths[rows], log_probs[rows]),
                history)
        # last step first: each position adds its term, then the dual
        # matrix is pulled back through that position's operators (the
        # first position has no earlier one to pass it to)
        dual = np.repeat(np.eye(k, dtype=complex)[None], len(block), axis=0)
        for t in range(len(history) - 1, -1, -1):
            rho, probs = history[t]
            n = len(probs)
            x = block[:n, t]
            product = (dual[:n] / probs[:, None, None])[:, None] @ operators[x]
            terms = (product @ rho[:, None]).reshape(n, -1).view(float)
            grad -= np.bincount((x[:, None] * len(columns) + columns).ravel(), terms.ravel(),
                                len(grad))
            if t:
                dual[:n] = (adjoint_ops[x] @ product).sum(axis=1)
    return log_probs, grad.view(complex).reshape(operators.shape)


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
    return float(_log_likelihoods([(model.operators, model.initial_state.matrix)], seq[None],
                                  np.array([seq.size]), np.ones((1, seq.size), bool))[0][0, 0])


def _effects(operators: np.ndarray) -> np.ndarray:
    """The (M, K^2) table whose row x is the effect E_x = sum_l A_{x,l}^dagger
    A_{x,l}, transposed and flattened, so that a belief rho flattened to K^2
    entries dotted with row x is tr(rho E_x), the probability of x."""
    m, _, k, _ = operators.shape
    effects = (operators.conj().swapaxes(2, 3) @ operators).sum(axis=1)
    return effects.swapaxes(1, 2).reshape(m, k * k)


def _symbol_probabilities(effects: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The (B, M) probabilities tr(rho E_x) of (B, K, K) beliefs, clipped at 0."""
    return np.maximum((rho.reshape(len(rho), -1) @ effects.T).real, 0.0)


def next_symbol_distribution(model: KrausModel, rho) -> np.ndarray:
    """Probability of each symbol being observed next from the given belief:
    tr(rho E_x) for the effect E_x of each symbol x, clipped at 0."""
    return _symbol_probabilities(_effects(model.operators), _as_matrix(rho)[None])[0]


def qhmm_samples(model: KrausModel, length: int, count: int, rng_seed, *,
                 prefix=(), work=None) -> np.ndarray:
    """Draw ``count`` symbol sequences of the given length as the rows of a
    ``(count, length)`` int array, deterministic per seed.

    At each step the per-symbol distribution (which sums to 1 for a
    complete model) is read from each row's belief through the symbols'
    effects, a symbol is drawn, and only then does the belief advance, by
    the drawn symbol's Kraus operators alone, renormalized by the trace of
    that update. Rows whose drawn prefixes agree share one belief, so each
    step advances each distinct drawn prefix once, in kernel calls of at
    most ``_BLOCK_BUDGET // (mu * K^2)`` beliefs; a belief depends only on
    its own prefix, so every row gets the bits of a call of its own. A
    nonempty ``prefix`` first filters the belief through those symbols;
    every row continues the prefix without including it. Each row takes
    ``length`` uniforms in order, so row i equals the i-th of ``count``
    one-row calls on one generator. ``work``, when a
    :class:`collections.Counter`, has the beliefs advanced by drawn symbols
    added to it as ``beliefs_advanced``. Raises InputError for a
    zero-probability prefix, or when the probabilities miss 1 by more than
    K * COMPLETENESS_TOL, the most a model passing :func:`validate_kraus`
    can move them.
    """
    if length < 1:
        raise InputError("length must be >= 1")
    if count < 0:
        raise InputError("count must be >= 0")
    operators, k, m = model.operators, model.dim, model.alphabet_size
    rho = model.initial_state.matrix[None]
    for x in _as_symbols(prefix, m).tolist() if len(prefix) else ():
        updated, probs = _kraus_step(operators, rho, np.array([x]))
        if probs[0] <= UNDERFLOW_PROB:
            raise InputError("prefix has zero probability under the model")
        rho = _renormalize(updated, probs)
    effects = _effects(operators)
    uniforms = np.random.default_rng(rng_seed).random((count, length))
    samples = np.empty((count, length), dtype=np.int64)
    # row i's belief is beliefs[node[i]]; every row starts at the one belief
    beliefs, node, advanced = rho, np.zeros(count, dtype=np.int64), 0
    for t in range(length if count else 0):  # a call of no rows reads no belief
        table = _symbol_probabilities(effects, beliefs)
        if np.abs(table.sum(axis=1) - 1.0).max() > k * COMPLETENESS_TOL:
            raise InputError("per-symbol probabilities do not sum to 1; "
                             "the operators are not complete")
        drawn = samples[:, t] = _inverse_cdf(table[node], uniforms[:, t])
        if t + 1 < length:  # nothing reads the last step's beliefs
            prefixes, node = np.unique(node * m + drawn, return_inverse=True)
            parents, symbols = np.divmod(prefixes, m)
            blocks = []
            for rows in _row_blocks(len(prefixes), model.multiplicity * k ** 2,
                                    _BLOCK_BUDGET):
                updated, probs = _kraus_step(operators, beliefs[parents[rows]], symbols[rows])
                blocks.append(_renormalize(updated, np.maximum(probs, 0.0)))
            beliefs = np.concatenate(blocks)
            advanced += len(prefixes)
    if work is not None:
        work.update(beliefs_advanced=advanced)
    return samples


def qhmm_sample(model: KrausModel, length: int, rng_seed, *, prefix=()) -> list:
    """One sequence of :func:`qhmm_samples` as a list."""
    return qhmm_samples(model, length, 1, rng_seed, prefix=prefix)[0].tolist()


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

    Report-only: never raises. ``passes`` is true iff the stacked
    operators' :func:`orthonormality_residual` (the residual training
    accepts a step by) is within 1e-8 and the initial state is
    Hermitian/unit-trace within 1e-10 with smallest eigenvalue >= -1e-9.
    """
    completeness = orthonormality_residual(model.to_stiefel())
    state = model.initial_state.matrix
    herm = hermiticity_residual(state)
    trace = float(abs(state.trace() - 1.0))
    lo = min_eigenvalue(state)
    passes = (completeness <= COMPLETENESS_TOL and herm <= HERMITICITY_TOL
              and trace <= TRACE_TOL and lo >= -PSD_TOL)
    return KrausValidationReport(completeness, herm, trace, lo, passes)
