"""Categorical hidden Markov models.

Likelihoods come from the per-step scaled forward/backward recursions of
Rabiner (1989), so long sequences stay inside the float range; the
log-likelihood is accumulated from the per-step normalizers. One batched
kernel runs them over zero-padded rows, longest first, in row blocks; the
per-sequence trellises, Baum-Welch and dataset scoring all call it. A
sequence the model cannot produce is reported with a ``-inf``
log-likelihood instead of an error. Unlike a Kraus-operator model's, an
HMM's dataset scores do not share the filtering of common prefixes: a
row's last bits depend on its longest-first block (see
:func:`_trellis_blocks`).

Models are immutable after construction and every operation here is a
pure function, so concurrent use across threads is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InputError, PosteriorUndefinedError, TrainingError

ROW_SUM_TOL = 1e-9
_ENTRY_TOL = 1e-12
# rows per block of the batched trellis are this many float64 entries over K
_TRELLIS_BUDGET = 1024


def _check_rows(name: str, arr: np.ndarray) -> None:
    if np.any(arr < -_ENTRY_TOL) or np.any(arr > 1.0 + _ENTRY_TOL):
        raise InputError(f"{name} entries must lie in [0, 1]")
    dev = np.max(np.abs(arr.sum(axis=-1) - 1.0))
    if dev > ROW_SUM_TOL:
        raise InputError(f"every row of {name} must sum to 1 (deviation {dev:.3e})")


def _flatten(sequences):
    """The symbols of a list of sequences as one int64 array, plus the int64
    lengths; each sequence must be a nonempty 1-D run of integers."""
    seqs = list(sequences)
    try:
        lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
        symbols = np.concatenate(seqs) if seqs else np.zeros(0, np.int64)
    except (TypeError, ValueError):  # a scalar, or rows of mismatched depth
        symbols = None
    if symbols is None or symbols.ndim != 1 or np.any(lengths == 0):
        raise InputError("sequence must be a nonempty 1-D list of symbol indices")
    if symbols.dtype.kind not in "iu":
        if symbols.dtype.kind not in "bf" or not np.all(np.mod(symbols, 1) == 0):
            raise InputError("symbols must be integers")
    return symbols.astype(np.int64, copy=False), lengths


def _check_range(symbols: np.ndarray, alphabet_size: int) -> None:
    if symbols.min() < 0:
        raise InputError(f"symbol {symbols.min()} is negative")
    if symbols.max() >= alphabet_size:
        raise InputError(f"symbol out of range for alphabet of size {alphabet_size}")


def _as_symbols(sequence, alphabet_size: int) -> np.ndarray:
    symbols, _ = _flatten([sequence])
    _check_range(symbols, alphabet_size)
    return symbols


@dataclass
class CategoricalHmm:
    """Hidden Markov chain emitting symbols from a finite alphabet.

    Parameters
    ----------
    transition : (K, K) array-like
        Row-stochastic matrix; entry (k, l) is the probability of moving
        from hidden state k to hidden state l.
    emission : (K, M) array-like
        Row k is the emission distribution of hidden state k.
    start : (K,) array-like
        Distribution of the first hidden state (the chain emits from the
        state it starts in, then alternates transition/emission).
    """

    transition: np.ndarray
    emission: np.ndarray
    start: np.ndarray

    def __post_init__(self):
        self.transition = np.array(self.transition, dtype=float)
        self.emission = np.array(self.emission, dtype=float)
        self.start = np.array(self.start, dtype=float)
        if self.transition.ndim != 2 or self.transition.shape[0] != self.transition.shape[1]:
            raise InputError("transition must be a square matrix")
        k = self.transition.shape[0]
        if self.emission.ndim != 2 or self.emission.shape[0] != k:
            raise InputError("emission must have one row per hidden state")
        if self.start.shape != (k,):
            raise InputError("start must be a length-K vector")
        _check_rows("transition", self.transition)
        _check_rows("emission", self.emission)
        _check_rows("start", self.start[None, :])
        for arr in (self.transition, self.emission, self.start):
            arr.setflags(write=False)

    @property
    def num_states(self) -> int:
        return self.transition.shape[0]

    @property
    def alphabet_size(self) -> int:
        return self.emission.shape[1]

    def to_dict(self) -> dict:
        return {
            "type": "hmm",
            "K": self.num_states,
            "M": self.alphabet_size,
            "transition": self.transition.tolist(),
            "emission": self.emission.tolist(),
            "start": self.start.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CategoricalHmm":
        if payload.get("type") != "hmm":
            raise InputError("payload does not describe a categorical HMM")
        model = cls(payload["transition"], payload["emission"], payload["start"])
        if model.num_states != payload.get("K") or model.alphabet_size != payload.get("M"):
            raise InputError("K/M fields disagree with the array shapes")
        return model


@dataclass
class TrellisResult:
    """Scaled forward/backward trellis for one observation sequence.

    ``forward[t]`` sums to 1 at every position reached with positive
    probability; ``scaling`` holds the per-step normalizers whose log-sum
    is ``log_likelihood``. ``backward[t]`` is the backward vector divided
    by the normalizers of positions t+1..L, so ``forward * backward`` rows
    are exactly the smoothing posteriors.
    """

    log_likelihood: float
    forward: np.ndarray
    scaling: np.ndarray
    backward: Optional[np.ndarray] = None


def _pad(symbols: np.ndarray, lengths: np.ndarray, alphabet_size: int):
    """Flat int64 symbols of sequences with the given lengths as zero-padded
    rows, longest first: ``(padded, lengths, order)``, where row i holds
    input sequence ``order[i]``. A list of sequences is first flattened by
    :func:`_flatten`."""
    if not len(lengths):
        raise InputError("need at least one sequence")
    _check_range(symbols, alphabet_size)
    order = np.argsort(-lengths, kind="stable")
    row_of = np.empty_like(order)
    row_of[order] = np.arange(len(order))
    starts = np.cumsum(lengths) - lengths
    padded = np.zeros((len(lengths), lengths[order[0]]), dtype=np.int64)
    padded[np.repeat(row_of, lengths),
           np.arange(len(symbols)) - np.repeat(starts, lengths)] = symbols
    return padded, lengths[order], order


def _row_blocks(count: int, row_entries: int, budget: int) -> list:
    """Slices of at most ``budget // row_entries`` rows (at least one), which
    bounds the per-step temporaries of a batched recursion."""
    size = max(1, budget // row_entries)
    return [slice(start, start + size) for start in range(0, count, size)]


def _trellis_blocks(model: CategoricalHmm, padded: np.ndarray, lengths: np.ndarray,
                    backward: bool = False):
    """Scaled forward (and backward) passes of Rabiner (1989) over padded rows.

    Rows come longest first, so the rows still running at step t are a
    leading slice. Yields ``(rows, log_probs, forward, scaling, backward)``
    for each block of rows (``backward`` is None unless asked for); past a
    row's end its trellis entries are zero and its scalings one. A row
    whose step total reaches 0 scores -inf while the other rows carry on;
    its forward rows from that step on, its later scalings and its whole
    backward trellis are zero.

    A row's bits depend on its block in two ways, so a caller that must
    reproduce them keeps these blocks:

    - its log-probability sums the logs of the block's full width of
      scalings, padding included; numpy sums 8 or more terms pairwise, so
      the same scalings summed over another width can differ in the last
      bits;
    - a step that runs one row alone multiplies a (1, K) forward row by
      the transition matrix, which numpy hands to BLAS as a matrix-vector
      product, whose rounding differs from that of the matrix product of
      two or more rows (seen with OpenBLAS 0.3.31 from K = 4 on).
    """
    emission_of = model.emission.T  # row x: emission probability of x per state
    for rows in _row_blocks(len(lengths), model.num_states, _TRELLIS_BUDGET):
        symbols, block_len = padded[rows], lengths[rows]
        count, steps = len(block_len), block_len[0]
        forward = np.zeros((count, steps, model.num_states))
        scaling = np.ones((count, steps))  # padding counts as a factor 1
        running = (block_len[:, None] > np.arange(steps)).sum(axis=0).tolist()
        prior = model.start[None]
        for t, n in enumerate(running):
            if t:
                prior = forward[:n, t - 1] @ model.transition
            vec = prior * emission_of[symbols[:n, t]]
            scaling[:n, t] = total = vec.sum(axis=1)
            total[total <= 0.0] = np.inf  # the row keeps zero forward rows from here on
            forward[:n, t] = vec / total[:, None]
        with np.errstate(divide="ignore"):  # a total of 0 scores -inf
            log_probs = np.log(scaling.clip(0.0)).sum(axis=1)
        back = None
        if backward:
            back = np.zeros_like(forward)
            back[np.arange(count), block_len - 1] = 1.0
            divisor = np.where(scaling > 0.0, scaling, 1.0)
            for t in range(steps - 2, -1, -1):
                n = running[t + 1]
                weighted = emission_of[symbols[:n, t + 1]] * back[:n, t + 1]
                back[:n, t] = (weighted @ model.transition.T) / divisor[:n, t + 1, None]
            back[log_probs == -np.inf] = 0.0
        yield rows, log_probs, forward, scaling, back


def hmm_forward(model: CategoricalHmm, sequence) -> TrellisResult:
    """Run the scaled forward recursion.

    Returns
    -------
    TrellisResult
        ``log_likelihood`` is the natural log of the exact probability of
        the sequence (the sum over all hidden paths). If the model cannot
        produce the sequence it is ``-inf`` and trellis rows past the
        extinction point stay zero.
    """
    seq = _as_symbols(sequence, model.alphabet_size)
    _, log_probs, forward, scaling, _ = next(
        _trellis_blocks(model, seq[None], np.array([seq.size])))
    return TrellisResult(float(log_probs[0]), forward[0], scaling[0])


def hmm_backward(model: CategoricalHmm, sequence) -> TrellisResult:
    """Run the scaled backward recursion (the forward pass supplies the normalizers).

    For a sequence with positive probability, the identity
    ``P(X) = sum_l start[l] * emission[l, x_1] * b_l(1)`` recovers the same
    probability as :func:`hmm_forward`. The backward trellis of a sequence
    the model cannot produce is all zero.
    """
    seq = _as_symbols(sequence, model.alphabet_size)
    _, log_probs, forward, scaling, backward = next(
        _trellis_blocks(model, seq[None], np.array([seq.size]), backward=True))
    return TrellisResult(float(log_probs[0]), forward[0], scaling[0], backward[0])


def hmm_posterior(model: CategoricalHmm, sequence, position: int) -> np.ndarray:
    """Posterior distribution of the hidden state at a position.

    Parameters
    ----------
    position : int
        1-based position in the sequence (1 <= position <= L).

    Raises
    ------
    PosteriorUndefinedError
        If the sequence has zero probability under the model.
    """
    seq = _as_symbols(sequence, model.alphabet_size)
    if not 1 <= position <= len(seq):
        raise InputError(f"position {position} outside 1..{len(seq)}")
    res = hmm_backward(model, seq)
    if not np.isfinite(res.log_likelihood):
        raise PosteriorUndefinedError("sequence has zero probability under the model")
    gamma = res.forward[position - 1] * res.backward[position - 1]
    return gamma / gamma.sum()


def _rows_or_uniform(numerators: np.ndarray) -> np.ndarray:
    # rows with no expected mass fall back to uniform instead of NaN
    sums = numerators.sum(axis=1, keepdims=True)
    out = np.where(sums > 0.0, numerators / np.where(sums > 0.0, sums, 1.0),
                   1.0 / numerators.shape[1])
    return out / out.sum(axis=1, keepdims=True)


@dataclass
class BaumWelchResult:
    """Fitted model plus the total training log-likelihood per EM iteration."""

    model: CategoricalHmm
    log_likelihoods: list = field(default_factory=list)


def baum_welch_fit(dataset, num_states: int, *, alphabet_size: Optional[int] = None,
                   max_iters: int = 100, tol: float = 1e-6, seed: int = 0) -> BaumWelchResult:
    """Fit a :class:`CategoricalHmm` by expectation-maximization.

    Rows are initialized from flat Dirichlet draws seeded by ``seed``. The
    per-iteration total log-likelihood (evaluated before each update) is
    recorded in the result; it is non-decreasing up to float roundoff.
    Iteration stops when the improvement drops below ``tol`` or after
    ``max_iters`` iterations; ``max_iters = 0`` returns the seeded
    initialization untouched. A negative ``max_iters`` and a NaN ``tol``
    (which no improvement falls below) are input errors.

    Parameters
    ----------
    dataset : list of sequences
        Nonempty list of integer symbol sequences (lengths may differ).
    num_states : int
        Number of hidden states K of the fitted model.
    alphabet_size : int, optional
        Inferred as ``1 + max symbol`` when omitted.
    """
    symbols, lengths = _flatten(dataset)
    if not len(lengths):
        raise InputError("dataset must contain at least one sequence")
    if num_states < 1:
        raise InputError("num_states must be >= 1")
    if max_iters < 0:
        raise InputError("max_iters must be >= 0")
    if np.isnan(tol):
        raise InputError("tol must not be NaN")
    if alphabet_size is None:
        alphabet_size = 1 + int(symbols.max())  # _pad reports a negative symbol
    padded, lengths, _ = _pad(symbols, lengths, alphabet_size)

    rng = np.random.default_rng(seed)
    k, m = num_states, alphabet_size
    model = CategoricalHmm(
        rng.dirichlet(np.ones(k), size=k),
        rng.dirichlet(np.ones(m), size=k),
        rng.dirichlet(np.ones(k)),
    )

    history: list = []
    for _ in range(max_iters):
        start_acc = np.zeros(k)
        trans_acc = np.zeros((k, k))
        emit_acc = np.zeros((k, m))
        total_ll = 0.0
        for rows, log_probs, forward, scaling, backward in _trellis_blocks(
                model, padded, lengths, backward=True):
            symbols = padded[rows, :scaling.shape[1]]
            if log_probs.min() == -np.inf:
                raise TrainingError("a training sequence has zero probability "
                                    "under the current parameters")
            total_ll += log_probs.sum()
            gamma = forward * backward
            start_acc += gamma[:, 0].sum(axis=0)
            np.add.at(emit_acc.T, symbols, gamma)
            # expected k -> l transitions without their common factor
            # transition[k, l], applied once at the update; the summand is
            # zero past each row's end, where backward is zero
            arriving = (model.emission.T[symbols[:, 1:]] * backward[:, 1:]
                        / scaling[:, 1:, None])
            trans_acc += np.einsum("ntk,ntl->kl", forward[:, :-1], arriving)
        history.append(float(total_ll))
        if len(history) > 1 and history[-1] - history[-2] < tol:
            break
        model = CategoricalHmm(
            _rows_or_uniform(trans_acc * model.transition),
            _rows_or_uniform(emit_acc),
            _rows_or_uniform(start_acc[None, :])[0],
        )
    return BaumWelchResult(model, history)


def _inverse_cdf(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Index drawn from each row of ``probs`` (broadcast against the
    uniforms) by its uniform in [0, 1).

    This is the arithmetic of ``Generator.choice(m, p=p / p.sum())``, which
    takes one uniform and searches the normalized cumulative sum with
    ``searchsorted(..., 'right')``, so a row drawn here with the uniform
    ``choice`` would take gets the same index bit for bit.
    """
    cdf = np.add.accumulate(probs / probs.sum(axis=-1, keepdims=True), axis=-1)
    cdf /= cdf[..., -1:]
    return (cdf <= uniforms[:, None]).sum(axis=-1)


def hmm_samples(model: CategoricalHmm, length: int, count: int, rng_seed, *,
                prefix=()) -> np.ndarray:
    """Draw ``count`` symbol sequences of the given length as the rows of a
    ``(count, length)`` int array, deterministic per seed.

    ``rng_seed`` may be an int or a ``numpy.random.Generator``. With a
    nonempty ``prefix`` the hidden-state distribution is first filtered
    through those symbols and every row continues them (the prefix itself
    is not included in the output). Each row takes ``2 * length`` uniforms
    (one more after a prefix) in order, so row i equals the i-th of
    ``count`` one-row calls on one generator, which ends in the same state.
    """
    if length < 1:
        raise InputError("length must be >= 1")
    if count < 0:
        raise InputError("count must be >= 0")
    # the chain emits from the state it starts in; after a prefix it moves first
    moved, first = len(prefix) > 0, model.start
    if moved:
        res = hmm_forward(model, prefix)
        if not np.isfinite(res.log_likelihood):
            raise InputError("prefix has zero probability under the model")
        first = res.forward[-1]
    columns = iter(np.random.default_rng(rng_seed).random((count, 2 * length + moved)).T)
    state = _inverse_cdf(first, next(columns))
    samples = np.empty((count, length), dtype=np.int64)
    for t in range(length):
        if t or moved:
            state = _inverse_cdf(model.transition[state], next(columns))
        samples[:, t] = _inverse_cdf(model.emission[state], next(columns))
    return samples


def hmm_sample(model: CategoricalHmm, length: int, rng_seed, *, prefix=()) -> list:
    """One sequence of :func:`hmm_samples` as a list."""
    return hmm_samples(model, length, 1, rng_seed, prefix=prefix)[0].tolist()
