"""Categorical hidden Markov models.

Likelihoods come from the per-step scaled forward/backward recursions of
Rabiner (1989), so long sequences stay inside the float range; a row's
log-likelihood is the running sum of its per-step log-normalizers. One
forward recursion, :func:`_trellis`, runs over a per-step layout as the
Kraus filter does: zero-padded rows, longest first, each under its own
parameters or under one model's (:func:`_row_trellis`: Baum-Welch,
:func:`baum_welch_fits`, over every live run of a stack of EM runs, so that
several fits share each E-step, and the one-sequence trellises), or the
nodes of a prefix tree under one model (dataset scoring,
:func:`_log_likelihoods`). Scoring sorts a call's rows once
(:func:`_prefix_rows`), and both model kinds score them on the prefix
trees of :func:`_tree_log_likelihoods`, so each distinct prefix of a block
is filtered once per model. Training runs of both model kinds share a call
by one rule, :func:`_merged`: rows merge longest first, each run's symbols
offset into its own part of the stacked parameters. A row's results
depend on that row alone, bit for bit, not on the rows beside it. A
sequence the model cannot produce is reported with a ``-inf``
log-likelihood instead of an error.

Models are immutable after construction and every operation here is a
pure function, so concurrent use across threads is safe.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Optional

import numpy as np

from .errors import InputError, PosteriorUndefinedError, TrainingError

ROW_SUM_TOL = 1e-9
_ENTRY_TOL = 1e-12
# rows per block of the batched trellis are this many float64 entries over
# K; blocks bound the trellis history and do not change a row's bits
_TRELLIS_BUDGET = 1024
# a scoring block's prefix tree holds at most this many float64 entries over
# K nodes, which bounds the forward rows of its steps together; blocks do
# not change a row's bits
_TREE_BUDGET = 32768


def _check_rows(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise InputError(f"{name} entries must be finite")
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
    padded = np.zeros((len(lengths), lengths[order[0]]), dtype=np.int64)
    padded[lengths[:, None] > np.arange(padded.shape[1])] = symbols  # in input order
    return padded[order], lengths[order], order


def _row_blocks(count: int, row_entries: int, budget: int) -> list:
    """Slices of at most ``budget // row_entries`` rows (at least one), which
    bounds the per-step temporaries of a batched recursion."""
    size = max(1, budget // row_entries)
    return [slice(start, start + size) for start in range(0, count, size)]


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
    """The padded rows of several runs, each a ``(padded, lengths)`` pair of
    rows longest first, merged longest first with run r's symbols offset by
    ``offsets[r]``: ``(padded, lengths, order)``, where merged row i is row
    ``order[i]`` of the runs' rows taken in turn. The sort is stable, so each
    run's rows keep their order."""
    starts = list(accumulate((len(lengths) for _, lengths in runs), initial=0))
    symbols = np.zeros((starts[-1], max(padded.shape[1] for padded, _ in runs)), np.int64)
    for (padded, _), offset, start in zip(runs, offsets, starts):
        np.add(padded, offset, out=symbols[start:start + len(padded), :padded.shape[1]])
    lengths = np.concatenate([lengths for _, lengths in runs])
    order = np.argsort(-lengths, kind="stable")
    return symbols[order], lengths[order], order


def _lexicographic(padded: np.ndarray, lengths: np.ndarray):
    """The padded rows in lexicographic order, each sequence before its
    extensions: ``(places, starts)``, where place i holds row ``places[i]``
    and ``starts[i, t]`` is whether place i's prefix through position t
    exists and differs from place i - 1's.

    In this order the rows sharing a prefix are adjacent, so within any run
    of places each distinct prefix starts at exactly one place. One row is
    its own order.
    """
    running = lengths[:, None] > np.arange(padded.shape[1])
    if len(lengths) == 1:
        return np.zeros(1, np.int64), running
    keys = padded + running  # symbol + 1, and 0 past a row's end, which sorts first
    places = np.lexsort(keys.T[::-1])
    keys = keys[places]
    starts = np.ones(keys.shape, dtype=bool)
    np.logical_or.accumulate(keys[1:] != keys[:-1], axis=1, out=starts[1:])
    return places, np.logical_and(starts, keys, out=starts)  # keys are 0 past the end


def _prefix_rows(symbols: np.ndarray, lengths: np.ndarray, alphabet_size: int):
    """The sequences of :func:`_pad` as zero-padded rows in lexicographic
    order (:func:`_lexicographic`): ``(padded, lengths, order, starts)``,
    where row i holds input sequence ``order[i]``. Both model kinds score
    these rows on their prefix trees (:func:`_tree_log_likelihoods`)."""
    padded, lengths, order = _pad(symbols, lengths, alphabet_size)
    places, starts = _lexicographic(padded, lengths)
    return padded[places], lengths[places], order[places], starts


def _prefix_layout(symbols: np.ndarray, lengths: np.ndarray, starts: np.ndarray):
    """The per-step layout, as :func:`_trellis` and :func:`qhmm._filter`
    take it, of a run of places from :func:`_lexicographic` in which each
    distinct prefix is one node, numbered by depth, then by place:
    ``(steps, nodes, leaves)``, where the filter writes each node's
    log-probability to ``nodes`` and ``leaves[i]`` is the node of place i's
    whole sequence. One place is its own path."""
    depth, last = int(lengths.max()), lengths - 1
    if len(lengths) == 1:
        nodes = np.empty(depth)
        return ([(slice(1), symbols[0, t:t + 1], nodes[t:t + 1]) for t in range(depth)],
                nodes, last)
    starts = starts[:, :depth].copy()
    starts[0, :lengths[0]] = True  # the run's first place starts each of its prefixes
    counts = starts.cumsum(axis=0)  # per depth, the nodes up to each place
    bounds = counts[-1].cumsum()
    at = starts.T
    node_symbols = symbols[:, :depth].T[at]
    parents = counts[:, :-1].T[at[1:]] - 1  # numbered within their depth
    leaves = counts[np.arange(len(last)), last] + (bounds - counts[-1] - 1)[last]
    bounds = bounds.tolist()
    first, nodes = bounds[0], np.empty(bounds[-1])
    steps = [(slice(first), node_symbols[:first], nodes[:first])]
    steps += [(parents[start - first:stop - first], node_symbols[start:stop],
               nodes[start:stop]) for start, stop in zip(bounds, bounds[1:])]
    return steps, nodes, leaves


def _tree_log_likelihoods(filters, padded: np.ndarray, lengths: np.ndarray,
                          starts: np.ndarray, blocks) -> tuple:
    """Natural-log probability of each row of :func:`_prefix_rows` under each
    filter, as a ``(filters, rows)`` array in row order, and the number of
    nodes filtered, summed over the filters.

    Each block, a slice of rows, gets one prefix tree (:func:`_prefix_layout`),
    which every filter (a function of the tree's per-step layout that
    writes each node's log-probability) runs once; a row's score is that of
    the node of its whole sequence.
    """
    log_probs, filtered = np.empty((len(filters), len(lengths))), 0
    for rows in blocks:
        steps, nodes, leaves = _prefix_layout(padded[rows], lengths[rows], starts[rows])
        for run, scores in zip(filters, log_probs):
            run(steps)
            scores[rows] = nodes[leaves]
        filtered += len(filters) * len(nodes)
    return log_probs, filtered


def _trellis(transition: np.ndarray, table: np.ndarray, start: np.ndarray, steps,
             trellis: Optional[tuple] = None) -> None:
    """The scaled forward pass of Rabiner (1989) over the nodes of a per-step
    layout, writing each node's natural-log probability.

    ``steps`` holds one ``(parents, symbols, log_probs)`` triple per step,
    as :func:`qhmm._filter` takes it: node j of step t continues node
    ``parents[j]`` of step t - 1, emits ``symbols[j]``, whose probability in
    each state is that symbol's row of the ``(symbols, K)`` ``table``, and
    gets its log-probability written to ``log_probs[j]``. The nodes are
    running rows, longest first (:func:`_row_trellis`), each under its own
    ``(rows, K, K)`` transition matrix and ``(rows, K)`` start distribution,
    or the nodes of a prefix tree (:func:`_prefix_layout`) under one
    model's transition and start as a stack of one.

    Each step multiplies every node's forward row by its transition matrix
    in one stack of one-row products, and a node's log-probability is its
    parent's plus its own step log, as a running sum along one row would
    be, so every node gets the bits of a call over one row ending there. A
    node whose step total reaches 0 scores -inf, and so does every node
    continuing it; its forward rows are zero. ``trellis``, a ``(forward,
    scaling)`` pair of step-major ``(steps, rows, K)`` and ``(steps, rows)``
    arrays, has each step's forward rows and totals of running rows written
    to its leading rows.
    """
    forward, previous = start, None  # the start broadcasts against step 0's nodes
    with np.errstate(divide="ignore"):  # a total of 0 scores -inf
        for t, (parents, symbols, log_probs) in enumerate(steps):
            n = len(log_probs)
            if previous is None:
                vec = forward[parents] * table[symbols]
            else:
                vec = (forward[parents][:, None] @ transition[:n])[:, 0]
                vec *= table[symbols]
            total = vec.sum(axis=1)
            if previous is None:  # step 0 adds to 0, which leaves its logs as they are
                np.log(total, out=log_probs)
            else:
                np.add(previous[parents], np.log(total), out=log_probs)
            previous, out = log_probs, None
            if trellis is not None:
                out = trellis[0][t, :n]
                trellis[1][t, :n] = total
            total[total <= 0.0] = np.inf  # the node keeps zero forward rows from here on
            forward = np.divide(vec, total[:, None], out=out)


def _row_trellis(transition: np.ndarray, emitted: np.ndarray, start: np.ndarray,
                 lengths: np.ndarray, backward: bool = False):
    """Scaled forward (and backward) passes of Rabiner (1989) over rows,
    longest first, each under its own parameters: ``(rows, K, K)``
    transition matrices, the ``(steps, rows, K)`` emission probabilities of
    each row's symbols and ``(rows, K)`` start distributions, or one model's
    transition and start as a stack of one that every row shares.

    Returns ``(log_probs, forward, scaling, backward)``: :func:`_trellis`
    over the rows' running layout, whose symbols index the emission
    probabilities, keeping its step-major trellises, ``(steps, rows, K)``
    and ``(steps, rows)``; ``backward`` is None unless asked for. Every row
    gets the bits of a call over that row alone. Past a row's end its
    trellis entries are zero and its scalings one. A row whose step total
    reaches 0 scores -inf while the other rows carry on; its forward rows
    from that step on, its later scalings and its whole backward trellis
    are zero.
    """
    steps, count, k = emitted.shape
    log_probs, forward = np.empty(count), np.zeros_like(emitted)
    scaling = np.ones((steps, count))  # padding counts as a factor 1
    # the rows still running at step t, a leading slice of the previous
    # step's, emit rows t * count onwards of the flattened probabilities
    running = np.searchsorted(-lengths, -np.arange(steps)).tolist()  # rows with length > t
    _trellis(transition, emitted.reshape(-1, k), start,
             [(slice(n), slice(t * count, t * count + n), log_probs[:n])
              for t, n in enumerate(running)], (forward, scaling))
    back = None
    if backward:
        back = np.zeros_like(forward)
        back[lengths - 1, np.arange(count)] = 1.0
        divisor = np.where(scaling > 0.0, scaling, 1.0)
        transposed = transition.transpose(0, 2, 1)
        for t in range(steps - 2, -1, -1):
            n = running[t + 1]  # rows not running at t + 1 keep their 0 or 1
            weighted = emitted[t + 1, :n] * back[t + 1, :n]
            np.divide((weighted[:, None] @ transposed[:n])[:, 0], divisor[t + 1, :n, None],
                      out=back[t, :n])
        back[:, log_probs == -np.inf] = 0.0
    return log_probs, forward, scaling, back


def _log_likelihoods(models, padded: np.ndarray, lengths: np.ndarray,
                     starts: np.ndarray) -> tuple:
    """Natural-log probability of each row of :func:`_prefix_rows` under each
    HMM of one K, as a ``(models, rows)`` array in row order, and the number
    of tree nodes filtered, summed over the models.

    :func:`_tree_log_likelihoods` runs :func:`_trellis` on the prefix tree
    of blocks of rows cut by :func:`_node_blocks` so that a block's nodes
    times K stay within ``_TREE_BUDGET``: tree scoring keeps no trellis
    history, so a block bounds the forward rows of its steps together. Each
    row gets the bits of a one-row call.
    """
    k = models[0].num_states
    filters = [partial(_trellis, model.transition[None], model.emission.T, model.start[None])
               for model in models]
    return _tree_log_likelihoods(filters, padded, lengths, starts,
                                 _node_blocks(lengths, starts, _TREE_BUDGET // k))


def _node_blocks(lengths: np.ndarray, starts: np.ndarray, cap: int) -> list:
    """Slices of consecutive rows of :func:`_prefix_rows` whose prefix trees
    hold at most ``cap`` nodes (at least one row each): a block's first row
    starts a node at each of its positions, and every later row one per
    prefix that differs from the row before's (``starts``)."""
    if np.count_nonzero(starts) <= cap:  # the nodes of all rows as one tree
        return [slice(0, len(lengths))]
    fresh = np.cumsum(np.count_nonzero(starts, axis=1)).tolist()  # the nodes of rows 0..i
    blocks, first = [], 0
    while first < len(fresh):
        # the tree of rows first..i holds lengths[first] + fresh[i] - fresh[first] nodes
        stop = bisect_right(fresh, cap - int(lengths[first]) + fresh[first], first + 1)
        blocks.append(slice(first, stop))
        first = stop
    return blocks


def _sequence_trellis(model: CategoricalHmm, sequence, backward: bool) -> TrellisResult:
    seq = _as_symbols(sequence, model.alphabet_size)
    log_probs, forward, scaling, back = _row_trellis(
        model.transition[None], model.emission.T[seq[:, None]], model.start[None],
        np.array([seq.size]), backward)
    return TrellisResult(float(log_probs[0]), forward[:, 0], scaling[:, 0],
                         None if back is None else back[:, 0])


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
    return _sequence_trellis(model, sequence, False)


def hmm_backward(model: CategoricalHmm, sequence) -> TrellisResult:
    """Run the scaled backward recursion (the forward pass supplies the normalizers).

    For a sequence with positive probability, the identity
    ``P(X) = sum_l start[l] * emission[l, x_1] * b_l(1)`` recovers the same
    probability as :func:`hmm_forward`. The backward trellis of a sequence
    the model cannot produce is all zero.
    """
    return _sequence_trellis(model, sequence, True)


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
    # rows (along the last axis) with no expected mass fall back to uniform
    # instead of NaN
    sums = numerators.sum(axis=-1, keepdims=True)
    out = np.where(sums > 0.0, numerators / np.where(sums > 0.0, sums, 1.0),
                   1.0 / numerators.shape[-1])
    return out / out.sum(axis=-1, keepdims=True)


@dataclass
class BaumWelchResult:
    """Fitted model plus the total training log-likelihood per EM iteration."""

    model: CategoricalHmm
    log_likelihoods: list = field(default_factory=list)


def baum_welch_fit(dataset, num_states: int, *, alphabet_size: Optional[int] = None,
                   max_iters: int = 100, tol: float = 1e-6, seed: int = 0,
                   work=None) -> BaumWelchResult:
    """Fit a :class:`CategoricalHmm` by expectation-maximization.

    Rows are initialized from flat Dirichlet draws seeded by ``seed``. The
    per-iteration total log-likelihood (evaluated before each update) is
    recorded in the result; it is non-decreasing up to float roundoff.
    Iteration stops when the improvement drops below ``tol`` or after
    ``max_iters`` iterations; ``max_iters = 0`` returns the seeded
    initialization untouched. A negative ``max_iters`` and a NaN ``tol``
    (which no improvement falls below) are input errors.

    This is the one-run call of :func:`baum_welch_fits`, whose E-step runs
    the recursion that scoring runs (:func:`_trellis`); it raises the
    :class:`TrainingError` of a training sequence that the current
    parameters cannot produce.

    Parameters
    ----------
    dataset : list of sequences
        Nonempty list of integer symbol sequences (lengths may differ).
    num_states : int
        Number of hidden states K of the fitted model.
    alphabet_size : int, optional
        Inferred as ``1 + max symbol`` when omitted.
    work : collections.Counter, optional
        Has the fit's ``em_iterations``, ``em_passes`` and ``runs_failed``
        added to it, as :func:`baum_welch_fits` counts them.
    """
    ((result,),) = baum_welch_fits([(dataset, alphabet_size)], num_states, [seed],
                                   max_iters=max_iters, tol=tol, work=work)
    if isinstance(result, TrainingError):
        raise result
    return result


class _EmRun:
    """The EM state of one (dataset, seed) run within a stack."""

    def __init__(self, padded, lengths, alphabet_size: int, num_states: int, seed):
        # the dataset's padded rows (longest first) and lengths, shared by
        # the runs of one dataset
        self.padded, self.lengths, self.alphabet_size = padded, lengths, alphabet_size
        rng = np.random.default_rng(seed)
        k, m = num_states, alphabet_size
        self.transition = rng.dirichlet(np.ones(k), size=k)
        self.emission = rng.dirichlet(np.ones(m), size=k)
        self.start = rng.dirichlet(np.ones(k))
        self.history = []
        self.error = None  # the TrainingError that ended the run


def baum_welch_fits(datasets, num_states: int, seeds, *, max_iters: int = 100,
                    tol: float = 1e-6, work=None) -> list:
    """Fit one HMM per seed on each dataset, all runs in shared stacks.

    ``datasets`` holds ``(sequences, alphabet_size)`` pairs (an alphabet
    size of None is inferred as in :func:`baum_welch_fit`). Returns one list
    per dataset with one entry per seed, in order: the
    :class:`BaumWelchResult` that :func:`baum_welch_fit` returns for that
    dataset and seed, bit for bit, or the :class:`TrainingError` it raises.

    Runs are packed in order into stacks whose rows fit one trellis block
    of ``_TRELLIS_BUDGET // K`` rows (a larger run is a stack of its own).
    Each EM iteration of a stack is one E-step, :func:`_trellis` over the
    rows of all its live runs (:func:`_merged`), which sums each run's
    counts over its own rows in their order, and one batched M-step. A run
    leaves the stack when it converges, reaches ``max_iters`` or fails; the
    others carry on. ``work``, when a :class:`collections.Counter`, has
    added to it the E-steps summed over runs (``em_iterations``), the
    stacked E-steps (``em_passes``) and the failed runs (``runs_failed``).
    """
    if num_states < 1:
        raise InputError("num_states must be >= 1")
    if max_iters < 0:
        raise InputError("max_iters must be >= 0")
    if np.isnan(tol):
        raise InputError("tol must not be NaN")
    seeds, groups = list(seeds), []
    for sequences, alphabet_size in datasets:
        symbols, lengths = _flatten(sequences)
        if not len(lengths):
            raise InputError("dataset must contain at least one sequence")
        if alphabet_size is None:
            alphabet_size = 1 + int(symbols.max())  # _pad reports a negative symbol
        padded, lengths, _ = _pad(symbols, lengths, alphabet_size)
        groups.append([_EmRun(padded, lengths, alphabet_size, num_states, seed)
                       for seed in seeds])
    runs = [run for group in groups for run in group]
    counts = {"em_iterations": 0, "em_passes": 0}
    for stack in _packed(runs, [len(run.lengths) for run in runs],
                         max(1, _TRELLIS_BUDGET // num_states)):
        if max_iters:
            _fit_stack(stack, max_iters, tol, counts)
    if work is not None:
        work.update(counts, runs_failed=sum(run.error is not None for run in runs))
    return [[run.error if run.error is not None else
             BaumWelchResult(CategoricalHmm(run.transition, run.emission, run.start),
                             run.history)
             for run in group] for group in groups]


def _fit_stack(runs, max_iters: int, tol: float, counts: dict) -> None:
    """:func:`baum_welch_fits` for the runs of one stack."""
    k = runs[0].transition.shape[0]
    live, blocks = list(runs), None
    while live:
        if blocks is None:
            # the live runs' rows merged longest first, each run's symbols
            # offset past the alphabets of the runs before it, and each run's
            # rows in each row block, for the E-steps until a run leaves
            offsets = list(accumulate((run.alphabet_size for run in live), initial=0))
            padded, lengths, order = _merged([(run.padded, run.lengths) for run in live], offsets)
            owners = np.repeat(np.arange(len(live)), [len(run.lengths) for run in live])[order]
            blocks = []
            for rows in _row_blocks(len(lengths), k, _TRELLIS_BUDGET):
                members = [(run, np.flatnonzero(owners[rows] == run))
                           for run in np.unique(owners[rows]).tolist()]
                symbols = padded[rows, :lengths[rows.start]].T
                cells = (symbols[:, :, None] + offsets[-1] * np.arange(k)).ravel()
                blocks.append((rows, symbols, cells, members))
        transition = np.stack([run.transition for run in live])
        table = np.concatenate([run.emission.T for run in live])  # (offset symbol, state)
        start = np.stack([run.start for run in live])
        total = [0.0] * len(live)
        failed = [False] * len(live)
        start_acc = np.zeros(len(live) * k)
        trans_acc = np.zeros((len(live), k, k))
        emit_acc = np.zeros((k, offsets[-1]))  # run r's counts in its own columns
        for rows, symbols, cells, members in blocks:
            emitted = table[symbols]
            log_probs, forward, scaling, backward = _row_trellis(
                transition[owners[rows]], emitted, start[owners[rows]], lengths[rows], True)
            gamma = forward * backward
            states = k * owners[rows, None] + np.arange(k)  # the (run, state) of each entry
            start_acc += np.bincount(states.ravel(), gamma[0].ravel(),
                                     minlength=len(start_acc))
            # each emission count adds the block's entries step by step and
            # row by row, in the order of its run on its own
            np.add.at(emit_acc.reshape(-1), cells, gamma.ravel())
            # expected k -> l transitions without their common factor
            # transition[k, l], applied once at the update; the summand is
            # zero past each row's end, where backward is zero. A failed
            # run's rows may divide 0 by 0; its sums are not used.
            with np.errstate(invalid="ignore"):
                arriving = emitted[1:] * backward[1:] / scaling[1:, :, None]
            for run, mine in members:
                if log_probs[mine].min() == -np.inf:
                    failed[run] = True
                    continue
                steps = lengths[rows][mine[0]] - 1
                total[run] += log_probs[mine].sum()
                trans_acc[run] += np.einsum("tnk,tnl->kl", forward[:steps].take(mine, axis=1),
                                            arriving[:steps].take(mine, axis=1))
        counts["em_passes"] += 1
        counts["em_iterations"] += len(live)
        new_transition = _rows_or_uniform(trans_acc * transition)
        new_start = _rows_or_uniform(start_acc.reshape(len(live), k))
        staying = []
        for i, run in enumerate(live):
            if failed[i]:
                run.error = TrainingError("a training sequence has zero probability "
                                          "under the current parameters")
                continue
            run.history.append(float(total[i]))
            if len(run.history) > 1 and run.history[-1] - run.history[-2] < tol:
                continue  # converged: the parameters of this E-step are the fit
            run.transition, run.start = new_transition[i], new_start[i]
            run.emission = _rows_or_uniform(emit_acc[:, offsets[i]:offsets[i + 1]])
            if len(run.history) < max_iters:
                staying.append(run)
        if len(staying) < len(live):
            live, blocks = staying, None


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
