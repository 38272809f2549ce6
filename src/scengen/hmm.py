"""Categorical hidden Markov models.

Likelihoods come from the per-step scaled forward/backward recursions of
Rabiner (1989), so long sequences stay inside the float range; a row's
log-likelihood is the running sum of its per-step log-normalizers. Every
pass runs on one layout, the prefix tree, in which rows that share a
prefix share its node. Rows are sorted once (:func:`_prefix_rows`) and cut
into blocks of bounded trees (:func:`_node_blocks`). One forward
recursion, :func:`_trellis`, runs over a tree's per-step layout as the
Kraus filter does, under one model or a stack of runs: dataset scoring
(:func:`_log_likelihoods`, on the trees of :func:`_tree_log_likelihoods`,
which both model kinds share), the one-sequence trellises, and the E-step
of Baum-Welch (:func:`baum_welch_fits`), where every seed of a dataset
shares its trees. One backward sweep over the tree (:func:`_duals`) gives
the E-step its expected counts and is, for one row, Rabiner's scaled
backward pass. A row's results depend on that row alone, bit for bit, not
on the rows beside it. A sequence the model cannot produce is reported
with a ``-inf`` log-likelihood instead of an error.

Models are immutable after construction and every operation here is a
pure function, so concurrent use across threads is safe.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Optional

import numpy as np

from .errors import InputError, PosteriorUndefinedError, TrainingError

ROW_SUM_TOL = 1e-9
_ENTRY_TOL = 1e-12
# a block's prefix tree holds at most this many float64 entries over K
# nodes, which bounds the forward rows of a scoring block's steps together
# and each run's per-node arrays of an E-step; blocks do not change a row's
# bits
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

    Its rows are the nodes of the sequence's one-row prefix tree: the
    forward rows and step totals that :func:`_trellis` keeps, and the duals
    of :func:`_duals`. ``forward[t]`` sums to 1 at every position reached
    with positive probability; ``scaling`` holds the per-step normalizers
    whose log-sum is ``log_likelihood``. ``backward[t]`` is the backward
    vector divided by the normalizers of positions t+1..L, so ``forward *
    backward`` rows are exactly the smoothing posteriors. From the step at
    which a sequence the model cannot produce dies out, its forward rows
    and scalings are zero, and so is its whole backward trellis.
    """

    log_likelihood: float
    forward: np.ndarray
    scaling: np.ndarray
    backward: Optional[np.ndarray] = None


def _padded(symbols: np.ndarray, lengths: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Flat int64 symbols of sequences with the given lengths as zero-padded
    rows in input order. A list of sequences is first flattened by
    :func:`_flatten`."""
    if not len(lengths):
        raise InputError("need at least one sequence")
    _check_range(symbols, alphabet_size)
    padded = np.zeros((len(lengths), lengths.max()), dtype=np.int64)
    padded[lengths[:, None] > np.arange(padded.shape[1])] = symbols
    return padded


def _row_blocks(count: int, row_entries: int, budget: int) -> list:
    """Slices of at most ``budget // row_entries`` rows (at least one), which
    bounds the per-step temporaries of a batched recursion."""
    size = max(1, budget // row_entries)
    return [slice(start, start + size) for start in range(0, count, size)]


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
    """The rows of :func:`_padded` in lexicographic order
    (:func:`_lexicographic`), the one sort they get: ``(padded, lengths,
    order, starts)``, where row i holds input sequence ``order[i]``. Both
    model kinds score these rows on their prefix trees
    (:func:`_tree_log_likelihoods`)."""
    padded = _padded(symbols, lengths, alphabet_size)
    order, starts = _lexicographic(padded, lengths)
    return padded[order], lengths[order], order, starts


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
             kept: Optional[tuple] = None) -> None:
    """The scaled forward pass of Rabiner (1989) over the nodes of a prefix
    tree's per-step layout (:func:`_prefix_layout`), writing each node's
    natural-log probability.

    ``steps`` holds one ``(parents, symbols, log_probs)`` triple per step,
    as :func:`qhmm._filter` takes it: node j of step t continues node
    ``parents[j]`` of step t - 1, emits ``symbols[j]``, whose probability in
    each state is that symbol's row of the ``(symbols, K)`` ``table``, and
    gets its log-probability written to ``log_probs[..., j]``. The
    ``(K, K)`` transition matrix, the table and the ``(K,)`` start
    distribution are one model's, or a stack of runs' along a leading axis
    that ``log_probs`` and ``kept`` share.

    Each step multiplies every node's forward row by its run's transition
    matrix in one stack of one-row products, and a node's log-probability is
    its parent's plus its own step log, as a running sum along one row would
    be, so every node gets the bits of a one-row call of its run. A node
    whose step total reaches 0 scores -inf, and so does every node
    continuing it; its forward rows are zero. ``kept``, a ``(forward,
    totals)`` pair of ``(..., nodes, K)`` and ``(..., nodes)`` arrays, has
    each node's forward row and step total written to it, the nodes
    numbered step by step.
    """
    forward, previous, at = start[..., None, :], None, 0  # broadcasts against step 0's nodes
    transition = transition[..., None, :, :]
    with np.errstate(divide="ignore"):  # a total of 0 scores -inf
        for parents, symbols, log_probs in steps:
            n = log_probs.shape[-1]
            if previous is None:
                vec = forward[..., parents, :] * table[..., symbols, :]
            else:
                vec = (forward[..., parents, None, :] @ transition)[..., 0, :]
                vec *= table[..., symbols, :]
            total = vec.sum(axis=-1)
            if previous is None:  # step 0 adds to 0, which leaves its logs as they are
                np.log(total, out=log_probs)
            else:
                np.add(previous[..., parents], np.log(total), out=log_probs)
            previous, out = log_probs, None
            if kept is not None:
                out = kept[0][..., at:at + n, :]
                kept[1][..., at:at + n] = total
                at += n
            total[total <= 0.0] = np.inf  # the node keeps zero forward rows from here on
            forward = np.divide(vec, total[..., None], out=out)


def _duals(transition: np.ndarray, emitted: np.ndarray, totals: np.ndarray, ends: np.ndarray,
           bounds: list, parents: np.ndarray) -> np.ndarray:
    """The backward sweep over a prefix tree whose step totals :func:`_trellis`
    kept: each node's dual, a ``(..., nodes, K)`` array.

    A node's dual is the number of rows ending there (``ends``) times 1, plus
    each child's pull-back ``((e(x_child) * dual_child)[:, None] @ T.T)[:, 0]
    / c_child`` summed into it, deepest step first. ``emitted`` holds each
    node's emission probabilities, ``(..., nodes, K)``, and ``bounds`` and
    ``parents`` number the nodes as :func:`_trees` does; a leading run axis
    is shared as in :func:`_trellis`. For one row the dual is Rabiner's
    scaled backward variable; for a tree it is the sum of those of the rows
    through the node, so the node's forward row times its dual is their
    smoothing posteriors summed. A node whose total is 0 gives its ancestors
    duals that are not finite.
    """
    dual = np.zeros(emitted.shape)
    dual += ends[:, None]
    transposed = transition.swapaxes(-1, -2)[..., None, :, :]
    for t in reversed(range(1, len(bounds) - 1)):
        first, stop = bounds[t], bounds[t + 1]
        pulled = ((emitted[..., first:stop, :] * dual[..., first:stop, :])[..., None, :]
                  @ transposed)[..., 0, :]
        pulled /= totals[..., first:stop, None]
        # siblings add into their parent one by one, in node order
        np.add.at(dual, (..., parents[first - bounds[1]:stop - bounds[1]], slice(None)), pulled)
    return dual


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
    filters = [partial(_trellis, model.transition, model.emission.T, model.start)
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
    """:func:`_trellis` on the one-row tree of a sequence, keeping its forward
    rows and totals, and, when asked, :func:`_duals` on it."""
    padded, lengths, _, starts = _prefix_rows(*_flatten([sequence]), model.alphabet_size)
    ((steps, _, bounds, symbols, parents, ends, _),) = _trees(
        padded, lengths, starts, model.num_states, model.alphabet_size)
    forward, scaling = np.empty((bounds[-1], model.num_states)), np.empty(bounds[-1])
    _trellis(model.transition, model.emission.T, model.start, steps, (forward, scaling))
    log_likelihood = float(steps[-1][2][0])  # the last step's one node
    back = None
    if backward:
        # an extinct row divides by its zero totals; its duals are zeroed
        with np.errstate(divide="ignore", invalid="ignore"):
            back = _duals(model.transition, model.emission.T[symbols], scaling, ends,
                          bounds, parents)
        if log_likelihood == -np.inf:
            back[:] = 0.0
    return TrellisResult(log_likelihood, forward, scaling, back)


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
    try:  # a bool is rejected: True would index as position 1
        position = operator.index(None if isinstance(position, bool) else position)
    except TypeError:
        raise InputError(f"position must be an integer, not {position!r}") from None
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
    the recursion that scoring runs (:func:`_trellis`) on the prefix trees
    that scoring builds; it raises the
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

    def __init__(self, alphabet_size: int, num_states: int, seed):
        rng = np.random.default_rng(seed)
        k, m = num_states, alphabet_size
        self.transition = rng.dirichlet(np.ones(k), size=k)
        self.emission = rng.dirichlet(np.ones(m), size=k)
        self.start = rng.dirichlet(np.ones(k))
        self.history = []
        self.error = None  # the TrainingError that ended the run


def baum_welch_fits(datasets, num_states: int, seeds, *, max_iters: int = 100,
                    tol: float = 1e-6, work=None) -> list:
    """Fit one HMM per seed on each dataset, each dataset's runs in one stack.

    ``datasets`` holds ``(sequences, alphabet_size)`` pairs (an alphabet
    size of None is inferred as in :func:`baum_welch_fit`). Returns one list
    per dataset with one entry per seed, in order: the
    :class:`BaumWelchResult` that :func:`baum_welch_fit` returns for that
    dataset and seed, bit for bit, or the :class:`TrainingError` it raises.

    Each dataset's rows are sorted once (:func:`_prefix_rows`) and cut into
    the prefix trees that scoring would build (:func:`_trees`). Each EM
    iteration of a dataset's stack is one E-step over the trees for all its
    live runs along a leading run axis, :func:`_trellis` keeping its
    forward rows and totals and then :func:`_duals`, and one batched
    M-step. So a run's counts depend on its own parameters and its
    dataset's trees alone, whichever runs share its stack and in whatever
    order the rows come. A run leaves the stack when it converges, reaches
    ``max_iters`` or fails; the others carry on. ``work``, when a
    :class:`collections.Counter`, has added to it the E-steps summed over
    runs (``em_iterations``), the stacked E-steps summed over datasets
    (``em_passes``) and the failed runs (``runs_failed``).
    """
    if num_states < 1:
        raise InputError("num_states must be >= 1")
    if max_iters < 0:
        raise InputError("max_iters must be >= 0")
    if np.isnan(tol):
        raise InputError("tol must not be NaN")
    seeds, stacks = list(seeds), []
    for sequences, alphabet_size in datasets:
        symbols, lengths = _flatten(sequences)
        if not len(lengths):
            raise InputError("dataset must contain at least one sequence")
        if alphabet_size is None:
            alphabet_size = 1 + int(symbols.max())  # _padded reports a negative symbol
        padded, lengths, _, starts = _prefix_rows(symbols, lengths, alphabet_size)
        stacks.append(([_EmRun(alphabet_size, num_states, seed) for seed in seeds],
                       _trees(padded, lengths, starts, num_states, alphabet_size)))
    counts = {"em_iterations": 0, "em_passes": 0}
    if max_iters and seeds:
        for runs, trees in stacks:
            _fit_stack(runs, trees, max_iters, tol, counts)
    if work is not None:
        work.update(counts, runs_failed=sum(run.error is not None
                                            for runs, _ in stacks for run in runs))
    return [[run.error if run.error is not None else
             BaumWelchResult(CategoricalHmm(run.transition, run.emission, run.start),
                             run.history)
             for run in runs] for runs, _ in stacks]


def _trees(padded: np.ndarray, lengths: np.ndarray, starts: np.ndarray, num_states: int,
           alphabet_size: int) -> list:
    """The prefix trees of rows of :func:`_prefix_rows`, one per block of
    :func:`_node_blocks` whose nodes times K stay within ``_TREE_BUDGET``, as
    the passes that keep a trellis take them: ``(steps, leaves, bounds,
    symbols, parents, ends, onehot)``. ``steps`` and ``leaves`` are the
    tree's :func:`_prefix_layout`; step t holds nodes ``bounds[t]`` up to
    ``bounds[t + 1]``, node j emits ``symbols[j]``, node ``bounds[1] + i``
    continues node ``parents[i]``, ``ends[j]`` rows end at node j, and row j
    of ``onehot`` is its symbol. The cut depends on K alone."""
    trees = []
    for rows in _node_blocks(lengths, starts, _TREE_BUDGET // num_states):
        steps, _, leaves = _prefix_layout(padded[rows], lengths[rows], starts[rows])
        bounds = list(accumulate((len(log_probs) for *_, log_probs in steps), initial=0))
        symbols = np.concatenate([symbols for _, symbols, _ in steps])
        parents = np.concatenate([np.arange(first, stop)[step[0]] for step, first, stop
                                  in zip(steps[1:], bounds, bounds[1:])] + [np.zeros(0, np.int64)])
        ends = np.bincount(leaves, minlength=bounds[-1]).astype(float)
        onehot = (symbols[:, None] == np.arange(alphabet_size)).astype(float)
        trees.append((steps, leaves, bounds, symbols, parents, ends, onehot))
    return trees


def _fit_stack(runs, trees, max_iters: int, tol: float, counts: dict) -> None:
    """:func:`baum_welch_fits` for the runs of one dataset on its trees."""
    live = list(runs)
    transition, emission, start = (np.stack([getattr(run, name) for run in live])
                                   for name in ("transition", "emission", "start"))
    while live:
        table = emission.swapaxes(1, 2)  # (run, symbol, state)
        total = np.zeros(len(live))
        start_acc = np.zeros(start.shape)
        trans_acc = np.zeros(transition.shape)
        emit_acc = np.zeros(emission.shape)
        # a failed run's sums may divide 0 by 0; they are not used
        with np.errstate(divide="ignore", invalid="ignore"):
            # arrays taken along the node axis keep C order, so that every
            # sum over nodes runs in one order whatever the number of runs
            for steps, leaves, bounds, symbols, parents, ends, onehot in trees:
                emitted = table.take(symbols, axis=1)  # each node's emission probabilities
                forward, totals, logs = (np.empty(emitted.shape), np.empty(emitted.shape[:2]),
                                         np.empty(emitted.shape[:2]))
                _trellis(transition, emitted, start,
                         [(step[0], slice(first, stop), logs[:, first:stop])
                          for step, first, stop in zip(steps, bounds, bounds[1:])],
                         (forward, totals))
                dual = _duals(transition, emitted, totals, ends, bounds, parents)
                gamma = forward * dual
                total += logs.take(leaves, axis=1).sum(axis=1)
                start_acc += gamma[:, :bounds[1]].sum(axis=1)
                emit_acc += gamma.swapaxes(1, 2) @ onehot
                # expected k -> l transitions on each edge without their
                # common factor transition[k, l], applied once at the update
                arriving = emitted[:, bounds[1]:] * dual[:, bounds[1]:]
                arriving /= totals[:, bounds[1]:, None]
                trans_acc += forward.take(parents, axis=1).swapaxes(1, 2) @ arriving
        counts["em_passes"] += 1
        counts["em_iterations"] += len(live)
        updated = (_rows_or_uniform(trans_acc * transition), _rows_or_uniform(emit_acc),
                   _rows_or_uniform(start_acc))
        staying = []
        for i, run in enumerate(live):
            if total[i] == -np.inf:
                run.error = TrainingError("a training sequence has zero probability "
                                          "under the current parameters")
                continue
            run.history.append(float(total[i]))
            if len(run.history) > 1 and run.history[-1] - run.history[-2] < tol:
                continue  # converged: the parameters of this E-step are the fit
            run.transition, run.emission, run.start = (array[i] for array in updated)
            if len(run.history) < max_iters:
                staying.append(i)
        live = [live[i] for i in staying]
        transition, emission, start = (array[staying] for array in updated)


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
