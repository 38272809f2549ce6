"""Description accuracy: a squashed, length-normalized log-likelihood score.

The score lives in (-1, 1]: 1 means the model predicted a sequence with
certainty, 0 matches a uniform model over the alphabet, and anything above
0 beats random. Sequences a model cannot produce are reported with the -1
sentinel (the open lower bound, "impossible under the model").

Scoring sorts a dataset's rows once for all the models of a call
(:func:`hmm._prefix_rows`), and the models of each kind and K score them in
one call of their module's forward-only entry, :func:`qhmm._log_likelihoods`
or :func:`hmm._log_likelihoods`, which both filter each distinct prefix of
a block of rows once. Every row gets the bits of its model kind's filter
over that row alone. The report is written from columns.
"""

from __future__ import annotations

import math

import numpy as np

from . import hmm, qhmm
from .errors import InputError
from .hmm import CategoricalHmm, _flatten, _prefix_rows
from .psa import ScenarioDataset
from .qhmm import KrausModel
from .serialization import _write_columns

_LOGPROB_SLACK = 1e-9


def da_nonlinearity(x: float) -> float:
    """Squash (-inf, 1] into (-1, 1]: identity above 0, tanh(x/8) below.

    tanh(x/8) is the closed form of (1 - exp(-x/4)) / (1 + exp(-x/4)) and
    stays finite for arbitrarily negative x. Strictly increasing and
    continuous at 0.
    """
    x = float(x)
    if math.isnan(x):
        raise InputError("argument must not be NaN")
    if x > 1.0 + 1e-12:
        raise InputError(f"argument {x} outside the domain (-inf, 1]")
    x = min(x, 1.0)
    if x >= 0.0:
        return x
    return math.tanh(x / 8.0)


def da_score(log_prob: float, length: int, alphabet_size: int) -> float:
    """Description accuracy of one sequence from its natural-log probability.

    The log-probability is rebased to the alphabet size s and normalized
    by the sequence length, so the score is comparable across lengths:
    ``f(1 + log_s P / L)``. P = 1 scores exactly 1; P = s^-L scores
    exactly 0; ``-inf`` scores the -1 sentinel.
    """
    return float(da_scores([float(log_prob)], [length], alphabet_size)[0])


def da_scores(log_probs, lengths, alphabet_size: int) -> np.ndarray:
    """:func:`da_score` of each (log-probability, length) pair, as an array.

    The negative branch applies ``math.tanh`` per entry, as
    :func:`da_nonlinearity` does (``np.tanh`` can differ in the last ulp).
    """
    log_probs = np.asarray(log_probs, dtype=float)
    lengths = np.asarray(lengths)
    if (lengths < 1).any():
        raise InputError("length must be >= 1")
    if alphabet_size < 2:
        raise InputError("alphabet_size must be >= 2")
    if not (log_probs <= _LOGPROB_SLACK).all():
        if np.isnan(log_probs).any():
            raise InputError("log_prob must not be NaN")
        raise InputError("log-probability must be <= 0 (probabilities <= 1)")
    scores = 1.0 + np.minimum(log_probs, 0.0) / (math.log(alphabet_size) * lengths)
    negative = scores < 0.0
    # a -inf log-probability lands on math.tanh(-inf) = -1.0, the sentinel
    scores[negative] = list(map(math.tanh, (scores[negative] / 8.0).tolist()))
    return scores


def sequence_log_prob(model, sequence) -> float:
    """Natural-log sequence probability under either model kind."""
    return float(log_likelihoods(model, [sequence])[0])


def da_for_sequence(model, sequence) -> float:
    """Description accuracy of one sequence under a model."""
    return da_score(sequence_log_prob(model, sequence), len(sequence),
                    model.alphabet_size)


def log_likelihoods(model, sequences) -> np.ndarray:
    """Natural-log probability of each sequence under either model kind, in input order.

    ``sequences`` is a list of sequences or a :class:`ScenarioDataset`. They
    are sorted into rows once and scored on their prefix tree by one
    batched call: the scaled forward pass of a categorical HMM, or the
    belief filter of a Kraus-operator model.
    """
    return _scores([model], sequences, da=False)[1][0]


def _check_model(model) -> None:
    if not isinstance(model, (CategoricalHmm, KrausModel)):
        raise InputError(f"unsupported model type {type(model).__name__}")


def _scores(models, data, da: bool = True, work=None):
    """Lengths, in input order, and each model's log-probabilities and
    description accuracies of a list of sequences or a :class:`ScenarioDataset`.

    The models must share one alphabet, which callers check: the data are
    padded and sorted once, by :func:`hmm._prefix_rows` against the first
    model's alphabet, and the models of each kind and K score the same rows
    in one call of :func:`qhmm._log_likelihoods` or
    :func:`hmm._log_likelihoods`. Every row gets the bits of a call over
    that row alone, for both kinds, so a row's scores do not depend on the
    other rows of the call.

    Returns ``(lengths, log_probs, das)``, with one row per model in
    ``log_probs`` and ``das``; ``da=False`` leaves ``das`` None (a
    one-symbol alphabet has no DA). ``work``, when a
    :class:`collections.Counter`, has the call's scoring work added to it,
    summed over the models: the sequences scored, their symbol positions
    and the prefixes filtered, one per prefix-tree node a filter step
    computed, for both kinds.
    """
    for model in models:
        _check_model(model)
    alphabet_size = models[0].alphabet_size
    symbols, lengths = ((data.symbols, data.lengths) if isinstance(data, ScenarioDataset)
                        else _flatten(data))
    padded, row_lengths, order, starts = _prefix_rows(symbols, lengths, alphabet_size)
    log_probs = np.empty((len(models), len(lengths)))
    positions, filtered = int(row_lengths.sum()), 0
    hmms, kraus = {}, {}  # the indices of each kind's models, by K
    for i, model in enumerate(models):
        if isinstance(model, CategoricalHmm):
            hmms.setdefault(model.num_states, []).append(i)
        else:
            kraus.setdefault(model.dim, []).append(i)
    for members in hmms.values():
        log_probs[np.ix_(members, order)], nodes = hmm._log_likelihoods(
            [models[i] for i in members], padded, row_lengths, starts)
        filtered += nodes
    for members in kraus.values():
        log_probs[np.ix_(members, order)], nodes = qhmm._log_likelihoods(
            [(models[i].operators, models[i].initial_state.matrix) for i in members],
            padded, row_lengths, starts)
        filtered += nodes
    if work is not None:
        work.update(sequences_scored=len(models) * len(lengths),
                    symbol_positions=len(models) * positions, prefixes_filtered=filtered)
    return lengths, log_probs, da_scores(log_probs, lengths, alphabet_size) if da else None


def average_da(model, dataset) -> float:
    """Mean per-sequence description accuracy (sentinel -1 terms included).

    ``dataset`` is a list of sequences or a :class:`ScenarioDataset`.
    """
    return float(np.mean(_scores([model], dataset)[2][0]))


def write_da_report(path, model, dataset, *, work=None) -> float:
    """Write the per-sequence CSV (sequence_id,length,log_prob,da); returns the mean.

    ``dataset`` is a list of sequences or a :class:`ScenarioDataset`;
    ``work``, when a :class:`collections.Counter`, counts the scoring work
    as :func:`_scores` does.
    """
    lengths, (log_probs,), (scores,) = _scores([model], dataset, work=work)
    _write_columns(path, ["sequence_id", "length", "log_prob", "da"],
                   [range(len(scores)), lengths.tolist(), log_probs.tolist(), scores.tolist()])
    return float(np.mean(scores))
