"""Description accuracy: a squashed, length-normalized log-likelihood score.

The score lives in (-1, 1]: 1 means the model predicted a sequence with
certainty, 0 matches a uniform model over the alphabet, and anything above
0 beats random. Sequences a model cannot produce are reported with the -1
sentinel (the open lower bound, "impossible under the model").
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import InputError
from .hmm import CategoricalHmm, _flatten, _pad, _trellis_blocks
from .psa import ScenarioDataset
from .qhmm import KrausModel, _propagate

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
    are padded into rows, longest first, and scored by one batched call:
    the scaled forward pass of a categorical HMM, or the belief filter of a
    Kraus-operator model.
    """
    return _row_log_likelihoods(model, _padded(model, sequences))


def _check_model(model) -> None:
    if not isinstance(model, (CategoricalHmm, KrausModel)):
        raise InputError(f"unsupported model type {type(model).__name__}")


def _padded(model, sequences):
    """The ``(padded, lengths, order)`` rows of :func:`hmm._pad` for a list of
    sequences or a dataset's columns, checked against the model's alphabet."""
    _check_model(model)
    if isinstance(sequences, ScenarioDataset):
        return _pad(sequences.symbols, sequences.lengths, model.alphabet_size)
    return _pad(*_flatten(sequences), model.alphabet_size)


def _row_log_likelihoods(model, rows) -> np.ndarray:
    """Log-probabilities of padded rows ``(padded, lengths, order)``, in input order."""
    padded, lengths, order = rows
    scores = np.empty(len(lengths))
    if isinstance(model, CategoricalHmm):
        for block, block_scores, *_ in _trellis_blocks(model, padded, lengths):
            scores[order[block]] = block_scores
    else:
        scores[order] = _propagate(model.operators, model.initial_state.matrix,
                                   padded, lengths)
    return scores


def _scores(model, rows):
    """Lengths, log-probabilities and description accuracies of padded rows,
    in input order."""
    _, row_lengths, order = rows
    lengths = np.empty_like(row_lengths)
    lengths[order] = row_lengths
    log_probs = _row_log_likelihoods(model, rows)
    return lengths, log_probs, da_scores(log_probs, lengths, model.alphabet_size)


def average_da(model, dataset) -> float:
    """Mean per-sequence description accuracy (sentinel -1 terms included).

    ``dataset`` is a list of sequences or a :class:`ScenarioDataset`.
    """
    return float(np.mean(_scores(model, _padded(model, dataset))[2]))


def write_da_report(path, model, dataset) -> float:
    """Write the per-sequence CSV (sequence_id,length,log_prob,da); returns the mean.

    ``dataset`` is a list of sequences or a :class:`ScenarioDataset`.
    """
    lengths, log_probs, scores = _scores(model, _padded(model, dataset))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sequence_id", "length", "log_prob", "da"])
        writer.writerows(zip(range(len(scores)), lengths.tolist(),
                             map(repr, log_probs.tolist()), map(repr, scores.tolist())))
    return float(np.mean(scores))
