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
from .hmm import CategoricalHmm, _pad, _trellis_blocks
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
    if length < 1:
        raise InputError("length must be >= 1")
    if alphabet_size < 2:
        raise InputError("alphabet_size must be >= 2")
    log_prob = float(log_prob)
    if math.isnan(log_prob):
        raise InputError("log_prob must not be NaN")
    if log_prob > _LOGPROB_SLACK:
        raise InputError("log-probability must be <= 0 (probabilities <= 1)")
    if log_prob == float("-inf"):
        return -1.0
    log_prob = min(log_prob, 0.0)
    return da_nonlinearity(1.0 + log_prob / (math.log(alphabet_size) * length))


def sequence_log_prob(model, sequence) -> float:
    """Natural-log sequence probability under either model kind."""
    return float(log_likelihoods(model, [sequence])[0])


def da_for_sequence(model, sequence) -> float:
    """Description accuracy of one sequence under a model."""
    return da_score(sequence_log_prob(model, sequence), len(sequence),
                    model.alphabet_size)


def log_likelihoods(model, sequences) -> np.ndarray:
    """Natural-log probability of each sequence under either model kind, in input order.

    The sequences are padded into rows, longest first, and scored by one
    batched call: the scaled forward pass of a categorical HMM, or the
    belief filter of a Kraus-operator model.
    """
    seqs = list(sequences)
    if not seqs:
        raise InputError("dataset must be nonempty")
    if not isinstance(model, (CategoricalHmm, KrausModel)):
        raise InputError(f"unsupported model type {type(model).__name__}")
    padded, lengths, order = _pad(seqs, model.alphabet_size)
    scores = np.empty(len(seqs))
    if isinstance(model, CategoricalHmm):
        for rows, block_scores, *_ in _trellis_blocks(model, padded, lengths):
            scores[order[rows]] = block_scores
    else:
        scores[order] = _propagate(model.operators, model.initial_state.matrix,
                                   padded, lengths)
    return scores


def _scores(model, seqs: list):
    """Log-probabilities and description accuracies of a list of sequences."""
    log_probs = log_likelihoods(model, seqs)
    return log_probs, [da_score(lp, len(s), model.alphabet_size)
                       for lp, s in zip(log_probs, seqs)]


def average_da(model, dataset) -> float:
    """Mean per-sequence description accuracy (sentinel -1 terms included)."""
    return float(np.mean(_scores(model, list(dataset))[1]))


def write_da_report(path, model, dataset) -> float:
    """Write the per-sequence CSV (sequence_id,length,log_prob,da); returns the mean."""
    seqs = list(dataset)
    log_probs, scores = _scores(model, seqs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sequence_id", "length", "log_prob", "da"])
        for i, (seq, log_prob, da) in enumerate(zip(seqs, log_probs, scores)):
            writer.writerow([i, len(seq), repr(float(log_prob)), repr(da)])
    return float(np.mean(scores))
