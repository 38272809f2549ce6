"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately written from first principles (explicit
path enumeration, breadth-first search, central differences, one sequence
at a time) and stays independent of the library's recursions.
"""

import itertools
from collections import deque

import numpy as np


def all_sequences(alphabet_size, length):
    """Every symbol sequence of exactly this length."""
    return itertools.product(range(alphabet_size), repeat=length)


def path_sum_probability(model, sequence):
    """P(sequence) as the explicit sum over all hidden state paths.

    Uses the convention pinned by the backward termination identity
    P(X) = sum_l start[l] * emission[l, x1] * b_l(1): the chain emits from
    the state it starts in, then alternates transition and emission.
    """
    seq = list(sequence)
    k = model.num_states
    total = 0.0
    for path in itertools.product(range(k), repeat=len(seq)):
        term = model.start[path[0]] * model.emission[path[0], seq[0]]
        for t in range(1, len(seq)):
            term *= model.transition[path[t - 1], path[t]] * model.emission[path[t], seq[t]]
        total += term
    return total


def posterior_by_enumeration(model, sequence, position):
    """P(Q_position = k | sequence) by enumerating all hidden paths (1-based)."""
    seq = list(sequence)
    k = model.num_states
    mass = np.zeros(k)
    for path in itertools.product(range(k), repeat=len(seq)):
        term = model.start[path[0]] * model.emission[path[0], seq[0]]
        for t in range(1, len(seq)):
            term *= model.transition[path[t - 1], path[t]] * model.emission[path[t], seq[t]]
        mass[path[position - 1]] += term
    return mass / mass.sum()


def _sequence_trellis(model, seq):
    """Scaled forward/backward trellis of one sequence, one position at a time.

    Returns ``(log_likelihood, forward, scaling, backward)``; the log-likelihood
    is -inf when the model cannot produce the sequence.
    """
    length, k = len(seq), model.num_states
    forward = np.zeros((length, k))
    scaling = np.zeros(length)
    vec = model.start * model.emission[:, seq[0]]
    for t in range(length):
        if t > 0:
            vec = (forward[t - 1] @ model.transition) * model.emission[:, seq[t]]
        total = vec.sum()
        scaling[t] = total
        if total <= 0.0:
            return float("-inf"), forward, scaling, np.zeros((length, k))
        forward[t] = vec / total
    backward = np.zeros((length, k))
    backward[length - 1] = 1.0
    for t in range(length - 2, -1, -1):
        backward[t] = (
            model.transition @ (model.emission[:, seq[t + 1]] * backward[t + 1])
        ) / scaling[t + 1]
    return float(np.log(scaling).sum()), forward, scaling, backward


def baum_welch_reference(dataset, num_states, alphabet_size, max_iters=100,
                         tol=1e-6, seed=0):
    """Baum-Welch with the E-step accumulated one sequence and one position at a time.

    Same initialization, stopping rule and M-step as
    :func:`scengen.baum_welch_fit`; returns ``(model, history)``.
    """
    from scengen import CategoricalHmm, TrainingError
    from scengen.hmm import _rows_or_uniform

    seqs = [np.asarray(s, dtype=np.int64) for s in dataset]
    rng = np.random.default_rng(seed)
    k, m = num_states, alphabet_size
    model = CategoricalHmm(
        rng.dirichlet(np.ones(k), size=k),
        rng.dirichlet(np.ones(m), size=k),
        rng.dirichlet(np.ones(k)),
    )
    history = []
    for _ in range(max_iters):
        start_acc = np.zeros(k)
        trans_acc = np.zeros((k, k))
        emit_acc = np.zeros((k, m))
        total_ll = 0.0
        for seq in seqs:
            log_likelihood, forward, scaling, backward = _sequence_trellis(model, seq)
            if not np.isfinite(log_likelihood):
                raise TrainingError("a training sequence has zero probability "
                                    "under the current parameters")
            total_ll += log_likelihood
            gamma = forward * backward
            start_acc += gamma[0]
            for t in range(len(seq) - 1):
                trans_acc += (
                    forward[t][:, None] * model.transition
                    * (model.emission[:, seq[t + 1]] * backward[t + 1])[None, :]
                ) / scaling[t + 1]
            np.add.at(emit_acc.T, seq, gamma)
        history.append(float(total_ll))
        if len(history) > 1 and history[-1] - history[-2] < tol:
            break
        model = CategoricalHmm(
            _rows_or_uniform(trans_acc),
            _rows_or_uniform(emit_acc),
            _rows_or_uniform(start_acc[None, :])[0],
        )
    return model, history


def baum_welch_blockwise_reference(dataset, num_states, alphabet_size, max_iters=100,
                                   tol=1e-6, seed=0):
    """Baum-Welch that adds each trellis row block's counts in turn.

    The E-step runs the package's recursion (``hmm._row_trellis``) with one
    model over the row blocks of ``hmm._row_blocks`` and adds each block's
    expected counts the way a one-run fit orders its additions: start and
    transition counts one block sum at a time, emission counts step by step
    and row by row through ``np.add.at``. So it gives
    :func:`scengen.baum_welch_fit` bit for bit, whatever the fit does to
    batch its sums; returns ``(model, history)``.
    """
    from scengen import CategoricalHmm, TrainingError
    from scengen.hmm import (_TRELLIS_BUDGET, _flatten, _pad, _row_blocks, _row_trellis,
                             _rows_or_uniform)

    padded, lengths, _ = _pad(*_flatten(dataset), alphabet_size)
    rng = np.random.default_rng(seed)
    k, m = num_states, alphabet_size
    model = CategoricalHmm(
        rng.dirichlet(np.ones(k), size=k),
        rng.dirichlet(np.ones(m), size=k),
        rng.dirichlet(np.ones(k)),
    )
    history = []
    for _ in range(max_iters):
        start_acc = np.zeros(k)
        trans_acc = np.zeros((k, k))
        emit_acc = np.zeros((k, m))
        total_ll = 0.0
        for rows in _row_blocks(len(lengths), k, _TRELLIS_BUDGET):
            symbols = padded[rows, :lengths[rows.start]]
            log_probs, forward, scaling, backward = _row_trellis(
                model.transition[None], model.emission.T[symbols.T], model.start[None],
                lengths[rows], backward=True)
            if log_probs.min() == -np.inf:
                raise TrainingError("a training sequence has zero probability "
                                    "under the current parameters")
            total_ll += log_probs.sum()
            gamma = forward * backward  # (steps, rows, K)
            start_acc += gamma[0].sum(axis=0)
            np.add.at(emit_acc.T, symbols.T, gamma)
            arriving = (model.emission.T[symbols.T[1:]] * backward[1:]
                        / scaling[1:, :, None])
            trans_acc += np.einsum("tnk,tnl->kl", forward[:-1], arriving)
        history.append(float(total_ll))
        if len(history) > 1 and history[-1] - history[-2] < tol:
            break
        model = CategoricalHmm(
            _rows_or_uniform(trans_acc * model.transition),
            _rows_or_uniform(emit_acc),
            _rows_or_uniform(start_acc[None, :])[0],
        )
    return model, history


def kraus_path_probability(model, sequence):
    """P(sequence) by enumerating every Kraus-index path.

    Expands the nested operator applications into mu^L explicit terms
    tr(B rho0 B^dagger) with B the ordered operator product, so it shares
    no code with the sequential belief propagation.
    """
    seq = list(sequence)
    mu = model.multiplicity
    rho0 = model.initial_state.matrix
    total = 0.0
    for choice in itertools.product(range(mu), repeat=len(seq)):
        product = np.eye(model.dim, dtype=complex)
        for x, m in zip(seq, choice):
            product = model.operators[x, m] @ product
        total += float((product @ rho0 @ product.conj().T).trace().real)
    return total


def bfs_scenarios(system, initial_state=0, max_len=4):
    """Breadth-first enumeration of severe-terminated walks.

    Returns a list of (steps, probability) pairs; walks end the first time
    they enter a severe state and are never extended past one.
    """
    severe_masks = system.severe_masks
    results = []
    queue = deque([(initial_state, (), 1.0)])
    while queue:
        state, steps, prob = queue.popleft()
        if len(steps) >= max_len:
            continue
        for idx, event in enumerate(system.events):
            down = bool(state >> idx & 1)
            action = "repair" if down else "fail"
            next_prob = prob * (event.p_repair if down else event.p_down)
            next_state = state ^ (1 << idx)
            next_steps = steps + ((idx, action),)
            if any((next_state & mask) == mask for mask in severe_masks):
                results.append((next_steps, next_prob))
            else:
                queue.append((next_state, next_steps, next_prob))
    return results


def central_difference_gradient(loss, kappa, step=1e-6):
    """Wirtinger-convention gradient of a real loss by central differences.

    For each entry, differentiates along the real and imaginary axes and
    combines them as 0.5 * (d/dRe + 1j * d/dIm).
    """
    kappa = np.asarray(kappa, dtype=complex)
    grad = np.zeros_like(kappa)
    for i in range(kappa.shape[0]):
        for j in range(kappa.shape[1]):
            parts = []
            for unit in (1.0, 1j):
                plus = kappa.copy()
                plus[i, j] += step * unit
                minus = kappa.copy()
                minus[i, j] -= step * unit
                parts.append((loss(plus) - loss(minus)) / (2.0 * step))
            grad[i, j] = 0.5 * (parts[0] + 1j * parts[1])
    return grad


def random_hmm(rng, num_states, alphabet_size):
    """Random stochastic parameters via flat Dirichlet rows."""
    from scengen import CategoricalHmm

    return CategoricalHmm(
        rng.dirichlet(np.ones(num_states), size=num_states),
        rng.dirichlet(np.ones(alphabet_size), size=num_states),
        rng.dirichlet(np.ones(num_states)),
    )


def random_kraus_model(rng, dim, alphabet_size, multiplicity=1):
    """Random complete Kraus model from an orthonormalized Gaussian stack."""
    from scengen import DensityMatrix, KrausModel

    rows = alphabet_size * multiplicity * dim
    z = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    q, _ = np.linalg.qr(z)
    return KrausModel.from_stiefel(q, alphabet_size, multiplicity,
                                   DensityMatrix.maximally_mixed(dim))


def distinct_prefixes_per_block(sequences, rows_per_block):
    """Per lexicographic row block, and per depth within it, the number of
    distinct prefixes of that length: the rows a filter step must compute."""
    ordered = sorted(map(tuple, sequences))
    counts = []
    for start in range(0, len(ordered), rows_per_block):
        block = ordered[start:start + rows_per_block]
        counts += [len({seq[:depth] for seq in block if len(seq) >= depth})
                   for depth in range(1, max(map(len, block)) + 1)]
    return counts


def pad_reference(sequences, alphabet_size):
    """Validated sequences as zero-padded rows, longest first, built one
    sequence at a time: ``(padded, lengths, order)``, where row i holds input
    sequence ``order[i]``."""
    from scengen import InputError

    seqs = []
    for sequence in sequences:
        seq = np.asarray(sequence)
        if seq.ndim != 1 or seq.size == 0:
            raise InputError("sequence must be a nonempty 1-D list of symbol indices")
        if seq.dtype.kind not in "iu" and not np.all(np.mod(seq, 1) == 0):
            raise InputError("symbols must be integers")
        seq = seq.astype(np.int64)
        if seq.min() < 0 or seq.max() >= alphabet_size:
            raise InputError(f"symbol out of range for alphabet of size {alphabet_size}")
        seqs.append(seq)
    if not seqs:
        raise InputError("need at least one sequence")
    lengths = np.array([s.size for s in seqs])
    order = np.argsort(-lengths, kind="stable")
    padded = np.zeros((len(seqs), lengths[order[0]]), dtype=np.int64)
    for row, i in enumerate(order):
        padded[row, :lengths[i]] = seqs[i]
    return padded, lengths[order], order


def da_score_reference(log_prob, length, alphabet_size):
    """Description accuracy of one sequence, computed one scalar at a time:
    ``f(1 + log_s P / L)`` with f the identity above 0 and ``math.tanh(x /
    8)`` below, and the -1 sentinel for ``-inf``; the same checks and
    messages as :func:`scengen.da_score`."""
    import math

    from scengen import InputError, da_nonlinearity
    from scengen.metrics import _LOGPROB_SLACK

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


def cayley_step_reference(kappa, gradient, tau):
    """One Cayley step on one point, as the library computed it before its
    steps were stacked: ``kappa - tau * U (I + (tau/2) V^dagger U)^-1
    V^dagger kappa`` with U = [G | kappa], V = [kappa | -G], one 2-D solve
    and one Gram residual. Returns the :class:`scengen.StiefelPoint` or the
    :class:`scengen.StepFailureError` that the step earns; a tau of 0
    returns kappa.
    """
    from scengen import InputError, StepFailureError, StiefelPoint
    from scengen.qhmm import COMPLETENESS_TOL, orthonormality_residual

    arr = kappa.matrix if isinstance(kappa, StiefelPoint) else np.asarray(kappa, dtype=complex)
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
    except np.linalg.LinAlgError:
        return StepFailureError("inner solve is singular")
    new = arr - tau * (u @ y)
    if not np.all(np.isfinite(new)):
        return StepFailureError("step produced non-finite entries")
    residual = orthonormality_residual(new)
    if residual > COMPLETENESS_TOL:
        return StepFailureError(f"columns are not orthonormal (residual {residual:.3e})")
    return StiefelPoint(new)


def adjoint_reference(ops, blocks):
    """Gradient w.r.t. conj(ops) of the negated log-probability sum of
    padded rows, from the history :func:`scengen.qhmm._filter` keeps while
    filtering them: ``blocks`` yields one ``(padded, history)`` pair per row
    block.

    The four-product adjoint: each position adds S A_x rho to the gradient,
    S the dual over the step probability, and passes back the dual
    sum_l A_{x,l}^dagger S A_{x,l}, formed as the Kraus update of S by the
    adjoint operators, (A^dagger S) A.
    """
    from scengen.qhmm import _kraus_step

    m, _, k, _ = ops.shape
    adjoint_ops = ops.conj().swapaxes(2, 3)
    grad = np.zeros((m, ops[0].size), dtype=complex)
    for block, history in blocks:
        dual = np.repeat(np.eye(k, dtype=complex)[None], len(block), axis=0)
        for t in range(len(history) - 1, -1, -1):
            rho, probs = history[t]
            n = len(probs)
            x = block[:n, t]
            scaled = dual[:n] / probs[:, None, None]
            terms = scaled[:, None] @ ops[x] @ rho[:, None]
            grad -= (x == np.arange(m)[:, None]) @ terms.reshape(n, -1)
            if t:
                dual[:n] = _kraus_step(adjoint_ops, scaled, x)[0]
    return grad.reshape(ops.shape)


def train_qhmm_reference(dataset, config, alphabet_size):
    """QHMM training one seed at a time, one mini-batch step after another.

    A serial loop over the same kernels, initialization, batching, halving
    rule and error messages as :func:`scengen.train_qhmm`, with every loss,
    gradient and candidate check computed on this seed's rows alone. A
    step's candidate passes when every row of the next mini-batch (at the
    last step, the step's own) has a nonzero probability under it, and
    that pass gives the next step its loss and gradient. Returns
    ``(model, records)`` or raises :class:`scengen.TrainingError`.
    """
    import math

    from scengen import (DensityMatrix, KrausModel, StepFailureError,
                         StiefelPoint, TrainingError, TrainRecord, trainer)
    from scengen.qhmm import _loss_and_gradient
    from scengen.trainer import _draw_stiefel

    # looked up in the module, as the library does, so tests can patch them
    cayley_step, max_halvings = trainer.cayley_step, trainer.MAX_STEP_HALVINGS

    padded, lengths, order = pad_reference(dataset, alphabet_size)
    row_of = np.argsort(order)
    k, mu = config.dim, config.multiplicity
    shape = (alphabet_size, mu, k, k)
    initial_state = DensityMatrix.maximally_mixed(k)
    rho0 = initial_state.matrix

    rng = np.random.default_rng(config.seed)
    kappa = StiefelPoint(_draw_stiefel(rng, alphabet_size * mu * k, k))
    # the permutations are the only draws after the initialization
    schedule, tau = [], config.learning_rate
    for epoch in range(config.epochs):
        chunks = np.array_split(rng.permutation(len(lengths)), config.num_batches)
        schedule += [(epoch, index, tau, np.sort(row_of[chunk]))
                     for index, chunk in enumerate(chunks) if chunk.size]
        tau *= config.decay

    def loss_and_gradient(point, rows):
        ((log_probs, grad),) = _loss_and_gradient(
            [(point.matrix.reshape(shape), padded[rows], lengths[rows])], rho0)
        return float(-log_probs.sum() / len(rows)), grad.reshape(point.matrix.shape) / len(rows)

    records = []
    if schedule:
        epoch, index, _, rows = schedule[0]
        loss, grad = loss_and_gradient(kappa, rows)
        if not math.isfinite(loss):
            raise TrainingError(f"batch loss is not finite at epoch {epoch} batch {index}")
    for i, (epoch, index, tau, rows) in enumerate(schedule):
        next_rows = schedule[min(i + 1, len(schedule) - 1)][3]
        step_tau = tau
        for _ in range(1 + max_halvings):
            try:
                candidate = cayley_step(kappa, grad, step_tau)
            except StepFailureError:
                step_tau /= 2.0
                continue
            next_loss, next_grad = loss_and_gradient(candidate, next_rows)
            if math.isfinite(next_loss):
                break
            step_tau /= 2.0
        else:
            raise TrainingError(
                f"step failed after {max_halvings} halvings at "
                f"epoch {epoch} batch {index} (loss {loss:.6g}, tau {tau:.3g})")
        records.append(TrainRecord(epoch, index, loss, step_tau))
        kappa, loss, grad = candidate, next_loss, next_grad
    model = KrausModel.from_stiefel(kappa.matrix, alphabet_size, mu, initial_state)
    return model, records


def qhmm_sample_reference(model, length, rng_seed, *, prefix=()):
    """One QHMM sample drawn step by step with ``Generator.choice``.

    The per-sample loop :func:`scengen.qhmm_sample` ran before samples were
    drawn as rows: the same kernels, checks and error messages, and one
    uniform per drawn symbol.
    """
    from scengen import InputError
    from scengen.hmm import _as_symbols
    from scengen.qhmm import (COMPLETENESS_TOL, UNDERFLOW_PROB, _kraus_step,
                              _renormalize)

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


def hmm_sample_reference(model, length, rng_seed, *, prefix=()):
    """One HMM sample drawn state by state with ``Generator.choice``.

    The per-sample loop :func:`scengen.hmm_sample` ran before samples were
    drawn as rows: two uniforms per symbol, plus one for the first state
    after a prefix.
    """
    from scengen import InputError, hmm_forward

    if length < 1:
        raise InputError("length must be >= 1")
    rng = np.random.default_rng(rng_seed)
    k, m = model.num_states, model.alphabet_size
    symbols = []
    if len(prefix) > 0:
        res = hmm_forward(model, prefix)
        if not np.isfinite(res.log_likelihood):
            raise InputError("prefix has zero probability under the model")
        weights = res.forward[-1]
        state = int(rng.choice(k, p=weights / weights.sum()))
    else:
        state = int(rng.choice(k, p=model.start / model.start.sum()))
        symbols.append(int(rng.choice(m, p=model.emission[state] / model.emission[state].sum())))
    while len(symbols) < length:
        row = model.transition[state]
        state = int(rng.choice(k, p=row / row.sum()))
        erow = model.emission[state]
        symbols.append(int(rng.choice(m, p=erow / erow.sum())))
    return symbols
