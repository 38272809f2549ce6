#!/usr/bin/env python3
"""Learning Kraus operators by manifold-constrained gradient descent."""

import numpy as np

from scengen import (DensityMatrix, KrausModel, TrainConfig, cayley_step,
                     nll_gradient, nll_loss, orthonormality_residual,
                     qhmm_samples, random_stiefel, train_qhmm, validate_kraus)

# --- the pieces -----------------------------------------------------------
# The M*mu operators live stacked in one tall matrix with orthonormal
# columns; a Cayley-style retraction keeps every update on that manifold.
kappa = random_stiefel(rows=2 * 1 * 3, cols=3, seed=0)
print("initial orthonormality residual:", kappa.residual())

pi0 = DensityMatrix.maximally_mixed(3)
batch = [(0, 1, 1, 0), (1, 0, 0), (0, 0, 1)]
loss = nll_loss(kappa, batch, pi0, alphabet_size=2, multiplicity=1)
grad = nll_gradient(kappa, batch, pi0, alphabet_size=2, multiplicity=1)
print("batch loss:", loss)

# The analytic gradient matches central finite differences to ~1e-9,
# which pins down the complex-derivative convention: entry (i, j) of the
# gradient is half of d/dRe + 1j * d/dIm of the loss.
step = 1e-6
fd = np.zeros_like(grad)
for i, j in np.ndindex(*fd.shape):
    parts = []
    for unit in (1.0, 1j):
        probe = np.zeros_like(kappa.matrix)
        probe[i, j] = step * unit
        parts.append((nll_loss(kappa.matrix + probe, batch, pi0, 2, 1)
                      - nll_loss(kappa.matrix - probe, batch, pi0, 2, 1)) / (2.0 * step))
    fd[i, j] = 0.5 * (parts[0] + 1j * parts[1])
print("gradient vs finite differences:", np.max(np.abs(grad - fd)))

stepped = cayley_step(kappa, grad, tau=0.1)
print("after one step: residual", stepped.residual(),
      "loss", nll_loss(stepped, batch, pi0, 2, 1))

# --- a full training run --------------------------------------------------
# Ground truth: a random complete model; the learner sees only its samples.
truth = KrausModel.from_stiefel(random_stiefel(2 * 1 * 2, 2, 3).matrix,
                                alphabet_size=2, multiplicity=1,
                                initial_state=DensityMatrix.maximally_mixed(2))
rng = np.random.default_rng(4)
dataset = qhmm_samples(truth, 8, 30, rng).tolist()

config = TrainConfig(dim=2, learning_rate=0.05, decay=0.95, num_batches=5,
                     epochs=50, multiplicity=1, seed=0)
model, records = train_qhmm(dataset, config, alphabet_size=2)

# per-batch losses are noisy on mini-batches; epoch means show the trend
epoch_mean = {}
for rec in records:
    epoch_mean.setdefault(rec.epoch, []).append(rec.loss)
trace = [float(np.mean(epoch_mean[e])) for e in sorted(epoch_mean)]
print("\nepoch-mean loss (every 5th epoch):", np.round(trace[::5], 3))
print("final model completeness residual:",
      validate_kraus(model).completeness_residual)
print("final stacked-matrix residual:",
      orthonormality_residual(model.to_stiefel()))
