import numpy as np
import pytest

from scengen import (CategoricalHmm, StepFailureError, reference_three_event_system,
                     trainer)


@pytest.fixture
def ref_hmm():
    """Two-state reference model used throughout the numeric examples."""
    return CategoricalHmm(
        transition=[[0.7, 0.3], [0.4, 0.6]],
        emission=[[0.9, 0.1], [0.2, 0.8]],
        start=[0.6, 0.4],
    )


@pytest.fixture
def det_hmm():
    """Deterministic chain: starts in state 0, stays there, always emits 0."""
    return CategoricalHmm(
        transition=[[1.0, 0.0], [0.0, 1.0]],
        emission=[[1.0, 0.0], [0.0, 1.0]],
        start=[1.0, 0.0],
    )


@pytest.fixture
def absorbing_hmm():
    """State 0 is absorbing and never emits symbol 2, so "0 then 2" is impossible."""
    return CategoricalHmm(
        transition=[[1.0, 0.0], [0.4, 0.6]],
        emission=[[0.9, 0.1, 0.0], [0.0, 0.2, 0.8]],
        start=[0.5, 0.5],
    )


@pytest.fixture
def underflow_batch():
    """Mixed-length batch under ``absorbing_hmm`` where only row 1 is impossible,
    and only from its third symbol on."""
    return [(1, 1, 2), (1, 0, 2, 1), (2, 1, 0, 0, 1), (0, 0)]


@pytest.fixture
def single_state_hmm():
    return CategoricalHmm(transition=[[1.0]], emission=[[0.5, 0.5]], start=[1.0])


@pytest.fixture
def ref_system():
    return reference_three_event_system()


@pytest.fixture
def patch_steps(monkeypatch):
    """Replace ``trainer.cayley_step`` by one that applies ``rule`` to each
    step: in the one-point form, and to each entry of the list form.
    ``rule(kappa, gradient, tau)`` returns a point, raises StepFailureError,
    or returns None to leave the step to the real ``cayley_step``; a list
    call forwards its remaining entries as one list call."""
    real_step = trainer.cayley_step

    def entry(rule, kappa, gradient, tau):
        try:
            return rule(kappa, gradient, tau)
        except StepFailureError as exc:
            return exc

    def install(rule):
        def patched(kappa, gradient, tau):
            if not isinstance(tau, list):
                result = rule(kappa, gradient, tau)
                return real_step(kappa, gradient, tau) if result is None else result
            results = [entry(rule, *step) for step in zip(kappa, gradient, tau)]
            rest = [i for i, result in enumerate(results) if result is None]
            if rest:
                forwarded = real_step(*([arg[i] for i in rest]
                                        for arg in (kappa, gradient, tau)))
                for i, result in zip(rest, forwarded):
                    results[i] = result
            return results
        monkeypatch.setattr(trainer, "cayley_step", patched)

    return install


@pytest.fixture
def capped_steps(monkeypatch, patch_steps):
    """Make ``cayley_step`` fail while tau * max|G| exceeds ``cap``, so seeds
    with larger gradients need more halvings; returns a setter for the cap
    and the number of halvings allowed."""

    def configure(cap, max_halvings=trainer.MAX_STEP_HALVINGS):
        def capped(kappa, gradient, tau):
            if tau * np.abs(gradient).max() > cap:
                raise StepFailureError("step too long")
            return None
        patch_steps(capped)
        monkeypatch.setattr(trainer, "MAX_STEP_HALVINGS", max_halvings)

    return configure


@pytest.fixture
def emissions_without(monkeypatch):
    """Make ``np.random.default_rng(seed)`` draw Dirichlet rows over
    ``alphabet_size`` symbols that give ``symbol`` probability 0, as the
    initial emissions of an HMM fit, for one seed (every seed when None);
    returns the setter ``install(symbol, alphabet_size, seed=None)``."""
    real_rng = np.random.default_rng

    def install(symbol, alphabet_size, seed=None):
        class WithoutSymbol:
            def __init__(self, rng_seed=None):
                self._rng = real_rng(rng_seed)
                self._zero = seed is None or rng_seed == seed

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def dirichlet(self, alpha, size=None):
                draw = self._rng.dirichlet(alpha, size=size)
                if self._zero and len(alpha) == alphabet_size:
                    draw[..., symbol] = 0.0
                    draw /= draw.sum(axis=-1, keepdims=True)
                return draw

        monkeypatch.setattr(np.random, "default_rng", WithoutSymbol)

    return install
