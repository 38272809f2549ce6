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
def capped_steps(monkeypatch):
    """Make ``cayley_step`` fail while tau * max|G| exceeds ``cap``, so seeds
    with larger gradients need more halvings; returns a setter for the cap
    and the number of halvings allowed."""
    real_step = trainer.cayley_step

    def configure(cap, max_halvings=trainer.MAX_STEP_HALVINGS):
        def capped(kappa, gradient, tau):
            if tau * np.abs(gradient).max() > cap:
                raise StepFailureError("step too long")
            return real_step(kappa, gradient, tau)
        monkeypatch.setattr(trainer, "cayley_step", capped)
        monkeypatch.setattr(trainer, "MAX_STEP_HALVINGS", max_halvings)

    return configure
