"""Component systems, severe states, and exhaustive failure-scenario datasets.

A system of n basic events has 2^n states, encoded as integer bitmasks
(bit i set = event i down). A failure scenario is a legal walk of fail and
repair steps that first reaches a severe state at its final step; its
probability is the product of the per-step failure/repair probabilities.
Scenarios encode to symbol sequences over an alphabet of size 2n
(fail of event i -> 2i, repair -> 2i+1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import (DatasetConstructionError, InputError, ResourceLimitError,
                     TransitionError)

FAIL = "fail"
REPAIR = "repair"
PROBABLE = "probable"
NO_PROBABLE = "no_probable"

MAX_EVENTS = 12
MAX_SCENARIO_LEN = 12
# walk steps one enumeration may explore before it gives up
MAX_WALK_STEPS = 1_000_000


@dataclass(frozen=True)
class BasicEvent:
    """An atomic component with failure and repair probabilities."""

    id: str
    p_down: float
    p_repair: float

    def __post_init__(self):
        for name, p in (("p_down", self.p_down), ("p_repair", self.p_repair)):
            if not 0.0 < p < 1.0:
                raise InputError(f"{name} of event {self.id!r} must lie in (0, 1)")


class SystemModel:
    """A named set of basic events plus the severe (system-broken) states.

    Each severe state is a subset of event ids that are simultaneously
    down; the system counts as broken in any state containing one of
    those subsets.
    """

    def __init__(self, name: str, events, severe_states):
        self.name = str(name)
        self.events = [e if isinstance(e, BasicEvent) else BasicEvent(**e) for e in events]
        if not self.events:
            raise InputError("a system needs at least one event")
        ids = [e.id for e in self.events]
        if len(set(ids)) != len(ids):
            raise InputError("event ids must be unique")
        self._index = {eid: i for i, eid in enumerate(ids)}
        sets: List[frozenset] = []
        masks: List[int] = []
        for subset in severe_states:
            subset = frozenset(subset)
            if not subset:
                raise InputError("severe states must not be empty")
            unknown = subset - set(ids)
            if unknown:
                raise InputError(f"severe state references unknown events {sorted(unknown)}")
            sets.append(subset)
            masks.append(sum(1 << self._index[eid] for eid in subset))
        self.severe_states = sets
        self.severe_masks = tuple(masks)

    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def alphabet_size(self) -> int:
        return 2 * len(self.events)

    def event_index(self, event_id: str) -> int:
        try:
            return self._index[event_id]
        except KeyError:
            raise InputError(f"unknown event id {event_id!r}") from None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "events": [{"id": e.id, "p_down": e.p_down, "p_repair": e.p_repair}
                       for e in self.events],
            "severe_states": [sorted(s) for s in self.severe_states],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SystemModel":
        try:
            return cls(payload["name"], payload["events"], payload["severe_states"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed system payload: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SystemModel":
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(payload)


def apply_event(state: int, event_index: int, action: str) -> int:
    """Toggle one event: failing requires it up, repairing requires it down."""
    if event_index < 0:
        raise InputError("event index must be nonnegative")
    bit = 1 << event_index
    down = bool(state & bit)
    if action == FAIL:
        if down:
            raise TransitionError(f"cannot fail event {event_index}: already down")
    elif action == REPAIR:
        if not down:
            raise TransitionError(f"cannot repair event {event_index}: not down")
    else:
        raise InputError(f"unknown action {action!r}")
    return state ^ bit


def is_severe(state: int, system: SystemModel) -> bool:
    """True when some severe subset is entirely down in this state."""
    return any((state & mask) == mask for mask in system.severe_masks)


@dataclass(frozen=True)
class Scenario:
    """A legal fail/repair walk whose final step first reaches a severe state."""

    steps: Tuple[Tuple[int, str], ...]
    probability: float
    label: str


def _as_steps(scenario) -> Tuple[Tuple[int, str], ...]:
    steps = scenario.steps if isinstance(scenario, Scenario) else scenario
    out = []
    for step in steps:
        idx, action = step
        out.append((int(idx), action))
    return tuple(out)


def scenario_probability(system: SystemModel, scenario) -> float:
    """Product of the step probabilities along a legal walk from the all-up state."""
    steps = _as_steps(scenario)
    if not steps:
        raise InputError("a scenario must contain at least one step")
    state = 0
    prob = 1.0
    for idx, action in steps:
        if idx >= system.num_events:
            raise InputError(f"event index {idx} outside system of size {system.num_events}")
        state = apply_event(state, idx, action)
        event = system.events[idx]
        prob *= event.p_down if action == FAIL else event.p_repair
    return prob


def encode_scenario(system: SystemModel, scenario) -> List[int]:
    """Map steps to symbols: fail of event i -> 2i, repair of event i -> 2i+1."""
    symbols = []
    for idx, action in _as_steps(scenario):
        if not 0 <= idx < system.num_events:
            raise InputError(f"event index {idx} outside system of size {system.num_events}")
        if action not in (FAIL, REPAIR):
            raise InputError(f"unknown action {action!r}")
        symbols.append(2 * idx + (0 if action == FAIL else 1))
    return symbols


def decode_scenario(system: SystemModel, symbols,
                    initial_state: int = 0) -> List[Tuple[int, str]]:
    """Invert :func:`encode_scenario`, checking that the walk is legal."""
    steps = []
    state = initial_state
    for symbol in symbols:
        s = int(symbol)
        if not 0 <= s < system.alphabet_size:
            raise InputError(f"symbol {s} outside alphabet of size {system.alphabet_size}")
        idx, parity = divmod(s, 2)
        action = FAIL if parity == 0 else REPAIR
        state = apply_event(state, idx, action)
        steps.append((idx, action))
    return steps


def enumerate_scenarios(system: SystemModel, max_len: int = 4, p_min: float = 1e-3):
    """Exhaustively search the state graph for severe-terminated walks from all-up.

    Walks stop the first time they enter a severe state, so no proper
    prefix of a returned scenario is severe. Scenarios with probability
    strictly greater than ``p_min`` are labeled probable, the rest
    no_probable; both lists are sorted by descending probability with ties
    broken by the encoded symbols, so the order is deterministic.

    The search is exponential in ``max_len``; systems of more than
    ``MAX_EVENTS`` events, ``max_len`` above ``MAX_SCENARIO_LEN``, and a
    search that explores more than ``MAX_WALK_STEPS`` walk steps are
    rejected with a :class:`ResourceLimitError`.
    """
    n = system.num_events
    if n > MAX_EVENTS:
        raise ResourceLimitError(f"system has {n} events; bound is {MAX_EVENTS}")
    if max_len > MAX_SCENARIO_LEN:
        raise ResourceLimitError(f"max_len {max_len} exceeds bound {MAX_SCENARIO_LEN}")
    if max_len < 1:
        raise InputError("max_len must be >= 1")

    found: List[Tuple[Tuple[Tuple[int, str], ...], float]] = []
    walk_steps = 0

    def explore(state: int, depth: int, prob: float, steps) -> None:
        nonlocal walk_steps
        if depth == max_len:
            return
        walk_steps += n
        if walk_steps > MAX_WALK_STEPS:
            raise ResourceLimitError(f"enumeration explored more than {MAX_WALK_STEPS} "
                                     f"walk steps; lower max_len")
        for idx in range(n):
            down = bool(state >> idx & 1)
            action = REPAIR if down else FAIL
            event = system.events[idx]
            next_prob = prob * (event.p_repair if down else event.p_down)
            next_state = state ^ (1 << idx)
            next_steps = steps + ((idx, action),)
            if is_severe(next_state, system):
                found.append((next_steps, next_prob))
            else:
                explore(next_state, depth + 1, next_prob, next_steps)

    explore(0, 0, 1.0, ())

    probable: List[Scenario] = []
    no_probable: List[Scenario] = []
    for steps, prob in found:
        if prob > p_min:
            probable.append(Scenario(steps, prob, PROBABLE))
        else:
            no_probable.append(Scenario(steps, prob, NO_PROBABLE))
    key = lambda s: (-s.probability, tuple(encode_scenario(system, s)))
    probable.sort(key=key)
    no_probable.sort(key=key)
    return probable, no_probable


@dataclass(frozen=True)
class ScenarioRecord:
    """One encoded scenario: symbols plus label, exact probability, and split."""

    sequence: Tuple[int, ...]
    label: Optional[str] = None
    prob: Optional[float] = None
    split: Optional[str] = None


@dataclass
class ScenarioDataset:
    """Encoded scenario sequences with labels, probabilities, and a split."""

    alphabet_size: int
    records: List[ScenarioRecord]

    def sequences(self, split: Optional[str] = None) -> List[Tuple[int, ...]]:
        return [r.sequence for r in self.records if split is None or r.split == split]

    def labeled(self, split: Optional[str] = None):
        return [(r.sequence, r.label) for r in self.records
                if split is None or r.split == split]


def save_dataset(dataset: ScenarioDataset, path) -> None:
    """One JSON object per line: {"sequence", "label", "prob", "split"}."""
    with open(path, "w") as fh:
        for rec in dataset.records:
            payload = {"sequence": list(rec.sequence), "label": rec.label,
                       "prob": rec.prob, "split": rec.split}
            fh.write(json.dumps(payload) + "\n")


def load_dataset(path, alphabet_size: Optional[int] = None) -> ScenarioDataset:
    """Read a JSONL dataset; tolerant of records carrying only a sequence.

    When ``alphabet_size`` is omitted it is inferred as the smallest even
    bound on the observed symbols (symbols come in fail/repair pairs).
    """
    records = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                seq = tuple(int(x) for x in payload["sequence"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise InputError(f"{path}:{line_no}: malformed record: {exc}") from exc
            records.append(ScenarioRecord(seq, payload.get("label"),
                                          payload.get("prob"), payload.get("split")))
    if not records:
        raise InputError(f"{path}: dataset is empty")
    if alphabet_size is None:
        top = max((max(r.sequence) for r in records if r.sequence), default=-1)
        alphabet_size = top + 1 + (top + 1) % 2
    for rec in records:
        if any(s >= alphabet_size or s < 0 for s in rec.sequence):
            raise InputError(f"{path}: symbol outside alphabet of size {alphabet_size}")
    return ScenarioDataset(alphabet_size, records)


def build_datasets(system: SystemModel, *, max_len: int = 4, p_min: float = 1e-3,
                   test_fraction: float = 0.25, seed: int = 0, out_dir=None):
    """Enumerate, encode, and split the two scenario classes.

    ``round(test_fraction * class size)`` records per class go to the test
    split, chosen by a seeded shuffle; record order stays the enumeration
    order. With ``out_dir`` set, ``probable.jsonl`` and
    ``no_probable.jsonl`` are written there.

    Returns
    -------
    (probable, no_probable) : pair of ScenarioDataset
    """
    if not 0.0 < test_fraction < 1.0:
        raise InputError("test_fraction must lie in (0, 1)")
    probable, no_probable = enumerate_scenarios(system, max_len=max_len, p_min=p_min)
    if not probable or not no_probable:
        raise DatasetConstructionError(
            f"enumeration produced {len(probable)} probable and "
            f"{len(no_probable)} no_probable scenarios; adjust max_len or "
            "p_min so both classes are populated")
    rng = np.random.default_rng(seed)
    datasets = []
    for scenarios in (probable, no_probable):
        n_test = int(round(test_fraction * len(scenarios)))
        test_indices = set(rng.permutation(len(scenarios))[:n_test].tolist())
        records = [
            ScenarioRecord(tuple(encode_scenario(system, sc)), sc.label,
                           sc.probability, "test" if i in test_indices else "train")
            for i, sc in enumerate(scenarios)
        ]
        datasets.append(ScenarioDataset(system.alphabet_size, records))
    if out_dir is not None:
        from pathlib import Path
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_dataset(datasets[0], out / "probable.jsonl")
        save_dataset(datasets[1], out / "no_probable.jsonl")
    return datasets[0], datasets[1]


def reference_three_event_system() -> SystemModel:
    """Three components, one two-event severe state; the desk-scale example."""
    return SystemModel(
        "three-event-reference",
        [BasicEvent("A", 0.1, 0.3), BasicEvent("B", 0.2, 0.4),
         BasicEvent("C", 0.05, 0.5)],
        [("A", "B")],
    )


def reference_four_event_system() -> SystemModel:
    """Four components with two alternative severe states."""
    return SystemModel(
        "four-event-reference",
        [BasicEvent("A", 0.08, 0.4), BasicEvent("B", 0.15, 0.35),
         BasicEvent("C", 0.06, 0.5), BasicEvent("D", 0.12, 0.45)],
        [("A", "B"), ("C", "D")],
    )
