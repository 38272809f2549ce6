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
import math
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import eq, itemgetter
from typing import List, Optional, Tuple

import numpy as np

from .errors import (DatasetConstructionError, InputError, ResourceLimitError,
                     TransitionError)
from .hmm import _flatten

FAIL = "fail"
REPAIR = "repair"
PROBABLE = "probable"
NO_PROBABLE = "no_probable"

MAX_EVENTS = 12
MAX_SCENARIO_LEN = 12
# walk steps one enumeration may explore before it gives up
MAX_WALK_STEPS = 1_000_000
# symbols of a dataset whose alphabet is inferred must fit in int64
_INT64_BOUND = 2 ** 63
# lines load_dataset decodes at a time: only one chunk's decoded records
# are alive at once, so their transient memory does not grow with the file
_DECODE_LINES = 1024


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
        for subset in [severe_states] if isinstance(severe_states, str) else severe_states:
            if isinstance(subset, str):  # frozenset would split it into characters
                raise InputError("severe_states must be a list of lists of event ids, "
                                 f"not {subset!r}")
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


def legal_walks(system: SystemModel, symbols, initial_state: int = 0) -> np.ndarray:
    """Whether each row of a ``(rows, length)`` symbol array is a legal walk
    from ``initial_state``, that is, whether :func:`decode_scenario` decodes
    it: the rows' states advance together, one position at a time. Symbols
    outside the alphabet raise InputError, as they do there."""
    symbols = np.asarray(symbols, dtype=np.int64)
    if symbols.size and not 0 <= symbols.min() <= symbols.max() < system.alphabet_size:
        bad = symbols.flat[np.argmax((symbols < 0) | (symbols >= system.alphabet_size))]
        raise InputError(f"symbol {bad} outside alphabet of size {system.alphabet_size}")
    state = np.full(len(symbols), initial_state, dtype=np.int64)
    legal = np.ones(len(symbols), dtype=bool)
    for column in symbols.T:
        bit = 1 << (column >> 1)
        # failing an event requires it up, repairing it requires it down
        legal &= ((state & bit) != 0) == ((column & 1) == 1)
        state ^= bit
    return legal


def is_severe(state: int, system: SystemModel) -> bool:
    """True when some severe subset is entirely down in this state."""
    return any((state & mask) == mask for mask in system.severe_masks)


@dataclass(frozen=True)
class Scenario:
    """A legal fail/repair walk whose final step first reaches a severe state,
    with its steps encoded as :func:`encode_scenario` encodes them."""

    steps: Tuple[Tuple[int, str], ...]
    probability: float
    label: str
    symbols: Tuple[int, ...]


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


def _scenario_columns(system: SystemModel, max_len: int):
    """Every scenario of up to ``max_len`` steps, by column and sorted by
    (-probability, symbols): ``(symbols, lengths, probs, walk_steps)``, with
    every scenario's symbols in one int64 array.

    The search expands its whole frontier one depth at a time, with one
    gather from each table over the 2^n states (per event: the next state,
    the step probability, the symbol and whether the next state is severe).
    A node carries its state, its probability (the left-to-right product of
    its steps) and its symbols as base-(2n + 1) digits (symbol + 1, then 0
    past the end), so that one lexsort gives tuple order. Each expanded node
    counts n walk steps, and ``MAX_WALK_STEPS`` is checked before a depth is
    expanded, so it bounds the search's memory as well as its time.
    """
    n = system.num_events
    if n > MAX_EVENTS:
        raise ResourceLimitError(f"system has {n} events; bound is {MAX_EVENTS}")
    if max_len > MAX_SCENARIO_LEN:
        raise ResourceLimitError(f"max_len {max_len} exceeds bound {MAX_SCENARIO_LEN}")
    if max_len < 1:
        raise InputError("max_len must be >= 1")
    # per state (row) and event (column); 2n + 1 digits of max_len steps fit int64
    states = np.arange(1 << n)[:, None]
    bits = 1 << np.arange(n)
    down = (states & bits) != 0
    next_state = states ^ bits
    factor = np.where(down, [e.p_repair for e in system.events],
                      [e.p_down for e in system.events])
    digit = 2 * np.arange(n) + down + 1
    masks = np.array(system.severe_masks, dtype=np.int64)
    severe = ((next_state[..., None] & masks) == masks).any(axis=-1)
    base = 2 * n + 1
    places = base ** np.arange(max_len - 1, -1, -1)  # step t is the digit at places[t]

    state, prob, key = np.zeros(1, np.int64), np.ones(1), np.zeros(1, np.int64)
    found_probs, found_keys = [], []
    walk_steps = 0
    for depth in range(max_len):
        walk_steps += n * len(state)
        if walk_steps > MAX_WALK_STEPS:
            raise ResourceLimitError(f"enumeration explored more than {MAX_WALK_STEPS} "
                                     f"walk steps; lower max_len")
        hit = severe[state]  # (node, event) pairs; a boolean index keeps row order
        prob = prob[:, None] * factor[state]
        key = key[:, None] + digit[state] * places[depth]
        found_probs.append(prob[hit])
        found_keys.append(key[hit])
        if depth < max_len - 1:  # the walks still going expand at the next depth
            going = ~hit
            state, prob, key = next_state[state][going], prob[going], key[going]
    probs, keys = np.concatenate(found_probs), np.concatenate(found_keys)
    order = np.lexsort((keys, -probs))
    digits = keys[order, None] // places % base
    return (digits[digits > 0] - 1, np.count_nonzero(digits, axis=1), probs[order],
            walk_steps)


def enumerate_scenarios(system: SystemModel, max_len: int = 4, p_min: float = 1e-3):
    """Exhaustively search the state graph for severe-terminated walks from all-up.

    Walks stop the first time they enter a severe state, so no proper
    prefix of a returned scenario is severe. Scenarios with probability
    strictly greater than ``p_min`` are labeled probable, the rest
    no_probable; both lists are sorted by descending probability with ties
    broken by the encoded symbols, so the order is deterministic.

    The search expands every walk one depth at a time (see
    ``_scenario_columns``, which :func:`build_datasets` reads directly);
    this builds its :class:`Scenario` lists. It is exponential in
    ``max_len``; systems of more than ``MAX_EVENTS`` events, ``max_len``
    above ``MAX_SCENARIO_LEN``, and a search that would explore more than
    ``MAX_WALK_STEPS`` walk steps are rejected with a
    :class:`ResourceLimitError`, which bounds its memory as well as its time.
    """
    symbols, lengths, probs, _ = _scenario_columns(system, max_len)
    probable: List[Scenario] = []
    no_probable: List[Scenario] = []
    for row, prob, label in zip(map(tuple, _rows(symbols, lengths)), probs.tolist(),
                                _probable(probs, p_min).tolist()):
        steps = tuple((s >> 1, REPAIR if s & 1 else FAIL) for s in row)
        if label:
            probable.append(Scenario(steps, prob, PROBABLE, row))
        else:
            no_probable.append(Scenario(steps, prob, NO_PROBABLE, row))
    return probable, no_probable


def _probable(probs: np.ndarray, p_min: float) -> np.ndarray:
    """Whether each scenario is probable: its probability is above ``p_min``.
    A NaN ``p_min`` would label every scenario no_probable, so it is rejected."""
    if math.isnan(p_min):
        raise InputError("p_min must not be NaN")
    return probs > p_min


def _rows(symbols: np.ndarray, lengths: np.ndarray) -> List[list]:
    """Each row of a flat symbol column, as a list of Python ints."""
    flat, ends = symbols.tolist(), np.cumsum(lengths).tolist()
    return [flat[start:end] for start, end in zip([0] + ends, ends)]


@dataclass(frozen=True)
class ScenarioRecord:
    """One encoded scenario: symbols plus label, exact probability, and split."""

    sequence: Tuple[int, ...]
    label: Optional[str] = None
    prob: Optional[float] = None
    split: Optional[str] = None


class ScenarioDataset:
    """Encoded scenario sequences with labels, probabilities, and a split,
    stored by column.

    ``symbols`` holds every sequence's symbols in record order as one int64
    array and ``lengths`` the int64 length of each (nonempty) sequence;
    ``labels``, ``probs`` and ``splits`` are lists with one entry per record,
    None where a record has none. ``records``, :meth:`sequences` and
    :meth:`labeled` are views built on each call; :meth:`subset` selects a
    split's columns without building them, and scoring functions take the
    columns directly.
    """

    def __init__(self, alphabet_size: int, records):
        """Columns of a list of :class:`ScenarioRecord`; every sequence must be
        a nonempty run of integers."""
        records = list(records)
        symbols, lengths = _flatten([r.sequence for r in records])
        self._assign(alphabet_size, symbols, lengths, [r.label for r in records],
                     [r.prob for r in records], [r.split for r in records])

    @classmethod
    def from_columns(cls, alphabet_size: int, symbols: np.ndarray, lengths: np.ndarray,
                     labels: list, probs: list, splits: list) -> "ScenarioDataset":
        """A dataset over checked columns: nonempty lengths that sum to the
        number of symbols, symbols in ``[0, alphabet_size)``, and one label,
        probability and split per record."""
        dataset = cls.__new__(cls)
        dataset._assign(alphabet_size, symbols, lengths, labels, probs, splits)
        return dataset

    def _assign(self, alphabet_size, symbols, lengths, labels, probs, splits) -> None:
        self.alphabet_size = int(alphabet_size)
        self.symbols, self.lengths = symbols, lengths
        self.labels, self.probs, self.splits = labels, probs, splits

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def records(self) -> List[ScenarioRecord]:
        return list(map(ScenarioRecord, self.sequences(), self.labels, self.probs,
                        self.splits))

    def subset(self, split: Optional[str]) -> "ScenarioDataset":
        """The records of one split (all records for None), in record order."""
        if split is None:
            return self
        keep = np.fromiter(map(eq, self.splits, repeat(split)), bool,
                           len(self.splits))
        return ScenarioDataset.from_columns(
            self.alphabet_size, self.symbols[np.repeat(keep, self.lengths)],
            self.lengths[keep], *(list(compress(column, keep))
                                  for column in (self.labels, self.probs, self.splits)))

    def sequences(self, split: Optional[str] = None) -> List[Tuple[int, ...]]:
        data = self.subset(split)
        return list(map(tuple, _rows(data.symbols, data.lengths)))

    def labeled(self, split: Optional[str] = None):
        data = self.subset(split)
        return list(zip(data.sequences(), data.labels))


def _json_values(values) -> list:
    """``json.dumps`` of each value, where each distinct string and each
    distinct nonzero finite float is encoded once.

    A finite float's text is its ``repr``. Zeros are encoded one by one,
    since ``0.0 == -0.0`` would share a dict entry although they print
    differently; so are NaN, the infinities and every other type (``True ==
    1 == 1.0`` would share one too). The float memo pays because the
    permutations of the same fail/repair steps share one probability.
    """
    strings, floats, out = {}, {}, []
    for value in values:
        kind = type(value)
        if kind is str:
            text = strings.get(value)
            if text is None:
                text = strings[value] = json.dumps(value)
        elif kind is float and value and math.isfinite(value):
            text = floats.get(value)
            if text is None:
                text = floats[value] = repr(value)
        elif kind is float and math.isfinite(value):
            text = repr(value)
        else:
            text = json.dumps(value)
        out.append(text)
    return out


def save_dataset(dataset: ScenarioDataset, path) -> None:
    """One JSON object per line: {"sequence", "label", "prob", "split"}.

    Each line is written from the columns, byte for byte as ``json.dumps``
    writes the record's dict. Each distinct label, split and nonzero finite
    probability is encoded once (:func:`_json_values`): a no_probable set
    holds many orderings of the same steps, which share one probability."""
    sequences = _rows(dataset.symbols, dataset.lengths)
    line = '{"sequence": %r, "label": %s, "prob": %s, "split": %s}\n'.__mod__
    with open(path, "w") as fh:
        fh.writelines(map(line, zip(sequences, *map(_json_values, (
            dataset.labels, dataset.probs, dataset.splits)))))


_decode = json.JSONDecoder().raw_decode


def _read_columns(lines: List[str]):
    """``(symbols, lengths, labels, probs, splits)`` of stripped nonempty JSONL
    lines, or None when a line is not a valid record: one JSON object whose
    "sequence" is a nonempty list of JSON integers that fit in int64. Lines
    are decoded ``_DECODE_LINES`` at a time."""
    flat, lengths, labels, probs, splits = [], [], [], [], []
    for start in range(0, len(lines), _DECODE_LINES):
        chunk = lines[start:start + _DECODE_LINES]
        try:
            decoded = list(map(_decode, chunk))
            if list(map(itemgetter(1), decoded)) != list(map(len, chunk)):
                return None  # a line holds more than one JSON value
            payloads = list(map(itemgetter(0), decoded))
            sequences = list(map(itemgetter("sequence"), payloads))
            for column, key in ((labels, "label"), (probs, "prob"), (splits, "split")):
                column += map(dict.get, payloads, repeat(key))
        except (ValueError, KeyError, TypeError):
            return None
        if set(map(type, sequences)) != {list}:
            return None
        lengths += map(len, sequences)
        flat += chain.from_iterable(sequences)
    lengths = np.array(lengths, dtype=np.int64)
    if not lengths.all() or set(map(type, flat)) != {int}:  # bool is not int here
        return None
    try:
        symbols = np.array(flat, dtype=np.int64)
    except OverflowError:
        return None
    return symbols, lengths, labels, probs, splits


def _check_record(path, line_no: int, line: str, alphabet_size: Optional[int]) -> None:
    """Raise the InputError naming ``path:line`` when a line is not a valid
    record (against ``alphabet_size``, or int64 when it is to be inferred)."""
    where = f"{path}:{line_no}"
    try:
        sequence = json.loads(line)["sequence"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InputError(f"{where}: malformed record: {exc}") from exc
    if type(sequence) is not list or not sequence:
        raise InputError(f"{where}: \"sequence\" must be a nonempty list of integers")
    bound = _INT64_BOUND if alphabet_size is None else alphabet_size
    for symbol in sequence:
        if type(symbol) is not int:
            raise InputError(f"{where}: symbol {json.dumps(symbol)} is not an integer")
        if not 0 <= symbol < bound:
            raise InputError(f"{where}: symbol {symbol} outside [0, {bound})")


def load_dataset(path, alphabet_size: Optional[int] = None) -> ScenarioDataset:
    """Read a JSONL dataset; tolerant of records carrying only a sequence.

    Each nonblank line holds one JSON object whose "sequence" is a nonempty
    list of JSON integers (``true`` and ``1.0`` are not integers). When
    ``alphabet_size`` is omitted it is inferred as the smallest even bound
    on the observed symbols (symbols come in fail/repair pairs). The file is
    decoded in chunks of lines and checked column by column; an invalid
    record raises an :class:`InputError` that names ``path:line``.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    body = list(filter(None, map(str.strip, lines)))
    if not body:
        raise InputError(f"{path}: dataset is empty")
    columns = _read_columns(body)
    if columns is not None:
        symbols = columns[0]
        if alphabet_size is None:
            top = int(symbols.max())
            alphabet_size = top + 1 + (top + 1) % 2
        if symbols.min() >= 0 and symbols.max() < alphabet_size:
            return ScenarioDataset.from_columns(alphabet_size, *columns)
    # the error path: find and name the first invalid line
    for line_no, line in enumerate(lines, start=1):
        if line.strip():
            _check_record(path, line_no, line.strip(), alphabet_size)
    raise InputError(f"{path}: invalid dataset")


def build_datasets(system: SystemModel, *, max_len: int = 4, p_min: float = 1e-3,
                   test_fraction: float = 0.25, seed: int = 0, out_dir=None, work=None):
    """Enumerate, encode, and split the two scenario classes.

    ``round(test_fraction * class size)`` records per class go to the test
    split, chosen by a seeded shuffle; record order stays the enumeration
    order. With ``out_dir`` set, ``probable.jsonl`` and
    ``no_probable.jsonl`` are written there. ``work``, when a
    :class:`collections.Counter`, has the enumeration's walk steps and the
    scenario count of each class added to it.

    Returns
    -------
    (probable, no_probable) : pair of ScenarioDataset
    """
    if not 0.0 < test_fraction < 1.0:
        raise InputError("test_fraction must lie in (0, 1)")
    symbols, lengths, probs, walk_steps = _scenario_columns(system, max_len)
    probable = _probable(probs, p_min)
    counts = {PROBABLE: int(np.count_nonzero(probable))}
    counts[NO_PROBABLE] = len(probs) - counts[PROBABLE]
    if not all(counts.values()):
        raise DatasetConstructionError(
            f"enumeration produced {counts[PROBABLE]} probable and "
            f"{counts[NO_PROBABLE]} no_probable scenarios; adjust max_len or "
            "p_min so both classes are populated")
    rng = np.random.default_rng(seed)
    datasets = []
    for label, keep in ((PROBABLE, probable), (NO_PROBABLE, ~probable)):
        size = counts[label]
        test = np.zeros(size, dtype=bool)
        test[rng.permutation(size)[:int(round(test_fraction * size))]] = True
        datasets.append(ScenarioDataset.from_columns(
            system.alphabet_size, symbols[np.repeat(keep, lengths)], lengths[keep],
            [label] * size, probs[keep].tolist(), np.where(test, "test", "train").tolist()))
    if work is not None:
        work.update(walk_steps=walk_steps, **counts)
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
