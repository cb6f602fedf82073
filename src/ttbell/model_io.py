"""Text format for finite hidden-variable models.

A model file is line-oriented; ``#`` starts a comment and blank lines are
ignored.  The first directive must declare the kind, then hidden states
and response tables follow in any order:

    kind factorized
    lambda <id> <weight>
    p1 <id> <angle> <p_plus>            first-slot response at an angle
    p2 <id> <angle> <p_plus>            second slot (factorized models)

    kind general
    p2 <id> <a> <b> <A> <p_plus>        second slot (general models), A = +1|-1

Angles are radians; ``p_plus`` is the probability of outcome +1 (the -1
response is its complement).  Weights must be nonnegative and sum to 1.
Hidden-state ids may be any distinct signed 64-bit integers; they are
renumbered densely in sorted order when parsed, so dumping is canonical and
dump/parse/dump is byte-stable.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import lhv

WEIGHT_TOL = 1e-12


class ModelFileError(ValueError):
    """Malformed model file; the message carries the offending line number."""


@dataclass(frozen=True)
class ModelSpec:
    """Parsed, canonicalized content of a model file."""

    kind: str
    weights: tuple[float, ...]
    p1_tables: tuple[tuple[tuple[float, float], ...], ...]
    # factorized: ((angle, p), ...) per state; general: ((a, b, A, p), ...)
    p2_tables: tuple[tuple[tuple, ...], ...]

    def build(self) -> lhv.LhvModel:
        return lhv.tabulated_model(self.kind, self.weights, self.p1_tables, self.p2_tables)


def _fail(line_no: int, message: str):
    raise ModelFileError(f"line {line_no}: {message}")


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        _fail(line_no, f"{what} is not a number: {token!r}")
    if not math.isfinite(value):
        _fail(line_no, f"{what} must be finite, got {token!r}")
    return value


def _parse_prob(token: str, line_no: int, what: str) -> float:
    value = _parse_float(token, line_no, what)
    if not 0.0 <= value <= 1.0:
        _fail(line_no, f"{what} must lie in [0, 1], got {value!r}")
    return value


class _Slot:
    """The response lines of one slot, held flat in line order, one entry
    per line: the line number, the declaration position of the state, the
    key's numbers as written (``angle``, or ``a``, ``b`` and ``A``) and
    P(+1)."""

    def __init__(self, directive: str, general: bool = False):
        self.directive = directive
        self.arity = 6 if general else 4
        self.line = array("q")
        self.pos = array("q")
        self.key = tuple(array("d") for _ in range(3 if general else 1))
        self.value = array("d")
        # the appends of one response line's line, position, P(+1) and key
        self.appends = (self.line.append, self.pos.append, self.value.append, *(x.append for x in self.key))

    @functools.cached_property
    def keys(self):
        """Key components as arrays (A as int), the index of each entry's key
        among the distinct keys, and the entry where each key first occurs;
        keys are equal as Python numbers are, so 0.0 and -0.0 are one key.
        Read once the slot is complete."""
        parts = [np.asarray(x) for x in self.key]
        if len(parts) == 3:
            parts[2] = parts[2].astype(int)
        # + 0.0 turns -0.0 into 0.0, so that equal keys are equal rows
        rows = np.stack([x + 0.0 for x in parts[:2]] + parts[2:], axis=1)
        _, first, index = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        return parts, index.reshape(-1), first

    def duplicate(self) -> Optional[tuple[int, str]]:
        """(line, message) of the first line that repeats a state's key."""
        if not self.value:
            return None
        _, index, _ = self.keys
        cells = np.asarray(self.pos) * (index.max() + 1) + index
        repeat = np.ones(len(cells), dtype=bool)
        repeat[np.unique(cells, return_index=True)[1]] = False
        if not repeat.any():
            return None
        e = int(repeat.argmax())
        if self.arity == 4:
            return self.line[e], f"duplicate {self.directive} entry at angle {self.key[0][e]!r}"
        return self.line[e], "duplicate p2 entry for these settings and outcome"

    def flat(self, rank: np.ndarray):
        """``(keys, rows, cols, values)`` with rows the states' ranks and
        the keys in the order in which they first occur over the states in
        rank order, each state's keys ascending."""
        parts, index, first_entry = self.keys
        keys = list(zip(*(x[first_entry].tolist() for x in parts)))
        rows = rank[np.asarray(self.pos, dtype=np.intp)]
        first = np.full(len(keys), len(rank))
        np.minimum.at(first, index, rows)
        order = sorted(range(len(keys)), key=lambda j: (first[j], keys[j]))
        renumber = np.empty(len(keys), dtype=np.intp)
        renumber[order] = np.arange(len(keys))
        return [keys[j] for j in order], rows, renumber[index], np.asarray(self.value)

    def tables(self, rank: np.ndarray) -> tuple[tuple[tuple, ...], ...]:
        """Per state in rank order, its entries ``(*key, p)`` as written, ascending."""
        parts, _, _ = self.keys
        rows = rank[np.asarray(self.pos, dtype=np.intp)]
        order = np.lexsort((*parts[::-1], rows))
        entries = list(zip(*(x[order].tolist() for x in parts), np.asarray(self.value)[order].tolist()))
        ends = np.cumsum(np.bincount(rows, minlength=len(rank))).tolist()
        return tuple(tuple(entries[start:end]) for start, end in zip([0] + ends, ends))


class _Parsed:
    """A model file read line by line into flat tables (``_Slot``)."""

    def __init__(self, blocks):
        kind: Optional[str] = None
        # hidden-state id -> declaration position: range(n) while the ids
        # are 0, 1, ..., n - 1 in order, as in every written file, else a dict
        positions: range | dict[int, int] = range(0)
        weights = array("d")
        p1 = _Slot("p1")
        p2 = None  # made once the kind is known
        slots: dict[str, _Slot] = {}  # by directive, once the kind is known
        line_no = 0
        try:
            for lines in blocks:
                for line_no, raw in enumerate(lines, line_no + 1):
                    tokens = (raw[:raw.index("#")] if "#" in raw else raw).split()
                    if not tokens:
                        continue
                    directive = tokens[0]

                    slot = slots.get(directive)
                    if slot is not None:
                        if len(tokens) != slot.arity:
                            _fail(line_no, f"expected {slot.arity} fields for {directive} in a {kind} model")
                        try:
                            state_id = int(tokens[1])
                        except ValueError:
                            _fail(line_no, f"hidden-state id is not an integer: {tokens[1]!r}")
                        if state_id not in positions:
                            _fail(line_no, f"response references undeclared hidden state {state_id}")
                        pos = positions[state_id]
                        if slot.arity == 4:
                            try:
                                angle, p = float(tokens[2]), float(tokens[3])
                            except ValueError:
                                angle = p = math.nan
                            if not (angle - angle == 0.0 and 0.0 <= p <= 1.0):  # fails on NaN too
                                _parse_float(tokens[2], line_no, "angle")  # raises the error
                                _parse_prob(tokens[3], line_no, "p_plus")
                            add_line, add_pos, add_value, add_angle = slot.appends
                            add_angle(angle)
                        else:
                            a = _parse_float(tokens[2], line_no, "first angle")
                            b = _parse_float(tokens[3], line_no, "second angle")
                            if tokens[4] not in ("+1", "-1", "1"):
                                _fail(line_no, f"first outcome must be +1 or -1, got {tokens[4]!r}")
                            p = _parse_prob(tokens[5], line_no, "p_plus")
                            add_line, add_pos, add_value, add_a, add_b, add_outcome = slot.appends
                            add_a(a)
                            add_b(b)
                            add_outcome(1.0 if tokens[4] in ("+1", "1") else -1.0)
                        add_line(line_no)
                        add_pos(pos)
                        add_value(p)
                        continue

                    if directive == "kind":
                        if kind is not None:
                            _fail(line_no, "duplicate kind directive")
                        if len(tokens) != 2 or tokens[1] not in (lhv.FACTORIZED, lhv.GENERAL):
                            _fail(line_no, "expected 'kind factorized' or 'kind general'")
                        kind = tokens[1]
                        p2 = _Slot("p2", general=kind == lhv.GENERAL)
                        slots = {"p1": p1, "p2": p2}
                        continue

                    if kind is None:
                        _fail(line_no, "kind must be declared before any other directive")

                    if directive == "lambda":
                        if len(tokens) != 3:
                            _fail(line_no, "expected 'lambda <id> <weight>'")
                        try:
                            state_id = int(tokens[1])
                        except ValueError:
                            _fail(line_no, f"hidden-state id is not an integer: {tokens[1]!r}")
                        if not -(1 << 63) <= state_id < 1 << 63:
                            _fail(line_no, f"hidden-state id {state_id} does not fit in 64 bits")
                        if state_id in positions:
                            _fail(line_no, f"duplicate hidden-state id {state_id}")
                        try:
                            weight = float(tokens[2])
                        except ValueError:
                            weight = math.nan
                        if not weight - weight == 0.0:
                            _parse_float(tokens[2], line_no, "weight")  # raises the error
                        if weight < 0.0:
                            _fail(line_no, f"weight must be nonnegative, got {weight!r}")
                        if isinstance(positions, range) and state_id == len(positions):
                            positions = range(state_id + 1)
                        else:
                            if isinstance(positions, range):
                                positions = dict(zip(positions, positions))
                            positions[state_id] = len(weights)
                        weights.append(weight)
                        continue

                    _fail(line_no, f"unknown directive {directive!r}")
        except ModelFileError:
            _first_repeat(p1, p2)  # the earlier error
            raise
        _first_repeat(p1, p2)

        if kind is None:
            raise ModelFileError("model file declares no kind")
        if not weights:
            raise ModelFileError("model file declares no hidden states")
        total = math.fsum(weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ModelFileError(f"hidden-state weights sum to {total!r}, expected 1")

        # states are renumbered densely in sorted id order; positions holds
        # the ids in declaration order
        order = np.argsort(np.fromiter(positions, np.int64, len(weights)), kind="stable")
        self.rank = np.empty(len(weights), dtype=np.intp)
        self.rank[order] = np.arange(len(weights))
        self.kind = kind
        self.weights = np.asarray(weights)[order]
        self.slots = (p1, p2)

    def spec(self) -> ModelSpec:
        p1, p2 = (slot.tables(self.rank) for slot in self.slots)
        return ModelSpec(kind=self.kind, weights=tuple(self.weights.tolist()), p1_tables=p1, p2_tables=p2)

    def model(self) -> lhv.LhvModel:
        """The model, built once: the slots' tables are let go as soon as
        they are flat, before the model's own tables are built."""
        flats = [slot.flat(self.rank) for slot in self.slots]
        self.slots = None
        return lhv.flat_tabulated_model(self.kind, self.weights, *flats)


def _first_repeat(*slots) -> None:
    """Fail at the first response line that repeats its state's key, if any."""
    repeats = [r for r in (slot.duplicate() for slot in slots if slot is not None) if r]
    if repeats:
        _fail(*min(repeats))


def _blocks(f, size: int = 1 << 13):
    """The lines of a text file, as ``str.splitlines`` splits the whole
    text, in lists read about ``size`` characters at a time."""
    tail = ""
    for chunk in iter(lambda: f.read(size), ""):
        lines = (tail + chunk).splitlines()
        tail = "" if chunk[-1] in _LINE_ENDS else lines.pop()
        yield lines
    if tail:
        yield [tail]


_LINE_ENDS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines ends a line


def parse_model_text(text: str) -> ModelSpec:
    """Parse model-file content; raises ModelFileError with a line number."""
    return _Parsed([text.splitlines()]).spec()


def _key_texts(parts):
    """Keys as a model file writes them, ``angle`` or ``a b A``, from their
    components: a column of angles, or columns of a, b and A."""
    if len(parts) == 3:
        a, b, A = parts
        return map("{!r} {!r} {:+d}".format, map(float, a), map(float, b), A)
    return map(repr, map(float, parts[0] if parts else ()))


def _lines(kind: str, weights, slots) -> Iterator[str]:
    """The canonical text, line by line: the kind, the weights, then each
    slot's entries ``(state, key text, p)`` in the order given.  Values are
    coerced with ``float`` first, so numpy scalars are written as plain
    numbers rather than as ``np.float64(...)``."""
    yield f"kind {kind}\n"
    for i, w in enumerate(weights):
        yield f"lambda {i} {float(w)!r}\n"
    for directive, entries in zip(("p1", "p2"), slots):
        for i, key, p in entries:
            yield f"{directive} {i} {key} {float(p)!r}\n"


def dump_model_spec(spec: ModelSpec) -> str:
    """Canonical text form; full-precision floats so parsing is lossless."""
    slots = []
    for tables in (spec.p1_tables, spec.p2_tables):
        states = [i for i, table in enumerate(tables) for _ in table]
        *key, p = list(zip(*(entry for table in tables for entry in table))) or [(), ()]
        slots.append(zip(states, _key_texts(key), p))
    return "".join(_lines(spec.kind, spec.weights, slots))


class _Tabulated:
    """A model's responses at given settings, a whole column per key:
    ``table[j]`` is P(+1) of every state at ``keys[j]``, keys ascending
    and distinct."""

    def __init__(self, model: lhv.LhvModel, t1_angles, t2_angles, t2_pairs):
        if model.kind == lhv.FACTORIZED:
            t2_keys = [(float(b),) for b in t2_angles]
        else:
            t2_keys = [(float(a), float(b), A) for a, b in t2_pairs for A in (1, -1)]
        self.model = model
        self.slots = (
            self._columns(model.t1_column, "t1", [(float(a),) for a in t1_angles]),
            self._columns(model.t2_column, "t2", t2_keys),
        )

    def _columns(self, column, slot: str, keys):
        keys = list(dict.fromkeys(keys))  # keys that compare equal (0.0, -0.0) once, the first given
        table = np.array([column(*key)[0] for key in keys]).reshape(len(keys), len(self.model.weights))
        if np.isnan(table).any():  # NaN marks a state with no tabulated response
            key, k = (x[0] for x in np.nonzero(np.isnan(table)))
            raise lhv.InvalidModelError(f"no {slot} response tabulated at {keys[key]} for id {k}")
        order = sorted(range(len(keys)), key=keys.__getitem__)  # every state lists its keys ascending
        return [keys[j] for j in order], table[order]

    def spec(self) -> ModelSpec:
        tables = (
            tuple(tuple((*key, p) for key, p in zip(keys, ps)) for ps in table.T.tolist())
            for keys, table in self.slots
        )
        return ModelSpec(self.model.kind, tuple(self.model.weights.tolist()), *tables)

    def lines(self) -> Iterator[str]:
        slots = (_by_state(list(_key_texts(list(zip(*keys)))), table) for keys, table in self.slots)
        return _lines(self.model.kind, _by_block(self.model.weights), slots)


# states whose numbers are turned into Python floats at a time when writing
WRITE_BLOCK = 4096


def _by_block(values: np.ndarray) -> Iterator:
    """The entries of a 1-D array as Python floats, or the columns of a 2-D
    one as lists of them, converted ``WRITE_BLOCK`` at a time."""
    for start in range(0, values.shape[-1], WRITE_BLOCK):
        yield from values[..., start:start + WRITE_BLOCK].T.tolist()


def _by_state(texts: list[str], table: np.ndarray):
    """``(state, key text, p)`` of whole columns, by state, then by key."""
    for i, ps in enumerate(_by_block(table)):
        for text, p in zip(texts, ps):
            yield i, text, p


def spec_from_model(
    model: lhv.LhvModel,
    t1_angles: Sequence[float],
    t2_angles: Sequence[float] = (),
    t2_pairs: Sequence[tuple[float, float]] = (),
) -> ModelSpec:
    """Tabulate a model's responses at the given settings.

    Factorized models need ``t2_angles``; general models need ``t2_pairs``
    of (first, second) angles, tabulated for both first-slot outcomes.
    """
    return _Tabulated(model, t1_angles, t2_angles, t2_pairs).spec()


def load_model(path: str | Path) -> lhv.LhvModel:
    """Read a model file line by line straight into the model's tables."""
    with open(path) as f:
        try:
            parsed = _Parsed(_blocks(f))
        except ModelFileError:
            for _ in _blocks(f):  # an undecodable byte anywhere comes first, as if read whole
                pass
            raise
    return parsed.model()


def write_model_file(
    path: str | Path,
    model: lhv.LhvModel,
    t1_angles: Sequence[float],
    t2_angles: Sequence[float] = (),
    t2_pairs: Sequence[tuple[float, float]] = (),
) -> None:
    """Tabulate a model at the given settings (see ``spec_from_model``) and
    write it in canonical form.  The table is checked before the file is
    opened, so a model that fails creates no file.  The text is made a block
    of states at a time and written 512 lines at a time."""
    lines = _Tabulated(model, t1_angles, t2_angles, t2_pairs).lines()
    with open(path, "w") as out:
        for text in iter(lambda: "".join(islice(lines, 512)), ""):
            out.write(text)
