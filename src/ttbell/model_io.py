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
renumbered densely in sorted order when loaded, so writing is canonical and
write/load/write is byte-stable.  A file may declare at most
``lhv.MAX_GRID_SIZE`` hidden states and, per slot, ``lhv.MAX_TABLE_CELLS``
response lines (each a distinct cell): loading fails at the line that
declares one more.
"""

from __future__ import annotations

import contextlib
import functools
import math
from array import array
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO

import numpy as np

from . import lhv

WEIGHT_TOL = 1e-12


class ModelFileError(ValueError):
    """Malformed model file; the message carries the offending line number."""


def _fail(line_no: int, message: str):
    raise ModelFileError(f"line {line_no}: {message}")


QUOTE_CHARS = 60  # a message quotes at most this many characters of a token


def _quote(token: str) -> str:
    """``repr`` of token, or of its first ``QUOTE_CHARS`` characters then ``...``."""
    return repr(token) if len(token) <= QUOTE_CHARS else repr(token[:QUOTE_CHARS]) + "..."


def _parse_id(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(line_no, f"hidden-state id is not an integer: {_quote(token)}")


def _id_text(state_id: int) -> str:
    """The id's digits, or its first ``QUOTE_CHARS`` characters then ``...``."""
    text = str(state_id)
    return text if len(text) <= QUOTE_CHARS else text[:QUOTE_CHARS] + "..."


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        _fail(line_no, f"{what} is not a number: {_quote(token)}")
    if not math.isfinite(value):
        _fail(line_no, f"{what} must be finite, got {_quote(token)}")
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
        # + 0.0 turns -0.0 into 0.0, so that equal keys are equal rows; a
        # single angle is indexed as a 1-D array, many times faster than rows
        if len(parts) == 1:
            _, first, index = np.unique(parts[0] + 0.0, return_index=True, return_inverse=True)
            return parts, index, first
        parts[2] = parts[2].astype(int)
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
        limit = lhv.MAX_GRID_SIZE  # no subcommand takes a model with more states
        cells = lhv.MAX_TABLE_CELLS  # nor a slot with more response lines
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
                        state_id = _parse_id(tokens[1], line_no)
                        if state_id not in positions:
                            _fail(line_no, f"response references undeclared hidden state {_id_text(state_id)}")
                        pos = positions[state_id]
                        if len(slot.value) == cells:
                            _fail(line_no, f"{cells + 1} {directive} responses, above the limit of {cells} cells")
                        if slot.arity == 4:
                            angle = _parse_float(tokens[2], line_no, "angle")
                            p = _parse_prob(tokens[3], line_no, "p_plus")
                            add_line, add_pos, add_value, add_angle = slot.appends
                            add_angle(angle)
                        else:
                            a = _parse_float(tokens[2], line_no, "first angle")
                            b = _parse_float(tokens[3], line_no, "second angle")
                            if tokens[4] not in ("+1", "-1", "1"):
                                _fail(line_no, f"first outcome must be +1 or -1, got {_quote(tokens[4])}")
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
                        state_id = _parse_id(tokens[1], line_no)
                        if not -(1 << 63) <= state_id < 1 << 63:
                            _fail(line_no, f"hidden-state id {_id_text(state_id)} does not fit in 64 bits")
                        if state_id in positions:
                            _fail(line_no, f"duplicate hidden-state id {state_id}")
                        if len(weights) == limit:
                            _fail(line_no, f"{limit + 1} hidden states, above the limit of {limit}")
                        weight = _parse_float(tokens[2], line_no, "weight")
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

                    _fail(line_no, f"unknown directive {_quote(directive)}")
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


def _blocks(f):
    r"""The lines of a text file, as ``str.splitlines`` splits the whole
    text, in lists read about ``READ_BLOCK`` characters at a time.

    The stream's own ``readline`` completes each read, so a block ends
    where the stream ends a line, or at the end of the file: no line and
    no ``\r\n`` span two blocks, and a long line costs time linear in its
    length."""
    for chunk in iter(lambda: f.read(READ_BLOCK), ""):
        yield (chunk + f.readline()).splitlines()


READ_BLOCK = 1 << 13  # characters read at a time, before the rest of a line


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

    def lines(self) -> Iterator[str]:
        """The canonical text, one string per block of whole states of
        about ``WRITE_BLOCK`` lines: the kind, the weights, then each slot's
        entries by state, then by key.  A block's numbers are turned into
        Python floats together, so numpy scalars are written as plain numbers
        rather than as ``np.float64(...)``."""
        yield f"kind {self.model.kind}\n"
        columns = [("lambda", [""], self.model.weights[np.newaxis])]
        for directive, (keys, table) in zip(("p1", "p2"), self.slots):
            texts = ["{!r} {!r} {:+d} ".format(*key) if len(key) == 3 else f"{key[0]!r} " for key in keys]
            columns.append((directive, texts, table))
        for directive, texts, table in columns:
            step = max(1, WRITE_BLOCK // max(1, len(texts)))  # states a block
            for start in range(0, table.shape[1], step):
                block = table[:, start:start + step].T.tolist()
                yield "".join([f"{directive} {i} {text}{p!r}\n"
                               for i, ps in enumerate(block, start) for text, p in zip(texts, ps)])


# lines made at a time when writing, so a write's memory is bounded
# whatever the number of states or settings
WRITE_BLOCK = 1024


def load_model(source: str | Path | TextIO) -> lhv.LhvModel:
    """Read a model file, given by its path or as an open text stream such
    as ``io.StringIO(text)`` (left open), line by line straight into the
    model's tables."""
    with contextlib.nullcontext(source) if hasattr(source, "read") else open(source) as f:
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
    """Tabulate a model's responses at the given settings and write them in
    canonical form.  Factorized models need ``t2_angles``; general models
    need ``t2_pairs`` of (first, second) angles, tabulated for both
    first-slot outcomes.  The table is checked before the file is opened, so
    a model that fails creates no file.  The text is made and written a
    block of states at a time."""
    lines = _Tabulated(model, t1_angles, t2_angles, t2_pairs).lines()
    with open(path, "w") as out:
        out.writelines(lines)
