"""Command-line front end with deterministic, golden-file-friendly output.

Subcommands: ``table`` (joint/marginal/conditional probabilities),
``mc`` (seeded detection-chain run), ``chsh-scan`` (ladder sweep with
refined maximum), ``lhv-verify`` (model bookkeeping checks and CHSH
bounds), ``polytope`` (local-model membership certificate), ``sweep``
(Monte Carlo CHSH value over a fixed grid of eta_d*F).  ``chsh-scan``'s
rows and ``polytope --alpha``'s targets are taken from cos(alpha) alone.

Output is CSV (a header line, then one line per record; fields are
numbers or true/false and never need quoting; floats with nine decimal
places) or JSON (sorted keys, floats rounded to nine decimals), chosen by
``--format``; ``polytope`` takes no ``--format`` and writes JSON.  Identical
configuration and seed produce byte-identical output.

Each option is described once, by a row of ``OPTIONS``: its key, how a
string converts, its default, its help text, the subcommands that read
it, whether it is an angle and whether it must lie in [0, 1].  The
parser, the config-key check and ``_merge_options`` are built from that
table; the merge resolves each option once: its flag, else its config
value, converted (a comma list to a float64 array), scaled by
``--degrees`` if an angle and checked against [0, 1]; else its default,
in radians and never scaled.  A config file may hold any option key; a
subcommand ignores the keys it does not read.  A flag's value may start
with "-" when given as its own token (``--b -1e-3``).

A subcommand parses, validates and computes before it writes anything,
so a usage error leaves stdout empty and creates no ``--out`` file.
Records are then formatted and written ``ROW_BLOCK`` rows at a time.
``table`` builds a block's rows as columns, with the closed forms of
``quantum.probability_columns`` on sines and cosines taken by ``math``.
A block is rendered with numpy, all its float columns in one pass and
each boolean or +-1 outcome column as one of two fixed texts, in the very
bytes that formatting each cell with ``fmt`` / ``_json_number`` gives (a
None or non-finite float is ``nan`` / ``null``); those two still write
one-record documents, such as ``mc``'s with its integer counts, and, row
by row, each block that holds a finite float outside the columns' exact
range (|x| >= 4e6).
``polytope``'s document fills a template that is ``json_text``'s layout
of its payload, one per layout.

Exit codes: 0 success (and polytope-feasible), 1 usage error, 2 I/O
error, 3 polytope-infeasible, 4 lhv-verify check failure.  A stdout
pipe closed by its reader ends the output early, with the command's own
exit code.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from . import lhv, model_io, montecarlo, polytope, quantum
from .chsh import (CLASSICAL_BOUND, MAX_SCAN_ROWS, VIOLATION_TOL, ChshSettings, chsh_value, ladder_settings,
                   scan_alpha, threshold_analysis)
from .model_io import QUOTE_CHARS, _quote

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY_FAILED = 4

BUILTIN_MODELS = ("fixed-setting-reproducer", "position-style")
FORMATS = ("csv", "json")


class UsageError(Exception):
    pass


def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {_quote(text)}")


_LIST_ENTRY = re.compile(r"[^,]+")  # an entry of a comma-separated list


def _parse_list(text: str, key: str) -> np.ndarray:
    """The numbers of a comma-separated list (blank entries skipped) as
    float64, read an entry at a time: no Python object per number is held."""
    entries = filter(str.strip, map(re.Match.group, _LIST_ENTRY.finditer(text)))
    try:
        values = np.fromiter(map(float, entries), dtype=np.float64)
    except ValueError:
        raise UsageError(f"{_flag(key)} expects a number or comma-separated numbers, got {_quote(text)}")
    if not len(values):
        raise UsageError(f"{_flag(key)} is empty")
    if not np.isfinite(values).all():
        raise UsageError(f"{_flag(key)} must be finite, got {_quote(text)}")
    return values


def _to_format(text: str) -> str:
    if text not in FORMATS:
        raise UsageError(f"--format must be csv or json, got {_quote(text)}")
    return text


class Option(NamedTuple):
    """One option: its config key (the flag is ``--`` plus the key with
    ``-`` for ``_``), how a string value converts (raising ValueError, or
    UsageError with a message of its own), its default, its help text, the
    subcommands that read it, whether it is an angle (scaled by
    ``--degrees``) and whether it must lie in [0, 1]."""

    key: str
    convert: Callable
    default: object
    help: str
    commands: tuple[str, ...]
    angle: bool = False
    unit: bool = False


ANGLE_COMMANDS = ("table", "mc", "chsh-scan", "lhv-verify", "polytope")  # those that read an angle
EVERY_COMMAND = (*ANGLE_COMMANDS, "sweep")
DETECTION_COMMANDS = ("mc", "chsh-scan", "polytope")  # those that read the efficiencies

# In the order each subcommand lists its flags.
OPTIONS = (
    Option("model", str, None, f"built-in model name: {', '.join(BUILTIN_MODELS)}", ("lhv-verify",)),
    Option("model_file", str, None, "path to a model file (see model file schema in the README)",
           ("lhv-verify",)),
    Option("grid_size", int, 1000, "hidden-state count for the position-style model", ("lhv-verify",)),
    Option("a", functools.partial(_parse_list, key="a"), np.array([math.pi / 4]),
           "first-slot analyzer angle (radians; table accepts a comma-separated list)",
           ("table", "mc", "lhv-verify"), angle=True),
    Option("b", functools.partial(_parse_list, key="b"), np.array([0.0]),
           "second-slot analyzer angle (radians; table accepts a comma-separated list)",
           ("table", "mc", "lhv-verify"), angle=True),
    Option("a_prime", float, 0.0, "alternate first-slot angle", ("lhv-verify",), angle=True),
    Option("b_prime", float, math.pi / 4, "alternate second-slot angle", ("lhv-verify",), angle=True),
    Option("alpha", float, None, "ladder separation angle", ("polytope",), angle=True),
    Option("targets", functools.partial(_parse_list, key="targets"), None,
           "four comma-separated correlators E(a,b),E(a,b'),E(a',b'),E(a',b)",
           ("polytope",)),
    Option("alpha_min", float, 0.0, "scan start", ("chsh-scan",), angle=True),
    Option("alpha_max", float, math.pi, "scan end (inclusive)", ("chsh-scan",), angle=True),
    Option("alpha_step", float, 1e-3, "scan step", ("chsh-scan",), angle=True),
    Option("eta_d", float, 1.0, "detector efficiency in [0, 1]", DETECTION_COMMANDS, unit=True),
    Option("f1", float, 1.0, "acceptance into the first analyzer", DETECTION_COMMANDS, unit=True),
    Option("f21", float, 1.0, "acceptance into the second analyzer", DETECTION_COMMANDS, unit=True),
    Option("fd2", float, 1.0, "acceptance from second analyzer into a detector", DETECTION_COMMANDS, unit=True),
    Option("trials", int, 100000, "number of Monte Carlo trials", ("mc", "sweep")),
    Option("seed", int, 2024, "RNG seed (64-bit)", ("mc", "sweep")),
    Option("out", str, None, "output path (default: stdout)", EVERY_COMMAND),
    Option("format", _to_format, "csv", "output format: csv or json",  # polytope writes JSON only
           ("table", "mc", "chsh-scan", "lhv-verify", "sweep")),
    Option("degrees", _to_bool, False, "interpret all angle inputs as degrees", ANGLE_COMMANDS),
)
OPTION_KEYS = frozenset(opt.key for opt in OPTIONS)


def _flag(key: str) -> str:
    """The command-line flag of an option key: ``eta_d`` -> ``--eta-d``."""
    return "--" + key.replace("_", "-")


def fmt(x) -> str:
    """Deterministic CSV field: floats at 9 decimal places."""
    if x is None:
        return "nan"
    if isinstance(x, bool):
        return "true" if x else "false"
    return f"{x:.9f}" if math.isfinite(x) else "nan"


def fmt_sci(x: float) -> str:
    return f"{x:.3e}"


def jnum(x):
    """JSON-safe float rounded at 9 decimals (None for missing/NaN)."""
    if x is None or not math.isfinite(x):
        return None
    return round(float(x), 9)


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Column kinds of a record: how a cell is written in CSV (as by ``fmt``)
# and in JSON (as ``json_text`` writes ``jnum`` of it).  A FLOAT cell may
# be None (missing), which is written like NaN.
FLOAT, INT, SIGNED, BOOL = "float", "int", "signed", "bool"


def _json_number(x) -> str:
    x = jnum(x)
    return "null" if x is None else repr(x)


_CELL_TEXT = {  # kind -> (CSV text, JSON text)
    FLOAT: (fmt, _json_number),
    INT: (str, str),
    SIGNED: ("{:+d}".format, str),
    BOOL: (fmt, fmt),
}


# Rows rendered per output chunk; bounds the memory held at once.  A block
# holds two bytes per byte of row width and 48 per FLOAT cell: 1.68 MB for
# the 8-column JSON table (267-byte rows), then its text twice over while it
# is made and while it is written.
ROW_BLOCK = 2048


def _template(columns, json_side: bool, indent: str = ""):
    """%-template of one record's CSV line or JSON object, and the column
    index of each of its ``%s`` cells in turn.

    A JSON object has its keys sorted and its closing brace at ``indent``.
    """
    if json_side:
        order = sorted(range(len(columns)), key=lambda i: columns[i][0])
        template = (
            "{\n"
            + ",\n".join(f'{indent}  "{columns[i][0]}": %s' for i in order)
            + f"\n{indent}}}"
        )
        return template, order
    return ",".join(["%s"] * len(columns)) + "\n", range(len(columns))


def _renderer(columns, json_side: bool, indent: str = ""):
    """Function from a row to its CSV line or JSON object, cell by cell."""
    template, order = _template(columns, json_side, indent)
    cells = [(i, _CELL_TEXT[columns[i][1]][json_side]) for i in order]
    return lambda row: template % tuple([text(row[i]) for i, text in cells])


def _csv_header(columns) -> str:
    return ",".join(name for name, _ in columns) + "\n"


def record_text(fmt_name: str, columns, row) -> str:
    """CSV or JSON text of a document that is one record.

    ``columns`` are ``(name, kind)`` pairs and ``row`` a tuple of cells.
    CSV is the header line and the record's line; JSON is the record's
    object as ``json_text`` writes it.
    """
    if fmt_name == "csv":
        return _csv_header(columns) + _renderer(columns, False)(row)
    return _renderer(columns, True)(row) + "\n"


# Block rendering.  A FLOAT cell x is written from d = round-half-even(x * 1e9),
# the integer that both f"{x:.9f}" and round(x, 9) round to.  TwoProduct
# (Dekker 1971) gives x * 1e9 = p + e exactly in float64: only x needs
# splitting, as 1e9 has 21 significant bits.  For |x| < 4e6, |p| < 2**52, so
# ulp(p) <= 1/2, np.rint(p) and p - rint(p) are exact, and rint(p) is d
# unless p is a half-integer, where the sign of e breaks the tie.  In JSON,
# repr(round(x, 9)) is d / 1e9 with its trailing zeros stripped: below 4e6
# the doubles are closer than 1e-9, so no other decimal of at most nine
# places reads back as round(x, 9), and repr writes no exponent from 1e-4 up.
# Below that, for 1 <= |d| < 1e5, it writes [-]D[.DDDD]e-0E: the digits of
# |d| without its trailing zeros, and E = 10 - len(str(|d|)).
_FAST_LIMIT = 4e6
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's split of a float64
_UNITS = 10**9  # d counts billionths
_TINY = 100_000  # repr writes an exponent for 0 < |d| below this
# the ASCII digits of each 3-digit group, one table per digit place
_DIGITS = np.array([list(b"%03d" % g) for g in range(1000)], dtype=np.uint8).T.copy()
_EVERY_DIGIT = np.uint32(0x01010101)  # a keep mask word of four kept digits
_FLOAT_WIDTH = 20  # a FLOAT slot: the sign, 9 whole places, the point and 9 decimals
_DTYPE = {FLOAT: np.float64, SIGNED: np.int64, BOOL: np.bool_}
_EXPONENT_PLACES = np.arange(9, 20)  # the places of a FLOAT slot an exponent form rewrites
# a None or non-finite FLOAT cell's slot, by json_side: nan or null, the rest masked
_MISSING = [(np.frombuffer(text.ljust(_FLOAT_WIDTH).encode(), np.uint8), np.arange(_FLOAT_WIDTH) < len(text))
            for text in ("nan", "null")]

# The cell writers below fill a slot one byte column at a time: a column is
# one strided loop over the block's rows, while an operation on an (n, 3)
# or (n, 9) part of the matrix loops once per row.  Four decimals go in as
# one uint32 word.  Digits are split off by unsigned integer division by a
# constant, which numpy vectorizes: per cell it is cheaper than float64
# floor division and several times cheaper than int64 np.divmod.


@functools.cache
def _words():
    """The four ASCII digits of each 4-digit group as one uint32 word, and
    the word of its mask that keeps each digit up to the last nonzero one.

    Built on first use, so a process that imports the CLI and renders
    nothing does not pay for them."""
    groups = np.arange(10_000, dtype=np.int16)[:, None]
    digits = (groups // np.array([1000, 100, 10, 1], dtype=np.int16) % 10 + ord("0")).astype(np.uint8)
    kept = groups % np.array([10_000, 1000, 100, 10], dtype=np.int16) > 0
    tables = digits.view(np.uint32)[:, 0], kept.view(np.uint32)[:, 0]
    for table in tables:
        table.flags.writeable = False
    return tables


def _billionths(x: np.ndarray) -> np.ndarray:
    """round-half-even(x * 1e9) as exact float64 integers, for |x| < 4e6."""
    p = x * 1e9
    d = np.rint(p)
    tie = p - d
    if np.abs(tie).max(initial=0.0) == 0.5:  # some p is a half-integer
        hi = x * _SPLITTER
        hi -= hi - x
        e = (hi * 1e9 - p) + (x - hi) * 1e9
        d += (tie == 0.5) & (e > 0.0)
        d -= (tie == -0.5) & (e < 0.0)
    return d


def _put_digits(chars: np.ndarray, valid: np.ndarray, value: np.ndarray, masked: int) -> int:
    """Write value, the whole parts of a block's FLOAT cells (integers
    below 4e6), right-aligned in the 9 places of ``chars``, each kept from
    its first nonzero digit (the last always).

    Only the places of the largest value are written and compared.  The
    places before them must be masked: the first ``masked`` are, in every
    row, and the rest are masked here.  Returns how many are masked now.
    """
    value = value.astype(np.uint32)
    start = 9 - len(str(value.max(initial=0)))
    if start > masked:
        valid[:, masked:start] = False
    for place in range(start, 8):
        np.greater_equal(value, 10 ** (8 - place), out=valid[:, place])
    for stop in range(9, start, -3):  # a 3-digit group at a time, from the last
        low = max(stop - 3, start)
        group = value
        if low > start:
            value = value // 1000
            group = group - value * 1000
        if stop - low == 1:
            np.add(group, ord("0"), out=chars[:, low], casting="unsafe")
            continue
        group = group.astype(np.intp)
        for place in range(low, stop):
            chars[:, place] = _DIGITS[place - stop + 3][group]
    return start


def _float_cells(x, chars, valid, json_side, masked):
    """Write the cells of x, one a row of ``chars``, if none is finite with
    |x| >= 4e6; else write nothing and return None.

    Returns the mask of the None or non-finite cells (None if there are
    none), |d| of every cell (0 for those) and the whole places masked
    (``_put_digits``).
    """
    magnitude = np.abs(x)
    missing = None
    if not (magnitude < _FAST_LIMIT).all():
        missing = ~np.isfinite(x)
        if (magnitude[~missing] >= _FAST_LIMIT).any():
            return None
        magnitude[missing] = 0.0
    units = _billionths(magnitude).astype(np.uint64)
    whole = units // _UNITS
    frac = (units - whole * _UNITS).astype(np.uint32)
    valid[:, 0] = np.signbit(x)  # np.signbit(x, out=<strided>) is wrong in numpy 2.4
    masked = _put_digits(chars[:, 1:10], valid[:, 1:10], whole, masked)
    # the decimals: one digit, then two 4-digit words
    high = frac // 10_000
    low = (frac - high * 10_000).astype(np.intp)
    first = high // 10_000
    high = (high - first * 10_000).astype(np.intp)
    np.add(first, ord("0"), out=chars[:, 11], casting="unsafe")
    word_digits, word_kept = _words()
    words = chars[:, 12:20].view(np.uint32)
    words[:, 0] = word_digits[high]
    words[:, 1] = word_digits[low]
    if json_side:  # keep the decimals up to the last nonzero one, at least one
        kept = valid[:, 12:20].view(np.uint32)
        kept[:, 0] = np.where(low > 0, _EVERY_DIGIT, word_kept[high])
        kept[:, 1] = word_kept[low]
    return missing, units, masked


def _exponent_cells(d: np.ndarray):
    """Bytes and keep mask of places 9-19 of the FLOAT slots of the JSON
    cells of d billionths, 1 <= d < 1e5: D[.DDDD]e-0E (the sign stays)."""
    word_digits, word_kept = _words()
    d = d.astype(np.intp)
    shift = (d >= 10).astype(np.intp) + (d >= 100) + (d >= 1000) + (d >= 10_000)
    mantissa = d * 10 ** (4 - shift)  # the digits of d, then zeros, to five places
    lead = mantissa // 10_000
    rest = mantissa - lead * 10_000
    chars = np.empty((len(d), 11), dtype=np.uint8)
    valid = np.ones((len(d), 11), dtype=bool)
    chars[:, 0] = lead + ord("0")
    chars[:, 1] = ord(".")
    valid[:, 1] = rest > 0
    chars[:, 2:6] = word_digits[rest].view(np.uint8).reshape(-1, 4)
    valid[:, 2:6] = word_kept[rest].view(np.bool_).reshape(-1, 4)
    chars[:, 6:9] = np.frombuffer(b"e-0", dtype=np.uint8)
    chars[:, 9] = ord("9") - shift  # E = 10 - len(str(d))
    valid[:, 10] = False
    return chars, valid


# The two texts of a BOOL or SIGNED cell, by json_side: the first for false
# or -1, the second for true or +1.
_CHOICE_TEXT = {BOOL: (("false", "true"),) * 2, SIGNED: (("-1", "+1"), ("-1", "1"))}


@functools.cache
def _choice(kind: str, json_side: bool):
    """Bytes of the two texts of a BOOL or SIGNED cell, the shorter one padded
    with a space, and whether each keeps its slot's last place."""
    texts = _CHOICE_TEXT[kind][json_side]
    width = max(map(len, texts))
    chars = np.array([list(text.ljust(width).encode()) for text in texts], dtype=np.uint8)
    keeps = np.array([len(text) == width for text in texts])
    chars.flags.writeable = keeps.flags.writeable = False
    return chars, keeps


class _BlockRenderer:
    """Text of whole blocks of records, a column kind at a time.

    A block's rows are laid out in one preallocated byte matrix: the fixed
    pieces of the record template (separators, JSON keys) in every row,
    then one fixed-width slot per cell, and a mask of the bytes each row
    keeps.  The text is the bytes ``chars[valid]``.  The k FLOAT columns of
    a block are written together: stacked into one array of k * n values,
    rendered in one pass into a preallocated (k * n, 20) byte matrix and
    mask, then copied a column's slots at a time into the rows.  Per-call
    numpy overhead is then paid once a block, not once a FLOAT column.

    The whole part of the FLOAT cells is written only in as many places as
    the block's largest value has; ``masked`` is how many of its leading
    places are masked in every row, so a block masks only those a wider
    block before it kept.  JSON cells that ``repr`` writes with an exponent
    (0 < |round(x, 9)| < 1e-4) and None or non-finite FLOAT cells (``nan``,
    ``null``) are rewritten in their rows.  A block with a finite FLOAT cell
    the columns do not write (|x| >= 4e6) is written whole by ``fmt`` /
    ``_json_number`` instead, row by row.  A BOOL or SIGNED cell is one of
    two fixed texts (``_choice``): a SIGNED cell must be +1 or -1, checked
    in every block, and an INT column is refused, as only ``record_text``
    writes one.  Each row starts with ``lead``.
    """

    def __init__(self, columns, json_side: bool, indent: str = "", lead: str = ""):
        template, order = _template(columns, json_side, indent)
        self.lead = lead
        self.json_side = json_side
        self.kinds = [kind for _, kind in columns]
        if INT in self.kinds:
            raise ValueError("an INT column is written by record_text, not in blocks")
        self.scalar_row = _renderer(columns, json_side, indent)
        pieces = [piece.encode("ascii") for piece in (lead + template).split("%s")]
        self.fixed, self.floats, self.choices, at = [], [], [], 0
        for piece, i in itertools.zip_longest(pieces, order):
            self.fixed.append((at, piece))
            at += len(piece)
            if i is not None:
                kind = self.kinds[i]
                width = _FLOAT_WIDTH if kind == FLOAT else _choice(kind, json_side)[0].shape[1]
                (self.floats if kind == FLOAT else self.choices).append((i, at, at + width))
                at += width
        self.width = at
        self.float_starts = np.array([start for _, start, _ in self.floats], dtype=np.intp)
        self._allocate(0)

    def _allocate(self, rows: int) -> None:
        """Fresh matrices of ``rows`` rows, with every byte that no block changes."""
        self.chars = np.empty((rows, self.width), dtype=np.uint8)
        self.valid = np.ones((rows, self.width), dtype=bool)
        for at, piece in self.fixed:
            self.chars[:, at:at + len(piece)] = np.frombuffer(piece, dtype=np.uint8)
        cells = len(self.floats) * rows
        self.float_x = np.empty(cells)
        self.float_chars = np.empty((cells, _FLOAT_WIDTH), dtype=np.uint8)
        self.float_valid = np.ones((cells, _FLOAT_WIDTH), dtype=bool)
        self.float_chars[:, 0] = ord("-")
        self.float_chars[:, 10] = ord(".")
        self.masked = 0  # leading whole places of the FLOAT slots masked in every row

    def text(self, block) -> str:
        """Text of the rows of ``block``: one column of cells per column."""
        cells = [np.asarray(column, dtype=_DTYPE[kind]) for column, kind in zip(block, self.kinds)]
        n = len(cells[0])
        if n > len(self.chars):
            self._allocate(n)
        chars, valid = self.chars[:n], self.valid[:n]
        for i, start, stop in self.choices:  # the slot's text, then its one place kept by value
            kind, v = self.kinds[i], cells[i]
            if kind == SIGNED:
                wrong = np.abs(v) != 1
                if wrong.any():
                    raise ValueError(f"a SIGNED cell is +1 or -1, got {v[wrong][0]}")
                v = v > 0
            texts, keeps = _choice(kind, self.json_side)
            index = v.view(np.uint8)
            chars[:, start:stop] = texts.take(index, axis=0)
            valid[:, stop - 1] = keeps.take(index)
        if self.floats:
            k = len(self.floats)
            x = np.concatenate([cells[i] for i, _, _ in self.floats], out=self.float_x[:k * n])
            float_chars, float_valid = self.float_chars[:k * n], self.float_valid[:k * n]
            written = _float_cells(x, float_chars, float_valid, self.json_side, self.masked)
            if written is None:  # a cell past the columns' exact range: every row by scalar_row
                rows = zip(*[column.tolist() for column in cells])
                return "".join([self.lead + self.scalar_row(row) for row in rows])
            missing, units, self.masked = written
            for c, (_, start, stop) in enumerate(self.floats):
                column = slice(c * n, (c + 1) * n)
                chars[:, start:stop] = float_chars[column]
                valid[:, start:stop] = float_valid[column]
            # the rows' FLOAT slots are copied whole each block, so rewriting one needs no undo
            if missing is not None:
                slot, row = np.divmod(np.flatnonzero(missing), n)
                places = self.float_starts[slot, None] + np.arange(_FLOAT_WIDTH)
                chars[row[:, None], places], valid[row[:, None], places] = _MISSING[self.json_side]
            if self.json_side:  # cells repr writes with an exponent, rewritten in their rows
                tiny = np.flatnonzero((units > 0) & (units < _TINY))
                if len(tiny):
                    slot, row = np.divmod(tiny, n)
                    places = self.float_starts[slot, None] + _EXPONENT_PLACES
                    chars[row[:, None], places], valid[row[:, None], places] = _exponent_cells(units[tiny])
        return str(chars[valid], "ascii")


def emit_records(fmt_name: str, columns, blocks, summary=None):
    """CSV or JSON text of a table of records, yielded in chunks.

    ``columns`` are ``(name, kind)`` pairs and ``blocks`` an iterable of
    blocks of rows, each a sequence of one column of cells (a numpy array
    or a sequence of Python scalars) per entry of ``columns``; ``summary``
    is an optional ``(columns, row)`` pair.  JSON is ``{"rows": [...],
    "summary": {...}}`` as ``json_text`` writes it; CSV is a header line
    and one line per row, then the summary after a blank line.  A chunk
    is the opening, the rows of one block, or the closing, so the text
    held at once does not grow with the number of rows.
    """
    if fmt_name == "csv":
        renderer = _BlockRenderer(columns, False)
        yield _csv_header(columns)
        for block in blocks:
            yield renderer.text(block)
        if summary is not None:
            yield "\n" + record_text("csv", *summary)
        return
    separator = ",\n    "
    renderer = _BlockRenderer(columns, True, "    ", separator)
    yield '{\n  "rows": [\n    '
    skip = len(separator)  # the first row has no separator before it
    for block in blocks:
        yield renderer.text(block)[skip:]
        skip = 0
    yield "\n  ]"
    if summary is not None:
        yield ',\n  "summary": ' + _renderer(summary[0], True, "  ")(summary[1])
    yield "\n}\n"


# a config file holds a few flat lines; a longer one is refused unread
MAX_CONFIG_BYTES = 1 << 20


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "rb") as fh:
        data = fh.read(MAX_CONFIG_BYTES + 1)
    if len(data) > MAX_CONFIG_BYTES:
        raise UsageError(f"{path}: config file larger than the limit of {MAX_CONFIG_BYTES} bytes")
    text = data.decode()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected 'key = value', got {_quote(raw)}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in OPTION_KEYS:
            raise UsageError(f"{path}:{line_no}: unknown config key {_quote(key)}")
        values[key] = value.strip()
    return values


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser, by name."""
    parser = argparse.ArgumentParser(
        prog="ttbell",
        description="Two-time single-particle CHSH experiment toolkit.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for command in COMMANDS:
        sp = sub.add_parser(command)
        # a token of "-" and a digit or "." is a value (--a -1,2, --b -1e-3),
        # not an unknown flag; argparse itself accepts only "-1" and "-1.5"
        sp._negative_number_matcher = re.compile(r"-[\d.]")
        for opt in OPTIONS:
            if command not in opt.commands:
                continue
            if opt.convert is _to_bool:  # a bare flag, given to the merge as a config file gives it
                sp.add_argument(_flag(opt.key), action="store_const", const="true", default=None, help=opt.help)
            else:
                sp.add_argument(_flag(opt.key), dest=opt.key, default=None, help=opt.help,
                                choices=FORMATS if opt.key == "format" else None)
        sp.add_argument("--config", default=None, help="flat key = value config file")
    return parser, sub.choices


def _merge_options(args: argparse.Namespace) -> dict:
    """The options of ``args.command``, each resolved once as the module
    docstring says: ``--degrees`` first, as it scales the angles, then the
    rest in ``OPTIONS`` order."""
    config_values = _load_config_file(args.config) if args.config else {}
    options = [opt for opt in OPTIONS if args.command in opt.commands]
    merged = {}
    for opt in sorted(options, key=lambda opt: opt.key != "degrees"):
        key = opt.key
        text = getattr(args, key, None)
        if text is None:
            text = config_values.get(key)
        if text is None:
            merged[key] = opt.default
            continue
        try:
            value = opt.convert(text)
        except ValueError as exc:  # Python's own message quotes the whole text
            raise UsageError(f"bad value for {_flag(key)}: {str(exc).replace(repr(text), _quote(text))}")
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"{_flag(key)} must be finite, got {_quote(text)}")
        if opt.angle and merged["degrees"]:
            value = value * (math.pi / 180.0)
        if opt.unit and not 0.0 <= value <= 1.0:
            raise UsageError(f"{_flag(key)} must lie in [0, 1], got {value!r}")
        merged[key] = value
    return merged


TABLE_COLUMNS = (
    ("a", FLOAT), ("b", FLOAT), ("A", SIGNED), ("B", SIGNED),
    ("p_joint", FLOAT), ("p_marg_t1", FLOAT), ("p_marg_t2", FLOAT), ("p_cond", FLOAT),
)


def _table_blocks(a_list, b_list):
    """Table records in blocks of ``ROW_BLOCK`` rows, as columns: for each
    a, each b, the four (A, B).  sin a is taken once per a and cos(a - b)
    once per pair, with ``math``, and ``quantum.probability_columns`` does
    the rest, so every cell has the bits of the scalar closed forms.  A
    conditional whose P(A | a) is 0, and so is undefined, is written NaN.
    They cannot fail once ``cmd_table`` has checked every a - b is finite."""
    a_all, b_all = np.asarray(a_list, dtype=np.float64), np.asarray(b_list, dtype=np.float64)
    sin_all = np.fromiter(map(math.sin, a_all), dtype=np.float64, count=len(a_all))
    rows = 4 * len(a_all) * len(b_all)
    for lo in range(0, rows, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, rows)
        i, j = np.divmod(np.arange(lo // 4, (hi + 3) // 4), len(b_all))  # the block's pairs
        a, b = a_all[i], b_all[j]
        cos_ab = np.array([math.cos(d) for d in (a - b).tolist()])
        pair, outcome = np.divmod(np.arange(lo, hi), 4)
        pair -= lo // 4
        A, B = quantum.ROW_OUTCOMES[:, outcome]
        joint, p_t1, p_t2, conditional = quantum.probability_columns(sin_all[i][pair], cos_ab[pair], A, B)
        conditional[p_t1 == 0.0] = math.nan
        yield [a[pair], b[pair], A, B, joint, p_t1, p_t2, conditional]


def cmd_table(opts: dict) -> tuple[int, Iterable[str]]:
    a, b = opts["a"], opts["b"]
    rows = 4 * len(a) * len(b)
    if rows > MAX_SCAN_ROWS:
        raise UsageError(f"table of {rows} rows exceeds the limit of {MAX_SCAN_ROWS}; "
                         "use shorter --a or --b lists")
    # a - b is monotone in both angles, so its two extremes bound every pair
    extremes = (float(a.max()) - float(b.min()), float(a.min()) - float(b.max()))
    if not all(map(math.isfinite, extremes)):
        raise UsageError("--a and --b are too far apart: a - b overflows for some pair")
    return EXIT_OK, emit_records(opts["format"], TABLE_COLUMNS, _table_blocks(a, b))


MC_COLUMNS = (
    ("a", FLOAT), ("b", FLOAT), ("eta_d", FLOAT), ("f1", FLOAT), ("f21", FLOAT),
    ("fd2", FLOAT), ("overall_f", FLOAT), ("n_total", INT),
    ("n_pp", INT), ("n_pm", INT), ("n_mp", INT), ("n_mm", INT), ("n_undetected", INT),
    ("correlator_exp", FLOAT), ("correlator_conditioned", FLOAT),
    ("std_error", FLOAT), ("std_error_conditioned", FLOAT), ("seed", INT),
)


def _trials_and_seed(opts: dict, runs: int = 1, seed_offset: int = 0) -> tuple[int, int]:
    """``--trials`` and ``--seed`` of ``runs`` runs seeded up to ``seed_offset`` above
    ``--seed``, checked before the first: no run fails part-way, and all draw at
    most ``montecarlo.MAX_TRIALS`` trials together."""
    trials, seed = opts["trials"], opts["seed"]
    if trials < 1:
        raise UsageError(f"--trials must be at least 1, got {trials}")
    if trials > montecarlo.MAX_TRIALS // runs:
        raise UsageError(f"--trials {trials} exceed the limit of {montecarlo.MAX_TRIALS // runs}")
    if not 0 <= seed < 2**64 - seed_offset:
        raise UsageError(f"--seed must lie in [0, 2**64 - {seed_offset + 1}], got {seed}")
    return trials, seed


def cmd_mc(opts: dict) -> tuple[int, Iterable[str]]:
    a = _single_angle(opts, "a")
    b = _single_angle(opts, "b")
    trials, seed = _trials_and_seed(opts)
    config = montecarlo.DetectionConfig(
        eta_d=opts["eta_d"], f1=opts["f1"], f21=opts["f21"], f_d2=opts["fd2"]
    )
    counts = montecarlo.run(a, b, config, trials, seed)
    est = montecarlo.estimate(counts)
    record = (
        a, b, config.eta_d, config.f1, config.f21, config.f_d2, config.overall_f,
        counts.n_total,
        counts.counts[montecarlo.DetectorId(1, 1)],
        counts.counts[montecarlo.DetectorId(1, -1)],
        counts.counts[montecarlo.DetectorId(-1, 1)],
        counts.counts[montecarlo.DetectorId(-1, -1)],
        counts.n_undetected,
        est.correlator_exp, est.correlator_conditioned,
        est.std_error, est.std_error_conditioned,
        counts.seed,
    )
    return EXIT_OK, [record_text(opts["format"], MC_COLUMNS, record)]


def _eta_f(opts: dict) -> float:
    """eta_d * F of the options, multiplied left to right: eta_d * f1 * f21 * fd2."""
    return opts["eta_d"] * opts["f1"] * opts["f21"] * opts["fd2"]


SCAN_COLUMNS = (("alpha", FLOAT), ("s_ideal", FLOAT), ("s_exp", FLOAT), ("violated", BOOL))
SCAN_SUMMARY_COLUMNS = (
    ("alpha_star", FLOAT), ("s_max", FLOAT), ("s_exp_max", FLOAT),
    ("eta_f", FLOAT), ("eta_f_critical", FLOAT), ("violated", BOOL),
)


def cmd_chsh_scan(opts: dict) -> tuple[int, Iterable[str]]:
    scan, summary = scan_alpha(opts["alpha_min"], opts["alpha_max"], opts["alpha_step"], eta_f=_eta_f(opts))
    summary_row = [getattr(summary, name) for name, _ in SCAN_SUMMARY_COLUMNS]
    return EXIT_OK, emit_records(
        opts["format"], SCAN_COLUMNS, scan.blocks(ROW_BLOCK), (SCAN_SUMMARY_COLUMNS, summary_row)
    )


SWEEP_ETA_F = tuple(round(0.6 + 0.02 * i, 12) for i in range(21))
SWEEP_COLUMNS = (("eta_f", FLOAT), ("s_exp_mc", FLOAT), ("s_exp_closed", FLOAT),
                 ("violated_mc", BOOL), ("violated_closed", BOOL))


def cmd_sweep(opts: dict) -> tuple[int, Iterable[str]]:
    """Monte Carlo CHSH value at alpha = pi/4 beside its closed form, at each
    eta_d*F of ``SWEEP_ETA_F``; point i runs ladder pair k with seed ``--seed + 10*i + k``."""
    s = ladder_settings(math.pi / 4)
    pairs = ((s.a, s.b), (s.a, s.b_prime), (s.a_prime, s.b_prime), (s.a_prime, s.b))
    trials, seed = _trials_and_seed(opts, 4 * len(SWEEP_ETA_F), 10 * (len(SWEEP_ETA_F) - 1) + 3)
    rows = []
    for i, eta_f in enumerate(SWEEP_ETA_F):
        config = montecarlo.DetectionConfig(eta_d=eta_f)  # only the product eta_d*F matters
        est = {pair: montecarlo.estimate(montecarlo.run(*pair, config, trials, seed + 10 * i + k))
               for k, pair in enumerate(pairs)}
        measured = chsh_value(lambda x, y: est[x, y].correlator_exp, s)
        closed = threshold_analysis(eta_f, 1.0)
        rows.append((eta_f, measured.s_value, closed.s_exp_max, measured.violated, closed.violated))
    return EXIT_OK, emit_records(opts["format"], SWEEP_COLUMNS, [list(zip(*rows))])


def _exactly(opts: dict, key: str, n: int, what: str) -> list[float]:
    """The n numbers of the list option ``key``, which expects ``what``."""
    values = opts[key]
    if len(values) != n:
        shown = ",".join(map(repr, values[:QUOTE_CHARS].tolist()))  # enough to fill a quote
        raise UsageError(f"{_flag(key)} expects {what}, got {_quote(shown)}")
    return values.tolist()


def _single_angle(opts: dict, key: str) -> float:
    return _exactly(opts, key, 1, "a single angle here")[0]


def _select_model(opts: dict):
    """Build the requested model; returns (model, description, a, b).

    Both angles are checked to be single before a model file is read or a
    built-in model built, so of several bad inputs the same one is always
    reported first."""
    name = opts["model"]
    path = opts["model_file"]
    if name and path:
        raise UsageError("give either --model or --model-file, not both")
    if not name and not path:
        raise UsageError(f"--model ({', '.join(BUILTIN_MODELS)}) or --model-file is required")
    a = _single_angle(opts, "a")
    b = _single_angle(opts, "b")
    if path:
        try:
            model = model_io.load_model(path)
        except (model_io.ModelFileError, lhv.InvalidModelError) as exc:
            raise UsageError(f"{path}: {exc}")
        description = f"file:{path}"
    if name == "fixed-setting-reproducer":
        model = lhv.fixed_setting_reproducer(a, b)
        description = f"fixed-setting-reproducer(a={fmt(a)}, b={fmt(b)})"
    elif name == "position-style":
        if opts["grid_size"] < 2:
            raise UsageError(f"--grid-size must be at least 2, got {opts['grid_size']}")
        model = lhv.position_style_model(opts["grid_size"])
        description = f"position-style(grid_size={opts['grid_size']})"
    elif name:
        raise UsageError(f"unknown model {_quote(name)}; expected one of: {', '.join(BUILTIN_MODELS)}")
    return model, description, a, b


def cmd_lhv_verify(opts: dict) -> tuple[int, Iterable[str]]:
    model, description, a, b = _select_model(opts)
    chsh_settings = ChshSettings(a=a, a_prime=opts["a_prime"], b=b, b_prime=opts["b_prime"])

    try:
        report = lhv.verify_consistency(model, a, b)
    except lhv.InvalidModelError as exc:
        raise UsageError(f"model evaluation failed: {exc}")

    # one entry per check: (name, passed, "error" or "value", that number)
    checks = [(name, error <= lhv.RESPONSE_TOL, "error", error) for name, error in report.mandatory()]
    if model.kind == lhv.FACTORIZED:
        try:
            bounds = [
                ("per_lambda_chsh_bound", float(lhv.per_state_chsh(model, chsh_settings).max())),
                ("averaged_chsh_bound", lhv.averaged_chsh(model, chsh_settings)),
            ]
        except lhv.InvalidModelError as exc:
            raise UsageError(f"model evaluation failed: {exc}")
        checks += [(name, value <= CLASSICAL_BOUND + VIOLATION_TOL, "value", value) for name, value in bounds]

    passed = all(check[1] for check in checks)
    exit_code = EXIT_OK if passed else EXIT_VERIFY_FAILED

    if opts["format"] == "json":
        return exit_code, [json_text({
            "model": description,
            "kind": model.kind,
            "states": len(model.weights),
            "settings": {
                "a": jnum(a), "b": jnum(b),
                "a_prime": jnum(opts["a_prime"]), "b_prime": jnum(opts["b_prime"]),
            },
            "checks": {
                name: {"passed": ok, "error": None, "value": None, field: jnum(number)}
                for name, ok, field, number in checks
            },
            "outcome_swap_symmetric": report.outcome_swap_symmetric,
            "outcome_swap_error": jnum(report.outcome_swap_error),
            "passed": passed,
        })]

    def check_lines(field: str, text) -> list[str]:
        return [
            f"check {name}: {'PASS' if ok else 'FAIL'} ({field} {text(number)})"
            for name, ok, kind, number in checks if kind == field
        ]

    swap = "HOLDS" if report.outcome_swap_symmetric else "BROKEN"
    swap_err = "n/a" if report.outcome_swap_error is None else fmt_sci(report.outcome_swap_error)
    lines = [
        f"model: {description}",
        f"kind: {model.kind}",
        f"states: {len(model.weights)}",
        f"settings: a={fmt(a)} b={fmt(b)} a_prime={fmt(opts['a_prime'])} b_prime={fmt(opts['b_prime'])}",
        *check_lines("error", fmt_sci),
        f"note outcome_swap_symmetry: {swap} (error {swap_err})",
    ]
    if not report.outcome_swap_symmetric:
        lines.append("note mean_product: SKIPPED (requires outcome-swap symmetry)")
    lines += check_lines("value", fmt)
    if model.kind == lhv.GENERAL:
        lines.append("note per_lambda_chsh_bound: SKIPPED (general model)")
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    return exit_code, ["\n".join(lines) + "\n"]


def cmd_polytope(opts: dict) -> tuple[int, Iterable[str]]:
    if opts["targets"] is not None and opts["alpha"] is not None:
        raise UsageError("give either --targets or --alpha, not both")
    if opts["targets"] is not None:
        targets = tuple(_exactly(opts, "targets", 4, "four comma-separated correlators"))
        source = {}
    elif opts["alpha"] is not None:
        eta_f = _eta_f(opts)
        # cos of the ladder's separations alpha, alpha, alpha and 3*alpha, with cos 3a = c (4c^2 - 3)
        c = math.cos(opts["alpha"])
        targets = tuple(eta_f * value for value in (c, c, c, c * (4.0 * c * c - 3.0)))
        source = {"alpha": _json_number(opts["alpha"]), "eta_f": _json_number(eta_f)}
    else:
        raise UsageError("polytope needs --alpha (with efficiencies) or --targets")

    cert = polytope.polytope_check(targets)
    signs, value = cert.max_facet
    fields = {**source, "gap": _json_number(cert.gap), "max": _json_number(value)}
    fields.update(zip(_numbered("t", 4), map(_json_number, targets)))
    fields.update(zip(_numbered("max", 4), map(str, signs)))
    if cert.feasible:
        fields.update(zip(_numbered("w", 16), [_json_number(cert.weights[s]) for s in polytope.STRATEGIES]))
    text = _polytope_template("alpha" in source, cert.feasible) % fields
    return EXIT_OK if cert.feasible else EXIT_INFEASIBLE, [text]


@functools.cache
def _numbered(name: str, n: int) -> tuple[str, ...]:
    """Fields ``name0`` to ``name<n-1>`` of a ``_polytope_template``."""
    return tuple(f"{name}{k}" for k in range(n))


@functools.cache
def _polytope_template(ladder: bool, feasible: bool) -> str:
    """``polytope``'s document for one layout as a template of ``%(field)s``.

    It is ``json_text`` of a payload whose leaves are placeholders, so the
    layout is ``json_text``'s; each field is filled with the text
    ``json_text`` writes for that leaf.  An infeasible document's violated
    facet is filled from the max facet's fields.
    """
    def leaf(field):  # json_text writes it as "\u0000field"
        return "\0" + field

    max_facet = {"signs": list(map(leaf, _numbered("max", 4))), "value": leaf("max")}
    text = json_text({
        "source": ({"targets": "ladder", "alpha": leaf("alpha"), "eta_f": leaf("eta_f")} if ladder
                   else {"targets": "explicit"}),
        "targets": list(map(leaf, _numbered("t", 4))),
        "feasible": feasible,
        "gap": leaf("gap"),
        "max_facet": max_facet,
        "violated_facet": None if feasible else max_facet,
        "weights": ({polytope.strategy_label(s): leaf(field)
                     for s, field in zip(polytope.STRATEGIES, _numbered("w", 16))} if feasible else None),
    })
    return re.sub(r'"\\u0000(\w+)"', r"%(\1)s", text.replace("%", "%%"))


COMMANDS = {
    "table": cmd_table,
    "mc": cmd_mc,
    "chsh-scan": cmd_chsh_scan,
    "lhv-verify": cmd_lhv_verify,
    "polytope": cmd_polytope,
    "sweep": cmd_sweep,
}


def _emit(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write the chunks in turn to ``out``, or to stdout when it is None or ``-``.

    A stdout pipe closed by its reader (``| head``) ends the output
    quietly: what is left is dropped and stdout is pointed at devnull, so
    the interpreter's flush at exit raises nothing either.
    """
    if out is not None and out != "-":
        with open(out, "w", newline="") as fh:
            fh.writelines(chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _os_error_text(exc: OSError) -> str:
    """``str(exc)``, with the file name quoted by ``_quote``."""
    if exc.filename is None:
        return str(exc)
    return f"[Errno {exc.errno}] {exc.strerror}: {_quote(str(exc.filename))}"


def main(argv: Optional[list[str]] = None) -> int:
    parser, subparsers = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # reported with the subcommand's own usage, which lists its flags
            subparsers[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    try:
        try:
            opts = _merge_options(args)
            exit_code, chunks = COMMANDS[args.command](opts)
        except (UsageError, ValueError) as exc:
            # a ValueError from the library is a bad input the flags let through
            print(f"ttbell {args.command}: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        _emit(chunks, opts["out"])
    except OSError as exc:
        print(f"ttbell {args.command}: i/o error: {_os_error_text(exc)}", file=sys.stderr)
        return EXIT_IO
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
