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
Hidden-state ids may be any distinct integers; they are renumbered densely
in sorted order when parsed, so dumping is canonical and dump/parse/dump
is byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

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


def parse_model_text(text: str) -> ModelSpec:
    """Parse model-file content; raises ModelFileError with a line number."""
    kind: Optional[str] = None
    weights: dict[int, float] = {}
    p1_raw: dict[int, dict[float, float]] = {}
    p2_fact: dict[int, dict[float, float]] = {}
    p2_gen: dict[int, dict[tuple[float, float, int], float]] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive = tokens[0]

        if directive == "kind":
            if kind is not None:
                _fail(line_no, "duplicate kind directive")
            if len(tokens) != 2 or tokens[1] not in (lhv.FACTORIZED, lhv.GENERAL):
                _fail(line_no, "expected 'kind factorized' or 'kind general'")
            kind = tokens[1]
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
            if state_id in weights:
                _fail(line_no, f"duplicate hidden-state id {state_id}")
            weight = _parse_float(tokens[2], line_no, "weight")
            if weight < 0.0:
                _fail(line_no, f"weight must be nonnegative, got {weight!r}")
            weights[state_id] = weight
            continue

        if directive in ("p1", "p2"):
            want_general_p2 = directive == "p2" and kind == lhv.GENERAL
            arity = 6 if want_general_p2 else 4
            if len(tokens) != arity:
                _fail(line_no, f"expected {arity} fields for {directive} in a {kind} model")
            try:
                state_id = int(tokens[1])
            except ValueError:
                _fail(line_no, f"hidden-state id is not an integer: {tokens[1]!r}")
            if state_id not in weights:
                _fail(line_no, f"response references undeclared hidden state {state_id}")
            if directive == "p1":
                angle = _parse_float(tokens[2], line_no, "angle")
                prob = _parse_prob(tokens[3], line_no, "p_plus")
                table = p1_raw.setdefault(state_id, {})
                if angle in table:
                    _fail(line_no, f"duplicate p1 entry at angle {angle!r}")
                table[angle] = prob
            elif want_general_p2:
                a = _parse_float(tokens[2], line_no, "first angle")
                b = _parse_float(tokens[3], line_no, "second angle")
                if tokens[4] not in ("+1", "-1", "1"):
                    _fail(line_no, f"first outcome must be +1 or -1, got {tokens[4]!r}")
                a_outcome = 1 if tokens[4] in ("+1", "1") else -1
                prob = _parse_prob(tokens[5], line_no, "p_plus")
                table = p2_gen.setdefault(state_id, {})
                if (a, b, a_outcome) in table:
                    _fail(line_no, "duplicate p2 entry for these settings and outcome")
                table[(a, b, a_outcome)] = prob
            else:
                angle = _parse_float(tokens[2], line_no, "angle")
                prob = _parse_prob(tokens[3], line_no, "p_plus")
                table = p2_fact.setdefault(state_id, {})
                if angle in table:
                    _fail(line_no, f"duplicate p2 entry at angle {angle!r}")
                table[angle] = prob
            continue

        _fail(line_no, f"unknown directive {directive!r}")

    if kind is None:
        raise ModelFileError("model file declares no kind")
    if not weights:
        raise ModelFileError("model file declares no hidden states")
    total = math.fsum(weights.values())
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ModelFileError(f"hidden-state weights sum to {total!r}, expected 1")

    order = sorted(weights)
    dense_weights = tuple(weights[i] for i in order)
    p1_tables = tuple(tuple(sorted(p1_raw.get(i, {}).items())) for i in order)
    if kind == lhv.FACTORIZED:
        p2_tables = tuple(tuple(sorted(p2_fact.get(i, {}).items())) for i in order)
    else:
        p2_tables = tuple(
            tuple(sorted((a, b, A, p) for (a, b, A), p in p2_gen.get(i, {}).items()))
            for i in order
        )
    return ModelSpec(kind=kind, weights=dense_weights, p1_tables=p1_tables, p2_tables=p2_tables)


def dump_model_spec(spec: ModelSpec) -> str:
    """Canonical text form; full-precision floats so parsing is lossless.

    Values are coerced with ``float`` first, so numpy scalars are written
    as plain numbers rather than as ``np.float64(...)``.
    """
    lines = [f"kind {spec.kind}"]
    for i, w in enumerate(spec.weights):
        lines.append(f"lambda {i} {float(w)!r}")
    for i, entries in enumerate(spec.p1_tables):
        for angle, p in entries:
            lines.append(f"p1 {i} {float(angle)!r} {float(p)!r}")
    for i, entries in enumerate(spec.p2_tables):
        if spec.kind == lhv.FACTORIZED:
            for angle, p in entries:
                lines.append(f"p2 {i} {float(angle)!r} {float(p)!r}")
        else:
            for a, b, A, p in entries:
                lines.append(f"p2 {i} {float(a)!r} {float(b)!r} {A:+d} {float(p)!r}")
    return "\n".join(lines) + "\n"


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
    if model.kind == lhv.FACTORIZED:
        t2_keys = [(float(b),) for b in t2_angles]
    else:
        t2_keys = [(float(a), float(b), A) for a, b in t2_pairs for A in (1, -1)]

    def tables(slot, keys):
        column = model.t1_column if slot == "t1" else model.t2_column
        table = np.array([column(*key)[0] for key in keys]).reshape(len(keys), len(model.weights))
        if np.isnan(table).any():  # NaN marks a state with no tabulated response
            key, k = (x[0] for x in np.nonzero(np.isnan(table)))
            raise lhv.InvalidModelError(f"no {slot} response tabulated at {keys[key]} for id {k}")
        rows = zip(*table.tolist()) if keys else [()] * len(model.weights)
        return tuple(tuple(sorted((*key, p) for key, p in zip(keys, row))) for row in rows)

    return ModelSpec(
        kind=model.kind,
        weights=tuple(model.weights.tolist()),
        p1_tables=tables("t1", [(float(a),) for a in t1_angles]),
        p2_tables=tables("t2", t2_keys),
    )


def load_model(path: str | Path) -> lhv.LhvModel:
    return parse_model_text(Path(path).read_text()).build()


def write_model_file(
    path: str | Path,
    model: lhv.LhvModel,
    t1_angles: Sequence[float],
    t2_angles: Sequence[float] = (),
    t2_pairs: Sequence[tuple[float, float]] = (),
) -> None:
    spec = spec_from_model(model, t1_angles, t2_angles, t2_pairs)
    Path(path).write_text(dump_model_spec(spec))
