"""Hidden-variable models for the two-time spin experiment.

A model is a finite weighted support of hidden states ("lambda points")
together with response probabilities for the two measurement slots.  Two
kinds are distinguished:

- *factorized*: p(A,B | a,b,lambda) = p1(A | a,lambda) * p2(B | b,lambda),
  the statistical-independence form (the second response sees neither the
  first setting nor the first outcome);
- *general*:    p(A,B | a,b,lambda) = p1(A | a,lambda) * p2(B | a,b,A,lambda),
  the unrestricted chain-rule form.

Continuous hidden-variable densities are discretized to finite supports:
every quantity of interest is an expectation, which finite weighted sums
evaluate exactly.

A model is evaluated a *column* at a time: for one setting, the validated
pair (P(+1), P(-1)) as the two rows of a (2, K) float64 array over all K
states; every result is an array reduction over columns.  Sums over states
run strictly left to right, so each equals a Python loop over the states bit
for bit.  Tabulated models are checked once, when built, into one read-only
array of columns and a key -> column index, and hand out views of it.

For factorized models the per-lambda product mean factorizes,
E12 = E1 * E2, which is what bounds the per-lambda CHSH combination by 2.
`verify_consistency` checks the ensemble-level bookkeeping identities
(marginal/mean inversion, moment-route conditionals, outcome-swap symmetry
and its mean-product consequence, and factorization of double averages
over independent lambda pairs) that underpin that derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Optional

import numpy as np

from .chsh import ChshSettings
from .quantum import (
    OUTCOMES,
    JointDistribution,
    Moments,
    UndefinedConditionalError,
    clamp_probability,
    quantum_joint,
)

RESPONSE_TOL = 1e-12
FACTORIZED = "factorized"
GENERAL = "general"

Column = np.ndarray  # shape (2, K): row 0 is P(+1), row 1 is P(-1)


class InvalidModelError(ValueError):
    """Model weights or response probabilities violate their contracts."""


class UnsupportedModelError(InvalidModelError):
    """Operation requires a factorized model."""


@dataclass(frozen=True)
class LambdaPoint:
    """One discrete hidden state with its ensemble weight."""

    id: int
    weight: float


@dataclass(frozen=True)
class PerLambdaStats:
    """Slot means and product mean at a single hidden state."""

    e1: float
    e2: float
    e12: float


@dataclass(frozen=True, eq=False)
class LhvModel:
    """Finite hidden-variable model, evaluated a column at a time.

    ``t1_column(a)`` is the first-slot response at angle a as a ``Column``.
    For factorized models ``t2_column(b)`` likewise; for general models
    ``t2_column(a, b, A)`` may also see the first setting and outcome.  A
    tabulated model marks a state with no response at a setting by NaN;
    any evaluation that touches that state raises ``InvalidModelError``.
    """

    weights: np.ndarray
    kind: Literal["factorized", "general"]
    t1_column: Callable[..., Column]
    t2_column: Callable[..., Column]

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float).reshape(-1)
        if not len(weights):
            raise InvalidModelError("model support is empty")
        if self.kind not in (FACTORIZED, GENERAL):
            raise InvalidModelError(f"unknown model kind {self.kind!r}")
        values = weights.tolist()
        for k, w in enumerate(values):
            if not w >= -RESPONSE_TOL:  # NaN fails too
                raise InvalidModelError(f"weight {w!r} at id {k} is negative or not a number")
        total = math.fsum(values)
        if abs(total - 1.0) > RESPONSE_TOL:
            raise InvalidModelError(f"weights sum to {total!r}, expected 1")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def support(self) -> tuple[LambdaPoint, ...]:
        """The hidden states, derived from the weights: ``support[k].id == k``."""
        return tuple(LambdaPoint(k, w) for k, w in enumerate(self.weights.tolist()))


def factorized_model(support, p1, p2) -> LhvModel:
    """Model from scalar responses ``p1(A, a, lam)`` and ``p2(B, b, lam)``."""
    return _hand_written(support, p1, p2, FACTORIZED)


def general_model(support, p1, p2) -> LhvModel:
    """Model from scalar responses ``p1(A, a, lam)`` and ``p2(B, a, b, A, lam)``."""
    return _hand_written(support, p1, p2, GENERAL)


def _hand_written(support, p1, p2, kind) -> LhvModel:
    """Wrap scalar responses into column functions that evaluate them at
    every state, each pair validated by ``_response_pair``."""
    support = tuple(support)
    for k, lam in enumerate(support):
        if lam.id != k:
            raise InvalidModelError(f"support[{k}].id is {lam.id!r}; ids must run 0..K-1")

    def columns(response, name):
        def column(*setting):
            pairs = [
                _response_pair(lambda o: response(o, *setting, lam), f"{name}{setting} at id {k}")
                for k, lam in enumerate(support)
            ]
            return np.array(pairs, float).reshape(-1, 2).T

        return column

    return LhvModel([lam.weight for lam in support], kind, columns(p1, "p1"), columns(p2, "p2"))


def _response_pair(evaluate: Callable[[int], float], what: str) -> tuple[float, float]:
    """Evaluate a response for both outcomes and validate normalization."""
    values = []
    for outcome in OUTCOMES:
        v = evaluate(outcome)
        if not (-RESPONSE_TOL <= v <= 1.0 + RESPONSE_TOL):
            raise InvalidModelError(f"{what} returned {v!r}, outside [0, 1]")
        values.append(clamp_probability(v, RESPONSE_TOL))
    if abs(values[0] + values[1] - 1.0) > RESPONSE_TOL:
        raise InvalidModelError(
            f"{what} outcome probabilities sum to {values[0] + values[1]!r}, expected 1"
        )
    return values[0], values[1]


def _joint_terms(m: LhvModel, a_angles, b_angles) -> tuple[np.ndarray, ...]:
    """Columns at every setting pair (a_angles[i], b_angles[j]), each fetched
    once: slot 1, shape (I, 2, K); slot 2, shape (J, 2, K) for factorized
    models and (I, J, 2, 2, K), after A=+1 / A=-1, for general ones; and the
    per-state joint entries, shape (I, J, 2, 2, K), where ``terms[i, j, o, p]``
    has first outcome OUTCOMES[o], second OUTCOMES[p]."""
    pa = np.array([m.t1_column(a) for a in a_angles])
    if m.kind == FACTORIZED:
        pb = np.array([m.t2_column(b) for b in b_angles])
        return pa, pb, pa[:, None, :, None] * pb[:, None]
    pb = np.array([[[m.t2_column(a, b, A) for A in OUTCOMES] for b in b_angles] for a in a_angles])
    return pa, pb, pa[:, None, :, None] * pb


def _untabulated(terms: np.ndarray, where: str) -> InvalidModelError:
    """The error for a NaN result, which only a state with no tabulated
    response puts there: it names the first state with NaN in its ``terms``
    (states on the last axis), at the setting ``where`` describes.  Callers
    build it, and the text, only once a NaN is found."""
    k = np.isnan(terms).reshape(-1, terms.shape[-1]).any(axis=0).argmax()
    return InvalidModelError(f"no response tabulated at {where} for id {k}")


def _ensemble(m: LhvModel, terms: np.ndarray) -> list[float]:
    """Weighted sums over states (the last axis), in state order, as a flat
    list in the C order of the other axes.

    ``np.add.accumulate`` adds strictly left to right; the final ``+ 0.0``
    turns an all-negative-zero sum into +0.0, as a Python sum from 0.0 would.
    """
    weighted = terms * m.weights
    sums = np.add.accumulate(weighted, axis=-1, out=weighted)[..., -1]
    return [v + 0.0 for v in sums.ravel().tolist()]


def _averaged(m: LhvModel, a: float, b: float):
    """Slot-1 columns and per-state joint entries at (a, b) (as
    ``_joint_terms`` gives them), then the ensemble joint and moments."""
    pa, _, terms = _joint_terms(m, (a,), (b,))
    pp, pm, mp, mm = entries = _ensemble(m, terms)
    if any(map(math.isnan, entries)):
        raise _untabulated(terms, f"(a={a!r}, b={b!r})")
    joint = JointDistribution(pp=pp, pm=pm, mp=mp, mm=mm)
    moments = Moments(
        mean_t1=(pp + pm) - (mp + mm),
        mean_t2=(pp + mp) - (pm + mm),
        correlator=pp - pm - mp + mm,
    )
    return pa, terms, joint, moments


def _state(m: LhvModel, a: float, b: float, lam: LambdaPoint):
    """Slot-1 and slot-2 columns and the joint of one hidden state at (a, b)."""
    pa, pb, terms = (x[..., lam.id] for x in _joint_terms(m, (a,), (b,)))
    entries = terms.ravel().tolist()
    if any(math.isnan(v) for v in entries):
        raise InvalidModelError(f"no response tabulated at (a={a!r}, b={b!r}) for id {lam.id}")
    return pa, pb, JointDistribution(*entries)


def per_lambda_joint(m: LhvModel, a: float, b: float, lam: LambdaPoint) -> JointDistribution:
    """Joint outcome distribution contributed by a single hidden state."""
    return _state(m, a, b, lam)[2]


def per_lambda_stats(m: LhvModel, a: float, b: float, lam: LambdaPoint) -> PerLambdaStats:
    """Slot means e1, e2 and the product mean e12 at one hidden state.

    e12 is summed from the per-lambda joint rather than taken as e1*e2, so
    the factorization identity stays an observable property, not an input.
    """
    pa, pb, joint = _state(m, a, b, lam)
    if m.kind == FACTORIZED:
        e2 = pb.item(0) - pb.item(1)
    else:
        e2 = (joint.pp + joint.mp) - (joint.pm + joint.mm)
    return PerLambdaStats(e1=pa.item(0) - pa.item(1), e2=e2, e12=joint.correlator())


def average_over_lambda(m: LhvModel, a: float, b: float) -> tuple[JointDistribution, Moments]:
    """Ensemble joint and moments: weighted sums of per-lambda quantities."""
    return _averaged(m, a, b)[2:]


def model_conditional_t2(m: LhvModel, a: float, b: float, a_outcome: int, b_outcome: int) -> float:
    """Ensemble conditional P(B | A) = joint / first-slot marginal."""
    joint, _ = average_over_lambda(m, a, b)
    p1 = joint.prob(a_outcome, 1) + joint.prob(a_outcome, -1)
    if p1 <= 0.0:
        raise UndefinedConditionalError(
            f"first-slot outcome {a_outcome:+d} has zero probability; conditional undefined"
        )
    return joint.prob(a_outcome, b_outcome) / p1


def fixed_setting_reproducer(a: float, b: float) -> LhvModel:
    """Factorized model matching the quantum statistics at one setting pair.

    One deterministic hidden state per outcome pair (A, B), weighted by the
    quantum joint at (a, b); zero-weight pairs are dropped.  Responses
    ignore the angles, so agreement with quantum statistics holds at the
    construction settings only.
    """
    kept = [(outcomes, w) for outcomes, w in quantum_joint(a, b).items() if w != 0.0]
    t1, t2 = (np.array([[float(ab[slot] == o) for ab, _ in kept] for o in OUTCOMES]) for slot in (0, 1))
    t1.setflags(write=False)
    t2.setflags(write=False)
    return LhvModel([w for _, w in kept], FACTORIZED, lambda angle: t1, lambda angle: t2)


# the most hidden states verify_consistency accepts, from any source, and
# position_style_model builds: the check is O(K^2) in time, about 3.8 s at
# 2**16 states (2 vCPU Xeon, numpy 2.4); its pair sum holds 512 KiB of
# products whatever K is
MAX_GRID_SIZE = 1 << 16


def position_style_model(grid_size: int) -> LhvModel:
    """Deterministic responses driven by a uniform initial coordinate.

    Hidden state k carries lambda = k/grid_size on [0, 1).  The first slot
    answers +1 iff lambda falls below (1 + sin a)/2; the second slot uses
    the half-shifted coordinate lambda + 1/2 (mod 1) against
    (1 + sin b)/2.  The first-slot marginal converges to the quantum one as
    the grid refines.  An illustrative concrete instance, not canonical.
    Raises ValueError for fewer than 2 or more than ``MAX_GRID_SIZE`` states.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    if grid_size > MAX_GRID_SIZE:
        raise ValueError(f"grid_size {grid_size} exceeds the limit of {MAX_GRID_SIZE}")
    n = int(grid_size)
    coord = np.arange(n) / n

    def threshold_column(coords):
        def column(angle):
            plus = np.where(coords < 0.5 * (1.0 + math.sin(angle)), 1.0, 0.0)
            return np.array((plus, 1.0 - plus))

        return column

    columns = (threshold_column(coord), threshold_column((coord + 0.5) % 1.0))
    return LhvModel(np.full(n, 1.0 / n), FACTORIZED, *columns)


ANGLE_TOL = 1e-9  # how far a tabulated angle may lie from the one asked for
# the most cells (keys x states) one tabulated slot holds: 8 MiB of P(+1)
MAX_TABLE_CELLS = 1 << 20  # 16 keys at MAX_GRID_SIZE states


def tabulated_factorized_model(
    weights,
    p1_tables: dict[int, dict[float, float]],
    p2_tables: dict[int, dict[float, float]],
) -> LhvModel:
    """Factorized model whose responses are lookup tables angle -> P(+1).

    Evaluating at an angle not present in a table (within ``ANGLE_TOL``) is
    an error: finite models are defined only at their tabulated settings.
    """
    p1, p2 = ([t.get(k, {}).items() for k in range(len(weights))] for t in (p1_tables, p2_tables))
    return flat_tabulated_model(FACTORIZED, weights, _flat(p1), _flat(p2))


def tabulated_general_model(
    weights,
    p1_tables: dict[int, dict[float, float]],
    p2_tables: dict[int, dict[tuple[float, float, int], float]],
) -> LhvModel:
    """General model with first-slot tables angle -> P(+1) and second-slot
    tables (a, b, A) -> P(+1)."""
    p1 = [p1_tables.get(k, {}).items() for k in range(len(weights))]
    p2 = [[(*key, p) for key, p in p2_tables.get(k, {}).items()] for k in range(len(weights))]
    return flat_tabulated_model(GENERAL, weights, _flat(p1), _flat(p2))


def _flat(per_state):
    """Per-state entries ``(*key, p)`` as one flat table (see ``flat_tabulated_model``),
    keys in first-seen order."""
    index: dict = {}
    rows, cols, values = [], [], []
    for k, entries in enumerate(per_state):
        for *key, p in entries:
            rows.append(k)
            cols.append(index.setdefault(tuple(key), len(index)))
            values.append(p)
    return list(index), rows, cols, values


def flat_tabulated_model(kind, weights, p1, p2) -> LhvModel:
    """Model from one flat table per slot, ``(keys, rows, cols, values)``:
    state ``rows[i]`` has P(+1) = ``values[i]`` at ``keys[cols[i]]``, keys
    ``(angle,)`` or, for general slot 2, ``(a, b, A)``.  Each (state, key)
    has at most one entry: a model file refuses a repeat at its line, and a
    dict cannot hold one.  A slot of more than ``MAX_TABLE_CELLS`` keys x
    states raises ``InvalidModelError``."""
    n_states = len(weights)
    return LhvModel(
        weights=weights,
        kind=kind,
        t1_column=_flat_column("t1", n_states, *p1),
        t2_column=_flat_column("t2", n_states, *p2),
    )


def _flat_column(slot, n_states, keys, rows, cols, values) -> "_TableColumn":
    """One slot's flat table (see ``flat_tabulated_model``) as a table
    column.  Entries outside [0, 1] (or NaN) are clamped if rounding dust,
    else the first in state order, then key order, is rejected."""
    if len(keys) * n_states > MAX_TABLE_CELLS:
        raise InvalidModelError(f"{slot} table of {len(keys)} keys x {n_states} states, "
                                f"above the limit of {MAX_TABLE_CELLS} cells")
    rows, cols, values = np.asarray(rows, np.intp), np.asarray(cols, np.intp), np.asarray(values, float)
    plus = np.full((len(keys), n_states), np.nan)
    plus[cols, rows] = values
    bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))  # NaN too
    for e in bad[np.lexsort((cols[bad], rows[bad]))].tolist():
        j, k, v = cols[e], rows[e], values.item(e)
        plus[j, k] = _response_pair(lambda o: v if o == 1 else 1.0 - v, f"{slot} table at {keys[j]} for id {k}")[0]
    return _TableColumn(keys, plus)


class _TableColumn:
    """Column function over a response table that is already checked.

    ``plus[j, k]`` is state k's P(+1) at ``keys[j]`` (distinct tuples), a
    float64 array of shape (len(keys), K) with every entry in [0, 1], NaN
    where state k has no entry.  The columns are held in one read-only
    array of shape (len(keys), 2, K), ``columns[j]`` being the ``Column`` at
    ``keys[j]``, and the keys in one float array ``grid``.  A key that
    every state tabulates is answered by a view of its column; otherwise a
    state answers at the exact key, else at its first key within
    ``ANGLE_TOL`` per component (so the outcome A = +-1 of a general key
    matches exactly), else with NaN.
    """

    __slots__ = ("columns", "index", "grid")

    def __init__(self, keys, plus):
        # columns[j] is (plus[j], 1 - plus[j]); as np.stack on axis 1, but faster on tiny tables
        columns = np.concatenate((plus, 1.0 - plus), axis=1).reshape(len(keys), 2, plus.shape[1])
        columns.setflags(write=False)
        missing = np.isnan(plus.sum(axis=1)).tolist()  # a key some state does not tabulate
        self.columns = columns
        self.index = {key: j for j, key in enumerate(keys) if not missing[j]}
        self.grid = np.array(keys, dtype=float)

    def __call__(self, *key) -> Column:
        j = self.index.get(key)
        if j is not None:
            return self.columns[j]
        n_states = self.columns.shape[2]
        x = np.array(key, dtype=float)
        near = np.flatnonzero((np.abs(self.grid - x) <= ANGLE_TOL).all(axis=-1)) if len(self.grid) else []
        if not len(near):
            return np.full((2, n_states), np.nan)
        # the candidates in the order a state tries them: the exact key (the
        # keys are distinct, so at most one), then the near keys in key order
        exact = (self.grid[near] == x).all(axis=-1)
        candidates = np.concatenate((near[exact], near[~exact]))
        has = ~np.isnan(self.columns[candidates, 0])  # (candidates, K)
        pick = candidates[has.argmax(axis=0)]
        return np.where(has.any(axis=0), self.columns[pick, :, np.arange(n_states)].T, np.nan)


def random_factorized_model(
    rng: np.random.Generator,
    n_lambda: int,
    t1_angles,
    t2_angles,
) -> LhvModel:
    """Random stochastic factorized model tabulated at the given angles."""
    raw = rng.random(n_lambda) + 1e-9
    weights = raw / raw.sum()
    columns = []
    for angles in (t1_angles, t2_angles):
        draw = rng.random((n_lambda, len(angles))).T
        at = {(float(x),): j for j, x in enumerate(angles)}  # as in a dict: last value wins
        columns.append(_TableColumn(list(at), draw.take(list(at.values()), axis=0)))
    return LhvModel(weights=weights, kind=FACTORIZED, t1_column=columns[0], t2_column=columns[1])


def _chsh(e1_a, e1_ap, e2_b, e2_bp):
    return abs(e1_a * e2_b + e1_a * e2_bp + e1_ap * e2_bp - e1_ap * e2_b)


def _chsh_columns(m: LhvModel, s: ChshSettings) -> tuple[Column, ...]:
    if m.kind != FACTORIZED:
        raise UnsupportedModelError("per-lambda CHSH requires a factorized model")
    return m.t1_column(s.a), m.t1_column(s.a_prime), m.t2_column(s.b), m.t2_column(s.b_prime)


def per_lambda_chsh(m: LhvModel, s: ChshSettings, lam: LambdaPoint) -> float:
    """|e1(a)e2(b) + e1(a)e2(b') + e1(a')e2(b') - e1(a')e2(b)| at one state.

    Requires a factorized model: the combination presupposes that the
    product mean splits into slot means.  Bounded by 2 for any response
    probabilities.
    """
    k = lam.id
    a, ap, b, bp = _chsh_columns(m, s)
    value = _chsh(
        a.item(0, k) - a.item(1, k), ap.item(0, k) - ap.item(1, k),
        b.item(0, k) - b.item(1, k), bp.item(0, k) - bp.item(1, k),
    )
    if math.isnan(value):
        raise InvalidModelError(f"no response tabulated at {s} for id {k}")
    return value


def per_state_chsh(m: LhvModel, s: ChshSettings) -> np.ndarray:
    """``per_lambda_chsh`` at every hidden state at once, in state order."""
    values = _chsh(*(c[0] - c[1] for c in _chsh_columns(m, s)))
    if math.isnan(values.max()):
        raise _untabulated(values, f"{s}")
    return values


def averaged_chsh(m: LhvModel, s: ChshSettings) -> float:
    """CHSH combination of the ensemble correlators."""
    terms = _joint_terms(m, (s.a, s.a_prime), (s.b, s.b_prime))[2]
    sums = _ensemble(m, terms)  # (pp, pm, mp, mm) at (a, b), (a, b'), (a', b), (a', b')
    c_ab, c_abp, c_apb, c_apbp = [sums[i] - sums[i + 1] - sums[i + 2] + sums[i + 3] for i in (0, 4, 8, 12)]
    value = abs(c_ab + c_abp + c_apbp - c_apb)
    if math.isnan(value):
        raise _untabulated(terms, f"{s}")
    return value


@dataclass(frozen=True)
class ConsistencyReport:
    """Ensemble-level bookkeeping checks for one model at one setting pair.

    All errors are max absolute deviations.  ``outcome_swap_symmetric``
    (whether P(B|A) is invariant under exchanging the outcome values) is
    reported, not asserted: general models may legitimately break it.  The
    mean-product identity mean_t2 = mean_t1 * correlator is a consequence
    of that symmetry, so its error is only meaningful (and only required
    to vanish) when the symmetry holds.
    """

    marginal_from_mean_error: float
    conditional_moment_route_error: float
    outcome_swap_error: Optional[float]
    outcome_swap_symmetric: bool
    mean_product_error: float
    double_average_error: float
    marginal_double_average_error: float
    tol: float = RESPONSE_TOL

    def mandatory(self) -> list[tuple[str, float]]:
        """The checks that must pass, as (name, error) pairs: mean_product
        only when the outcome-swap symmetry holds."""
        checks = [
            ("marginal_from_mean", self.marginal_from_mean_error),
            ("conditional_moment_route", self.conditional_moment_route_error),
            ("double_average_factorization", self.double_average_error),
            ("marginal_double_average", self.marginal_double_average_error),
        ]
        if self.outcome_swap_symmetric:
            checks.append(("mean_product", self.mean_product_error))
        return checks

    @property
    def passed(self) -> bool:
        return all(error <= self.tol for _, error in self.mandatory())


_LEAF = 1 << 16  # pair products held at once: 512 KiB, inside a 2 MiB L2


def _pair_sum(x: np.ndarray, y: np.ndarray) -> float:
    """sum_ij x[i]*y[j]: the chunks of 256 rows of pair products, each summed
    as numpy sums ``np.multiply.outer(x[i0:i0 + 256], y)``, added left to
    right from 0.0, holding at most ``_LEAF`` products at once.

    numpy sums a contiguous array by a pairwise tree fixed by its length
    alone: halve n, round down to a multiple of 8, recurse down to leaves of
    at most 128.  ``_tree_sum`` walks that tree over a chunk's flat products
    and hands each subtree of at most ``_LEAF`` of them to ``np.add.reduce``,
    which sums it the same way, so the float is the same bit for bit
    (``tests/lhv_oracle.py`` keeps the whole-chunk sum)."""
    buffer = np.empty(min(_LEAF, min(len(x), 256) * len(y)))
    total = 0.0
    for i0 in range(0, len(x), 256):
        rows = x[i0:i0 + 256]
        total += _tree_sum(rows, y, 0, len(rows) * len(y), buffer)
    return total


def _tree_sum(x: np.ndarray, y: np.ndarray, start: int, n: int, buffer: np.ndarray) -> float:
    """numpy's pairwise sum of the flat products [start, start + n) of
    ``np.multiply.outer(x, y)``, built a subtree of at most ``_LEAF`` at a time."""
    if n > _LEAF:
        half = n // 2 - n // 2 % 8
        return _tree_sum(x, y, start, half, buffer) + _tree_sum(x, y, start + half, n - half, buffer)
    out = buffer[:n]
    i, j = divmod(start, len(y))
    done = 0
    if j:  # the tail of row i
        done = min(len(y) - j, n)
        np.multiply(x[i], y[j:j + done], out=out[:done])
        i += 1
    rows = (n - done) // len(y)
    if rows:
        np.multiply.outer(x[i:i + rows], y, out=out[done:done + rows * len(y)].reshape(rows, -1))
        done += rows * len(y)
        i += rows
    if done < n:  # the head of row i
        np.multiply(x[i], y[:n - done], out=out[done:])
    return float(np.add.reduce(out))


def verify_consistency(m: LhvModel, a: float, b: float, tol: float = RESPONSE_TOL) -> ConsistencyReport:
    """Run the ensemble bookkeeping identities for a model at (a, b).

    The double average over independent state pairs is a naive O(K^2) sum
    of pair products (``_pair_sum``), 256 rows at a time in numpy's pairwise
    order; it holds at most 512 KiB of products, so memory stays O(K).
    Raises ValueError for a model of more than ``MAX_GRID_SIZE`` states.
    """
    if len(m.weights) > MAX_GRID_SIZE:
        raise ValueError(
            f"model has {len(m.weights)} hidden states, above the limit of {MAX_GRID_SIZE} for verify_consistency"
        )
    pa, terms, joint, moments = _averaged(m, a, b)

    # marginal from mean: P(B) = (1/2)(1 + B * mean_t2)
    err_marginal = 0.0
    for B in OUTCOMES:
        p2_direct = joint.prob(1, B) + joint.prob(-1, B)
        err_marginal = max(err_marginal, abs(p2_direct - 0.5 * (1.0 + B * moments.mean_t2)))

    # conditional via the moment route vs the joint/marginal ratio; compared
    # in cross-multiplied form so near-deterministic first slots (conditioning
    # weight 1 + A*mean_t1 -> 0) do not amplify rounding
    err_conditional = 0.0
    conds: dict[tuple[int, int], float] = {}
    for A in OUTCOMES:
        p1 = joint.prob(A, 1) + joint.prob(A, -1)
        if p1 <= 0.0:
            continue
        for B in OUTCOMES:
            direct = joint.prob(A, B) / p1
            conds[(A, B)] = direct
            denom = 1.0 + A * moments.mean_t1
            num = B * moments.mean_t2 + A * B * moments.correlator
            err_conditional = max(err_conditional, abs(direct * denom - 0.5 * (denom + num)))

    # outcome-swap symmetry of conditionals, where both sides are defined
    swap_err = None
    for (A, B), v in conds.items():
        if (B, A) in conds:
            d = abs(v - conds[(B, A)])
            swap_err = d if swap_err is None else max(swap_err, d)
    symmetric = swap_err is not None and swap_err <= tol

    err_mean_product = abs(moments.mean_t2 - moments.mean_t1 * moments.correlator)

    # double averages over independent hidden-state pairs factorize; the
    # per-state means e1 and e12 come from the columns of the joint above
    (p, q), ((pp, pm), (mp, mm)) = pa[0], terms[0, 0]
    wx = (p - q) * m.weights
    wy = (pp - pm - mp + mm) * m.weights
    # naive pair sum, kept independent of the factorized product it is
    # compared against
    double_sum = _pair_sum(wx, wy)
    single_product = float(wx.sum()) * float(wy.sum())
    err_double = abs(double_sum - single_product)

    err_marginal_double = 0.0
    for B in OUTCOMES:
        lhs = 0.5 * (1.0 + B * double_sum)
        rhs = 0.5 * (1.0 + B * single_product)
        err_marginal_double = max(err_marginal_double, abs(lhs - rhs))

    return ConsistencyReport(
        marginal_from_mean_error=err_marginal,
        conditional_moment_route_error=err_conditional,
        outcome_swap_error=swap_err,
        outcome_swap_symmetric=symmetric,
        mean_product_error=err_mean_product,
        double_average_error=err_double,
        marginal_double_average_error=err_marginal_double,
        tol=tol,
    )
