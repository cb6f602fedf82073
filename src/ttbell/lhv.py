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
for bit.  Tabulated models (random, or read from a model file) are checked
once, when built, into one read-only (keys, 2, K) array of columns (a random
model holds both slots in one) and a dict from each key to a view of its
column, so a lookup is one ``dict.get``; the float key grid that a setting
off the keys is matched on is built at its first lookup.  Per state, only
the CHSH combination is given; the tests take a state's joint from the
columns themselves.  Models hand-written as scalar responses
``p1(A, a, lam)``, which only the tests build, are wrapped into columns by
``tests/lhv_oracle.py``.

For factorized models the per-lambda product mean factorizes,
E12 = E1 * E2, which is what bounds the per-lambda CHSH combination by 2.
`verify_consistency` checks the ensemble-level bookkeeping identities
(marginal/mean inversion, moment-route conditionals, outcome-swap symmetry
and its mean-product consequence) that underpin that derivation, in O(K)
time and memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Optional

import numpy as np

from .chsh import ChshSettings
from .quantum import OUTCOMES, ROW_OUTCOMES, JointDistribution, Moments, probability_columns

RESPONSE_TOL = 1e-12
FACTORIZED = "factorized"
GENERAL = "general"

Column = np.ndarray  # shape (2, K): row 0 is P(+1), row 1 is P(-1)


class InvalidModelError(ValueError):
    """Model weights or response probabilities violate their contracts."""


class UnsupportedModelError(InvalidModelError):
    """Operation requires a factorized model."""


class LambdaPoint(NamedTuple):
    """One discrete hidden state with its ensemble weight."""

    id: int
    weight: float


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
        weights = np.array(self.weights, dtype=float).ravel()
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
        return tuple(map(LambdaPoint._make, enumerate(self.weights.tolist())))


def _joint_terms(m: LhvModel, a_angles, b_angles) -> np.ndarray:
    """The per-state joint entries at every setting pair (a_angles[i],
    b_angles[j]), shape (I * J * 4, K), row ``((i * J + j) * 2 + o) * 2 + p``
    having first outcome OUTCOMES[o], second OUTCOMES[p].  Each column is
    fetched once: slot 2 at each b for factorized models, at each (a, b, A)
    for general ones."""
    i = len(a_angles)
    if m.kind == FACTORIZED:
        pab = np.array([*map(m.t1_column, a_angles), *map(m.t2_column, b_angles)])
        terms = pab[:i, None, :, None] * pab[i:, None]
    else:
        pa = np.array([*map(m.t1_column, a_angles)])
        pb = np.array([[[m.t2_column(a, b, A) for A in OUTCOMES] for b in b_angles] for a in a_angles])
        terms = pa[:, None, :, None] * pb
    return terms.reshape(-1, len(m.weights))


def _untabulated(terms: np.ndarray, where: str) -> InvalidModelError:
    """The error for a NaN result, which only a state with no tabulated
    response puts there: it names the first state with NaN in its ``terms``
    (states on the last axis; running sums of them name the same state, as a
    sum carries a NaN only rightward), at the setting ``where`` describes.
    Callers build it, and the text, only once a NaN is found."""
    k = np.isnan(terms).reshape(-1, terms.shape[-1]).any(axis=0).argmax()
    return InvalidModelError(f"no response tabulated at {where} for id {k}")


def _ensemble(m: LhvModel, terms: np.ndarray) -> list[float]:
    """Weighted sums over states (axis 1 of the (rows, K) ``terms``), in
    state order, one per row; ``terms`` becomes the running sums.

    ``np.add.accumulate`` adds strictly left to right; the final ``+ 0.0``
    turns an all-negative-zero sum into +0.0, as a Python sum from 0.0 would.
    """
    np.multiply(terms, m.weights, out=terms)
    return (np.add.accumulate(terms, axis=1, out=terms)[:, -1] + 0.0).tolist()


def average_over_lambda(m: LhvModel, a: float, b: float) -> tuple[JointDistribution, Moments]:
    """Ensemble joint and moments: weighted sums of per-lambda quantities."""
    terms = _joint_terms(m, (a,), (b,))
    pp, pm, mp, mm = entries = _ensemble(m, terms)
    if any(map(math.isnan, entries)):
        raise _untabulated(terms, f"(a={a!r}, b={b!r})")
    joint = JointDistribution(pp=pp, pm=pm, mp=mp, mm=mm)
    moments = Moments(mean_t1=(pp + pm) - (mp + mm), mean_t2=(pp + mp) - (pm + mm), correlator=pp - pm - mp + mm)
    return joint, moments


def fixed_setting_reproducer(a: float, b: float) -> LhvModel:
    """Factorized model matching the quantum statistics at one setting pair.

    One deterministic hidden state per outcome pair (A, B), weighted by the
    quantum joint at (a, b); zero-weight pairs are dropped.  Responses
    ignore the angles, so agreement with quantum statistics holds at the
    construction settings only.
    """
    joint = probability_columns(math.sin(a), math.cos(a - b), *ROW_OUTCOMES)[0]
    kept = joint != 0.0
    t1, t2 = (np.array([row[kept] == o for o in OUTCOMES], dtype=float) for row in ROW_OUTCOMES)
    t1.setflags(write=False)
    t2.setflags(write=False)
    return LhvModel(joint[kept], FACTORIZED, lambda angle: t1, lambda angle: t2)


# a model-size bound, not a time bound: position_style_model builds,
# model_io.load_model reads and verify_consistency accepts no model of more
# hidden states
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


def flat_tabulated_model(kind, weights, p1, p2) -> LhvModel:
    """Model from one flat table per slot, ``(keys, rows, cols, values)``:
    state ``rows[i]`` has P(+1) = ``values[i]`` at ``keys[cols[i]]``, keys
    ``(angle,)`` or, for general slot 2, ``(a, b, A)``.  Each (state, key)
    has at most one entry: a model file refuses a repeat at its line.  A
    slot of more than ``MAX_TABLE_CELLS`` keys x states raises
    ``InvalidModelError``."""
    n_states = len(weights)
    return LhvModel(weights, kind, _flat_column("t1", n_states, *p1), _flat_column("t2", n_states, *p2))


def _flat_column(slot, n_states, keys, rows, cols, values) -> Callable[..., Column]:
    """One slot's flat table (see ``flat_tabulated_model``) as a column
    function.  Entries outside [0, 1] (or NaN) are clamped if rounding dust,
    else the first in state order, then key order, is rejected."""
    if len(keys) * n_states > MAX_TABLE_CELLS:
        raise InvalidModelError(f"{slot} table of {len(keys)} keys x {n_states} states, "
                                f"above the limit of {MAX_TABLE_CELLS} cells")
    rows, cols, values = np.asarray(rows, np.intp), np.asarray(cols, np.intp), np.asarray(values, float)
    columns = np.full((len(keys), 2, n_states), np.nan)
    plus = columns[:, 0]
    plus[cols, rows] = values
    bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))  # NaN too
    for e in bad[np.lexsort((cols[bad], rows[bad]))].tolist():
        j, k, v = cols[e], rows[e], values.item(e)
        if not -RESPONSE_TOL <= v <= 1.0 + RESPONSE_TOL:
            raise InvalidModelError(f"{slot} table at {keys[j]} for id {k} returned {v!r}, outside [0, 1]")
        plus[j, k] = min(max(v, 0.0), 1.0)
    np.subtract(1.0, plus, out=columns[:, 1])
    return _TableColumn(keys, columns).column


class _TableColumn:
    """A tabulated slot; its bound ``column`` is the slot's column function.

    ``columns[j]``, of the float64 array of shape (len(keys), 2, K) made
    read-only here, is the ``Column`` at ``keys[j]`` (distinct tuples), NaN
    where state k has no entry.  ``views`` maps each key that every state
    tabulates to a view of its column, so its lookup is one ``dict.get``;
    keys are checked one by one only if a whole-array reduce finds a NaN.  At
    any other key a state answers at the exact key, else at its first key
    within ``ANGLE_TOL`` per component (so the outcome A = +-1 of a general
    key matches exactly), else with NaN, from the float key ``grid`` built
    on the first such lookup.
    """

    __slots__ = ("keys", "columns", "views", "grid")

    def __init__(self, keys, columns):
        columns.setflags(write=False)
        views = dict(zip(keys, columns))
        if math.isnan(columns.sum()):  # a key some state does not tabulate
            views = {key: view for key, view in views.items() if not math.isnan(view.sum())}
        self.keys, self.columns, self.views, self.grid = keys, columns, views, None

    def column(self, *key) -> Column:
        view = self.views.get(key)
        if view is not None:
            return view
        if self.grid is None:
            self.grid = np.array(self.keys, dtype=float)
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


def random_factorized_model(rng: np.random.Generator, n_lambda: int, t1_angles, t2_angles) -> LhvModel:
    """Random stochastic factorized model tabulated at the given angles.

    One draw of n_lambda * (1 + L1 + L2) doubles gives the weights, then
    each slot's P(+1) state by state, at its L angles in order; of an angle
    given twice the last draw is kept."""
    n = n_lambda
    draw = rng.random(n * (1 + len(t1_angles) + len(t2_angles)))
    raw = draw[:n] + 1e-9
    keys, at_draw, start = [], [], n
    for angles in (t1_angles, t2_angles):
        step = len(angles)
        at = {(float(x),): j for j, x in enumerate(angles, start)}  # as in a dict: last value wins
        keys.append(list(at))
        at_draw += [j + step * k for j in at.values() for k in range(n)]  # P(+1) of state k at angle j
        start += n * step
    t1 = len(keys[0])
    plus = draw.take(at_draw).reshape(t1 + len(keys[1]), 1, n)
    columns = np.concatenate((plus, 1.0 - plus), axis=1)
    return LhvModel(raw / raw.sum(), FACTORIZED, _TableColumn(keys[0], columns[:t1]).column,
                    _TableColumn(keys[1], columns[t1:]).column)


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
    if not 0 <= k < len(m.weights):
        raise InvalidModelError(f"no hidden state with id {k!r}: ids run 0..{len(m.weights) - 1}")
    a, ap, b, bp = _chsh_columns(m, s)
    value = _chsh(a.item(0, k) - a.item(1, k), ap.item(0, k) - ap.item(1, k),
                  b.item(0, k) - b.item(1, k), bp.item(0, k) - bp.item(1, k))
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
    terms = _joint_terms(m, (s.a, s.a_prime), (s.b, s.b_prime))
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

    def mandatory(self) -> list[tuple[str, float]]:
        """The checks that must pass, as (name, error) pairs: mean_product
        only when the outcome-swap symmetry holds."""
        checks = [
            ("marginal_from_mean", self.marginal_from_mean_error),
            ("conditional_moment_route", self.conditional_moment_route_error),
        ]
        if self.outcome_swap_symmetric:
            checks.append(("mean_product", self.mean_product_error))
        return checks

    @property
    def passed(self) -> bool:
        return all(error <= RESPONSE_TOL for _, error in self.mandatory())


def verify_consistency(m: LhvModel, a: float, b: float) -> ConsistencyReport:
    """Run the ensemble bookkeeping identities for a model at (a, b), in
    O(K) time and memory.

    Raises ValueError for a model of more than ``MAX_GRID_SIZE`` states.
    """
    if len(m.weights) > MAX_GRID_SIZE:
        raise ValueError(
            f"model has {len(m.weights)} hidden states, above the limit of {MAX_GRID_SIZE} for verify_consistency"
        )
    joint, moments = average_over_lambda(m, a, b)

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
    symmetric = swap_err is not None and swap_err <= RESPONSE_TOL

    err_mean_product = abs(moments.mean_t2 - moments.mean_t1 * moments.correlator)

    return ConsistencyReport(
        marginal_from_mean_error=err_marginal,
        conditional_moment_route_error=err_conditional,
        outcome_swap_error=swap_err,
        outcome_swap_symmetric=symmetric,
        mean_product_error=err_mean_product,
    )
