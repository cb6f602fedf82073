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
pair (P(+1), P(-1)) as float64 arrays over all K states; every result is an
array reduction over columns.  Sums over states run strictly left to right,
so each equals a Python loop over the states bit for bit.  Tabulated models
are checked once, when built, and hand out ready columns.

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

Column = tuple[np.ndarray, np.ndarray]  # (P(+1), P(-1)), each of shape (K,)


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
            return np.array([p for p, _ in pairs], float), np.array([q for _, q in pairs], float)

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


def _joint_terms(m: LhvModel, a_angles, b_angles, pairs) -> tuple[np.ndarray, ...]:
    """Columns at setting pairs (i, j) = (a_angles[i], b_angles[j]), each
    fetched once: slot 1, shape (2, P, K); slot 2, shape (2, P, K) for
    factorized models and (2, 2, P, K) after A=+1 / A=-1 for general ones;
    and the per-state joint entries, shape (2, 2, P, K), where
    ``terms[i, j]`` has first outcome OUTCOMES[i], second OUTCOMES[j]."""
    t1 = [m.t1_column(a) for a in a_angles]
    pa = np.array([[t1[i][o] for i, _ in pairs] for o in (0, 1)])
    if m.kind == FACTORIZED:
        t2 = [m.t2_column(b) for b in b_angles]
        pb = np.array([[t2[j][o] for _, j in pairs] for o in (0, 1)])
    else:
        t2 = [[m.t2_column(a_angles[i], b_angles[j], A) for i, j in pairs] for A in OUTCOMES]
        pb = np.array([[[c[o] for c in after] for o in (0, 1)] for after in t2])
    return pa, pb, pa[:, None] * pb


def _require_tabulated(values, terms: np.ndarray, where: Callable[[], str]) -> None:
    """Raise if ``values`` hold a NaN, which only a state with no tabulated
    response puts there: the first state with NaN in its ``terms`` (states
    on the last axis) is named, at the setting ``where()`` describes; the
    text is built only then."""
    if any(math.isnan(v) for v in values):
        k = np.isnan(terms).reshape(-1, terms.shape[-1]).any(axis=0).argmax()
        raise InvalidModelError(f"no response tabulated at {where()} for id {k}")


def _ensemble(m: LhvModel, terms: np.ndarray) -> np.ndarray:
    """Weighted sums over states (the last axis), in state order.

    ``np.add.accumulate`` adds strictly left to right; the final ``+ 0.0``
    turns an all-negative-zero sum into +0.0, as a Python sum from 0.0 would.
    """
    weighted = terms * m.weights
    return np.add.accumulate(weighted, axis=-1, out=weighted)[..., -1] + 0.0


def _averaged(m: LhvModel, a: float, b: float):
    """Per-state means e1 and e12 (the correlator of each state's joint),
    then the ensemble joint and moments, all at (a, b)."""
    pa, _, terms = _joint_terms(m, [a], [b], [(0, 0)])
    pp, pm, mp, mm = entries = _ensemble(m, terms).ravel().tolist()
    _require_tabulated(entries, terms, lambda: f"(a={a!r}, b={b!r})")
    joint = JointDistribution(pp=pp, pm=pm, mp=mp, mm=mm)
    moments = Moments(
        mean_t1=(pp + pm) - (mp + mm),
        mean_t2=(pp + mp) - (pm + mm),
        correlator=joint.correlator(),
    )
    e12 = terms[0, 0, 0] - terms[0, 1, 0] - terms[1, 0, 0] + terms[1, 1, 0]
    return pa[0, 0] - pa[1, 0], e12, joint, moments


def _state(m: LhvModel, a: float, b: float, lam: LambdaPoint):
    """Slot-1 and slot-2 columns and the joint of one hidden state at (a, b)."""
    pa, pb, terms = (x[..., lam.id] for x in _joint_terms(m, [a], [b], [(0, 0)]))
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
    t1, t2 = (
        tuple(np.array([float(ab[slot] == o) for ab, _ in kept]) for o in OUTCOMES)
        for slot in (0, 1)
    )
    for column in (*t1, *t2):
        column.setflags(write=False)
    return LhvModel([w for _, w in kept], FACTORIZED, lambda angle: t1, lambda angle: t2)


# bounds verify_consistency, which is O(K^2): at 2**16 states it takes
# seconds and its 256-row chunks of pair products are 128 MiB
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
            return plus, 1.0 - plus

        return column

    columns = (threshold_column(coord), threshold_column((coord + 0.5) % 1.0))
    return LhvModel(np.full(n, 1.0 / n), FACTORIZED, *columns)


def tabulated_factorized_model(
    weights,
    p1_tables: dict[int, dict[float, float]],
    p2_tables: dict[int, dict[float, float]],
    angle_tol: float = 1e-9,
) -> LhvModel:
    """Factorized model whose responses are lookup tables angle -> P(+1).

    Evaluating at an angle not present in a table (within angle_tol) is an
    error: finite models are defined only at their tabulated settings.
    """
    p1, p2 = ([t.get(k, {}).items() for k in range(len(weights))] for t in (p1_tables, p2_tables))
    return tabulated_model(FACTORIZED, weights, p1, p2, angle_tol)


def tabulated_general_model(
    weights,
    p1_tables: dict[int, dict[float, float]],
    p2_tables: dict[int, dict[tuple[float, float, int], float]],
    angle_tol: float = 1e-9,
) -> LhvModel:
    """General model with first-slot tables angle -> P(+1) and second-slot
    tables (a, b, A) -> P(+1)."""
    p1 = [p1_tables.get(k, {}).items() for k in range(len(weights))]
    p2 = [[(*key, p) for key, p in p2_tables.get(k, {}).items()] for k in range(len(weights))]
    return tabulated_model(GENERAL, weights, p1, p2, angle_tol)


def tabulated_model(kind, weights, p1_entries, p2_entries, angle_tol: float = 1e-9) -> LhvModel:
    """Model from per-state table entries, each checked here once:
    ``(angle, p_plus)`` for slot 1 and factorized slot 2, ``(a, b, A,
    p_plus)`` for general slot 2.  A later equal key replaces an earlier one."""
    t2_tol = (angle_tol,) if kind == FACTORIZED else (angle_tol, angle_tol, 0.0)
    return LhvModel(
        weights=weights,
        kind=kind,
        t1_column=_entries_column("t1", p1_entries, (angle_tol,)),
        t2_column=_entries_column("t2", p2_entries, t2_tol),
    )


def _entries_column(slot: str, per_state, tol) -> Callable[..., Column]:
    index: dict = {}  # every key any state tabulates, in first-seen order
    cells = {}  # (state, key position) -> P(+1); a later entry replaces an earlier one
    for k, entries in enumerate(per_state):
        for *key, p in entries:
            cells[k, index.setdefault(tuple(key), len(index))] = p
    plus = np.full((len(per_state), len(index)), np.nan)
    absent = np.ones(plus.shape, dtype=bool)
    if cells:
        rows, cols = np.array(list(cells)).T
        plus[rows, cols] = list(cells.values())
        absent[rows, cols] = False
    return _table_column(slot, list(index), plus, tol, absent if absent.any() else None)


def _table_column(slot, keys, plus, tol, absent=None) -> Callable[..., Column]:
    """Column function over response tables, checked here once.

    ``plus[k, j]`` is state k's raw P(+1) at ``keys[j]`` (distinct tuples);
    NaN where ``absent``.  A state answers at the exact key, else at its first
    key within ``tol`` (per key component), else with NaN.
    """
    given = plus.ravel().tolist() if absent is None else plus[~absent].tolist()
    if not all(0.0 <= v <= 1.0 for v in given):  # clamp rounding dust, reject the rest
        plus = plus.copy()
        for k, row in enumerate(plus.tolist()):
            for j, v in enumerate(row):
                if absent is None or not absent[k, j]:
                    what = f"{slot} table at {keys[j]} for id {k}"
                    plus[k, j] = _response_pair(lambda o: v if o == 1 else 1.0 - v, what)[0]
    minus = 1.0 - plus
    plus.setflags(write=False)
    minus.setflags(write=False)
    complete = range(len(keys)) if absent is None else np.flatnonzero(~absent.any(axis=0)).tolist()
    ready = {keys[j]: (plus[:, j], minus[:, j]) for j in complete}

    def column(*key):
        hit = ready.get(key)
        if hit is not None or not keys:
            return hit or (np.full(len(plus), np.nan),) * 2
        grid = np.array(keys, dtype=float)
        x = np.array(key, dtype=float)
        exact = (grid == x).all(axis=-1) & ~np.isnan(plus)
        near = (np.abs(grid - x) <= np.array(tol)).all(axis=-1) & ~np.isnan(plus)
        pick = np.where(exact.any(axis=1), exact.argmax(axis=1), near.argmax(axis=1))
        found = (exact | near).any(axis=1)
        rows = np.arange(len(plus))
        return np.where(found, plus[rows, pick], np.nan), np.where(found, minus[rows, pick], np.nan)

    return column


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
    for slot, angles in (("t1", t1_angles), ("t2", t2_angles)):
        p_plus = rng.random((n_lambda, len(angles)))
        at = {(float(x),): j for j, x in enumerate(angles)}  # as in a dict: last value wins
        columns.append(_table_column(slot, list(at), p_plus[:, list(at.values())], (1e-9,)))
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
    value = _chsh(*(p.item(lam.id) - q.item(lam.id) for p, q in _chsh_columns(m, s)))
    if math.isnan(value):
        raise InvalidModelError(f"no response tabulated at {s} for id {lam.id}")
    return value


def per_state_chsh(m: LhvModel, s: ChshSettings) -> np.ndarray:
    """``per_lambda_chsh`` at every hidden state at once, in state order."""
    values = _chsh(*(p - q for p, q in _chsh_columns(m, s)))
    _require_tabulated([values.max()], values, lambda: f"{s}")
    return values


def averaged_chsh(m: LhvModel, s: ChshSettings) -> float:
    """CHSH combination of the ensemble correlators."""
    pairs = [(0, 0), (0, 1), (1, 1), (1, 0)]  # (a, b), (a, b'), (a', b'), (a', b)
    terms = _joint_terms(m, [s.a, s.a_prime], [s.b, s.b_prime], pairs)[2]
    sums = _ensemble(m, terms)
    c = (sums[0, 0] - sums[0, 1] - sums[1, 0] + sums[1, 1]).tolist()
    value = abs(c[0] + c[1] + c[2] - c[3])
    _require_tabulated([value], terms, lambda: f"{s}")
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

    @property
    def passed(self) -> bool:
        mandatory = [
            self.marginal_from_mean_error,
            self.conditional_moment_route_error,
            self.double_average_error,
            self.marginal_double_average_error,
        ]
        if self.outcome_swap_symmetric:
            mandatory.append(self.mean_product_error)
        return all(e <= self.tol for e in mandatory)


def verify_consistency(m: LhvModel, a: float, b: float, tol: float = RESPONSE_TOL) -> ConsistencyReport:
    """Run the ensemble bookkeeping identities for a model at (a, b)."""
    wx, wy, joint, moments = _averaged(m, a, b)  # per-state e1 and e12, weighted below

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
    wx *= m.weights
    wy *= m.weights
    # naive pair sum (chunked to bound memory), kept independent of the
    # factorized product it is compared against
    double_sum = 0.0
    for i0 in range(0, len(wx), 256):
        double_sum += float(np.multiply.outer(wx[i0:i0 + 256], wy).sum())
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
