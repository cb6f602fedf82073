"""Local-polytope membership certificates for four two-setting correlators.

A deterministic strategy assigns fixed outcomes (A_a, A_a', B_b, B_b') in
{+1,-1}^4; its correlator vector is (A_a*B_b, A_a*B_b', A_a'*B_b',
A_a'*B_b).  A target vector of four correlators admits a local model iff
it is a convex mixture of the 16 strategy vectors.  For correlators in
[-1,1]^4 this holds iff every signed CHSH combination with an odd number
of minus signs stays at or below 2 (those eight combinations are the
nontrivial facets of the correlator polytope).

Membership is decided twice, by independent routes: the facet scan above,
and a phase-1 simplex that searches for explicit nonnegative strategy
weights.  Feasible targets come with the weights as a certificate;
infeasible ones with the violated facet and its gap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .chsh import CLASSICAL_BOUND, ChshSettings

FEASIBILITY_TOL = 1e-9

Strategy = tuple[int, int, int, int]  # (A_a, A_a', B_b, B_b')

STRATEGIES: tuple[Strategy, ...] = tuple(itertools.product((1, -1), repeat=4))

# sign patterns with an odd number of -1: the nontrivial facet normals
FACET_SIGNS: tuple[tuple[int, int, int, int], ...] = tuple(
    signs for signs in itertools.product((1, -1), repeat=4) if signs[0] * signs[1] * signs[2] * signs[3] == -1
)


_FACETS = tuple((signs, *signs) for signs in FACET_SIGNS)


def strategy_correlators(s: Strategy) -> tuple[int, int, int, int]:
    a, ap, b, bp = s
    return (a * b, a * bp, ap * bp, ap * b)


def strategy_label(s: Strategy) -> str:
    return "".join("+" if v == 1 else "-" for v in s)


@dataclass(frozen=True)
class PolytopeCertificate:
    feasible: bool
    gap: float
    weights: Optional[dict[Strategy, float]] = None
    violated_facet: Optional[tuple[tuple[int, int, int, int], float]] = None


def targets_from_correlator(
    correlator: Callable[[float, float], float], s: ChshSettings
) -> tuple[float, float, float, float]:
    """Four correlators in the fixed order (a,b), (a,b'), (a',b'), (a',b)."""
    return (
        correlator(s.a, s.b),
        correlator(s.a, s.b_prime),
        correlator(s.a_prime, s.b_prime),
        correlator(s.a_prime, s.b),
    )


def facet_values(targets: Sequence[float]) -> list[tuple[tuple[int, int, int, int], float]]:
    """All eight signed CHSH combinations of the targets, each summed left
    to right from 0.0."""
    t0, t1, t2, t3 = targets
    return [(signs, 0.0 + e0 * t0 + e1 * t1 + e2 * t2 + e3 * t3) for signs, e0, e1, e2, e3 in _FACETS]


# Strategies s and -s have the same correlators, so their tableau columns
# are equal and stay equal through every pivot; Bland's rule always reaches
# the lower index first, so the higher one never enters the basis.  The
# tableau keeps one column per distinct correlator vector, the first
# strategy that has it, and then the artificial columns; _VARIABLES maps a
# kept column to its variable (strategy index, or 16 + row for an artificial).
_KEPT = [
    j for j, s in enumerate(STRATEGIES)
    if strategy_correlators(s) not in {strategy_correlators(t) for t in STRATEGIES[:j]}
]
_VARIABLES = (*_KEPT, *range(len(STRATEGIES), len(STRATEGIES) + 5))


def _tableau_rows() -> tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]:
    """Row i of the phase-1 tableau without its right-hand side, as given and
    negated: the kept strategy columns (correlator i of the strategy, 1 for
    the normalization row) then the artificial identity, which never flips."""
    rows = []
    for i in range(5):
        strategy = [float(strategy_correlators(STRATEGIES[j])[i]) if i < 4 else 1.0 for j in _KEPT]
        artificial = [float(i == r) for r in range(5)]
        rows.append((tuple(strategy + artificial), tuple([-v for v in strategy] + artificial)))
    return tuple(rows)


# made once: the constraint part of the tableau, each row as given and
# negated (a row is negated when its target is negative)
_TABLEAU_ROWS = _tableau_rows()
_PIVOT_TOL = 1e-11


def _simplex_weights(targets: Sequence[float]) -> Optional[dict[Strategy, float]]:
    """Phase-1 simplex: nonnegative strategy weights matching the targets.

    Minimizes the total artificial infeasibility of the 5-equation system
    (four correlators plus normalization) over the 16 strategy weights,
    with Bland's rule for termination.  Returns None when the residual
    optimum exceeds ``FEASIBILITY_TOL``.

    The tableau is five rows of Python floats: the kept strategy columns,
    the 5 artificial columns and the right-hand side.  Every entry is
    updated by the same IEEE operations, in the same order, as a numpy
    tableau of all 16 strategies would be (``tests/polytope_oracle.py`` is
    one), so the weights agree with it bit for bit, signed zeros included.
    """
    rhs = [*targets, 1.0]
    tab = []
    for i, t in enumerate(rhs):
        given, negated = _TABLEAU_ROWS[i]
        tab.append([*negated, -t] if t < 0.0 else [*given, t])
    n_columns = len(_VARIABLES)
    basis = list(_VARIABLES[len(_KEPT):])  # the artificials, by variable
    # phase-1 reduced costs: z_j - c_j for cost 1 on the artificials; every
    # column sum is an exact small integer, the rhs sum runs top to bottom
    obj = [-sum(column) for column in zip(*tab)]
    for j in range(len(_KEPT), n_columns):
        obj[j] += 1.0

    below = -_PIVOT_TOL
    for _ in range(10000):
        for entering in range(n_columns):
            if obj[entering] < below:
                break
        else:
            break
        ratios = [
            (row[-1] / row[entering], basis[i], i)
            for i, row in enumerate(tab)
            if row[entering] > _PIVOT_TOL
        ]
        if not ratios:
            return None  # unbounded phase-1 cannot happen; bail out defensively
        _, _, leaving = min(ratios)
        pivot = tab[leaving][entering]
        lead = tab[leaving] = [v / pivot for v in tab[leaving]]
        for i, row in enumerate(tab):
            f = row[entering]
            if i != leaving and f != 0.0:
                tab[i] = [v - f * w for v, w in zip(row, lead)]
        f = obj[entering]
        obj = [v - f * w for v, w in zip(obj, lead)]
        basis[leaving] = _VARIABLES[entering]
    else:
        raise RuntimeError("simplex did not terminate")

    infeasibility = -obj[-1]
    if infeasibility > FEASIBILITY_TOL:
        return None

    weights = dict.fromkeys(STRATEGIES, 0.0)
    for row, var in zip(tab, basis):
        if var < len(STRATEGIES):
            weights[STRATEGIES[var]] = max(row[-1], 0.0)
    return weights


def reconstruct_targets(weights: dict[Strategy, float]) -> tuple[float, float, float, float]:
    """Correlators implied by a strategy mixture."""
    acc = [0.0, 0.0, 0.0, 0.0]
    for s, w in weights.items():
        for k, v in enumerate(strategy_correlators(s)):
            acc[k] += w * v
    return tuple(acc)


def polytope_check(targets: Sequence[float]) -> PolytopeCertificate:
    """Decide local-polytope membership of four correlators, with certificate.

    The facet scan is the decision oracle; the simplex provides the
    explicit weights on feasible instances.  Disagreement between the two
    routes (beyond ``FEASIBILITY_TOL``) is a logic error and raises.
    """
    targets = tuple(float(t) for t in targets)
    if len(targets) != 4:
        raise ValueError(f"need exactly four correlators, got {len(targets)}")
    for t in targets:
        if not -1.0 <= t <= 1.0:
            raise ValueError(f"correlator {t!r} outside [-1, 1]")

    facets = facet_values(targets)
    worst_signs, worst_value = max(facets, key=lambda sv: sv[1])
    feasible = worst_value <= CLASSICAL_BOUND + FEASIBILITY_TOL
    gap = max(worst_value - CLASSICAL_BOUND, 0.0)

    weights = _simplex_weights(targets)
    if feasible and weights is None:
        raise RuntimeError(
            f"facet oracle says feasible (max facet {worst_value!r}) but no weights found"
        )
    if not feasible and weights is not None:
        residual = max(abs(x - y) for x, y in zip(reconstruct_targets(weights), targets))
        raise RuntimeError(
            f"facet oracle says infeasible (max facet {worst_value!r}) but simplex "
            f"found weights with residual {residual!r}"
        )

    if feasible:
        return PolytopeCertificate(feasible=True, gap=gap, weights=weights)
    return PolytopeCertificate(
        feasible=False, gap=gap, violated_facet=(worst_signs, worst_value)
    )
