"""Numpy-tableau phase-1 simplex and the four-correlator order, for the tests.

This is the simplex ``ttbell.polytope`` first shipped: it builds the whole
5 x 22 tableau on every call and pivots it with numpy row operations.  It
is the independent route to strategy weights: ``polytope`` takes its
weights in closed form from the triangulation of the correlator polytope,
and the tests check that both routes print the same weights.
``reconstruct_targets`` maps a strategy mixture back to its correlators.
"""

from typing import Callable, Optional, Sequence

import numpy as np

from ttbell.chsh import ChshSettings
from ttbell.polytope import STRATEGIES, Strategy


def strategy_correlators(s: Strategy) -> tuple[int, int, int, int]:
    """A deterministic strategy's correlators, in ``correlator_targets`` order."""
    a, ap, b, bp = s
    return (a * b, a * bp, ap * bp, ap * b)


def reconstruct_targets(weights: dict[Strategy, float]) -> tuple[float, float, float, float]:
    """Correlators implied by a strategy mixture."""
    acc = [0.0, 0.0, 0.0, 0.0]
    for s, w in weights.items():
        for k, v in enumerate(strategy_correlators(s)):
            acc[k] += w * v
    return tuple(acc)


def correlator_targets(
    correlator: Callable[[float, float], float], s: ChshSettings
) -> tuple[float, float, float, float]:
    """Four correlators in the fixed order (a,b), (a,b'), (a',b'), (a',b)."""
    return (
        correlator(s.a, s.b),
        correlator(s.a, s.b_prime),
        correlator(s.a_prime, s.b_prime),
        correlator(s.a_prime, s.b),
    )


def simplex_weights(targets: Sequence[float], tol: float) -> Optional[dict[Strategy, float]]:
    """Phase-1 simplex: nonnegative strategy weights matching the targets.

    Minimizes the total artificial infeasibility of the 5-equation system
    (four correlators plus normalization) over the 16 strategy weights,
    with Bland's rule for termination.  Returns None when the residual
    optimum exceeds tol.
    """
    n_rows, n_cols = 5, len(STRATEGIES)
    a_mat = np.ones((n_rows, n_cols))
    for j, s in enumerate(STRATEGIES):
        a_mat[:4, j] = strategy_correlators(s)
    rhs = np.array([*targets, 1.0], dtype=float)

    for i in range(n_rows):
        if rhs[i] < 0.0:
            a_mat[i] *= -1.0
            rhs[i] *= -1.0

    # tableau: strategy columns | artificial identity | rhs
    tab = np.hstack([a_mat, np.eye(n_rows), rhs[:, None]])
    basis = list(range(n_cols, n_cols + n_rows))
    # phase-1 reduced costs: z_j - c_j for cost 1 on artificials
    obj = np.zeros(n_cols + n_rows + 1)
    obj[: n_cols + n_rows] = -tab[:, :-1].sum(axis=0)
    obj[n_cols: n_cols + n_rows] += 1.0  # artificial columns have cost 1
    obj[-1] = -tab[:, -1].sum()

    pivot_tol = 1e-11
    for _ in range(10000):
        entering = next((j for j in range(n_cols + n_rows) if obj[j] < -pivot_tol), None)
        if entering is None:
            break
        ratios = [
            (tab[i, -1] / tab[i, entering], basis[i], i)
            for i in range(n_rows)
            if tab[i, entering] > pivot_tol
        ]
        if not ratios:
            return None  # unbounded phase-1 cannot happen; bail out defensively
        _, _, leaving = min(ratios)
        pivot = tab[leaving, entering]
        tab[leaving] /= pivot
        for i in range(n_rows):
            if i != leaving and tab[i, entering] != 0.0:
                tab[i] -= tab[i, entering] * tab[leaving]
        obj -= obj[entering] * tab[leaving]
        basis[leaving] = entering
    else:
        raise RuntimeError("simplex did not terminate")

    infeasibility = -obj[-1]
    if infeasibility > tol:
        return None

    weights = {s: 0.0 for s in STRATEGIES}
    for i, var in enumerate(basis):
        if var < n_cols:
            weights[STRATEGIES[var]] = max(float(tab[i, -1]), 0.0)
    return weights
