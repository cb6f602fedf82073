"""Independent routes through hidden-variable models, for the tests.

``pair_sum`` is the double sum ``ttbell.lhv.verify_consistency`` first
shipped: each chunk of 256 rows of pair products is built whole by
``np.multiply.outer`` and summed by numpy, and the chunk sums are added left
to right from 0.0.  At 10 000 states each chunk is a 20 MB temporary.  The
tests check that ``lhv._pair_sum`` returns the same float, bit for bit.

``state_joint`` reads one hidden state's joint off the model's columns,
without ``lhv``'s array route.  ``tabulated_factorized_model`` and
``tabulated_general_model`` write a tabulated model as per-state dicts and
build it through ``lhv.flat_tabulated_model``, the builder model files use.
"""

import numpy as np

from ttbell import lhv
from ttbell.quantum import OUTCOMES, JointDistribution


def pair_sum(x: np.ndarray, y: np.ndarray) -> float:
    """sum_ij x[i]*y[j], one whole 256-row chunk of products at a time."""
    total = 0.0
    for i0 in range(0, len(x), 256):
        total += float(np.multiply.outer(x[i0:i0 + 256], y).sum())
    return total


def state_joint(m: lhv.LhvModel, a: float, b: float, k: int) -> JointDistribution:
    """The joint of hidden state k alone at (a, b), NaN where k has no
    tabulated response; a hand-written model raises on a bad response."""
    p1 = m.t1_column(a)[:, k].tolist()
    entries = []
    for i, A in enumerate(OUTCOMES):
        p2 = (m.t2_column(b) if m.kind == lhv.FACTORIZED else m.t2_column(a, b, A))[:, k].tolist()
        entries += [p1[i] * p2[0], p1[i] * p2[1]]
    return JointDistribution(*entries)


def tabulated_factorized_model(weights, p1_tables, p2_tables) -> lhv.LhvModel:
    """Factorized model from per-state tables ``{k: {angle: P(+1)}}``."""
    p1, p2 = ([t.get(k, {}).items() for k in range(len(weights))] for t in (p1_tables, p2_tables))
    return lhv.flat_tabulated_model(lhv.FACTORIZED, weights, _flat(p1), _flat(p2))


def tabulated_general_model(weights, p1_tables, p2_tables) -> lhv.LhvModel:
    """General model from per-state tables ``{k: {angle: P(+1)}}`` and
    ``{k: {(a, b, A): P(+1)}}``."""
    p1 = [p1_tables.get(k, {}).items() for k in range(len(weights))]
    p2 = [[(*key, p) for key, p in p2_tables.get(k, {}).items()] for k in range(len(weights))]
    return lhv.flat_tabulated_model(lhv.GENERAL, weights, _flat(p1), _flat(p2))


def _flat(per_state):
    """Per-state entries ``(*key, p)`` as one flat table (see
    ``lhv.flat_tabulated_model``), keys in first-seen order."""
    index: dict = {}
    rows, cols, values = [], [], []
    for k, entries in enumerate(per_state):
        for *key, p in entries:
            rows.append(k)
            cols.append(index.setdefault(tuple(key), len(index)))
            values.append(p)
    return list(index), rows, cols, values
