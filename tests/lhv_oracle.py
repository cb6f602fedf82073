"""Independent routes through hidden-variable models, for the tests.

``state_joint`` reads one hidden state's joint off the model's columns,
without ``lhv``'s array route, and ``average_over_lambda`` sums each entry
of the ensemble joint state by state in Python floats, left to right from
0.0; the tests check that ``lhv`` gives the same floats, bit for bit.
``tabulated_factorized_model`` and
``tabulated_general_model`` write a tabulated model as per-state dicts and
build it through ``lhv.flat_tabulated_model``, the builder model files use.
``factorized_model`` and ``general_model`` build a model hand-written as
scalar responses ``p1(A, a, lam)``, evaluated at every state when a column
is asked for.
"""

import numpy as np

from quantum_oracle import clamp_probability
from ttbell import lhv
from ttbell.quantum import OUTCOMES, JointDistribution, Moments


def factorized_model(support, p1, p2) -> lhv.LhvModel:
    """Model from scalar responses ``p1(A, a, lam)`` and ``p2(B, b, lam)``."""
    return _hand_written(support, p1, p2, lhv.FACTORIZED)


def general_model(support, p1, p2) -> lhv.LhvModel:
    """Model from scalar responses ``p1(A, a, lam)`` and ``p2(B, a, b, A, lam)``."""
    return _hand_written(support, p1, p2, lhv.GENERAL)


def _hand_written(support, p1, p2, kind) -> lhv.LhvModel:
    """Wrap scalar responses into column functions that evaluate them at
    every state, each pair validated by ``_response_pair``."""
    support = tuple(support)
    for k, lam in enumerate(support):
        if lam.id != k:
            raise lhv.InvalidModelError(f"support[{k}].id is {lam.id!r}; ids must run 0..K-1")

    def columns(response, name):
        def column(*setting):
            pairs = [
                _response_pair(lambda o: response(o, *setting, lam), f"{name}{setting} at id {k}")
                for k, lam in enumerate(support)
            ]
            return np.array(pairs, float).reshape(-1, 2).T

        return column

    return lhv.LhvModel([lam.weight for lam in support], kind, columns(p1, "p1"), columns(p2, "p2"))


def _response_pair(evaluate, what: str) -> tuple[float, float]:
    """Evaluate a response for both outcomes and validate normalization."""
    values = []
    for outcome in OUTCOMES:
        v = evaluate(outcome)
        if not (-lhv.RESPONSE_TOL <= v <= 1.0 + lhv.RESPONSE_TOL):
            raise lhv.InvalidModelError(f"{what} returned {v!r}, outside [0, 1]")
        values.append(clamp_probability(v))
    if abs(values[0] + values[1] - 1.0) > lhv.RESPONSE_TOL:
        raise lhv.InvalidModelError(
            f"{what} outcome probabilities sum to {values[0] + values[1]!r}, expected 1"
        )
    return values[0], values[1]


def state_joint(m: lhv.LhvModel, a: float, b: float, k: int) -> JointDistribution:
    """The joint of hidden state k alone at (a, b), NaN where k has no
    tabulated response; a hand-written model raises on a bad response."""
    p1 = m.t1_column(a)[:, k].tolist()
    entries = []
    for i, A in enumerate(OUTCOMES):
        p2 = (m.t2_column(b) if m.kind == lhv.FACTORIZED else m.t2_column(a, b, A))[:, k].tolist()
        entries += [p1[i] * p2[0], p1[i] * p2[1]]
    return JointDistribution(*entries)


def average_over_lambda(m: lhv.LhvModel, a: float, b: float) -> tuple[JointDistribution, Moments]:
    """The ensemble joint at (a, b), each entry sum_k (p1 * p2) * w_k added
    state by state from 0.0, and its moments as ``lhv`` writes them."""
    p1 = m.t1_column(a).tolist()
    weights = m.weights.tolist()
    entries = []
    for i, A in enumerate(OUTCOMES):
        p2 = (m.t2_column(b) if m.kind == lhv.FACTORIZED else m.t2_column(a, b, A)).tolist()
        for j in range(2):
            total = 0.0
            for x, y, w in zip(p1[i], p2[j], weights):
                total += x * y * w
            entries.append(total)
    pp, pm, mp, mm = entries
    moments = Moments(
        mean_t1=(pp + pm) - (mp + mm),
        mean_t2=(pp + mp) - (pm + mm),
        correlator=pp - pm - mp + mm,
    )
    return JointDistribution(*entries), moments


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
