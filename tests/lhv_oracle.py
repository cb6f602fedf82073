"""Pair-sum oracle of the hidden-variable consistency check, for the tests.

This is the double sum ``ttbell.lhv.verify_consistency`` first shipped: each
chunk of 256 rows of pair products is built whole by ``np.multiply.outer``
and summed by numpy, and the chunk sums are added left to right from 0.0.
At 10 000 states each chunk is a 20 MB temporary.  The tests check that
``lhv._pair_sum`` returns the same float, bit for bit.
"""

import numpy as np


def pair_sum(x: np.ndarray, y: np.ndarray) -> float:
    """sum_ij x[i]*y[j], one whole 256-row chunk of products at a time."""
    total = 0.0
    for i0 in range(0, len(x), 256):
        total += float(np.multiply.outer(x[i0:i0 + 256], y).sum())
    return total
