"""Pointwise evaluation of module elements.

The package decides its relations on atom coefficients; the tests keep point
values as an independent reference for the symbolic operators.
"""

import numpy as np


def sample(xi, xs) -> np.ndarray:
    """Array of shape (c_n, len(xs)), row k = values of xi at (xs, [k])."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros((xi.consts.c, xs.size), dtype=complex)
    for atom, f in xi.terms:
        out += np.outer(f.entries, atom.value(xs))
    return out


def sup_distance(p, q, xs) -> float:
    return float(np.max(np.abs(sample(p, xs) - sample(q, xs))))


def sup_norm(p, xs) -> float:
    return float(np.max(np.abs(sample(p, xs))))
