"""Gauss-Legendre quadrature rules on [-1, 1]; callers map the nodes onto
their interval."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OrderOutOfRange

MAX_ORDER = 128
_NEWTON_TOL = 1e-15
_MAX_NEWTON_STEPS = 100


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes strictly increasing in (-1, 1); positive weights summing to 2."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def _legendre_pair(q: int, x: float) -> tuple[float, float]:
    """P_q(x) and P_q'(x) via the three-term recurrence."""
    p_prev, p = 1.0, x
    for k in range(2, q + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = q * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@lru_cache(maxsize=None)
def gauss_legendre(q: int) -> QuadratureRule:
    """q-node rule: Newton refinement of Chebyshev-angle initial guesses.

    Each root is polished until the Newton step falls below 1e-15; weights
    are 2/((1-x^2)·P_q'(x)^2).  Rules are cached per order, and the cache is
    safe to hit from multiple threads (regeneration is idempotent).
    """
    if not 1 <= q <= MAX_ORDER:
        raise OrderOutOfRange(f"order {q} outside 1..{MAX_ORDER}")
    nodes = np.empty(q)
    weights = np.empty(q)
    for k in range(q // 2):
        x = math.cos(math.pi * (k + 0.75) / (q + 0.5))  # k-th largest root
        for _ in range(_MAX_NEWTON_STEPS):
            p, dp = _legendre_pair(q, x)
            step = p / dp
            x -= step
            if abs(step) <= _NEWTON_TOL:
                break
        _, dp = _legendre_pair(q, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        nodes[q - 1 - k] = x
        nodes[k] = -x  # mirror: symmetry holds exactly
        weights[k] = weights[q - 1 - k] = w
    if q % 2 == 1:
        mid = q // 2
        _, dp = _legendre_pair(q, 0.0)
        nodes[mid] = 0.0
        weights[mid] = 2.0 / (dp * dp)
    return QuadratureRule(q, nodes, weights)
