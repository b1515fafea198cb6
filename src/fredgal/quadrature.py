"""Gauss-Legendre quadrature rules on [-1, 1]; callers map the nodes onto
their interval."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import index

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


def check_order(q, degree: int | None = None) -> None:
    """Refuse with OrderOutOfRange a quadrature order q that is not an
    integer (what operator.index refuses, as for a degree) or lies outside
    1..MAX_ORDER: the rule for an order, whether or not a rule is built.

    Given the degree n of a float projection, the second check is q > n
    instead, since a q-node rule gives that system rank at most q; the
    range is then left to ``gauss_legendre``, which the assembly calls
    after checking the interval and the degree.
    """
    try:
        index(q)
    except TypeError:
        raise OrderOutOfRange(f"quadrature order must be an integer, got {q!r}") from None
    if degree is not None:
        if q <= degree:
            raise OrderOutOfRange(
                f"quadrature order {q} must exceed the degree {degree}: with q <= n "
                "nodes the projection system is singular"
            )
    elif not 1 <= q <= MAX_ORDER:
        raise OrderOutOfRange(f"order {q} outside 1..{MAX_ORDER}")


@lru_cache(maxsize=None)
def gauss_legendre(q: int) -> QuadratureRule:
    """q-node rule: Newton refinement of Chebyshev-angle initial guesses.

    Each root is polished until the Newton step falls below 1e-15; weights
    are 2/((1-x^2)·P_q'(x)^2).  Rules are cached per order, and the cache is
    safe to hit from multiple threads (regeneration is idempotent).  The
    nodes and weights are read-only, since every later caller shares them.
    """
    check_order(q)
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
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(q, nodes, weights)
