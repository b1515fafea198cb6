"""Dense LU with partial pivoting, sized for the small square systems the
Galerkin assembly produces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrix

PIVOT_REL_TOL = 1e-13


@dataclass
class LUFactors:
    """Packed unit-lower/upper factors of the row-permuted matrix.

    Row i of ``lu`` corresponds to row ``perm[i]`` of the original matrix,
    and ``norm_1`` is that matrix's 1-norm (largest column sum).
    """

    lu: np.ndarray
    perm: np.ndarray
    norm_1: float


def lu_factor(matrix) -> LUFactors:
    """Factor P·A = L·U, pivoting on the largest remaining column entry.

    Raises SingularMatrix (with the failing column) when the best available
    pivot is at or below ``PIVOT_REL_TOL`` times the matrix infinity norm.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    m = a.shape[0]
    pivot_tol = PIVOT_REL_TOL * float(np.abs(a).sum(axis=1).max()) if m else 0.0
    norm_1 = float(np.abs(a).sum(axis=0).max()) if m else 0.0

    perm = np.arange(m)
    for k in range(m):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) <= pivot_tol:
            raise SingularMatrix(k)
        if p != k:
            a[[k, p]] = a[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        a[k + 1 :, k] /= a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    return LUFactors(a, perm, norm_1)


def lu_solve(factors: LUFactors, rhs) -> np.ndarray:
    """Forward/back substitution against the packed factors.

    ``rhs`` is one right-hand side of shape (m,) or k of them as the
    columns of an (m, k) array; the solution has the same shape.
    """
    b = np.asarray(rhs, dtype=float)
    lu = factors.lu
    m = lu.shape[0]
    if b.ndim not in (1, 2) or b.shape[0] != m:
        raise ValueError(f"right-hand side must have length {m}")
    y = b[factors.perm].copy()
    for i in range(1, m):
        y[i] -= lu[i, :i] @ y[:i]
    for i in reversed(range(m)):
        y[i] = (y[i] - lu[i, i + 1 :] @ y[i + 1 :]) / lu[i, i]
    return y


def condition_1norm(factors: LUFactors) -> float:
    """Exact 1-norm condition number ||A||_1 · ||A^-1||_1 of the factored
    matrix, its full inverse built by one solve against the identity."""
    inverse = lu_solve(factors, np.eye(factors.lu.shape[0]))
    return factors.norm_1 * float(np.abs(inverse).sum(axis=0).max())
