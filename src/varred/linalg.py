"""Minimal dense linear algebra: matrix-free CG, condition numbers, random
orthogonal matrices and SPD utilities.

Vectors are plain 1-D float64 numpy arrays and symmetric matrices are square
float64 arrays kept exactly symmetric by construction (``sym_matrix``).
Everything here is deterministic; randomness only enters through explicit
integer seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonConvergence, NonFinite, NotSPD

DEFAULT_CG_TOL = 1e-12  # elimination solves must sit far below outer tolerances


def as_vector(x) -> np.ndarray:
    """Validate and convert to a finite 1-D float64 vector."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFinite("vector contains non-finite entries")
    return v


def sym_matrix(m) -> np.ndarray:
    """Validate a square matrix and return its exactly symmetric part."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains non-finite entries")
    return 0.5 * (a + a.T)


@dataclass
class LinOp:
    """A matrix-free symmetric linear operator on R^dim."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.apply(v)

    @classmethod
    def from_matrix(cls, a: np.ndarray) -> "LinOp":
        a = np.asarray(a, dtype=float)
        return cls(dim=a.shape[0], apply=lambda v: a @ v)


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residual_norm: float


def cg_solve(
    op: LinOp,
    rhs: np.ndarray,
    x0: np.ndarray | None = None,
    rel_tol: float = DEFAULT_CG_TOL,
    max_iter: int | None = None,
) -> CGResult:
    """Conjugate gradients for SPD ``op``, stopping at ||op x - rhs|| <= rel_tol ||rhs||.

    The recurrence residual is refreshed against the true residual every 50
    iterations to guard against drift at tight tolerances.  Raises
    :class:`NonConvergence` (carrying the final residual) if the budget is
    exhausted.
    """
    rhs = as_vector(rhs)
    n = rhs.size
    if op.dim != n:
        raise DimensionMismatch(f"operator dim {op.dim} != rhs dim {n}")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    if max_iter is None:
        max_iter = max(200, 20 * n)

    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return CGResult(np.zeros(n), 0, 0.0)

    x = np.zeros(n) if x0 is None else as_vector(x0).copy()
    r = rhs - op(x)
    res = float(np.linalg.norm(r))
    target = rel_tol * rhs_norm
    if res <= target:
        return CGResult(x, 0, res)

    p = r.copy()
    rr = res * res
    for k in range(1, max_iter + 1):
        ap = op(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise NotSPD("operator is not positive definite along a CG direction")
        alpha = rr / pap
        x += alpha * p
        if k % 50 == 0:
            r = rhs - op(x)
        else:
            r -= alpha * ap
        rr_new = float(r @ r)
        res = math.sqrt(rr_new)
        if res <= target:
            # confirm with the true residual before declaring victory
            true_res = float(np.linalg.norm(rhs - op(x)))
            if true_res <= target:
                return CGResult(x, k, true_res)
            r = rhs - op(x)
            rr_new = float(r @ r)
            res = math.sqrt(rr_new)
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise NonConvergence(
        f"CG did not reach rel_tol={rel_tol:g} within {max_iter} iterations",
        residual=res,
        iterations=max_iter,
    )


def condition_number(m: np.ndarray) -> float:
    """Spectral condition number lambda_max / lambda_min of an SPD matrix."""
    eigvals = np.linalg.eigvalsh(sym_matrix(m))
    lo, hi = float(eigvals[0]), float(eigvals[-1])
    if lo <= 0.0:
        raise NotSPD(f"smallest eigenvalue {lo:.3e} is not positive")
    return hi / lo


def orthogonal_from_rng(rng: np.random.Generator, order: int) -> np.ndarray:
    """Orthogonal matrix from QR of a standard normal draw, sign-fixed so the
    result is unique given the draw."""
    m = rng.standard_normal((order, order))
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def spd_check(m: np.ndarray) -> bool:
    """True iff a Cholesky factorization succeeds with all pivots positive."""
    a = sym_matrix(m)
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True
