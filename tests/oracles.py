"""Dense log-sum-exp references for the tests, computed from the coefficient
arrays alone."""

import numpy as np

from varred.problems import LogSumExpProblem


def lse_with_coefficients(a_coeffs, b_coeffs, d_diag) -> LogSumExpProblem:
    """A log-sum-exp problem with explicit coefficients and no partition;
    d_i = 0 (convex, not strongly convex) is allowed for formula checks."""
    p = LogSumExpProblem.__new__(LogSumExpProblem)
    p.a_coeffs, p.b_coeffs, p.d_diag = (np.asarray(c, dtype=float)
                                        for c in (a_coeffs, b_coeffs, d_diag))
    p.n = p.a_coeffs.size
    return p


def lse_dense_hessian(p: LogSumExpProblem, z: np.ndarray) -> np.ndarray:
    """diag(b g) - g g' + D with g = b softmax, assembled."""
    t = p.b_coeffs * z
    e = p.a_coeffs * np.exp(t - t.max())
    g = p.b_coeffs * (e / e.sum())
    return np.diag(p.b_coeffs * g) - np.outer(g, g) + np.diag(p.d_diag)


def lse_minimizer(p: LogSumExpProblem) -> np.ndarray:
    """Full-space Newton with dense solves, from z = 0 to ||grad J|| <= 1e-13."""
    z = np.zeros(p.n)
    for _ in range(100):
        t = p.b_coeffs * z
        e = p.a_coeffs * np.exp(t - t.max())
        g = p.b_coeffs * (e / e.sum()) + p.d_diag * z
        if np.linalg.norm(g) <= 1e-13:
            return z
        z = z - np.linalg.solve(lse_dense_hessian(p, z), g)
    raise AssertionError("dense Newton oracle did not converge")
