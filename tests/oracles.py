"""Reference oracles for the tests, independent of the code under test: the
dense minimizers of the quadratic and log-sum-exp problems (the latter from
the coefficient arrays alone), the iterate-wise convergence-rate bound and a
recorder of the iterates of an optimizer run."""

from contextlib import contextmanager

import numpy as np

from varred.linalg import as_vector
from varred.optimizers import ConvergenceRecord
from varred.problems import LogSumExpProblem, QuadraticProblem


def quadratic_minimizer(p: QuadraticProblem) -> np.ndarray:
    """A z* = b by a dense LAPACK solve."""
    return np.linalg.solve(p.a, p.b)


def lse_with_coefficients(a_coeffs, b_coeffs, d_diag) -> LogSumExpProblem:
    """A log-sum-exp problem with explicit coefficients and no partition;
    d_i = 0 (convex, not strongly convex) is allowed for formula checks."""
    p = LogSumExpProblem.__new__(LogSumExpProblem)
    p.a_coeffs, p.b_coeffs, p.d_diag = (np.asarray(c, dtype=float)
                                        for c in (a_coeffs, b_coeffs, d_diag))
    p.n = p.a_coeffs.size
    return p


def lse_dense_hessian(p: LogSumExpProblem, z: np.ndarray) -> np.ndarray:
    """diag(b g) - g g' + D with g = b w, w = softmax, assembled.  Its diagonal
    is b^2 w (1 - w) + d with each 1 - w_i summed from the other weights, so it
    does not cancel where one weight is near 1."""
    t = p.b_coeffs * z
    e = p.a_coeffs * np.exp(t - t.max())
    w = e / e.sum()
    g = p.b_coeffs * w
    h = -np.outer(g, g)
    others = np.where(np.eye(w.size, dtype=bool), 0.0, w).sum(axis=1)
    np.fill_diagonal(h, p.b_coeffs * g * others + p.d_diag)
    return h


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


@contextmanager
def recorded_iterates(obj):
    """Within the block, each ``obj.evaluate(x)`` first appends a copy of x to
    the yielded list: the class's ``evaluate`` is shadowed on the instance,
    and the shadow is removed on exit.

    The optimizers' outer loop makes one ``evaluate`` per record row, so for a
    run on ``obj`` the list holds the iterates, row for row, as long as
    nothing else calls ``evaluate``.  Two cases break that: on a full-space
    objective ``value`` and ``gradient`` also go through ``evaluate``, so an
    Armijo run records its trial points too; and a scheduled map's re-solve
    where the stop rule holds evaluates the final x again.  Callers check
    ``len(iterates) == len(record.rows)``.
    """
    iterates, evaluate = [], obj.evaluate

    def recording(x):
        iterates.append(np.array(x, copy=True))
        return evaluate(x)

    obj.evaluate = recording
    try:
        yield iterates
    finally:
        del obj.evaluate




def check_rate_bound(record: ConvergenceRecord | None, kappa: float,
                     x_star: np.ndarray, iterates: list[np.ndarray]) -> bool:
    """Iterate-wise bound ||x_k - x*|| <= sqrt(kappa) ((kappa-1)/(kappa+1))^k ||x_0 - x*||.

    Checked with multiplicative slack 1 + 1e-8 plus a roundoff floor of
    1e-13 ||x_0 - x*|| so exactly-converging runs (kappa = 1) are not failed
    on machine noise.
    """
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    if record is not None and len(record.rows) != len(iterates):
        raise ValueError("record and iterate list disagree in length")
    x_star = as_vector(x_star)
    e0 = float(np.linalg.norm(iterates[0] - x_star))
    if e0 == 0.0:
        return all(float(np.linalg.norm(xk - x_star)) == 0.0 for xk in iterates)
    rate = (kappa - 1.0) / (kappa + 1.0)
    slack = 1.0 + 1e-8
    floor = 1e-13 * e0
    bound = np.sqrt(kappa) * e0
    for k, xk in enumerate(iterates):
        if k > 0:
            bound *= rate
        if float(np.linalg.norm(xk - x_star)) > bound * slack + floor:
            return False
    return True
