"""Realizations of the implicit map h (exact and inexact) and the reduced
objective J~(x) = J(x, h(x)).

An elimination map produces, for given retained variables x, eliminated
variables y with (approximately) vanishing partial gradient grad_y J(x, y).
Maps carry warm-start state and work counters, so a map instance is confined
to a single optimizer run; distinct instances over the same (immutable)
problem may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergence
from .linalg import LinOp, as_vector, cg_solve
from .problems import BlockPartition, Objective, QuadraticProblem


@dataclass
class WorkCounters:
    """Cumulative inner-solver effort."""

    inner_iterations: int = 0
    linear_solves: int = 0

    def snapshot(self) -> tuple[int, int]:
        return self.inner_iterations, self.linear_solves


@dataclass
class EliminationResult:
    """One evaluation of an elimination map."""

    y: np.ndarray
    residual: float  # ||grad_y J(x, y)||_2 at the returned point
    inner_iterations: int
    linear_solves: int


class EliminationMap:
    """Base class: produce y from x with a reported inner residual.

    Consistency contract of iterative maps: if the warm start already meets
    the active tolerance, it is returned unchanged with zero inner iterations.
    """

    partition: BlockPartition
    counters: WorkCounters

    def solve(self, x: np.ndarray, y0: np.ndarray | None = None,
              tol: float | None = None) -> EliminationResult:
        raise NotImplementedError


class QuadraticExactElimination(EliminationMap):
    """Static condensation for a quadratic problem: h(x) = A22^{-1}(b2 - A21 x).

    A22 never changes, so the constructor makes one dense solve against
    [A21 | b2] and keeps W = A22^{-1} A21, u = A22^{-1} b2 and the reduced
    quadratic J~(x) = x'Sx / 2 + b~'x + c~ with S = A11 - A12 W (symmetrised),
    b~ = A12 u - b1 and c~ = c - b2'u / 2.  Then h(x) = u - W x and a Schur
    product is S v.  The map does no iterative work, so its counters stay at
    zero; ``y0`` and ``tol`` are ignored.
    """

    def __init__(self, problem: QuadraticProblem, partition: BlockPartition | None = None):
        self.partition = partition or problem.partition
        a11, a12, self.a21, self.a22, b1, self.b2 = problem.blocks(self.partition)
        w_u = np.linalg.solve(self.a22, np.column_stack([self.a21, self.b2]))
        self.w, self.u = w_u[:, :-1], w_u[:, -1]
        s = a11 - a12 @ self.w
        self.s = 0.5 * (s + s.T)
        self.b_tilde = a12 @ self.u - b1
        self.c_tilde = problem.c - 0.5 * float(self.b2 @ self.u)
        self.counters = WorkCounters()

    def solve(self, x: np.ndarray, y0: np.ndarray | None = None,
              tol: float | None = None) -> EliminationResult:
        """y = u - W x, reported with its true residual ||A22 y - (b2 - A21 x)||."""
        x = as_vector(x)
        if x.size != self.partition.n_x:
            raise DimensionMismatch("x has the wrong length for this partition")
        y = self.u - self.w @ x
        residual = float(np.linalg.norm(self.a22 @ y - (self.b2 - self.a21 @ x)))
        return EliminationResult(y, residual, 0, 0)

    def schur_hvp(self, v: np.ndarray) -> np.ndarray:
        """Schur complement product S v = A11 v - A12 A22^{-1} A21 v."""
        return self.s @ as_vector(v)


class NewtonElimination(EliminationMap):
    """Damped inexact Newton on grad_y J(x, .) = 0, down to residual ``inner_tol``.

    Each residual evaluation is one :meth:`Objective.y_linearization`, and
    the Newton step from an accepted point solves with the y-block Hessian
    operator of that same evaluation, by CG in at most max(500, 30 n_y)
    iterations.  With ``cg_rel_tol=None`` the CG tolerance is
    the classical superlinear forcing term eta = min(0.5, sqrt(residual)); a
    fixed tolerance can be supplied instead (e.g. 1e-12 to make single-step
    exactness on quadratics observable).  Steps are damped by backtracking on
    the residual-norm merit: from t = 1, halved up to 40 times until the
    residual falls by the factor 1 - 1e-4 t (1 - eta).  A solve that needs more
    than 50 Newton steps, or whose damping fails, raises
    :class:`NonConvergence`.
    """

    def __init__(self, objective: Objective, partition: BlockPartition | None = None,
                 inner_tol: float = 1e-10, cg_rel_tol: float | None = None):
        self.objective = objective
        self.partition = partition or objective.partition
        self.inner_tol = inner_tol
        self.cg_rel_tol = cg_rel_tol
        self.cg_max_iter = max(500, 30 * self.partition.n_y)
        self._warm = np.zeros(self.partition.n_y)
        self.counters = WorkCounters()

    def solve(self, x: np.ndarray, y0: np.ndarray | None = None,
              tol: float | None = None) -> EliminationResult:
        x = as_vector(x)
        if x.size != self.partition.n_x:
            raise DimensionMismatch("x has the wrong length for this partition")
        tol = self.inner_tol if tol is None else tol
        y = (self._warm if y0 is None else as_vector(y0)).copy()

        def linearize(y: np.ndarray) -> tuple[np.ndarray, LinOp]:
            return self.objective.y_linearization(self.partition.embed(x, y), self.partition)

        g_y, h_yy = linearize(y)
        res = float(np.linalg.norm(g_y))
        steps = solves = 0
        try:
            while res > tol:
                if steps >= 50:
                    raise NonConvergence(
                        f"inner Newton stalled at residual {res:.3e} (tol {tol:.1e})",
                        residual=res, iterations=steps)
                eta = self.cg_rel_tol if self.cg_rel_tol is not None else min(0.5, math.sqrt(res))
                step = cg_solve(h_yy, -g_y, rel_tol=eta, max_iter=self.cg_max_iter).x
                solves += 1

                t = 1.0
                for _ in range(40):
                    y_trial = y + t * step
                    g_trial, h_trial = linearize(y_trial)
                    res_trial = float(np.linalg.norm(g_trial))
                    if res_trial <= (1.0 - 1e-4 * t * (1.0 - eta)) * res:
                        break
                    t *= 0.5
                else:
                    raise NonConvergence(
                        f"inner Newton damping failed at residual {res:.3e}",
                        residual=res, iterations=steps)
                y, g_y, h_yy, res = y_trial, g_trial, h_trial, res_trial
                steps += 1
        finally:
            self.counters.inner_iterations += steps
            self.counters.linear_solves += solves

        self._warm = y.copy()
        return EliminationResult(y, res, steps, solves)


class ScheduledInexactElimination(EliminationMap):
    """Inexact elimination with a geometric tolerance schedule and warm starts.

    The active tolerance starts at ``tol_init`` and is multiplied by ``rho``
    after each accepted outer step, floored at ``floor`` so inner work stays
    bounded.  The warm start is updated to the y returned at each accepted
    outer iterate.
    """

    def __init__(self, inner: EliminationMap, tol_init: float = 1e-3,
                 rho: float = 0.5, floor: float = 0.0):
        self.check_rho(rho)
        self.inner = inner
        self.partition = inner.partition
        self.tol_init = tol_init
        self.rho = rho
        self.floor = floor
        self.tol_current = tol_init
        self._warm = np.zeros(self.partition.n_y)

    @staticmethod
    def check_rho(rho: float):
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")

    @property
    def counters(self) -> WorkCounters:
        return self.inner.counters

    def reset(self, y0: np.ndarray | None = None):
        self.tol_current = self.tol_init
        if y0 is not None:
            self._warm = as_vector(y0).copy()

    def effective_tol(self) -> float:
        return max(self.tol_current, self.floor)

    def solve(self, x: np.ndarray, y0: np.ndarray | None = None,
              tol: float | None = None) -> EliminationResult:
        start = self._warm if y0 is None else as_vector(y0)
        eff = tol if tol is not None else self.effective_tol()
        return self.inner.solve(x, y0=start, tol=eff)

    def accept(self, y: np.ndarray):
        """Register an accepted outer step: update warm start, shrink tolerance."""
        self._warm = as_vector(y).copy()
        self.tol_current = max(self.rho * self.tol_current, self.floor)


def exact_map(objective: Objective, partition: BlockPartition,
              inner_tol: float = 1e-10) -> EliminationMap:
    """The exact elimination map for an objective: direct static condensation
    for quadratics, damped Newton down to ``inner_tol`` otherwise."""
    if isinstance(objective, QuadraticProblem):
        return QuadraticExactElimination(objective, partition)
    return NewtonElimination(objective, partition, inner_tol=inner_tol)


class ReducedObjective:
    """J~(x) = J(x, h(x)) with gradient grad_x J(x, h(x)); the one place that
    knows how the reduced objective is evaluated.

    For exact maps the gradient is the true gradient of J~ (the cross term
    vanishes because grad_y J(x, h(x)) = 0); for inexact maps it is the
    tolerance-controlled descent direction.  The last evaluated point is
    cached so a value/gradient pair at the same x costs one inner solve.  With
    a :class:`ScheduledInexactElimination`, :meth:`accept` advances the
    schedule after each accepted outer step and :meth:`settled` holds
    convergence back until the inner residual reaches the schedule floor.
    """

    def __init__(self, objective: Objective, partition: BlockPartition | None = None,
                 elim: EliminationMap | None = None):
        self.objective = objective
        self.partition = partition or objective.partition
        self.elim = exact_map(objective, self.partition) if elim is None else elim
        self.n = self.partition.n_x
        self.fresh_solves = 0
        self._cache: tuple | None = None  # (x, y, value, grad_x, residual)

    @property
    def counters(self) -> WorkCounters:
        return self.elim.counters

    def _ensure(self, x: np.ndarray) -> tuple:
        # a cache hit needs no validation: only checked, finite x are cached
        if self._cache is not None and np.array_equal(self._cache[0], x):
            return self._cache
        x = as_vector(x)
        result = self.elim.solve(x)
        z = self.partition.embed(x, result.y)
        val, g = self.objective.evaluate(z)
        self.fresh_solves += 1
        self._cache = (x.copy(), result.y, val, g[self.partition.x_indices], result.residual)
        return self._cache

    def value(self, x: np.ndarray) -> float:
        return self._ensure(x)[2]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._ensure(x)[3]

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        c = self._ensure(x)
        return c[2], c[3]

    def eliminated_point(self, x: np.ndarray) -> np.ndarray:
        return self._ensure(x)[1]

    def inner_residual(self, x: np.ndarray) -> float:
        return self._ensure(x)[4]

    def accept(self, x: np.ndarray) -> bool:
        """Register x as the next outer iterate.

        A scheduled map takes h(x) as its warm start and tightens its
        tolerance, which changes J~; the cached evaluation is then dropped and
        True returned.  Other maps are left alone (False).
        """
        if not isinstance(self.elim, ScheduledInexactElimination):
            return False
        self.elim.accept(self.eliminated_point(x))
        self._cache = None
        return True

    def settled(self, x: np.ndarray) -> bool:
        """Whether the inner residual at x is down to the schedule floor, so
        the inexact gradient is consistent with the outer tolerance.  Always
        true for maps without a schedule."""
        return (not isinstance(self.elim, ScheduledInexactElimination)
                or self.inner_residual(x) <= self.elim.floor)

    def hvp(self, v: np.ndarray) -> np.ndarray:
        """Reduced Hessian product S v with the Schur complement S that an
        exact quadratic map assembled at construction."""
        if not isinstance(self.elim, QuadraticExactElimination):
            raise NotImplementedError("matrix-free reduced Hessian requires an exact quadratic map")
        return self.elim.schur_hvp(v)

    def hessian_op(self, x: np.ndarray) -> LinOp:
        """Reduced Hessian at x as an operator: the assembled Schur complement
        for exact quadratic maps, otherwise :func:`reduced_newton_operator`
        at (x, h(x))."""
        if isinstance(self.elim, QuadraticExactElimination):
            return LinOp(dim=self.n, apply=self.elim.schur_hvp)
        z = self.partition.embed(x, self.eliminated_point(x))
        return reduced_newton_operator(self.objective, self.partition, z)

    def curvature_along(self, x: np.ndarray, d: np.ndarray) -> float:
        """Curvature of the retained block at the incumbent eliminated point.

        Uses d' grad_xx J d, an upper bound for the reduced (Schur) curvature,
        so steps scaled by its inverse never overshoot the reduced scale.
        """
        z = self.partition.embed(x, self.eliminated_point(x))
        h_lifted = self.objective.hessian_vec(z, self.partition.lift_x(d))
        return float(d @ h_lifted[self.partition.x_indices]) / float(d @ d)


def reduced_newton_operator(obj: Objective, part: BlockPartition, z: np.ndarray) -> LinOp:
    """Matrix-free reduced Jacobian at z = (x, h(x)):

        v -> grad_xx J v - grad_yx J (grad_yy J)^{-1} grad_xy J v,

    with one y-block CG solve, at the default relative tolerance 1e-12, per
    application."""
    h_yy = obj.hess_yy_op(z, part)

    def apply(v: np.ndarray) -> np.ndarray:
        hv = obj.hessian_vec(z, part.lift_x(v))
        s = cg_solve(h_yy, hv[part.y_indices]).x
        return hv[part.x_indices] - obj.hessian_vec(z, part.lift_y(s))[part.x_indices]

    return LinOp(dim=part.n_x, apply=apply)
