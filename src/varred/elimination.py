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
from .linalg import DEFAULT_CG_TOL, LinOp, as_vector, cg_solve
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

    Consistency contract: if the warm start already meets the active
    tolerance, it is returned unchanged with zero inner iterations.
    """

    partition: BlockPartition
    counters: WorkCounters

    def solve(self, x: np.ndarray, y0: np.ndarray | None = None,
              tol: float | None = None) -> EliminationResult:
        raise NotImplementedError


class QuadraticExactElimination(EliminationMap):
    """Static condensation for a quadratic problem: solve A22 y = b2 - A21 x.

    The block system is solved matrix-free by CG at ``cg_rel_tol`` (defaults
    far below the outer tolerances), so each evaluation of h costs exactly one
    linear solve.  The previous y is kept as the CG warm start.
    """

    def __init__(self, problem: QuadraticProblem, partition: BlockPartition | None = None,
                 cg_rel_tol: float = DEFAULT_CG_TOL, cg_max_iter: int | None = None):
        self.problem = problem
        self.partition = partition or problem.partition
        self.cg_rel_tol = cg_rel_tol
        self.a11, self.a12, self.a21, self.a22, self.b1, self.b2 = problem.blocks(self.partition)
        self.cg_max_iter = cg_max_iter or max(500, 30 * self.partition.n_y)
        self._a22_op = LinOp.from_matrix(self.a22)
        self._warm = np.zeros(self.partition.n_y)
        self.counters = WorkCounters()

    def solve(self, x: np.ndarray, y0: np.ndarray | None = None,
              tol: float | None = None) -> EliminationResult:
        x = as_vector(x)
        if x.size != self.partition.n_x:
            raise DimensionMismatch("x has the wrong length for this partition")
        start = self._warm if y0 is None else as_vector(y0)
        result = self._a22_solve(self.b2 - self.a21 @ x, start, tol)
        self._warm = result.x.copy()
        return EliminationResult(result.x, result.residual_norm, result.iterations, 1)

    def schur_hvp(self, v: np.ndarray) -> np.ndarray:
        """Matrix-free Schur complement product S v = A11 v - A12 A22^{-1} A21 v."""
        v = as_vector(v)
        return self.a11 @ v - self.a12 @ self._a22_solve(self.a21 @ v).x

    def _a22_solve(self, rhs: np.ndarray, x0: np.ndarray | None = None,
                   tol: float | None = None):
        """One counted CG solve with A22."""
        result = cg_solve(self._a22_op, rhs, x0=x0,
                          rel_tol=tol if tol is not None else self.cg_rel_tol,
                          max_iter=self.cg_max_iter)
        self.counters.inner_iterations += result.iterations
        self.counters.linear_solves += 1
        return result


class NewtonElimination(EliminationMap):
    """Damped inexact Newton on grad_y J(x, .) = 0.

    Each Newton step solves the y-block Hessian system by CG.  With
    ``cg_rel_tol=None`` the CG tolerance is the classical superlinear forcing
    term min(0.5, sqrt(residual)); a fixed tolerance can be supplied instead
    (e.g. 1e-12 to make single-step exactness on quadratics observable).
    Steps are damped by backtracking on the residual-norm merit.
    """

    def __init__(self, objective: Objective, partition: BlockPartition | None = None,
                 inner_tol: float = 1e-10, max_inner: int = 50,
                 cg_rel_tol: float | None = None, cg_max_iter: int | None = None,
                 damping_c1: float = 1e-4, damping_shrink: float = 0.5,
                 damping_max_trials: int = 40):
        self.objective = objective
        self.partition = partition or objective.partition
        self.inner_tol = inner_tol
        self.max_inner = max_inner
        self.cg_rel_tol = cg_rel_tol
        self.cg_max_iter = cg_max_iter or max(500, 30 * self.partition.n_y)
        self.damping_c1 = damping_c1
        self.damping_shrink = damping_shrink
        self.damping_max_trials = damping_max_trials
        self._warm = np.zeros(self.partition.n_y)
        self.counters = WorkCounters()

    def _residual(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        z = self.partition.embed(x, y)
        return self.objective.gradient(z)[self.partition.y_indices]

    def solve(self, x: np.ndarray, y0: np.ndarray | None = None,
              tol: float | None = None) -> EliminationResult:
        x = as_vector(x)
        if x.size != self.partition.n_x:
            raise DimensionMismatch("x has the wrong length for this partition")
        tol = self.inner_tol if tol is None else tol
        y = (self._warm if y0 is None else as_vector(y0)).copy()

        g_y = self._residual(x, y)
        res = float(np.linalg.norm(g_y))
        steps = solves = 0
        try:
            while res > tol:
                if steps >= self.max_inner:
                    raise NonConvergence(
                        f"inner Newton stalled at residual {res:.3e} (tol {tol:.1e})",
                        residual=res, iterations=steps)
                z = self.partition.embed(x, y)
                h_yy = self.objective.hess_yy_op(z, self.partition)
                eta = self.cg_rel_tol if self.cg_rel_tol is not None else min(0.5, math.sqrt(res))
                step = cg_solve(h_yy, -g_y, rel_tol=eta, max_iter=self.cg_max_iter).x
                solves += 1

                t = 1.0
                for _ in range(self.damping_max_trials):
                    y_trial = y + t * step
                    g_trial = self._residual(x, y_trial)
                    res_trial = float(np.linalg.norm(g_trial))
                    if res_trial <= (1.0 - self.damping_c1 * t * (1.0 - eta)) * res:
                        break
                    t *= self.damping_shrink
                else:
                    raise NonConvergence(
                        f"inner Newton damping failed at residual {res:.3e}",
                        residual=res, iterations=steps)
                y, g_y, res = y_trial, g_trial, res_trial
                steps += 1
        finally:
            self.counters.inner_iterations += steps
            self.counters.linear_solves += solves

        self._warm = y.copy()
        return EliminationResult(y, res, steps, solves)


class GradientStepsElimination(EliminationMap):
    """Fixed-count gradient descent on the eliminated block (identity scaling,
    Armijo step lengths).

    Kept for comparison with the Newton-based inner solver; it satisfies the
    consistency contract (an already-converged warm start is returned
    unchanged) but makes no accuracy guarantee beyond its step budget.
    """

    def __init__(self, objective: Objective, partition: BlockPartition | None = None,
                 n_steps: int = 5, c1: float = 1e-4, shrink: float = 0.5,
                 t0: float = 1.0, max_trials: int = 40):
        self.objective = objective
        self.partition = partition or objective.partition
        self.n_steps = n_steps
        self.c1 = c1
        self.shrink = shrink
        self.t0 = t0
        self.max_trials = max_trials
        self._warm = np.zeros(self.partition.n_y)
        self.counters = WorkCounters()

    def solve(self, x: np.ndarray, y0: np.ndarray | None = None,
              tol: float | None = None) -> EliminationResult:
        x = as_vector(x)
        tol = 0.0 if tol is None else tol
        y = (self._warm if y0 is None else as_vector(y0)).copy()
        part = self.partition

        def val_grad(yv):
            z = part.embed(x, yv)
            v, g = self.objective.evaluate(z)
            return v, g[part.y_indices]

        v, g_y = val_grad(y)
        res = float(np.linalg.norm(g_y))
        steps = 0
        t = self.t0
        for _ in range(self.n_steps):
            if res <= tol:
                break
            gtd = -(res * res)
            for _ in range(self.max_trials):
                y_trial = y + t * (-g_y)
                v_trial, g_trial = val_grad(y_trial)
                if v_trial <= v + self.c1 * t * gtd:
                    break
                t *= self.shrink
            else:
                break
            y, v, g_y = y_trial, v_trial, g_trial
            res = float(np.linalg.norm(g_y))
            steps += 1
        self._warm = y.copy()
        self.counters.inner_iterations += steps
        return EliminationResult(y, res, steps, 0)


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
    """The exact elimination map for an objective: CG static condensation for
    quadratics, damped Newton down to ``inner_tol`` otherwise."""
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
        x = as_vector(x)
        if self._cache is not None and np.array_equal(self._cache[0], x):
            return self._cache
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
        """Reduced Hessian product (quadratic problems: the Schur complement)."""
        if not isinstance(self.elim, QuadraticExactElimination):
            raise NotImplementedError("matrix-free reduced Hessian requires an exact quadratic map")
        return self.elim.schur_hvp(v)

    def hessian_op(self, x: np.ndarray, lin_rel_tol: float = DEFAULT_CG_TOL) -> LinOp:
        """Reduced Hessian at x as an operator: the Schur complement for exact
        quadratic maps, otherwise :func:`reduced_newton_operator` at (x, h(x))."""
        if isinstance(self.elim, QuadraticExactElimination):
            return LinOp(dim=self.n, apply=self.elim.schur_hvp)
        z = self.partition.embed(x, self.eliminated_point(x))
        return reduced_newton_operator(self.objective, self.partition, z, lin_rel_tol)

    def curvature_along(self, x: np.ndarray, d: np.ndarray) -> float:
        """Curvature of the retained block at the incumbent eliminated point.

        Uses d' grad_xx J d, an upper bound for the reduced (Schur) curvature,
        so steps scaled by its inverse never overshoot the reduced scale.
        """
        z = self.partition.embed(x, self.eliminated_point(x))
        h_lifted = self.objective.hessian_vec(z, self.partition.lift_x(d))
        return float(d @ h_lifted[self.partition.x_indices]) / float(d @ d)


def reduced_newton_operator(obj: Objective, part: BlockPartition, z: np.ndarray,
                            lin_rel_tol: float = DEFAULT_CG_TOL) -> LinOp:
    """Matrix-free reduced Jacobian at z = (x, h(x)):

        v -> grad_xx J v - grad_yx J (grad_yy J)^{-1} grad_xy J v,

    with one y-block CG solve per application."""
    h_yy = obj.hess_yy_op(z, part)

    def apply(v: np.ndarray) -> np.ndarray:
        hv = obj.hessian_vec(z, part.lift_x(v))
        s = cg_solve(h_yy, hv[part.y_indices], rel_tol=lin_rel_tol).x
        return hv[part.x_indices] - obj.hessian_vec(z, part.lift_y(s))[part.x_indices]

    return LinOp(dim=part.n_x, apply=apply)


def dense_schur_complement(problem: QuadraticProblem,
                           partition: BlockPartition | None = None) -> tuple[np.ndarray, np.ndarray, float]:
    """Assembled (S, b~, c~) with S = A11 - A12 A22^{-1} A21.

    Direct dense solve; serves as the independent oracle for the matrix-free
    reduced operator and for conditioning reports.
    """
    part = partition or problem.partition
    a11, a12, a21, a22, b1, b2 = problem.blocks(part)
    a22_inv_a21 = np.linalg.solve(a22, a21)
    a22_inv_b2 = np.linalg.solve(a22, b2)
    s = a11 - a12 @ a22_inv_a21
    b_tilde = a12 @ a22_inv_b2 - b1
    c_tilde = problem.c - 0.5 * float(b2 @ a22_inv_b2)
    return 0.5 * (s + s.T), b_tilde, c_tilde
