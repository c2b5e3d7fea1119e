"""Realizations of the implicit map h (exact and inexact) and the reduced
objective J~(x) = J(x, h(x)).

An elimination map produces, for given retained variables x, eliminated
variables y with (approximately) vanishing partial gradient grad_y J(x, y).
Every map has a ``partition``, its ``restriction`` of the objective,
``counters`` and ``solve(x)``, which returns y, the inner iterations spent on
it and J(x, .) with x frozen once per solve in that restriction, which checks
x and slices every block a map reads; iterative maps return a warm start that
already meets the active tolerance unchanged, with zero inner iterations.  The
reduced objective keeps the solve at its last point: it reads J, grad_x J and
the inner residual ||grad_y J(x, y)|| off that J(x, .)'s ``evaluate(y)``, and
the reduced Hessian off its ``reduced_hessian(y)``; the exact quadratic map's
J evaluates through S, never the full A.  It copies x once per evaluation,
and that copy is both its cache key and the x the map freezes; a value alone,
as at a line-search trial, forms no grad_x J until the gradient is asked for.  A scheduled map's ``accept`` re-solves at an accepted outer
iterate on that same J(x, .), so each point is frozen once.  Maps carry
warm-start state and work counters, so a map instance is confined to a single
optimizer run; distinct instances over the same (immutable) problem may run
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergence
from .linalg import LinOp, as_vector, op_solve, sym_matrix
from .linalg import cg_solve  # noqa: F401 (perfbench patches cg_solve here)
from .problems import BlockPartition, Objective, QuadraticProblem, Restricted


@dataclass
class WorkCounters:
    """Cumulative inner-solver effort."""

    inner_iterations: int = 0
    linear_solves: int = 0

    # no library caller: perfbench/workloads.py reads it
    def snapshot(self) -> tuple[int, int]:
        return self.inner_iterations, self.linear_solves


@dataclass
class EliminationResult:
    """One evaluation of an elimination map."""

    y: np.ndarray
    inner_iterations: int
    restricted: Restricted  # J(x, .) at the solve's x


class CondensedRestricted(Restricted):
    """J(x, .) of a :class:`QuadraticExactElimination` ``elim``.  ``evaluate``
    holds at y = h(x) only, the one y the reduced objective passes: it is
    (J~, S x - b~, 0) in O(n_x^2), and the full A is never touched."""

    def __init__(self, elim: QuadraticExactElimination, x: np.ndarray):
        super().__init__(elim.restriction, x)
        self.elim = elim

    def evaluate(self, y: np.ndarray, grad_x: bool = True) -> tuple[float, np.ndarray, np.ndarray]:
        e, x = self.elim, self.x
        g = e.s @ x - e.b_tilde
        return 0.5 * float(x @ (g - e.b_tilde)) + e.c_tilde, g, np.zeros(y.size)


class QuadraticExactElimination:
    """Static condensation for a quadratic problem: h(x) = A22^{-1}(b2 - A21 x).

    A22 never changes, so the constructor makes one dense solve against
    [A21 | b2] and keeps W = A22^{-1} A21, u = A22^{-1} b2, the Schur
    complement S = A11 - A12 W (symmetrised), b~ = b1 - A12 u and
    c~ = c - b2'u / 2.  Then h(x) = u - W x, a Schur product is S v, and
    J~(x) = x'(S x - 2 b~) / 2 + c~ costs O(n_x^2).  The map does no
    iterative work, so its counters stay at zero; ``y0`` is ignored.
    """

    def __init__(self, problem: QuadraticProblem, partition: BlockPartition | None = None):
        self.partition = partition or problem.partition
        self.restriction = problem.restrict(self.partition)
        (a11, a_xy, b_x), (a22, a_yx, b_y) = self.restriction.blocks
        w_u = np.linalg.solve(a22, np.column_stack([a_yx, b_y]))
        self.w, self.u = w_u[:, :-1], w_u[:, -1]
        self.s = sym_matrix(a11 - a_xy @ self.w)
        self.b_tilde = b_x - a_xy @ self.u
        self.c_tilde = problem.c - 0.5 * float(b_y @ self.u)
        self.counters = WorkCounters()

    def solve(self, x: np.ndarray, y0: np.ndarray | None = None) -> EliminationResult:
        """y = u - W x, with J(x, .) evaluated through the condensation."""
        restricted = CondensedRestricted(self, x)
        return EliminationResult(self.u - self.w @ restricted.x, 0, restricted)


class NewtonElimination:
    """Damped inexact Newton on grad_y J(x, .) = 0, down to residual ``inner_tol``.

    Each solve freezes x once in the map's restriction of the objective; each
    residual evaluation is one ``linearize(y)`` of it, and the Newton step from
    an accepted point solves with the y-block Hessian operator of that same
    linearization through :func:`op_solve`: directly if the operator has a
    solve (log-sum-exp), else by CG, the only solves counted, at relative
    tolerance eta = min(0.5, sqrt(residual)) within :func:`cg_solve`'s default
    budget.  Steps are damped by backtracking on the residual-norm merit: from
    t = 1, halved up to 40 times until the residual falls by the factor
    1 - 1e-4 t (1 - eta).  A solve that needs more than 50 Newton steps, or
    whose damping fails, raises :class:`NonConvergence`.
    """

    def __init__(self, objective: Objective, partition: BlockPartition | None = None,
                 inner_tol: float = 1e-10):
        self.partition = partition or objective.partition
        self.inner_tol = inner_tol
        self.restriction = objective.restrict(self.partition)
        self._warm = np.zeros(self.partition.n_y)
        self.counters = WorkCounters()

    def solve(self, x: np.ndarray, y0: np.ndarray | None = None,
              tol: float | None = None) -> EliminationResult:
        """:meth:`solve_frozen` on J(x, .), from ``y0`` or the last solve's y."""
        restricted = self.restriction.at(x)
        y = (self._warm if y0 is None else as_vector(y0)).copy()
        if y.size != self.partition.n_y:
            raise DimensionMismatch("y0 has the wrong length for this partition")
        return self.solve_frozen(restricted, y, self.inner_tol if tol is None else tol)

    def solve_frozen(self, restricted: Restricted, y: np.ndarray, tol: float) -> EliminationResult:
        """The Newton loop on a given J(x, .) from ``y``, which it does not modify."""
        g_y, h_yy = restricted.linearize(y)
        res = float(np.linalg.norm(g_y))
        steps = solves = 0
        try:
            while res > tol:
                if steps >= 50:
                    raise NonConvergence(
                        f"inner Newton stalled at residual {res:.3e} (tol {tol:.1e})",
                        residual=res, iterations=steps)
                eta = min(0.5, math.sqrt(res))
                step = op_solve(h_yy, -g_y, rel_tol=eta)
                solves += h_yy.solve is None

                t = 1.0
                for _ in range(40):
                    y_trial = y + t * step
                    g_trial, h_trial = restricted.linearize(y_trial)
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

        self._warm[:] = y  # one buffer per map, not an allocation per solve
        return EliminationResult(y, steps, restricted)


class ScheduledInexactElimination:
    """Inexact elimination with a geometric tolerance schedule and warm starts.

    The tolerance starts at ``tol_init``; :meth:`accept`, told of each
    accepted outer iterate, is the only code that moves the warm start and
    the tolerance on from there.  The floor is the inner map's
    ``inner_tol`` until :meth:`reset` starts a run from a warm start with
    the floor its outer method derives from its own tolerance.
    """

    def __init__(self, inner: NewtonElimination, tol_init: float = 1e-3,
                 rho: float = 0.5):
        self.check_rho(rho)
        self.inner, self.partition, self.counters = inner, inner.partition, inner.counters
        self.restriction = inner.restriction
        self.tol_init, self.rho = tol_init, rho
        self.reset(np.zeros(self.partition.n_y), inner.inner_tol)

    @staticmethod
    def check_rho(rho: float):
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")

    def reset(self, y0: np.ndarray, floor: float):
        self._warm = as_vector(y0).copy()
        self.floor = floor
        self.tol_current = max(self.tol_init, floor)

    def solve(self, x: np.ndarray) -> EliminationResult:
        return self.inner.solve(x, y0=self._warm, tol=self.tol_current)

    def accept(self, result: EliminationResult,
               residual: float | None = None) -> EliminationResult | None:
        """Re-solve ``result``, the solve at an accepted outer iterate, on its J(x, .)
        at ``rho`` times the last tolerance, floored, and keep its y as warm start;
        given the inner ``residual`` where the outer stop rule holds, at the floor,
        or not at all (None, nothing changed) if it is already there."""
        if residual is not None and residual <= self.floor:
            return None
        self.tol_current = self.floor if residual is not None else max(
            self.rho * self.tol_current, self.floor)
        resolved = self.inner.solve_frozen(result.restricted, result.y, self.tol_current)
        self._warm[:] = resolved.y  # the buffer reset made, not an allocation per iterate
        return resolved


def exact_map(objective: Objective, partition: BlockPartition,
              inner_tol: float = 1e-10) -> QuadraticExactElimination | NewtonElimination:
    """The exact elimination map for an objective: direct static condensation
    for quadratics, damped Newton down to ``inner_tol`` otherwise."""
    if isinstance(objective, QuadraticProblem):
        return QuadraticExactElimination(objective, partition)
    return NewtonElimination(objective, partition, inner_tol=inner_tol)


class ReducedObjective:
    """J~(x) = J(x, h(x)) with gradient grad_x J(x, h(x)); the one place that
    knows how the reduced objective is evaluated, through any map of this
    module built on ``objective`` (``elim``; :func:`exact_map` by default), on
    the map's partition.

    For exact maps the gradient is the true gradient of J~ (the cross term
    vanishes because grad_y J(x, h(x)) = 0); for inexact maps it is the
    tolerance-controlled descent direction.  The last evaluated point is
    cached with the map's J(x, .), so a value/gradient pair at the same x costs
    one inner solve and curvature at x is read off the same restriction.
    :meth:`accept` hands each accepted outer iterate to a
    :class:`ScheduledInexactElimination` with the solve cached there.
    """

    def __init__(self, objective: Objective, partition: BlockPartition | None = None,
                 elim=None):
        if elim is None:
            elim = exact_map(objective, partition or objective.partition)
        elif partition is not None and not (
                np.array_equal(partition.x_indices, elim.partition.x_indices)
                and np.array_equal(partition.y_indices, elim.partition.y_indices)):
            raise DimensionMismatch("the partition differs from the elimination map's")
        if elim.restriction.objective is not objective:
            raise ValueError("the elimination map is built on another objective")
        self.elim, self.partition, self.counters = elim, elim.partition, elim.counters
        self.n = self.partition.n_x
        # [x, the map's solve at x, J~(x), grad J~(x) or None until asked for,
        #  ||grad_y J(x, y)||]; x is the private copy that the map froze
        self._cache: list | None = None

    def _ensure(self, x: np.ndarray, gradient: bool = False) -> list:
        # a cache hit needs no check: the restriction checked x when the map froze it
        entry = self._cache
        if entry is None or not np.array_equal(entry[0], x):
            entry = self._cache = None  # free the old restriction before the solve makes one
            entry = self._cache = self._evaluated(self.elim.solve(np.array(x, dtype=float)), gradient)
        elif gradient and entry[3] is None:
            entry[3] = entry[1].restricted.evaluate(entry[1].y)[1]
        return entry

    @staticmethod
    def _evaluated(result: EliminationResult, gradient: bool) -> list:
        val, g_x, g_y = result.restricted.evaluate(result.y, gradient)
        return [result.restricted.x, result, val, g_x, float(np.linalg.norm(g_y))]

    def value(self, x: np.ndarray) -> float:
        return self._ensure(x)[2]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._ensure(x, gradient=True)[3]

    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return tuple(self._ensure(x, gradient=True)[2:4])

    def eliminated_point(self, x: np.ndarray) -> np.ndarray:
        return self._ensure(x)[1].y

    def accept(self, x: np.ndarray, final: bool = False) -> bool:
        """Hand the solve cached at the accepted outer iterate x, with its inner
        residual if ``final`` (the outer stop rule holds at x), to a scheduled
        map's :meth:`~ScheduledInexactElimination.accept`; whether its re-solve
        took Newton steps, and so changed J~ at x.  Nothing at x is kept if it raised."""
        if not isinstance(self.elim, ScheduledInexactElimination):
            return False
        entry, self._cache = self._ensure(x), None
        result = self.elim.accept(entry[1], entry[4] if final else None)
        changed = result is not None and result.inner_iterations > 0
        self._cache = self._evaluated(result, False) if changed else entry
        return changed

    # no library caller: perfbench/tracing.py traces it (exact quadratic maps only)
    def hvp(self, v: np.ndarray) -> np.ndarray:
        return self.elim.s @ as_vector(v)

    def hessian_op(self, x: np.ndarray) -> LinOp:
        """Reduced Hessian at x as an operator: the assembled Schur complement
        for exact quadratic maps, with no solve at x; otherwise the cached
        J(x, .)'s :meth:`~varred.problems.Restricted.reduced_hessian` at h(x),
        matrix-free or, on log-sum-exp, in closed form with a direct solve."""
        if isinstance(self.elim, QuadraticExactElimination):
            return LinOp.from_matrix(self.elim.s)
        result = self._ensure(x)[1]
        return result.restricted.reduced_hessian(result.y)

    def hessian_vec(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.hessian_op(x)(v)

    def curvature_along(self, x: np.ndarray, d: np.ndarray) -> float:
        """Curvature of the retained block at the incumbent eliminated point.

        Uses d' grad_xx J d, an upper bound for the reduced (Schur) curvature,
        so steps scaled by its inverse never overshoot the reduced scale.
        """
        nd2 = float(d @ d)
        if nd2 == 0.0:
            raise ValueError("direction must be nonzero")
        result = self._ensure(x)[1]
        return result.restricted.curvature(result.y, d) / nd2
