"""Optimization methods: gradient descent (full-space and right-preconditioned),
scheduled-inexact PGD, alternating minimization and Newton with elimination.

Right-preconditioned gradient descent (PGD) is plain gradient descent applied
to a :class:`~varred.elimination.ReducedObjective`: every value and gradient,
including line-search trials, is evaluated at points that already satisfy the
eliminated block of the optimality conditions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DegenerateCurvature, LineSearchFailure, MaxIterReached, NonFinite, NotDescentDirection
from .elimination import ReducedObjective, ScheduledInexactElimination, WorkCounters, exact_map
from .linalg import as_vector
from .problems import BlockPartition, Objective


@dataclass
class ArmijoParams:
    """Backtracking line-search parameters.

    ``t0`` is the initial trial step, scaled on the first iteration to
    t0 / (curvature along the search direction); each later search starts
    from the previously accepted step.  This keeps the method at the
    plain-backtracking fixed-step scale rather than silently behaving like an
    exact line search.
    """

    c1: float = 1e-4
    shrink: float = 0.5
    t0: float = 1.0
    max_trials: int = 60

    def __post_init__(self):
        if not 0.0 < self.c1 < 1.0:
            raise ValueError("c1 must lie in (0, 1)")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if self.t0 <= 0.0:
            raise ValueError("t0 must be positive")
        if self.max_trials < 1:
            raise ValueError("max_trials must be >= 1")


@dataclass
class StopRule:
    """Relative gradient-norm stopping rule with an absolute-floor guard.

    Terminates when ||g_k|| <= max(rel_grad_tol * ||g_0||, 1e-12); the
    absolute floor makes runs started at (or numerically on top of) a
    stationary point terminate instead of dividing by their own noise.  A
    non-finite gradient norm raises :class:`NonFinite`.
    """

    rel_grad_tol: float = 1e-6
    max_iter: int = 50000

    def __post_init__(self):
        if self.rel_grad_tol <= 0.0:
            raise ValueError("rel_grad_tol must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")

    def met(self, grad_norm: float, grad_norm0: float) -> bool:
        if not math.isfinite(grad_norm):
            raise NonFinite(f"gradient norm is {grad_norm}")
        return grad_norm <= max(self.rel_grad_tol * grad_norm0, 1e-12)


@dataclass
class RecordRow:
    iteration: int
    fval: float
    grad_norm: float
    rel_grad_norm: float
    step: float
    inner_iters: int
    cum_linear_solves: int
    elapsed_s: float


@dataclass
class ConvergenceRecord:
    """Per-iteration trace of an optimizer run: one row per evaluated iterate,
    row 0 at the start point."""

    rows: list[RecordRow] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return max(len(self.rows) - 1, 0)

    @property
    def final(self) -> RecordRow:
        return self.rows[-1]


def optimal_step_quadratic(g: np.ndarray, hvp) -> float:
    """Exact minimizing step along -g for a quadratic: (g'g)/(g'Hg)."""
    gg = float(g @ g)
    if gg == 0.0:
        raise ValueError("gradient must be nonzero")
    ghg = float(g @ hvp(g))
    if ghg <= 0.0:
        raise DegenerateCurvature(f"curvature along gradient is {ghg:.3e}")
    return gg / ghg


def armijo_search(f, x: np.ndarray, d: np.ndarray, g: np.ndarray,
                  p: ArmijoParams, t0: float | None = None,
                  f_x: float | None = None, out: np.ndarray | None = None) -> tuple[float, float, int]:
    """First step in {t0, t0*shrink, ...} with sufficient decrease along d.

    Returns ``(t, f(x + t d), trials)``.  Each trial point is formed as t d,
    then += x, in ``out`` if given, which then holds the accepted one.  Raises
    :class:`LineSearchFailure` once ``max_trials`` trials are exhausted, and
    :class:`NotDescentDirection` unless d is a descent direction (g'd < 0).
    """
    gtd = float(g @ d)
    if gtd >= 0.0:
        raise NotDescentDirection(f"not a descent direction: g'd = {gtd:.3e} >= 0")
    if f_x is None:
        f_x = f(x)
    t = p.t0 if t0 is None else t0
    last_val = None
    for trial in range(1, p.max_trials + 1):
        point = np.multiply(d, t, out=out)
        point += x
        f_new = f(point)
        if f_new <= f_x + p.c1 * t * gtd:
            return t, f_new, trial
        last_val = f_new
        t *= p.shrink
    raise LineSearchFailure(
        f"no sufficient decrease within {p.max_trials} trials",
        last_step=t / p.shrink, last_value=last_val)


# The outer loop takes an advance rule, (x, g, J(x)) -> (x_next, t), and
# evaluates J and grad J at x_next itself.  Line-search methods build theirs
# with :func:`_line_step` from a direction rule, (x, g) -> d, and a step rule,
# (x, d, g, J(x)) -> (x + t d, t), which may write into d.  Rules look
# ``armijo_search``, ``optimal_step_quadratic`` and ``linalg.op_solve`` (which
# looks up ``linalg.cg_solve``) up at call time, once per outer iteration, so
# instrumentation that replaces those names sees every call.

def _steepest(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    return -g


def _newton_direction(reduced: ReducedObjective):
    """Reduced Newton step by ``op_solve``: direct on log-sum-exp, else CG at 1e-12."""
    def direction(x: np.ndarray, g: np.ndarray) -> np.ndarray:
        return linalg.op_solve(reduced.hessian_op(x), -g)
    return direction


def _optimal_step(obj):
    """Closed-form quadratic step along -g through the objective's Hessian product."""
    def step(x, d, g, val):
        t = optimal_step_quadratic(g, lambda v: obj.hessian_vec(x, v))
        d *= t
        d += x
        return d, t
    return step


def _armijo_step(obj, p: ArmijoParams, t_first: float | None = None):
    """Backtracking on ``obj.value``; the accepted trial point is the next
    iterate.  Every search starts from ``t_first`` if given; otherwise the first
    starts from t0 / (curvature along d) (see :class:`ArmijoParams`) and later
    ones from the previously accepted step."""
    t_next = t_first

    def step(x, d, g, val):
        nonlocal t_next
        t0, x_next = t_next, np.empty_like(x)
        if t0 is None:
            lam = obj.curvature_along(x, d)
            t0 = p.t0 / lam if lam > 0.0 else p.t0
        t = armijo_search(obj.value, x, d, g, p, t0=t0, f_x=val, out=x_next)[0]
        if t_first is None:
            t_next = t
        return x_next, t
    return step


def _line_step(direction, step):
    """Advance rule x + t d from a direction rule and a step rule."""
    return lambda x, g, val: step(x, direction(x, g), g, val)


def _descend(obj, x: np.ndarray, stop: StopRule, advance, name: str,
             work: WorkCounters | None = None) -> tuple[np.ndarray, ConvergenceRecord]:
    """The one outer loop, x <- advance(x, g, J(x)), on a full-space objective
    or a :class:`ReducedObjective`, with one ``evaluate`` per iterate.

    A reduced objective ``accept``s each iterate before it is evaluated there,
    and again as final where the stop rule holds: if J~ changed, x is
    evaluated and tested again, with no outer step.  Each row is written once
    x is settled, from the inner work of a reduced objective's map or of
    ``work`` (none if None): ``inner_iters`` since the previous row, re-solves
    included, ``cum_linear_solves`` and ``elapsed_s`` since before the
    evaluation at x0.  Inner steps count from after it, so row 0 counts its
    solves and time but not its steps.  Every ``rel_grad_norm`` is
    ``grad_norm / g0``, g0 the first norm at x0, which the stop rule divides
    by (0 if g0 is 0).  Raises :class:`MaxIterReached` (record attached) when
    the budget runs out.
    """
    reduced = isinstance(obj, ReducedObjective)
    work = obj.counters if reduced else work or WorkCounters()
    solves0, start, record = work.linear_solves, time.perf_counter(), ConvergenceRecord()
    k, t, g0 = 0, 0.0, None
    while True:
        val, g = obj.evaluate(x)
        g_norm = float(np.linalg.norm(g))
        if g0 is None:  # at x0: the inner steps start after its solve
            g0, inner = g_norm, work.inner_iterations
        if (met := stop.met(g_norm, g0)) and reduced and obj.accept(x, final=True):
            continue  # J~ at x changed: evaluate x again
        record.rows.append(RecordRow(
            iteration=k, fval=val, grad_norm=g_norm,
            rel_grad_norm=g_norm / g0 if g0 > 0.0 else 0.0,
            step=t, inner_iters=work.inner_iterations - inner,
            cum_linear_solves=work.linear_solves - solves0,
            elapsed_s=time.perf_counter() - start))
        inner = work.inner_iterations
        if met:
            return x, record
        if k == stop.max_iter:
            raise MaxIterReached(
                f"{name}: no convergence within {stop.max_iter} iterations "
                f"(rel grad {record.final.rel_grad_norm:.3e})", record=record)
        k += 1
        x, t = advance(x, g, val)
        if reduced:
            obj.accept(x)


def gradient_descent(obj, x0: np.ndarray, stop: StopRule,
                     step_mode: str = "armijo",
                     armijo: ArmijoParams | None = None) -> tuple[np.ndarray, ConvergenceRecord]:
    """Gradient descent on any objective exposing value/gradient.

    ``step_mode='optimal_quadratic'`` uses the closed-form step (g'g)/(g'Hg)
    through the objective's Hessian product (no line search);
    ``step_mode='armijo'`` backtracks.  Applied to a reduced objective this is
    the right-preconditioned method.  Raises :class:`MaxIterReached` (record
    attached) when the budget runs out.
    """
    if step_mode == "optimal_quadratic":
        step = _optimal_step(obj)
    elif step_mode == "armijo":
        step = _armijo_step(obj, armijo or ArmijoParams())
    else:
        raise ValueError(f"unknown step_mode {step_mode!r}")
    return _descend(obj, as_vector(x0), stop, _line_step(_steepest, step), "gradient descent")


def pgd_inexact(obj: Objective, part: BlockPartition,
                elim: ScheduledInexactElimination,
                x0: np.ndarray, y0: np.ndarray, stop: StopRule,
                p: ArmijoParams | None = None) -> tuple[np.ndarray, np.ndarray, ConvergenceRecord]:
    """PGD with scheduled inexact elimination: :func:`gradient_descent` with
    Armijo on J~ once ``reset`` starts the schedule from the warm start ``y0``.

    Each outer iteration evaluates the inexact map at the scheduled tolerance
    (trial points included); the schedule's ``accept`` then takes the accepted
    iterate's solve as warm start, shrinks the tolerance and re-solves there.
    Where the stop rule holds with the inner residual above the schedule
    floor, it re-solves at the floor and x is tested again with no outer step,
    so a converged run's direction is as exact as the outer tolerance asks.
    """
    # inner residual floor two decades below the outer relative tolerance
    elim.reset(y0, floor=1e-2 * stop.rel_grad_tol)
    reduced = ReducedObjective(obj, part, elim)
    x, record = gradient_descent(reduced, x0, stop, armijo=p)
    return x, reduced.eliminated_point(x), record


def alternating_minimization(obj: Objective, part: BlockPartition, z0: np.ndarray,
                             stop: StopRule) -> tuple[np.ndarray, ConvergenceRecord]:
    """Alternate argmin over the retained and eliminated blocks.

    One iteration is a full sweep (x update, then y update), recorded with
    step 1; the objective is non-increasing at every half sweep by
    construction of the block solvers.  Stops on the relative full-gradient
    norm.  Both block solvers are :func:`~varred.elimination.exact_map`; the
    x-block solver works on the swapped partition (its "eliminated" block is x).
    """
    x_solver = exact_map(obj, part.swapped())
    y_solver = exact_map(obj, part)
    y_solver.counters = x_solver.counters  # one tally for both block solves

    def sweep(z, g, val):
        x_cur, y_cur = part.split(z)
        x_new = x_solver.solve(y_cur, y0=x_cur).y
        return part.embed(x_new, y_solver.solve(x_new, y0=y_cur).y), 1.0

    return _descend(obj, as_vector(z0), stop, sweep, "alternating minimization",
                    x_solver.counters)


def newton_eliminated(obj: Objective, part: BlockPartition,
                      elim=None,
                      x0: np.ndarray | None = None,
                      stop: StopRule | None = None,
                      p: ArmijoParams | None = None) -> tuple[np.ndarray, ConvergenceRecord]:
    """Newton iteration on the reduced optimality system F~(x) = grad_x J(x, h(x)).

    The reduced Jacobian grad_xx J - grad_xy J (grad_yy J)^{-1} grad_yx J is
    :meth:`ReducedObjective.hessian_op`, read off the restriction J(x, .) that
    evaluated J~ at x.  Each Newton system is solved by ``op_solve``: directly
    on log-sum-exp, whose reduced Hessian has a closed form, else by CG to
    relative residual 1e-12 with a y-block solve inside each product.
    Steps are damped by Armijo on the reduced objective from a unit trial step.
    """
    reduced = ReducedObjective(obj, part, elim)
    x = as_vector(x0) if x0 is not None else np.zeros(reduced.partition.n_x)
    advance = _line_step(_newton_direction(reduced),
                         _armijo_step(reduced, p or ArmijoParams(), t_first=1.0))
    return _descend(reduced, x, stop or StopRule(), advance, "Newton with elimination")
