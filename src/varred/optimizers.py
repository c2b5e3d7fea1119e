"""Optimization methods: gradient descent (full-space and right-preconditioned),
scheduled-inexact PGD, alternating minimization and Newton with elimination.

Right-preconditioned gradient descent (PGD) is plain gradient descent applied
to a :class:`~varred.elimination.ReducedObjective`: every value and gradient,
including line-search trials, is evaluated at points that already satisfy the
eliminated block of the optimality conditions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DegenerateCurvature, LineSearchFailure, MaxIterReached, NotDescentDirection
from .elimination import (
    EliminationMap,
    ReducedObjective,
    ScheduledInexactElimination,
    WorkCounters,
    exact_map,
)
from .linalg import as_vector
from .problems import BlockPartition, Objective


@dataclass
class ArmijoParams:
    """Backtracking line-search parameters.

    ``t0`` is the initial trial step.  With ``curvature_scaled_init`` the
    first iteration instead starts from t0 / (curvature along the search
    direction), after which each search starts from the previously accepted
    step; this keeps the method at the plain-backtracking fixed-step scale
    rather than silently behaving like an exact line search.
    """

    c1: float = 1e-4
    shrink: float = 0.5
    t0: float = 1.0
    max_trials: int = 60
    curvature_scaled_init: bool = True

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
    stationary point terminate instead of dividing by their own noise.
    """

    rel_grad_tol: float = 1e-6
    max_iter: int = 50000

    def __post_init__(self):
        if self.rel_grad_tol <= 0.0:
            raise ValueError("rel_grad_tol must be positive")

    def met(self, grad_norm: float, grad_norm0: float) -> bool:
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
    """Per-iteration trace of an optimizer run."""

    rows: list[RecordRow] = field(default_factory=list)
    iterates: list[np.ndarray] | None = None
    half_sweep_values: list[float] | None = None

    @property
    def iterations(self) -> int:
        return max(len(self.rows) - 1, 0)

    @property
    def final(self) -> RecordRow:
        return self.rows[-1]


class _Recorder:
    """Accumulates record rows from row 0 at (fval0, grad_norm0, x0) on,
    tracking wall time and the inner-work deltas of the given counters (none
    for full-space methods)."""

    def __init__(self, counters: tuple[WorkCounters, ...], keep_iterates: bool,
                 fval0: float, grad_norm0: float, x0: np.ndarray):
        self.record = ConvergenceRecord(iterates=[] if keep_iterates else None)
        self._counters = counters
        self._start = time.perf_counter()
        self._last_inner, _ = self._work()
        self._g0 = grad_norm0
        self.add(0, fval0, grad_norm0, 0.0, x0)

    def _work(self) -> tuple[int, int]:
        inner = solves = 0
        for counters in self._counters:
            i, s = counters.snapshot()
            inner += i
            solves += s
        return inner, solves

    def add(self, k: int, fval: float, grad_norm: float, step: float, x: np.ndarray):
        rel = 1.0 if k == 0 else (grad_norm / self._g0 if self._g0 > 0.0 else 0.0)
        inner, solves = self._work()
        self.record.rows.append(RecordRow(
            iteration=k, fval=fval, grad_norm=grad_norm, rel_grad_norm=rel,
            step=step, inner_iters=inner - self._last_inner,
            cum_linear_solves=solves,
            elapsed_s=time.perf_counter() - self._start))
        self._last_inner = inner
        if self.record.iterates is not None:
            self.record.iterates.append(np.array(x, copy=True))


def optimal_step_quadratic(g: np.ndarray, hvp) -> float:
    """Exact minimizing step along -g for a quadratic: (g'g)/(g'Hg)."""
    g = as_vector(g)
    gg = float(g @ g)
    if gg == 0.0:
        raise ValueError("gradient must be nonzero")
    ghg = float(g @ hvp(g))
    if ghg <= 0.0:
        raise DegenerateCurvature(f"curvature along gradient is {ghg:.3e}")
    return gg / ghg


def armijo_search(f, x: np.ndarray, d: np.ndarray, g: np.ndarray,
                  p: ArmijoParams, t0: float | None = None,
                  f_x: float | None = None) -> tuple[float, float, int]:
    """First step in {t0, t0*shrink, ...} with sufficient decrease along d.

    Returns ``(t, f(x + t d), trials)``.  Raises :class:`LineSearchFailure`
    once ``max_trials`` trials are exhausted, and :class:`NotDescentDirection`
    unless d is a descent direction (g'd < 0).
    """
    gtd = float(g @ d)
    if gtd >= 0.0:
        raise NotDescentDirection(f"not a descent direction: g'd = {gtd:.3e} >= 0")
    if f_x is None:
        f_x = f(x)
    t = p.t0 if t0 is None else t0
    last_val = None
    for trial in range(1, p.max_trials + 1):
        f_new = f(x + t * d)
        if f_new <= f_x + p.c1 * t * gtd:
            return t, f_new, trial
        last_val = f_new
        t *= p.shrink
    raise LineSearchFailure(
        f"no sufficient decrease within {p.max_trials} trials",
        last_step=t / p.shrink, last_value=last_val)


# The outer loop takes a direction rule, (x, g) -> d, and a step rule,
# (x, d, g, J(x)) -> (t, J(x + t d)), or (t, None) when the rule never
# evaluated J at x + t d.  Rules look ``armijo_search``,
# ``optimal_step_quadratic`` and ``linalg.cg_solve`` up at call time, once
# per outer iteration, so instrumentation that replaces those names sees
# every call.

def _steepest(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    return -g


def _newton_direction(reduced: ReducedObjective):
    """Reduced Newton step: CG on the reduced Hessian at the default 1e-12."""
    def direction(x: np.ndarray, g: np.ndarray) -> np.ndarray:
        return linalg.cg_solve(reduced.hessian_op(x), -g).x
    return direction


def _optimal_step(obj):
    """Closed-form quadratic step along -g through the objective's Hessian product."""
    hvp = obj.hvp if isinstance(obj, ReducedObjective) else None

    def step(x, d, g, val):
        return optimal_step_quadratic(g, hvp or (lambda v: obj.hessian_vec(x, v))), None
    return step


def _armijo_step(obj, p: ArmijoParams, t_first: float | None = None):
    """Backtracking on ``obj.value``.  Every search starts from ``t_first`` if
    given; otherwise the first starts from t0 / (curvature along d) (see
    :class:`ArmijoParams`) and later ones from the previously accepted step."""
    t_next = t_first

    def step(x, d, g, val):
        nonlocal t_next
        t0 = t_next
        if t0 is None:
            lam = obj.curvature_along(x, d) if p.curvature_scaled_init else 0.0
            t0 = p.t0 / lam if lam > 0.0 else p.t0
        t, val, _ = armijo_search(obj.value, x, d, g, p, t0=t0, f_x=val)
        if t_first is None:
            t_next = t
        return t, val
    return step


def _descend(obj, x: np.ndarray, stop: StopRule, direction, step,
             keep_iterates: bool, name: str) -> tuple[np.ndarray, ConvergenceRecord]:
    """The one outer descent loop, x <- x + t d, on a full-space objective or
    a :class:`ReducedObjective`.

    A reduced objective is told of each accepted iterate (a scheduled map then
    re-evaluates J~ there) and must be settled before the run converges.
    Raises :class:`MaxIterReached` (record attached) when the budget runs out.
    """
    reduced = obj if isinstance(obj, ReducedObjective) else None
    val, g = obj.evaluate(x)
    g_norm = g0 = float(np.linalg.norm(g))
    rec = _Recorder(() if reduced is None else (reduced.counters,), keep_iterates,
                    val, g_norm, x)
    k = 0
    while not (stop.met(g_norm, g0) and (reduced is None or reduced.settled(x))):
        if k == stop.max_iter:
            raise MaxIterReached(
                f"{name}: no convergence within {stop.max_iter} iterations "
                f"(rel grad {g_norm / g0 if g0 > 0 else 0.0:.3e})", record=rec.record)
        k += 1
        d = direction(x, g)
        t, val = step(x, d, g, val)
        x = x + t * d
        if reduced is not None and reduced.accept(x):
            val = None
        if val is None:
            val, g = obj.evaluate(x)
        else:
            g = obj.gradient(x)
        g_norm = float(np.linalg.norm(g))
        rec.add(k, val, g_norm, t, x)
    return x, rec.record


def gradient_descent(obj, x0: np.ndarray, stop: StopRule,
                     step_mode: str = "armijo",
                     armijo: ArmijoParams | None = None,
                     keep_iterates: bool = False) -> tuple[np.ndarray, ConvergenceRecord]:
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
    return _descend(obj, as_vector(x0).copy(), stop, _steepest, step, keep_iterates,
                    "gradient descent")


def pgd_inexact(obj: Objective, part: BlockPartition,
                elim: ScheduledInexactElimination,
                x0: np.ndarray, y0: np.ndarray, stop: StopRule,
                p: ArmijoParams | None = None,
                keep_iterates: bool = False) -> tuple[np.ndarray, np.ndarray, ConvergenceRecord]:
    """PGD with scheduled inexact elimination.

    Each outer iteration evaluates the inexact map at the scheduled tolerance,
    steps along -grad_x J(x, h^(x)) with Armijo backtracking (trial points
    re-evaluate the map), then updates the warm start and shrinks the
    tolerance.  Converged once the relative reduced-gradient norm meets the
    stop rule AND the reported inner residual is below the schedule floor, so
    the descent direction's inexactness is consistent with the outer
    tolerance.
    """
    elim.reset(as_vector(y0))
    if elim.floor <= 0.0:
        # inner residual floor two decades below the outer relative tolerance
        elim.floor = 1e-2 * stop.rel_grad_tol
    reduced = ReducedObjective(obj, part, elim)
    x, record = _descend(reduced, as_vector(x0).copy(), stop, _steepest,
                         _armijo_step(reduced, p or ArmijoParams()), keep_iterates,
                         "inexact PGD")
    return x, reduced.eliminated_point(x), record


def alternating_minimization(obj: Objective, part: BlockPartition, z0: np.ndarray,
                             stop: StopRule,
                             keep_iterates: bool = False) -> tuple[np.ndarray, ConvergenceRecord]:
    """Alternate argmin over the retained and eliminated blocks.

    One iteration is a full sweep (x update, then y update); the objective is
    non-increasing at every half sweep by construction of the block solvers.
    Stops on the relative full-gradient norm.  Both block solvers are
    :func:`~varred.elimination.exact_map`; the x-block solver works on the
    swapped partition (its "eliminated" block is x).
    """
    x_solver = exact_map(obj, part.swapped())
    y_solver = exact_map(obj, part)

    z = as_vector(z0).copy()
    val, g = obj.evaluate(z)
    g_norm = g0 = float(np.linalg.norm(g))
    rec = _Recorder((x_solver.counters, y_solver.counters), keep_iterates, val, g_norm, z)
    rec.record.half_sweep_values = [val]
    k = 0
    while not stop.met(g_norm, g0):
        if k == stop.max_iter:
            raise MaxIterReached(
                f"alternating minimization: no convergence within {stop.max_iter} sweeps",
                record=rec.record)
        k += 1
        x_cur, y_cur = part.split(z)
        # x update: minimize over x with y fixed (swapped partition)
        res_x = x_solver.solve(y_cur, y0=x_cur)
        z = part.embed(res_x.y, y_cur)
        rec.record.half_sweep_values.append(obj.value(z))
        # y update
        res_y = y_solver.solve(res_x.y, y0=y_cur)
        z = part.embed(res_x.y, res_y.y)
        val, g = obj.evaluate(z)
        rec.record.half_sweep_values.append(val)
        g_norm = float(np.linalg.norm(g))
        rec.add(k, val, g_norm, 1.0, z)
    return z, rec.record


def newton_eliminated(obj: Objective, part: BlockPartition,
                      elim: EliminationMap | None = None,
                      x0: np.ndarray | None = None,
                      stop: StopRule | None = None,
                      p: ArmijoParams | None = None,
                      keep_iterates: bool = False) -> tuple[np.ndarray, ConvergenceRecord]:
    """Newton iteration on the reduced optimality system F~(x) = grad_x J(x, h(x)).

    The reduced Jacobian grad_xx J - grad_yx J (grad_yy J)^{-1} grad_xy J is
    applied matrix-free (:meth:`ReducedObjective.hessian_op`) and each Newton
    system is solved by CG to relative residual 1e-12, as are the y-block
    solves inside each operator product; steps are damped by Armijo on the
    reduced objective from a unit trial step.
    """
    reduced = ReducedObjective(obj, part, elim)
    x = as_vector(x0).copy() if x0 is not None else np.zeros(reduced.partition.n_x)
    return _descend(reduced, x, stop or StopRule(), _newton_direction(reduced),
                    _armijo_step(reduced, p or ArmijoParams(), t_first=1.0), keep_iterates,
                    "Newton with elimination")


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
