"""The benchmark's workloads: set-up, seeded request inputs, the solve through
varred's public API, and an independent oracle for each output.

Every input a request hands the library is drawn from
``np.random.default_rng([seed, 1, request_index])`` and set-up draws from
``[seed, 0, 0]``, so a seed fixes the whole request stream and the traced and
untraced phases of a run see the same inputs.  Oracles run outside the timed
region and never call varred.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from varred import elimination, optimizers, problems

# Outer stopping rule shared by all workloads; the oracle tolerances below are
# stated against it.
REL_GRAD_TOL = 1e-6
SETUP, REQUESTS = 0, 1  # random streams


def gd_kernel(dim: int, steps: int):
    """Speed kernel of the quadratic workloads: gradient steps on a fixed
    dim x dim SPD quadratic, Python loop overhead plus BLAS matvecs."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    matrix = (q * np.linspace(1.0, 10.0, dim)) @ q.T
    start = rng.standard_normal(dim)

    def kernel():
        x = start
        for _ in range(steps):
            x = x - 0.01 * (matrix @ x)
            float(x @ x)

    return kernel


def softmax_kernel(n: int, reps: int):
    """Speed kernel of the log-sum-exp workload: full softmax gradients over
    fixed arrays of length n, memory-bound vector work."""
    rng = np.random.default_rng(0)
    a, d = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)
    b, z = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)

    def kernel():
        for _ in range(reps):
            t = b * z
            e = a * np.exp(t - t.max())
            g = b * e / e.sum() + d * z
            float(g @ g)

    return kernel


@dataclass
class Solution:
    """What a request returns: the point found and the library's own counts."""

    z: np.ndarray
    outer_iters: int  # ConvergenceRecord.iterations
    inner_iters: int  # WorkCounters.inner_iterations
    linear_solves: int  # WorkCounters.linear_solves


class Workload:
    name: str
    tolerance: float
    # each inner iteration the map counts is one CG iteration (exact CG maps)
    cg_counts_inner_iters = True

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, stream: int, index: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream, index])

    def setup(self):
        """Build the problems every request shares."""
        raise NotImplementedError

    def request_input(self, index: int):
        raise NotImplementedError

    def solve(self, inp, tr) -> Solution:
        raise NotImplementedError

    def check(self, inp, sol: Solution) -> tuple[bool, float]:
        """(within the stated tolerance, measured error) from the oracle."""
        raise NotImplementedError

    def op_bytes(self, dim: int) -> int:
        """Computed bytes read and written by one application of a CG operator."""
        return 0

    # Seconds the speed kernel takes at speed 1, about its time on a quiet
    # core of the 2-core x86-64 VM the README's figures come from.
    kernel_s: float

    def speed_kernel(self):
        """A fixed imitation of the workload's hot loop that never calls
        varred; the speed probe times it between requests."""
        raise NotImplementedError


class QuadElim(Workload):
    """One 100/400 quadratic; each request solves it for a new right-hand side
    by PGD with exact elimination and the optimal step.

    Oracle: ``np.linalg.solve`` on the full A.  Stated tolerance:
    ||z - z*|| <= 1e-4 ||z*||, two decades above what the stop rule gives at
    kappa(S) ~ 10.
    """

    name = "quad-elim"
    n_x, n_y = 100, 400
    tolerance = 1e-4

    def setup(self):
        matrix_seed = int(self.rng(SETUP).integers(2**31))
        self.problem = problems.build_test_matrix(self.n_x, self.n_y, seed=matrix_seed)

    def request_input(self, index):
        return self.rng(REQUESTS, index).uniform(-1.0, 1.0, size=self.n_x + self.n_y)

    def solve(self, b, tr):
        part = self.problem.partition
        with tr.span("problems.construct"):
            quad = problems.QuadraticProblem(self.problem.a, b, 0.0, part)
        tr.instrument_objective(quad)
        with tr.span("elimination.construct"):
            elim = elimination.QuadraticExactElimination(quad, part)
        tr.instrument_map(elim)
        reduced = tr.instrument_reduced(elimination.ReducedObjective(quad, part, elim))
        x, record = optimizers.gradient_descent(
            reduced, np.zeros(part.n_x),
            optimizers.StopRule(rel_grad_tol=REL_GRAD_TOL, max_iter=1000),
            step_mode="optimal_quadratic")
        z = part.embed(x, reduced.eliminated_point(x))
        return Solution(z, record.iterations, *elim.counters.snapshot())

    def check(self, b, sol):
        z_star = np.linalg.solve(self.problem.a, b)
        err = float(np.linalg.norm(sol.z - z_star) / np.linalg.norm(z_star))
        return err <= self.tolerance, err

    def op_bytes(self, dim):
        # dense dim x dim block plus the input and output vectors
        return 8 * (dim * dim + 2 * dim)

    kernel_s = 0.015

    def speed_kernel(self):
        return gd_kernel(self.n_y, 500)


class QuadGD(Workload):
    """Fresh 40/60 flagship-family quadratics solved by full-space gradient
    descent with the optimal step; no elimination.

    One request solves ``batch`` of them (about 0.6 s).  A single problem
    takes about 0.15 s, shorter than the speed swings of a shared 2-core VM,
    where one problem per request gave a median that jumped between a fast
    and a slow mode from run to run.  The problems are built at set-up from seeds drawn from
    the workload seed; a run that outlasts the pool reuses it from the start.
    Oracle: ``np.linalg.solve`` on each A; tolerance as for ``quad-elim``.
    """

    name = "quad-gd"
    batch = 4
    pool_size = 384
    tolerance = 1e-4
    kernel_s = 0.015

    def speed_kernel(self):
        return gd_kernel(100, 2000)

    def setup(self):
        seeds = self.rng(SETUP).integers(2**31, size=self.pool_size)
        self.pool = [problems.build_test_matrix(40, 60, seed=int(s)) for s in seeds]

    def request_input(self, index):
        return [(index * self.batch + j) % self.pool_size for j in range(self.batch)]

    def solve(self, slots, tr):
        points, outer = [], 0
        for slot in slots:
            quad = tr.instrument_objective(self.pool[slot])
            z, record = optimizers.gradient_descent(
                quad, np.zeros(quad.n),
                optimizers.StopRule(rel_grad_tol=REL_GRAD_TOL, max_iter=20000),
                step_mode="optimal_quadratic")
            points.append(z)
            outer += record.iterations
        return Solution(np.concatenate(points), outer, 0, 0)

    def check(self, slots, sol):
        errors = []
        for slot, z in zip(slots, np.split(sol.z, len(slots))):
            quad = self.pool[slot]
            z_star = np.linalg.solve(quad.a, quad.b)
            errors.append(float(np.linalg.norm(z - z_star) / np.linalg.norm(z_star)))
        return max(errors) <= self.tolerance, max(errors)


class LseInexact(Workload):
    """Log-sum-exp with n = 100,000 and n_el = 1,000 from a seeded start
    z0 ~ U(-1, 1), solved by PGD with scheduled inexact Newton elimination.

    Oracle: the full gradient at the returned (x, y), computed here from the
    coefficient arrays.  Stated tolerance: ||grad J(z)|| <= 1e-5 ||grad J(z0)||,
    ten times the outer stop rule plus the inner residual floor.
    """

    name = "lse-inexact"
    n, n_el = 100_000, 1_000
    tolerance = 1e-5
    cg_counts_inner_iters = False  # inner iterations are Newton steps

    def setup(self):
        self.problem = problems.LogSumExpProblem(self.n, self.n_el)

    def request_input(self, index):
        return self.rng(REQUESTS, index).uniform(-1.0, 1.0, size=self.n)

    def solve(self, z0, tr):
        lse = tr.instrument_objective(self.problem)
        part = lse.partition
        with tr.span("elimination.construct"):
            inner = elimination.NewtonElimination(lse, part)
            sched = elimination.ScheduledInexactElimination(inner, tol_init=1e-3, rho=0.5)
        tr.instrument_map(sched)
        x, y, record = optimizers.pgd_inexact(
            lse, part, sched, z0[part.x_indices], z0[part.y_indices],
            optimizers.StopRule(rel_grad_tol=REL_GRAD_TOL, max_iter=1000),
            optimizers.ArmijoParams())
        return Solution(part.embed(x, y), record.iterations, *inner.counters.snapshot())

    def _gradient(self, z):
        a, b, d = self.problem.a_coeffs, self.problem.b_coeffs, self.problem.d_diag
        t = b * z
        e = a * np.exp(t - t.max())
        return b * e / e.sum() + d * z

    def check(self, z0, sol):
        g_norm = float(np.linalg.norm(self._gradient(sol.z)))
        bound = self.tolerance * float(np.linalg.norm(self._gradient(z0)))
        return g_norm <= bound, g_norm

    kernel_s = 0.020

    def speed_kernel(self):
        return softmax_kernel(self.n, 20)

    def op_bytes(self, dim):
        # matrix-free Hessian product over all of R^n: reads z, v and the
        # three coefficient arrays, writes the product
        return 8 * 6 * self.n


WORKLOADS = {w.name: w for w in (QuadElim, QuadGD, LseInexact)}
