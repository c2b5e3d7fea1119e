"""Block-partitioned objectives and the two benchmark problems.

An objective is a twice continuously differentiable function J(z) on R^n
exposing values, gradients and Hessian-vector products.  A
:class:`BlockPartition` splits z = (x, y) into retained variables x and
eliminated variables y.  :meth:`Objective.restrict` gives J on the y block
with x frozen once, by default through the full evaluation, so any objective
with a Hessian-vector product supports elimination.  It is the one place that
checks a frozen x, slices the objective's data to a partition's blocks and
forms J's Hessian blocks at (x, y), the y block for the inner Newton solve and
the x-block products for the reduced Hessian; other layers read what it
formed.  Both problems here make the work of an inner Newton iterate depend on
n_y alone; log-sum-exp solves its y block directly and makes an x-block
product O(n) with no ``exp``.  Its restriction writes every x-block vector it
returns in place, so a product or an evaluation makes that one array, and
``evaluate(y, grad_x=False)`` makes none.  A quadratic stores its validated A
read-only and, until it stores another, refers to it weakly: a problem built
on that very array shares it and repeats no check; its blocks of a range
partition are views of A.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionFailure, DimensionMismatch, NotSPD
from .linalg import LinOp, as_vector, orthogonal_from_rng, spd_check, sym_matrix


@dataclass(frozen=True)
class BlockPartition:
    """Split of {0, ..., n-1} into retained (x) and eliminated (y) index sets,
    validated in O(n).  ``x_key`` and ``y_key`` index each block: a slice if it
    is an ascending range, so that ``split`` gives views, else its indices."""

    n: int
    x_indices: np.ndarray
    y_indices: np.ndarray

    def __post_init__(self):
        covered = np.zeros(self.n, dtype=bool)
        for name in ("x", "y"):
            i = np.asarray(getattr(self, f"{name}_indices"), dtype=np.intp)
            if i.size < 1 or i.min() < 0 or i.max() >= self.n:
                raise DimensionMismatch("each block must be a non-empty set of indices in 0..n-1")
            covered[i] = True
            ascending = i[-1] - i[0] == i.size - 1 and bool((np.diff(i) == 1).all())
            object.__setattr__(self, f"{name}_indices", i)
            object.__setattr__(self, f"{name}_key", slice(i[0], i[-1] + 1) if ascending else i)
        if self.n_x + self.n_y != self.n or not covered.all():
            raise DimensionMismatch("index sets must disjointly cover 0..n-1")

    @property
    def n_x(self) -> int:
        return self.x_indices.size

    @property
    def n_y(self) -> int:
        return self.y_indices.size

    @classmethod
    def eliminate_trailing(cls, n: int, n_y: int) -> "BlockPartition":
        """x = first n - n_y variables, y = last n_y variables."""
        return cls(n, np.arange(n - n_y), np.arange(n - n_y, n))

    @classmethod
    def eliminate_leading(cls, n: int, n_y: int) -> "BlockPartition":
        """y = first n_y variables, x = the rest."""
        return cls(n, np.arange(n_y, n), np.arange(n_y))

    def swapped(self) -> "BlockPartition":
        """Exchange the roles of the two blocks."""
        return BlockPartition(self.n, self.y_indices, self.x_indices)

    def shrink_eliminated(self, n_r: int) -> "BlockPartition":
        """Keep only the last ``n_r`` eliminated variables eliminated.

        The remaining eliminated variables move to the retained block, which
        is how a partial-elimination scope is expressed.
        """
        if not 1 <= n_r <= self.n_y:
            raise DimensionMismatch(f"n_r must lie in [1, {self.n_y}]")
        promoted = self.y_indices[: self.n_y - n_r]
        return BlockPartition(
            self.n,
            np.concatenate([self.x_indices, promoted]),
            self.y_indices[self.n_y - n_r :],
        )

    def split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return z[self.x_key], z[self.y_key]

    def embed(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """z with x in the retained block and y in the eliminated one; a scalar fills its block."""
        z = np.empty(self.n)
        z[self.x_key] = x
        z[self.y_key] = y
        return z


def submatrix(a: np.ndarray, rows, cols) -> np.ndarray:
    """a[rows][:, cols] for two block keys: a view of ranges, else row-major as np.ix_ gives it."""
    return a[rows][:, cols] if isinstance(cols, slice) else a[rows].take(cols, axis=1)


class Restricted:
    """J(x, .) for one frozen x, at z = (x, y): ``linearize(y)`` is (grad_y J,
    grad_yy J as an operator), ``x_products(y)`` the x-block products of the
    Hessian and ``evaluate(y)`` is (J, grad_x J, grad_y J), where a subclass
    may skip grad_x J (None) if ``grad_x`` is false.  Here each embeds z
    once and calls the full ``evaluate`` or ``hessian_vec``; the products do no
    work before their first call."""

    def __init__(self, restriction: Restriction, x: np.ndarray):
        x = as_vector(x)
        if x.size != restriction.part.n_x:
            raise DimensionMismatch("x has the wrong length for this partition")
        self.restriction, self.x = restriction, x

    def linearize(self, y: np.ndarray) -> tuple[np.ndarray, LinOp]:
        obj, part = self.restriction.objective, self.restriction.part
        z, yk = part.embed(self.x, y), part.y_key
        op = LinOp(dim=part.n_y, apply=lambda v: obj.hessian_vec(z, part.embed(0.0, v))[yk])
        return obj.gradient(z)[yk], op

    def x_products(self, y: np.ndarray):
        """(v -> (grad_xx J v, grad_yx J v), w -> grad_xy J w)."""
        obj, part = self.restriction.objective, self.restriction.part
        z = part.embed(self.x, y)
        return (lambda v: part.split(obj.hessian_vec(z, part.embed(v, 0.0))),
                lambda w: obj.hessian_vec(z, part.embed(0.0, w))[part.x_key])

    def evaluate(self, y: np.ndarray, grad_x: bool = True) -> tuple[float, np.ndarray, np.ndarray]:
        part = self.restriction.part
        val, g = self.restriction.objective.evaluate(part.embed(self.x, y))
        return (val, *part.split(g))


class Restriction:
    """J on the eliminated block of one partition, made once per partition by
    :meth:`Objective.restrict`; ``at(x)`` checks and freezes x.  ``blocks``
    is the objective's data sliced to the partition, (x side, y side), made
    on first use."""

    def __init__(self, objective: Objective, part: BlockPartition):
        self.objective, self.part = objective, part

    @functools.cached_property
    def blocks(self):
        return self.objective.restricted.blocks(self.objective, self.part)

    def at(self, x: np.ndarray) -> Restricted:
        return self.objective.restricted(self, x)


class Objective:
    """Evaluation bundle for a twice differentiable J on R^n.

    Subclasses implement ``evaluate`` and ``hessian_vec``; ``value`` and
    ``gradient`` are read off one evaluation.  :meth:`restrict` is the one
    accessor of the eliminated block of a partition; a subclass may name in
    ``restricted`` a :class:`Restricted` that evaluates it more cheaply.
    ``partition`` is the problem's natural split; elimination machinery may
    override it with any other :class:`BlockPartition`.
    """

    n: int
    partition: BlockPartition
    restricted = Restricted

    def evaluate(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        """(J(z), grad J(z))."""
        raise NotImplementedError

    def hessian_vec(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, z: np.ndarray) -> float:
        return self.evaluate(z)[0]

    def gradient(self, z: np.ndarray) -> np.ndarray:
        return self.evaluate(z)[1]

    def _check_dim(self, z: np.ndarray):
        if z.shape != (self.n,):
            raise DimensionMismatch(f"expected a vector of length {self.n}, got shape {z.shape}")

    def restrict(self, part: BlockPartition | None = None) -> Restriction:
        """J on the eliminated block of ``part`` (default: the natural partition)."""
        return Restriction(self, part or self.partition)

    def curvature_along(self, z: np.ndarray, d: np.ndarray) -> float:
        """Rayleigh quotient d'H(z)d / d'd."""
        nd2 = float(d @ d)
        if nd2 == 0.0:
            raise ValueError("direction must be nonzero")
        return float(d @ self.hessian_vec(z, d)) / nd2


class QuadraticRestricted(Restricted):
    """linearize(y) = (A22 y + r, v -> A22 v) with r = A_yx x - b_y, formed on
    first use; ``evaluate`` is the full one."""

    @staticmethod
    def blocks(objective: QuadraticProblem, part: BlockPartition):
        """(A_xx, A_xy, b_x) and (A22, A_yx, b_y), views if ranges.  A_xy is
        its own slice: A_yx.T gives other rounding in the products."""
        a, b, xk, yk = objective.a, objective.b, part.x_key, part.y_key
        return ((submatrix(a, xk, xk), submatrix(a, xk, yk), b[xk]),
                (submatrix(a, yk, yk), submatrix(a, yk, xk), b[yk]))

    @functools.cached_property
    def r(self) -> np.ndarray:
        _, a_yx, b_y = self.restriction.blocks[1]
        return a_yx @ self.x - b_y

    def linearize(self, y: np.ndarray) -> tuple[np.ndarray, LinOp]:
        a22 = self.restriction.blocks[1][0]
        return a22 @ y + self.r, LinOp.from_matrix(a22)


_validated = None  # weak reference to the last A a QuadraticProblem stored


class QuadraticProblem(Objective):
    """J(z) = 1/2 z'Az - b'z + c with SPD A, stored read-only."""

    restricted = QuadraticRestricted

    def __init__(self, a, b, c: float = 0.0, partition: BlockPartition | None = None):
        global _validated
        last = _validated and _validated()
        hit = last is not None and a is last and not last.flags.writeable
        self.a = last if hit else sym_matrix(a)
        self.b = as_vector(b)
        self.c = float(c)
        self.n = self.b.size
        if self.a.shape != (self.n, self.n):
            raise DimensionMismatch("matrix and vector sizes disagree")
        if not hit:
            if not spd_check(self.a):
                raise NotSPD("quadratic problem requires an SPD matrix")
            self.a.flags.writeable = False
            _validated = weakref.ref(self.a)
        self.partition = partition or BlockPartition.eliminate_trailing(self.n, max(self.n // 2, 1))

    def evaluate(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        self._check_dim(z)
        az = self.a @ z
        return 0.5 * float(z @ az) - float(self.b @ z) + self.c, az - self.b

    def hessian_vec(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.a @ v


class LogSumExpRestricted(Restricted):
    """J(x, .) on log-sum-exp.  ``at(x)`` makes the one ``exp`` over the x
    block, in place in one buffer: the x part s_x of the partition sum,
    shifted by m_x = max b_x x, and x'D_x x are formed once.  Under the full
    shift m = max(m_x, max b_y y) the x part is s_x exp(m_x - m), so
    ``linearize(y)`` is O(n_y), and ``evaluate(y)`` and ``x_products(y)`` have
    no ``exp`` over x."""

    @staticmethod
    def blocks(objective: LogSumExpProblem, part: BlockPartition):
        """The coefficients (a, b, d) of the x block and of the y block, views if a range."""
        coeffs = (objective.a_coeffs, objective.b_coeffs, objective.d_diag)
        return tuple(tuple(c[key] for c in coeffs) for key in (part.x_key, part.y_key))

    def __init__(self, restriction: Restriction, x: np.ndarray):
        super().__init__(restriction, x)
        (a_x, self.b_x, self.d_x), (self.a_y, self.b_y, self.d_y) = restriction.blocks
        e = self.b_x * self.x
        self.m_x = float(e.max())
        e -= self.m_x
        np.exp(e, out=e)
        e *= a_x
        self.s_x = float(e.sum())
        e *= self.b_x
        self.be_x, self.dx = e, self.d_x * self.x
        self.xdx = float(self.x @ self.dx)

    def _softmax(self, y: np.ndarray) -> tuple[float, np.ndarray, float]:
        """(log of the partition sum, the softmax weights w_y, the x-block weight scale)."""
        t = self.b_y * y
        m = max(self.m_x, float(t.max()))
        e = self.a_y * np.exp(t - m)
        shift = math.exp(self.m_x - m)
        s = self.s_x * shift + float(e.sum())
        return m + math.log(s), e / s, shift / s

    def linearize(self, y: np.ndarray) -> tuple[np.ndarray, LinOp]:
        """The operator is v -> D v - g (g'v) on the block, g = b w, D = diag(b g + d);
        it solves by Sherman-Morrison, r -> D^{-1} r + D^{-1} g (g'D^{-1} r) / sigma, with
        sigma = 1 - g'D^{-1} g = (softmax weight outside the block) + sum w d / D."""
        _, w, scale = self._softmax(y)
        g = self.b_y * w
        diag = self.b_y * g + self.d_y

        def solve(r: np.ndarray) -> np.ndarray:
            u = r / diag
            sigma = self.s_x * scale + float(w @ (self.d_y / diag))
            return u + g / diag * (float(g @ u) / sigma)
        return g + self.d_y * y, LinOp(y.size, lambda v: diag * v - g * float(g @ v), solve)

    def evaluate(self, y: np.ndarray, grad_x: bool = True) -> tuple[float, np.ndarray | None, np.ndarray]:
        lse, w, scale = self._softmax(y)
        dy = self.d_y * y
        val = lse + 0.5 * (self.xdx + float(y @ dy))
        dy += self.b_y * w
        if not grad_x:
            return val, None, dy
        g_x = np.multiply(self.be_x, scale)
        g_x += self.dx
        return val, g_x, dy

    def x_products(self, y: np.ndarray):
        """With g_x = be_x scale the blocks of diag(b g) - g g' + D give
        v -> ((b_x g_x) v - g_x (g_x v) + d_x v, -g (g_x v)) and
        w -> -g_x (g w), in O(n) per product.  Each makes only the x-block array it
        returns, the first as (g_x (b_x v - g_x'v) / d_x + v) d_x in place (d_x > 0)."""
        _, w, scale = self._softmax(y)
        g = self.b_y * w

        def along_x(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            gv = scale * float(self.be_x @ v)
            hv = np.multiply(self.b_x, v)
            hv -= gv
            hv *= self.be_x
            hv *= scale
            hv /= self.d_x
            hv += v
            hv *= self.d_x
            return hv, -(g * gv)
        return along_x, lambda w: np.multiply(self.be_x, -scale * float(g @ w))


class LogSumExpProblem(Objective):
    """J(z) = log(sum_i a_i exp(b_i z_i)) + 1/2 z'Dz, strongly convex.

    The first ``n_el`` variables carry steep exponentials (b_i = 10) and a
    nearly flat quadratic (d_i = 1e-4); they are the natural elimination set.
    Coefficients follow a_i = i, b_i = 10 for i <= n_el else 1, d_i = 1e-4
    for i <= n_el else 1e-2.
    """

    restricted = LogSumExpRestricted

    def __init__(self, n: int = 1000, n_el: int = 20):
        if not 1 <= n_el < n:
            raise DimensionMismatch("need 1 <= n_el < n")
        self.n = n
        self.n_el = n_el
        self.a_coeffs = np.arange(1, n + 1, dtype=float)
        self.b_coeffs = np.where(np.arange(n) < n_el, 10.0, 1.0)
        self.d_diag = np.where(np.arange(n) < n_el, 1e-4, 1e-2)
        self.partition = BlockPartition.eliminate_leading(n, n_el)

    def _softmax_weights(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        # max-shift keeps the exponentials finite for b_i z_i up to overflow scale
        t = self.b_coeffs * z
        m = float(t.max())
        e = self.a_coeffs * np.exp(t - m)
        s = float(e.sum())
        return m + np.log(s), e / s

    def evaluate(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        self._check_dim(z)
        lse, w = self._softmax_weights(z)
        val = lse + 0.5 * float(z @ (self.d_diag * z))
        return val, self.b_coeffs * w + self.d_diag * z

    def hessian_vec(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        self._check_dim(z)
        if v.shape != (self.n,):
            raise DimensionMismatch("vector length mismatch in Hessian product")
        _, w = self._softmax_weights(z)
        g_soft = self.b_coeffs * w
        return self.b_coeffs * g_soft * v - g_soft * float(g_soft @ v) + self.d_diag * v


def build_test_matrix(
    n_x: int,
    n_y: int,
    spec_x: tuple[float, float] = (1.0, 10.0),
    spec_y: tuple[float, float] = (1.0, 1000.0),
    coupling_eps: float = 1e-2,
    seed: int = 0,
) -> QuadraticProblem:
    """Random block-structured SPD quadratic test problem.

    A11 and A22 are orthogonal conjugations of linearly equispaced spectra
    (endpoints included); the off-diagonal coupling has i.i.d. uniform(-1,1)
    entries scaled by ``coupling_eps``, halved and regenerated until the full
    matrix is SPD (at most 60 halvings).  b has uniform(-1,1) entries, c = 0.
    """
    if n_x < 1 or n_y < 1:
        raise DimensionMismatch("block sizes must be >= 1")
    for lo, hi in (spec_x, spec_y):
        if not 0.0 < lo <= hi:
            raise ConstructionFailure(f"spectrum bounds ({lo}, {hi}) must satisfy 0 < lo <= hi")
    if coupling_eps < 0.0:
        raise ConstructionFailure("coupling_eps must be >= 0")

    rng = np.random.default_rng(seed)
    q1 = orthogonal_from_rng(rng, n_x)
    q2 = orthogonal_from_rng(rng, n_y)
    a11 = sym_matrix(q1 @ (np.linspace(spec_x[0], spec_x[1], n_x)[:, None] * q1.T))
    a22 = sym_matrix(q2 @ (np.linspace(spec_y[0], spec_y[1], n_y)[:, None] * q2.T))

    n = n_x + n_y
    eps = coupling_eps
    for _ in range(61):
        a12 = eps * rng.uniform(-1.0, 1.0, size=(n_x, n_y))
        candidate = np.zeros((n, n))
        candidate[:n_x, :n_x] = a11
        candidate[:n_x, n_x:] = a12
        candidate[n_x:, :n_x] = a12.T
        candidate[n_x:, n_x:] = a22
        try:  # validated once here; the problem returned shares the stored A
            a = QuadraticProblem(candidate, np.zeros(n)).a
            break
        except NotSPD:
            eps *= 0.5
    else:
        raise ConstructionFailure("could not reach an SPD matrix by halving the coupling")

    b = rng.uniform(-1.0, 1.0, size=n)
    return QuadraticProblem(a, b, 0.0, BlockPartition.eliminate_trailing(n, n_y))
