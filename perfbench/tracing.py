"""In-memory span tracer that wraps calls into varred from the benchmark side.

A span has a name, a start and an end time, a parent span and a request id.
Spans are appended to flat arrays (a traced request opens tens of thousands
of them) and written out once, when the run ends.  Per-name call counts,
inclusive times and self times (a span's duration minus the time its direct
children cover) are accumulated as each span closes.

The first component of a span name is its layer: ``linalg``, ``problems``,
``elimination`` or ``optimizers``.  The root span of every request is
``optimizers.request``, so the self times of all spans of a request add up to
the request's duration.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

import numpy as np

import varred.elimination
import varred.linalg
import varred.optimizers
from varred.linalg import LinOp

OBJECTIVE_METHODS = ("value", "gradient", "evaluate", "hessian_vec")
REDUCED_METHODS = ("value", "gradient", "evaluate", "hvp")


class Tracer:
    """Records spans and counts for one traced phase of a benchmark run.

    ``op_bytes(dim)`` gives the computed bytes one application of a CG
    operator of that dimension reads and writes; it is supplied by the
    workload, which knows whether its operator is a dense block or matrix-free.
    """

    LAYERS = ("linalg", "problems", "elimination", "optimizers")

    def __init__(self, op_bytes):
        self.op_bytes = op_bytes
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._request = -1
        self._shadowed: list[tuple[object, str]] = []

    # -- span bookkeeping -------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def _begin(self, nid: int):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_request.append(self._request)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(perf_counter())

    def _end(self):
        now = perf_counter()
        idx, covered = self._stack.pop()
        self.span_end[idx] = now
        duration = now - self.span_start[idx]
        nid = self.span_name[idx]
        self.calls[nid] += 1
        self.total_s[nid] += duration
        self.self_s[nid] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def count(self, key: str, amount: float = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        self._begin(self.name_id(name))
        try:
            yield
        finally:
            self._end()

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Root span of one request; instances instrumented in it are restored after."""
        self._request = request_id
        try:
            with self.span("optimizers.request"):
                yield
        finally:
            self._request = -1
            for obj, method in self._shadowed:
                del obj.__dict__[method]
            self._shadowed.clear()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result)`` records counts from its result."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end()
            if after is not None:
                after(result)
            return result

        return traced

    # -- instrumentation of varred ------------------------------------------

    def instrument(self, obj, layer: str, methods, after=None):
        """Shadow bound methods of one instance with traced ones until the
        request ends, so objects shared between requests are traced once."""
        for method in methods:
            setattr(obj, method, self.wrap(f"{layer}.{method}", getattr(obj, method),
                                           (after or {}).get(method)))
            self._shadowed.append((obj, method))
        return obj

    def instrument_objective(self, obj):
        return self.instrument(obj, "problems", OBJECTIVE_METHODS)

    def instrument_map(self, elim):
        """Trace an elimination map's solves and, where present, Schur products."""
        def after_solve(result):
            self.count("elimination.solve.zero_iter", int(result.inner_iterations == 0))

        methods = ("solve", "schur_hvp") if hasattr(elim, "schur_hvp") else ("solve",)
        return self.instrument(elim, "elimination", methods, {"solve": after_solve})

    def instrument_reduced(self, reduced):
        return self.instrument(reduced, "elimination.reduced", REDUCED_METHODS)

    def _traced_cg(self, cg_solve):
        apply_id = self.name_id("linalg.op_apply")

        def after_cg(result):
            self.count("linalg.cg_solve.iters", result.iterations)

        def cg_with_traced_operator(op, rhs, *args, **kwargs):
            nbytes = self.op_bytes(op.dim)

            def apply(v):
                self._begin(apply_id)
                try:
                    return op(v)
                finally:
                    self._end()
                    self.count("linalg.op_apply.bytes", nbytes)

            return cg_solve(LinOp(dim=op.dim, apply=apply), rhs, *args, **kwargs)

        return self.wrap("linalg.cg_solve", cg_with_traced_operator, after_cg)

    @contextlib.contextmanager
    def patched(self):
        """Swap traced functions into the module namespaces varred calls through.

        ``elimination`` binds ``cg_solve`` at import; ``optimizers`` imports it
        from ``linalg`` inside functions, so both names are replaced.
        """
        def after_armijo(result):
            self.count("optimizers.armijo.trials", result[2])

        traced_cg = self._traced_cg(varred.linalg.cg_solve)
        patches = [
            (varred.linalg, "cg_solve", traced_cg),
            (varred.elimination, "cg_solve", traced_cg),
            (varred.optimizers, "armijo_search",
             self.wrap("optimizers.armijo", varred.optimizers.armijo_search, after_armijo)),
            (varred.optimizers, "optimal_step_quadratic",
             self.wrap("optimizers.optimal_step", varred.optimizers.optimal_step_quadratic)),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, fn in patches:
                setattr(module, attr, fn)
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    # -- results ------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total_s[nid], self.self_s[nid]

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in zip(self.names, self.self_s)
                   if name.split(".", 1)[0] == layer)

    def write(self, path):
        """Write every span to ``path`` (.npz: parallel arrays plus the name table)."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 request=np.frombuffer(self.span_request, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))


class NullTracer:
    """Stand-in used by the untraced phase: every hook is a no-op."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    @contextlib.contextmanager
    def request(self, request_id: int):
        yield

    def instrument_objective(self, obj):
        return obj

    def instrument_map(self, elim):
        return elim

    def instrument_reduced(self, reduced):
        return reduced
