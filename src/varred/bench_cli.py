"""Benchmark harness: configure problems and methods, run experiments, emit
CSV histories, summary tables and conditioning reports.

Config files are flat ``key = value`` INI text with bracketed section headers
(see ``CONFIG_KEYS`` for every recognized key; unknown sections or keys are
rejected).  Command-line flags override config-file values.

Verbs:
    run               one experiment (method x problem), writes a history CSV
    sweep-table1      gd / pgd-exact / pgd-inexact over a list of n_el values
    report-condition  kappa_2 of the full matrix, its retained block and the
                      Schur complement for the configured elimination scope

Exit codes: 0 converged, 2 max-iter, 3 config error, 4 solver failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import (
    ConfigError,
    ConstructionFailure,
    DimensionMismatch,
    MaxIterReached,
    NonFinite,
    VarredError,
)
from .elimination import (
    NewtonElimination,
    QuadraticExactElimination,
    ReducedObjective,
    ScheduledInexactElimination,
    exact_map,
)
from .linalg import condition_number
from .optimizers import (
    ArmijoParams,
    ConvergenceRecord,
    RecordRow,
    StopRule,
    alternating_minimization,
    gradient_descent,
    newton_eliminated,
    pgd_inexact,
)
from .problems import LogSumExpProblem, QuadraticProblem, build_test_matrix

METHODS = ("gd", "pgd-exact", "pgd-inexact", "altmin", "newton-elim")
PROBLEM_KINDS = ("quadratic", "logsumexp")

CSV_HEADER = "iter,fval,grad_norm,rel_grad_norm,step,inner_iters,cum_linear_solves,elapsed_s"


def _setting(section: str, default, key: str | None = None):
    """A config field read from ``[section] key``; the key defaults to the field name."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass
class ExperimentConfig:
    kind: str = _setting("problem", "quadratic")
    n_x: int = _setting("problem", 40)
    n_y: int = _setting("problem", 60)
    spec_x_lo: float = _setting("problem", 1.0)
    spec_x_hi: float = _setting("problem", 10.0)
    spec_y_lo: float = _setting("problem", 1.0)
    spec_y_hi: float = _setting("problem", 1000.0)
    coupling_eps: float = _setting("problem", 1e-2)
    seed: int = _setting("problem", 0)
    n: int = _setting("problem", 1000)
    n_el: int = _setting("problem", 20)
    method: str = _setting("method", "pgd-exact", key="name")
    eliminate: str = _setting("method", "full")  # "full" or "last:<n_r>"
    step_mode: str = _setting("method", "auto")  # auto | optimal | armijo
    z0_fill: float = _setting("method", 0.0)
    inner_tol: float = _setting("method", 1e-10)  # exact-elimination tolerance for non-quadratic problems
    rel_grad_tol: float = _setting("stop", 1e-6)
    max_iter: int = _setting("stop", 50000)
    c1: float = _setting("armijo", 1e-4)
    shrink: float = _setting("armijo", 0.5)
    t0: float = _setting("armijo", 1.0)
    max_trials: int = _setting("armijo", 60)
    curvature_scaled_init: bool = _setting("armijo", True)
    tol_init: float = _setting("inexact", 1e-3)
    rho: float = _setting("inexact", 0.5)
    out_dir: str = _setting("output", "runs", key="dir")
    history: str = _setting("output", "")  # default name derived from method and problem
    log: str = _setting("output", "runs.log")

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.kind not in PROBLEM_KINDS:
            raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}, got {self.kind!r}")
        if self.method not in METHODS:
            raise ConfigError(f"method.name must be one of {METHODS}, got {self.method!r}")
        if self.step_mode not in ("auto", "optimal", "armijo"):
            raise ConfigError(f"method.step_mode must be auto|optimal|armijo, got {self.step_mode!r}")
        if self.eliminate != "full":
            if not self.eliminate.startswith("last:"):
                raise ConfigError("method.eliminate must be 'full' or 'last:<n_r>'")
            try:
                n_r = int(self.eliminate.split(":", 1)[1])
            except ValueError as exc:
                raise ConfigError(f"bad elimination scope {self.eliminate!r}") from exc
            if n_r < 1:
                raise ConfigError("elimination scope n_r must be >= 1")
        if self.step_mode == "optimal" and self.method == "pgd-exact" and self.kind != "quadratic":
            raise ConfigError("method.step_mode = optimal with pgd-exact needs a quadratic problem")
        for name in ("tol_init", "coupling_eps", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if not self.inner_tol > 0:
            raise ConfigError("method.inner_tol must be positive")
        if self.max_iter < 1:
            raise ConfigError("stop.max_iter must be >= 1")
        try:
            self.stop_rule()
            self.armijo_params()
            ScheduledInexactElimination.check_rho(self.rho)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self

    def stop_rule(self) -> StopRule:
        return StopRule(rel_grad_tol=self.rel_grad_tol, max_iter=self.max_iter)

    def armijo_params(self) -> ArmijoParams:
        return ArmijoParams(c1=self.c1, shrink=self.shrink, t0=self.t0,
                            max_trials=self.max_trials,
                            curvature_scaled_init=self.curvature_scaled_init)

    @property
    def scope_n_r(self) -> int | None:
        """Partial-elimination count, or None for the full eliminated block."""
        if self.eliminate == "full":
            return None
        return int(self.eliminate.split(":", 1)[1])

    def problem_label(self) -> str:
        if self.kind == "quadratic":
            return f"quadratic(n_x={self.n_x},n_y={self.n_y},seed={self.seed})"
        return f"logsumexp(n={self.n},n_el={self.n_el})"


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _config_keys() -> dict[str, dict[str, tuple[str, type | object]]]:
    """section -> key -> (config attribute, parser), in field order; the parser
    is the field's type, except for booleans."""
    types = get_type_hints(ExperimentConfig)
    keys: dict[str, dict[str, tuple[str, type | object]]] = {}
    for f in fields(ExperimentConfig):
        parser = _parse_bool if types[f.name] is bool else types[f.name]
        keys.setdefault(f.metadata["section"], {})[f.metadata["key"] or f.name] = (f.name, parser)
    return keys


CONFIG_KEYS = _config_keys()


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and strictly validate a config file; unknown keys are rejected."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        table = CONFIG_KEYS[section]
        for key, raw in parser.items(section):
            if key not in table:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
            attr, typ = table[key]
            try:
                value = typ(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {key} = {raw!r}: {exc}") from exc
            setattr(cfg, attr, value)
    return cfg.validate()


@dataclass
class RunSummary:
    method: str
    problem: str
    n_elim: int
    iterations: int
    final_rel_grad: float
    linear_solves: int
    elapsed_s: float
    status: str  # converged | max-iter | failed

    def log_line(self) -> str:
        return "\t".join([
            self.method, self.problem, str(self.n_elim), str(self.iterations),
            f"{self.final_rel_grad:.6e}", str(self.linear_solves),
            f"{self.elapsed_s:.3f}", self.status,
        ])


def build_problem(cfg: ExperimentConfig):
    """Instantiate the configured objective and its elimination partition.

    Sizes or coefficients the problem or the elimination scope reject, and
    spectra that overflow, are config errors."""
    try:
        if cfg.kind == "quadratic":
            problem = build_test_matrix(
                cfg.n_x, cfg.n_y, (cfg.spec_x_lo, cfg.spec_x_hi),
                (cfg.spec_y_lo, cfg.spec_y_hi), cfg.coupling_eps, cfg.seed)
        else:
            problem = LogSumExpProblem(cfg.n, cfg.n_el)
        part = problem.partition
        if cfg.scope_n_r is not None:
            part = part.shrink_eliminated(cfg.scope_n_r)
    except (DimensionMismatch, ConstructionFailure, NonFinite) as exc:
        raise ConfigError(f"{cfg.problem_label()}, eliminate = {cfg.eliminate}: {exc}") from exc
    return problem, part


def _resolve_step_mode(cfg: ExperimentConfig, problem) -> str:
    if cfg.step_mode == "optimal":
        return "optimal_quadratic"
    if cfg.step_mode == "armijo":
        return "armijo"
    return "optimal_quadratic" if isinstance(problem, QuadraticProblem) else "armijo"


def run_experiment(cfg: ExperimentConfig, quiet: bool = False) -> tuple[RunSummary, ConvergenceRecord | None]:
    """Execute one configured run; persist its history CSV and a run-log line.

    Output that cannot be written is a config error."""
    cfg.validate()
    problem, part = build_problem(cfg)
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.dir = {cfg.out_dir!r}: {exc}") from exc
    stop = cfg.stop_rule()
    armijo = cfg.armijo_params()
    z0 = np.full(problem.n, cfg.z0_fill)
    x0 = z0[part.x_indices]
    y0 = z0[part.y_indices]

    status = "converged"
    record: ConvergenceRecord | None = None
    started = time.perf_counter()
    try:
        if cfg.method == "gd":
            _, record = gradient_descent(problem, z0, stop,
                                         step_mode=_resolve_step_mode(cfg, problem),
                                         armijo=armijo)
        elif cfg.method == "pgd-exact":
            reduced = ReducedObjective(problem, part, exact_map(problem, part, cfg.inner_tol))
            _, record = gradient_descent(reduced, x0, stop,
                                         step_mode=_resolve_step_mode(cfg, problem),
                                         armijo=armijo)
        elif cfg.method == "pgd-inexact":
            sched = ScheduledInexactElimination(NewtonElimination(problem, part),
                                                tol_init=cfg.tol_init, rho=cfg.rho)
            _, _, record = pgd_inexact(problem, part, sched, x0, y0, stop, armijo)
        elif cfg.method == "altmin":
            _, record = alternating_minimization(problem, part, z0, stop)
        elif cfg.method == "newton-elim":
            elim = exact_map(problem, part, cfg.inner_tol)
            _, record = newton_eliminated(problem, part, elim, x0, stop, armijo)
    except MaxIterReached as exc:
        status = "max-iter"
        record = exc.record
    except (VarredError, np.linalg.LinAlgError) as exc:  # any breakdown of the solve, logged as a failed run
        status = f"failed: {exc}"
    elapsed = time.perf_counter() - started

    if record is not None and record.rows:
        final = record.final
        summary = RunSummary(
            method=cfg.method, problem=cfg.problem_label(), n_elim=part.n_y,
            iterations=record.iterations, final_rel_grad=final.rel_grad_norm,
            linear_solves=final.cum_linear_solves, elapsed_s=elapsed, status=status)
    else:
        summary = RunSummary(cfg.method, cfg.problem_label(), part.n_y, 0,
                             float("nan"), 0, elapsed, status)

    try:
        if record is not None and record.rows:
            name = cfg.history or f"{cfg.method}_{cfg.kind}_seed{cfg.seed}.csv"
            emit_history_csv(record, out_dir / name)
        with open(out_dir / cfg.log, "a", encoding="utf-8") as fh:
            fh.write(summary.log_line() + "\n")
    except (OSError, VarredError) as exc:
        raise ConfigError(f"cannot write the run's output under {out_dir}: {exc}") from exc
    if not quiet:
        print(f"{summary.method:12s} {summary.problem:42s} iters={summary.iterations:6d} "
              f"rel_grad={summary.final_rel_grad:.2e} solves={summary.linear_solves:7d} "
              f"{summary.elapsed_s:7.2f}s  {summary.status}")
    return summary, record


@dataclass
class ConditioningReport:
    kappa_full: float
    kappa_retained_block: float
    kappa_schur: float
    n_retained: int
    n_eliminated: int

    def __str__(self) -> str:
        return (f"kappa2(A)   = {self.kappa_full:.6g}\n"
                f"kappa2(A11) = {self.kappa_retained_block:.6g}  (retained block, {self.n_retained} vars)\n"
                f"kappa2(S)   = {self.kappa_schur:.6g}  (Schur complement, {self.n_eliminated} eliminated)")


def conditioning_report(cfg: ExperimentConfig) -> ConditioningReport:
    """Assemble A, its retained block and the dense Schur complement, and
    report their spectral condition numbers.  Quadratic problems only."""
    cfg.validate()
    if cfg.kind != "quadratic":
        raise ConfigError("conditioning reports require a quadratic problem")
    problem, part = build_problem(cfg)
    if problem.n > 2000:
        raise ConfigError("conditioning reports are limited to n <= 2000")
    a11 = problem.a[np.ix_(part.x_indices, part.x_indices)]
    report = ConditioningReport(
        kappa_full=condition_number(problem.a),
        kappa_retained_block=condition_number(a11),
        kappa_schur=condition_number(QuadraticExactElimination(problem, part).s),
        n_retained=part.n_x, n_eliminated=part.n_y)
    if report.kappa_schur > report.kappa_full * (1.0 + 1e-9):
        raise VarredError(
            f"Schur conditioning {report.kappa_schur:.6g} exceeds full-matrix "
            f"conditioning {report.kappa_full:.6g}")
    return report


def run_table1_sweep(cfg: ExperimentConfig, n_el_values: list[int],
                     out: str | Path | None = None) -> dict[str, dict[int, RunSummary]]:
    """Run gd / pgd-exact / pgd-inexact for each n_el; write a summary table.

    Per-cell failures are recorded in the table and the sweep continues.
    """
    if not n_el_values:
        raise ConfigError("the sweep needs at least one n_el value")
    for n_el in n_el_values:
        if not 1 <= n_el < cfg.n:
            raise ConfigError(f"n_el={n_el} must lie in [1, n={cfg.n})")
    out_dir = Path(out) if out is not None else Path(cfg.out_dir)

    methods = ("gd", "pgd-exact", "pgd-inexact")
    table: dict[str, dict[int, RunSummary]] = {m: {} for m in methods}
    for n_el in n_el_values:
        for method in methods:
            cell = replace(cfg, kind="logsumexp", n_el=n_el, method=method,
                           eliminate="full", step_mode="auto", out_dir=str(out_dir),
                           history=f"sweep_{method}_nel{n_el}.csv")
            summary, _ = run_experiment(cell, quiet=True)
            table[method][n_el] = summary

    lines = ["method\t" + "\t".join(f"n_el={v}" for v in n_el_values)]
    for method in methods:
        cells = []
        for n_el in n_el_values:
            s = table[method][n_el]
            if s.status == "converged":
                cells.append(f"{s.iterations} ({s.elapsed_s:.2f})")
            elif s.status == "max-iter":
                cells.append(f"{s.iterations} ({s.elapsed_s:.2f}) [max-iter]")
            else:
                cells.append(f"[{s.status}]")
        lines.append(method + "\t" + "\t".join(cells))
    text = "\n".join(lines) + "\n"
    try:
        with open(out_dir / "table_sweep.tsv", "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write the sweep table under {out_dir}: {exc}") from exc
    return table


def emit_history_csv(record: ConvergenceRecord, path: str | Path) -> None:
    """Write the per-iteration history; floats carry 17 significant digits so a
    parse round-trips bit-exactly."""
    if not record.rows:
        raise VarredError("cannot emit an empty record")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in record.rows:
                fh.write(f"{r.iteration},{r.fval:.16e},{r.grad_norm:.16e},"
                         f"{r.rel_grad_norm:.16e},{r.step:.16e},{r.inner_iters},"
                         f"{r.cum_linear_solves},{r.elapsed_s:.16e}\n")
    except OSError as exc:
        raise VarredError(f"cannot write history to {path}: {exc}") from exc


def parse_history_csv(path: str | Path) -> ConvergenceRecord:
    """Inverse of :func:`emit_history_csv`."""
    record = ConvergenceRecord()
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise VarredError(f"{path}: unexpected header {header!r}")
            for line in fh:
                parts = line.strip().split(",")
                if len(parts) != 8:
                    raise VarredError(f"{path}: malformed row {line!r}")
                record.rows.append(RecordRow(
                    iteration=int(parts[0]), fval=float(parts[1]),
                    grad_norm=float(parts[2]), rel_grad_norm=float(parts[3]),
                    step=float(parts[4]), inner_iters=int(parts[5]),
                    cum_linear_solves=int(parts[6]), elapsed_s=float(parts[7])))
    except OSError as exc:
        raise VarredError(f"cannot read history from {path}: {exc}") from exc
    return record


# ---------------------------------------------------------------- CLI

def _add_common_flags(sub):
    sub.add_argument("--config", type=str, default=None, help="config file (INI)")
    sub.add_argument("--seed", type=int, default=None, help="override problem seed")
    sub.add_argument("--out", type=str, default=None, help="override output directory")
    sub.add_argument("--method", type=str, default=None,
                     help="override method: " + "|".join(METHODS))


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.method is not None:
        cfg.method = args.method
    return cfg.validate()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="varred",
        description="Benchmarks for variable reduction by nonlinear elimination. "
                    "Config keys: " + "; ".join(
                        f"[{s}] " + ", ".join(keys) for s, keys in CONFIG_KEYS.items()))
    subs = parser.add_subparsers(dest="verb", required=True)

    run_p = subs.add_parser("run", help="run one configured experiment")
    _add_common_flags(run_p)

    sweep_p = subs.add_parser("sweep-table1",
                              help="sweep the eliminated-variable count for "
                                   "gd, pgd-exact, pgd-inexact")
    _add_common_flags(sweep_p)
    sweep_p.add_argument("--n-el", type=str, default="10,50,200,400",
                         help="comma-separated n_el values")

    rep_p = subs.add_parser("report-condition",
                            help="conditioning report for a quadratic problem")
    _add_common_flags(rep_p)

    args = parser.parse_args(argv)
    # a non-finite result still raises NonFinite (as_vector, sym_matrix); numpy's
    # warnings on the way there would only break the one-line messages
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            cfg = _load_config(args)
            if args.verb == "run":
                summary, _ = run_experiment(cfg)
                if summary.status == "converged":
                    return 0
                return 2 if summary.status == "max-iter" else 4
            if args.verb == "report-condition":
                report = conditioning_report(cfg)
                print(report)
                return 0
            if args.verb == "sweep-table1":
                try:
                    values = [int(tok) for tok in args.n_el.split(",") if tok.strip()]
                except ValueError as exc:
                    raise ConfigError(f"bad --n-el list {args.n_el!r}") from exc
                table = run_table1_sweep(cfg, values)
                with open(Path(cfg.out_dir) / "table_sweep.tsv", encoding="utf-8") as fh:
                    print(fh.read(), end="")
                statuses = [s.status for per in table.values() for s in per.values()]
                if any(st.startswith("failed") for st in statuses):
                    return 4
                if any(st == "max-iter" for st in statuses):
                    return 2
                return 0
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 3
        except (VarredError, np.linalg.LinAlgError) as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return 4
    raise AssertionError("unreachable verb")


if __name__ == "__main__":
    sys.exit(main())
