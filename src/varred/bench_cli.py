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
import re
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
    tol_init: float = _setting("inexact", 1e-3)
    rho: float = _setting("inexact", 0.5)
    out_dir: str = _setting("output", "runs", key="dir")
    history: str = _setting("output", "")  # default: method, problem label and scope
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
        if self.step_mode != "auto" and self.method not in ("gd", "pgd-exact"):
            raise ConfigError(f"method.step_mode applies to gd and pgd-exact only, not {self.method}")
        if self.eliminate != "full" and self.method == "gd":
            raise ConfigError("method.eliminate must be 'full' for gd, which eliminates nothing")
        for name in ("tol_init", "coupling_eps", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if not self.inner_tol > 0:
            raise ConfigError("method.inner_tol must be positive")
        if self.max_iter < 1:
            raise ConfigError("stop.max_iter must be >= 1")
        try:
            self.scope_n_r  # parses [method] eliminate
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
                            max_trials=self.max_trials)

    @property
    def scope_n_r(self) -> int | None:
        """Partial-elimination count, or None for the full eliminated block;
        a malformed ``eliminate`` raises ValueError."""
        if self.eliminate == "full":
            return None
        if not self.eliminate.startswith("last:"):
            raise ValueError("method.eliminate must be 'full' or 'last:<n_r>'")
        try:
            n_r = int(self.eliminate.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad elimination scope {self.eliminate!r}") from exc
        if n_r < 1:
            raise ValueError("elimination scope n_r must be >= 1")
        return n_r

    def problem_label(self) -> str:
        if self.kind == "quadratic":
            return f"quadratic(n_x={self.n_x},n_y={self.n_y},seed={self.seed})"
        return f"logsumexp(n={self.n},n_el={self.n_el})"


def _config_keys() -> dict[str, dict[str, tuple[str, type]]]:
    """section -> key -> (config attribute, parser), in field order; the parser
    is the field's type."""
    types = get_type_hints(ExperimentConfig)
    keys: dict[str, dict[str, tuple[str, type]]] = {}
    for f in fields(ExperimentConfig):
        keys.setdefault(f.metadata["section"], {})[f.metadata["key"] or f.name] = (f.name, types[f.name])
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
        raise ConfigError(f"malformed config {path}: {' '.join(str(exc).split())}") from exc

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

    Sizes or coefficients the problem or the elimination scope reject, sizes
    too large to allocate, and spectra that overflow, are config errors."""
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
    except (DimensionMismatch, ConstructionFailure, NonFinite, MemoryError) as exc:
        raise ConfigError(f"{cfg.problem_label()}, eliminate = {cfg.eliminate}: {exc}") from exc
    return problem, part


def _resolve_step_mode(cfg: ExperimentConfig, problem) -> str:
    auto_optimal = cfg.step_mode == "auto" and isinstance(problem, QuadraticProblem)
    return "optimal_quadratic" if cfg.step_mode == "optimal" or auto_optimal else "armijo"


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
    x0, y0 = part.split(z0)

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

    # every record the optimizers return or attach to MaxIterReached holds row 0
    outcome = ((record.iterations, record.final.rel_grad_norm, record.final.cum_linear_solves)
               if record is not None else (0, float("nan"), 0))
    n_elim = 0 if cfg.method == "gd" else part.n_y
    summary = RunSummary(cfg.method, cfg.problem_label(), n_elim, *outcome, elapsed, status)

    try:
        if record is not None:
            stem = re.sub(r"[^A-Za-z0-9-]+", "_", f"{cfg.method}_{cfg.problem_label()}_{cfg.eliminate}")
            emit_history_csv(record, out_dir / (cfg.history or f"{stem}.csv"))
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
    """Spectral condition numbers of A, of its retained block A11 and of the
    Schur complement S, both read off the exact map.  Quadratic problems only."""
    cfg.validate()
    if cfg.kind != "quadratic":
        raise ConfigError("conditioning reports require a quadratic problem")
    if cfg.n_x + cfg.n_y > 2000:
        raise ConfigError("conditioning reports are limited to n <= 2000")
    problem, part = build_problem(cfg)
    elim = QuadraticExactElimination(problem, part)
    report = ConditioningReport(
        kappa_full=condition_number(problem.a),
        kappa_retained_block=condition_number(elim.restriction.blocks[0][0]),
        kappa_schur=condition_number(elim.s),
        n_retained=part.n_x, n_eliminated=part.n_y)
    if report.kappa_schur > report.kappa_full * (1.0 + 1e-9):
        raise VarredError(
            f"Schur conditioning {report.kappa_schur:.6g} exceeds full-matrix "
            f"conditioning {report.kappa_full:.6g}")
    return report


def run_table1_sweep(cfg: ExperimentConfig,
                     n_el_values: list[int]) -> tuple[dict[str, dict[int, RunSummary]], str]:
    """Run gd / pgd-exact / pgd-inexact from z = 0 on the log-sum-exp problem
    for each n_el; write ``table_sweep.tsv`` of outer iterations (seconds) and
    return the summaries with the table's text.

    The table shows GD's iterations growing with n_el while both PGD variants
    stay at a few.  With ``configs/logsumexp.ini`` (n = 1000) and n_el from 10
    to 400, GD takes 321 to 1,153, exact PGD 7 to 8 and inexact PGD 7 to 9.
    At n = 1e5 and n_el in {10, 100, 1000, 10000}, GD takes 237, 566, then
    its 20,000-iteration budget; exact PGD takes 2 and inexact PGD 2 to 3.
    The table shows no inner work, so it cannot show whether the inexact map
    needs less of it.  Per-cell failures are recorded and the sweep continues.
    """
    if not n_el_values:
        raise ConfigError("the sweep needs at least one n_el value")
    if len(set(n_el_values)) != len(n_el_values):
        raise ConfigError(f"the sweep's n_el values {n_el_values} repeat a value")
    for n_el in n_el_values:
        if not 1 <= n_el < cfg.n:
            raise ConfigError(f"n_el={n_el} must lie in [1, n={cfg.n})")
    out_dir = Path(cfg.out_dir)

    methods = ("gd", "pgd-exact", "pgd-inexact")
    table: dict[str, dict[int, RunSummary]] = {m: {} for m in methods}
    for n_el in n_el_values:
        for method in methods:
            cell = replace(cfg, kind="logsumexp", n_el=n_el, method=method,
                           eliminate="full", step_mode="auto",
                           history=f"sweep_{method}_nel{n_el}.csv")
            table[method][n_el] = run_experiment(cell, quiet=True)[0]

    def shown(s: RunSummary) -> str:
        if s.status.startswith("failed"):
            return f"[{s.status}]"
        return f"{s.iterations} ({s.elapsed_s:.2f})" + (" [max-iter]" if s.status == "max-iter" else "")

    lines = ["method\t" + "\t".join(f"n_el={v}" for v in n_el_values)]
    lines += [m + "\t" + "\t".join(shown(table[m][v]) for v in n_el_values) for m in methods]
    text = "\n".join(lines) + "\n"
    try:
        with open(out_dir / "table_sweep.tsv", "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write the sweep table under {out_dir}: {exc}") from exc
    return table, text


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


def _exit_code(statuses: set[str]) -> int:
    """4 if any run failed, else 2 if any ran out of iterations, else 0."""
    if any(st.startswith("failed") for st in statuses):
        return 4
    return 2 if "max-iter" in statuses else 0


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
                return _exit_code({run_experiment(cfg)[0].status})
            if args.verb == "report-condition":
                report = conditioning_report(cfg)
                print(report)
                return 0
            if args.verb == "sweep-table1":
                try:
                    values = [int(tok) for tok in args.n_el.split(",") if tok.strip()]
                except ValueError as exc:
                    raise ConfigError(f"bad --n-el list {args.n_el!r}") from exc
                table, text = run_table1_sweep(cfg, values)
                print(text, end="")
                return _exit_code({s.status for per in table.values() for s in per.values()})
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 3
        except (VarredError, np.linalg.LinAlgError) as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return 4
    raise AssertionError("unreachable verb")


if __name__ == "__main__":
    sys.exit(main())
