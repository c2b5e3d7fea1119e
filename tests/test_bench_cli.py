import contextlib
import functools
import io
import math
import os
import re
import string
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import varred.bench_cli
import varred.elimination
import varred.optimizers

from varred.bench_cli import (
    CONFIG_KEYS,
    METHODS,
    ExperimentConfig,
    build_problem,
    conditioning_report,
    emit_history_csv,
    main,
    parse_config,
    run_experiment,
    run_table1_sweep,
)
from varred.elimination import NewtonElimination
from varred.errors import ConfigError, NonConvergence, VarredError
from varred.optimizers import ArmijoParams, ConvergenceRecord, RecordRow
from varred.problems import QuadraticProblem

ROOT = Path(__file__).resolve().parents[1]
HUGE = "1.7976931348623157e+308"

SMALL_QUADRATIC = """
[problem]
kind = quadratic
n_x = 4
n_y = 6
spec_x_lo = 1.0
spec_x_hi = 5.0
spec_y_lo = 1.0
spec_y_hi = 40.0
coupling_eps = 0.1
seed = 3

[method]
name = pgd-exact
eliminate = full

[stop]
rel_grad_tol = 1e-6
max_iter = 5000
"""


def small_inexact(problem="", method="", rest=""):
    """Config text for pgd-inexact on a 4/6 quadratic, plus the given lines."""
    return (f"[problem]\nn_x = 4\nn_y = 6\n{problem}"
            f"[method]\nname = pgd-inexact\n{method}{rest}")


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL_QUADRATIC)
    cfg = parse_config(path)
    cfg.out_dir = str(tmp_path / "runs")
    return cfg


class TestConfigParsing:
    def test_round_trip_values(self, small_cfg):
        assert small_cfg.kind == "quadratic"
        assert small_cfg.n_x == 4 and small_cfg.n_y == 6
        assert small_cfg.coupling_eps == pytest.approx(0.1)
        assert small_cfg.method == "pgd-exact"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[problem]\nkind = quadratic\nbogus_key = 1\n")
        with pytest.raises(ConfigError, match=r"bogus_key.*\[problem\]|\[problem\].*bogus_key"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[mystery]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(path)

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[problem]\nn_x = forty\n")
        with pytest.raises(ConfigError, match="n_x"):
            parse_config(path)

    def test_bad_method_name(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(method="sgd").validate()

    def test_bad_scope(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(eliminate="first:3").validate()
        assert ExperimentConfig(eliminate="last:7").scope_n_r == 7

    def test_keys_map_one_to_one_onto_fields(self):
        # parse_config sets attributes by name, so a key whose field is gone
        # would otherwise be accepted and ignored
        attrs = [attr for table in CONFIG_KEYS.values() for attr, _ in table.values()]
        assert sorted(attrs) == sorted(f.name for f in fields(ExperimentConfig))

    def test_config_keys_are_pinned(self, tmp_path, capsys):
        # a new config key means editing this table, and logging the edit
        assert [(section, list(table)) for section, table in CONFIG_KEYS.items()] == [
            ("problem", ["kind", "n_x", "n_y", "spec_x_lo", "spec_x_hi", "spec_y_lo",
                         "spec_y_hi", "coupling_eps", "seed", "n", "n_el"]),
            ("method", ["name", "eliminate", "step_mode", "z0_fill"]),
            ("stop", ["rel_grad_tol", "max_iter"]),
            ("inexact", ["tol_init"]),
            ("output", ["dir", "history", "log"]),
        ]
        path = tmp_path / "cfg.ini"
        for section, key, value in [("armijo", "c1", "1e-4"), ("armijo", "shrink", "0.5"),
                                    ("armijo", "t0", "1.0"), ("armijo", "max_trials", "60"),
                                    ("inexact", "rho", "0.5")]:
            path.write_text(f"[{section}]\n{key} = {value}\n")
            assert main(["run", "--config", str(path)]) == 3, key
            err = capsys.readouterr().err
            named = f"unknown key '{key}'" if section in CONFIG_KEYS else f"unknown section [{section}]"
            assert err.startswith("config error") and named in err and len(err.splitlines()) == 1, key

    def test_readme_names_only_config_keys(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        mentioned = re.findall(r"`\[(\w+)\] (\w+)", readme)
        assert mentioned
        assert [(s, key) for s, key in mentioned if key not in CONFIG_KEYS.get(s, {})] == []
        sections = re.search(r"with sections ((?:`\[\w+\]`[,\s]*)+)", readme)
        assert re.findall(r"\[(\w+)\]", sections[1]) == list(CONFIG_KEYS)


class TestHistoryCSV:
    def _record(self, rows=2):
        rec = ConvergenceRecord()
        rng = np.random.default_rng(0)
        for k in range(rows):
            rec.rows.append(RecordRow(
                iteration=k, fval=float(rng.standard_normal()),
                grad_norm=abs(float(rng.standard_normal())),
                rel_grad_norm=1.0 if k == 0 else float(rng.uniform()),
                step=float(rng.uniform()), inner_iters=int(rng.integers(0, 9)),
                cum_linear_solves=k * 3, elapsed_s=float(rng.uniform())))
        return rec

    def test_header_is_bit_exact(self, tmp_path):
        path = tmp_path / "h.csv"
        emit_history_csv(self._record(1), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,fval,grad_norm,rel_grad_norm,step,inner_iters,cum_linear_solves,elapsed_s"

    def test_single_row_record_two_lines(self, tmp_path):
        path = tmp_path / "h.csv"
        emit_history_csv(self._record(1), path)
        text = path.read_text()
        assert text.endswith("\n")
        assert len(text.splitlines()) == 2

    def test_round_trip_is_exact(self, tmp_path):
        rec = self._record(7)
        path = tmp_path / "h.csv"
        emit_history_csv(rec, path)
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == len(rec.rows)
        for line, r in zip(lines, rec.rows):
            assert [float(v) for v in line.split(",")] == [
                r.iteration, r.fval, r.grad_norm, r.rel_grad_norm, r.step,
                r.inner_iters, r.cum_linear_solves, r.elapsed_s]

    def test_empty_record_rejected(self, tmp_path):
        with pytest.raises(VarredError):
            emit_history_csv(ConvergenceRecord(), tmp_path / "e.csv")

    def test_unwritable_path_has_context(self):
        with pytest.raises(VarredError, match="no/such/dir"):
            emit_history_csv(self._record(1), "no/such/dir/h.csv")


class TestRunExperiment:
    def test_summary_consistent_with_record(self, small_cfg):
        summary, record = run_experiment(small_cfg, quiet=True)
        assert summary.status == "converged"
        assert summary.iterations == len(record.rows) - 1
        assert summary.final_rel_grad <= small_cfg.rel_grad_tol
        assert record.rows[0].rel_grad_norm == 1.0

    def test_history_and_log_written(self, small_cfg, tmp_path):
        summary, _ = run_experiment(small_cfg, quiet=True)
        out = tmp_path / "runs"
        csvs = list(out.glob("*.csv"))
        assert len(csvs) == 1
        log_lines = (out / "runs.log").read_text().splitlines()
        assert len(log_lines) == 1
        fields = log_lines[0].split("\t")
        assert len(fields) == 8
        assert fields[0] == "pgd-exact" and fields[-1] == "converged"

    def test_determinism_modulo_elapsed(self, small_cfg, tmp_path):
        def strip_elapsed(path):
            lines = path.read_text().splitlines()
            return [",".join(line.split(",")[:-1]) for line in lines]

        run_experiment(small_cfg, quiet=True)
        first = strip_elapsed(next((tmp_path / "runs").glob("*.csv")))
        import shutil
        shutil.rmtree(tmp_path / "runs")
        run_experiment(small_cfg, quiet=True)
        second = strip_elapsed(next((tmp_path / "runs").glob("*.csv")))
        assert first == second

    @pytest.mark.parametrize("method", ["gd", "pgd-exact", "pgd-inexact", "altmin"])
    def test_max_iter_status(self, small_cfg, method):
        small_cfg.max_iter = 2
        small_cfg.method = method
        summary, record = run_experiment(small_cfg, quiet=True)
        assert summary.status == "max-iter"
        assert record is not None

    @pytest.mark.parametrize("method", ["gd", "pgd-exact", "pgd-inexact", "altmin", "newton-elim"])
    def test_every_method_runs_on_quadratic(self, small_cfg, method):
        small_cfg.method = method
        summary, _ = run_experiment(small_cfg, quiet=True)
        assert summary.status == "converged"
        assert summary.final_rel_grad <= small_cfg.rel_grad_tol
        # gd runs in the full space and eliminates nothing
        assert summary.n_elim == (0 if method == "gd" else small_cfg.n_y)

    def test_partial_scope_runs(self, small_cfg):
        small_cfg.eliminate = "last:3"
        summary, _ = run_experiment(small_cfg, quiet=True)
        assert summary.status == "converged"
        assert summary.n_elim == 3


class TestConditioningReport:
    def test_values_and_ordering(self, small_cfg):
        rep = conditioning_report(small_cfg)
        assert rep.kappa_schur <= rep.kappa_full * (1 + 1e-9)
        assert rep.kappa_retained_block == pytest.approx(5.0, rel=5e-2)

    def test_partial_scope_between_full_and_total(self, small_cfg):
        full = conditioning_report(small_cfg)
        small_cfg.eliminate = "last:3"
        partial = conditioning_report(small_cfg)
        assert full.kappa_schur <= partial.kappa_schur * (1 + 1e-9)
        assert partial.kappa_schur <= full.kappa_full * (1 + 1e-9)

    def test_rejected_for_logsumexp(self):
        cfg = ExperimentConfig(kind="logsumexp", n=50, n_el=5)
        with pytest.raises(ConfigError):
            conditioning_report(cfg)

    def test_size_limit_checked_before_construction(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("the problem was built before its size was checked")

        monkeypatch.setattr(varred.bench_cli, "build_test_matrix", no_build)
        with pytest.raises(ConfigError, match="limited to n <= 2000"):
            conditioning_report(ExperimentConfig(n_x=1, n_y=2000))


class TestSweep:
    def test_labels_and_cells(self, tmp_path):
        cfg = ExperimentConfig(kind="logsumexp", n=60, n_el=4,
                               out_dir=str(tmp_path), max_iter=20000)
        table, text = run_table1_sweep(cfg, [4, 8])
        assert set(table.keys()) == {"gd", "pgd-exact", "pgd-inexact"}
        assert set(table["gd"].keys()) == {4, 8}
        assert (tmp_path / "table_sweep_logsumexp_n_60.tsv").read_text() == text
        text = text.splitlines()
        assert text[0] == "method\tn_el=4\tn_el=8"
        assert [line.split("\t")[0] for line in text[1:]] == ["gd", "pgd-exact", "pgd-inexact"]
        for method in table:
            for summary in table[method].values():
                assert summary.status == "converged"

    def test_sweeps_at_two_sizes_keep_their_outputs_apart(self, tmp_path):
        for n in (60, 80):
            run_table1_sweep(ExperimentConfig(kind="logsumexp", n=n, out_dir=str(tmp_path)), [4])
        assert sorted(path.name for path in tmp_path.glob("*.csv")) == sorted(
            f"{method}_logsumexp_n_{n}_n_el_4_full.csv"
            for method in ("gd", "pgd-exact", "pgd-inexact") for n in (60, 80))
        assert sorted(path.name for path in tmp_path.glob("*.tsv")) == [
            "table_sweep_logsumexp_n_60.tsv", "table_sweep_logsumexp_n_80.tsv"]
        assert len((tmp_path / "runs.log").read_text().splitlines()) == 6

    def test_empty_values_rejected(self, tmp_path):
        cfg = ExperimentConfig(kind="logsumexp", out_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run_table1_sweep(cfg, [])

    def test_out_of_range_n_el_rejected(self, tmp_path):
        cfg = ExperimentConfig(kind="logsumexp", n=50, out_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run_table1_sweep(cfg, [50])


class TestCLI:
    def test_run_exit_zero(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SMALL_QUADRATIC)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.ini")), ids=lambda p: p.name)
    def test_shipped_config_runs(self, path, tmp_path):
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0

    def test_method_override_wins(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text(SMALL_QUADRATIC)
        assert main(["run", "--config", str(path), "--method", "gd",
                     "--out", str(tmp_path / "o")]) == 0
        assert "gd" in capsys.readouterr().out

    def test_seed_override_wins(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text(SMALL_QUADRATIC)  # seed = 3
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--seed", "5", "--out", str(out)]) == 0
        assert "seed=5" in capsys.readouterr().out
        assert [csv.name for csv in out.glob("*.csv")] == ["pgd-exact_quadratic_n_x_4_n_y_6_seed_5_full.csv"]

    def test_history_names_keep_runs_of_one_directory_apart(self, tmp_path):
        # the default name holds every field of the problem label and the
        # scope, so the full and the partial quadratic scope leave two CSVs;
        # an explicit [output] history wins
        out = tmp_path / "o"
        for name in ("quadratic_full", "quadratic_partial"):
            assert main(["run", "--config", str(ROOT / "configs" / f"{name}.ini"),
                         "--out", str(out)]) == 0
        assert sorted(csv.name for csv in out.glob("*.csv")) == [
            "pgd-exact_quadratic_n_x_40_n_y_60_seed_0_full.csv",
            "pgd-exact_quadratic_n_x_40_n_y_60_seed_0_last_50.csv"]
        path = tmp_path / "cfg.ini"
        path.write_text(SMALL_QUADRATIC + "[output]\nhistory = mine.csv\n")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "mine.csv").is_file() and len(list(out.glob("*.csv"))) == 3

    def test_optimal_step_pgd_exact_on_logsumexp(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[problem]\nkind = logsumexp\nn = 30\nn_el = 3\n"
                        "[method]\nstep_mode = optimal\n"
                        f"[output]\ndir = {tmp_path / 'o'}\n")
        assert main(["run", "--config", str(path)]) == 0
        fields = (tmp_path / "o" / "runs.log").read_text().split("\t")
        assert fields[0] == "pgd-exact" and fields[-1].strip() == "converged"

    BAD_CONFIGS = {
        "unknown kind": "[problem]\nkind = cubic\n",
        "removed c1": "[armijo]\nc1 = 1e-4\n",
        "removed shrink": "[armijo]\nshrink = 0.5\n",
        "rel_grad_tol = 0": "[stop]\nrel_grad_tol = 0\n",
        "removed rho": "[inexact]\nrho = 0.5\n",
        "scope beyond the block": "[problem]\nn_y = 60\n[method]\neliminate = last:100\n",
        "scope last:x": "[method]\neliminate = last:x\n",
        "scope last:0": "[method]\neliminate = last:0\n",
        "gd with a scope": "[method]\nname = gd\neliminate = last:3\n",
        # configparser's message spans three lines
        "no section header": "n_x = 4\n",
        "empty block": "[problem]\nn_x = 0\n",
        "reversed spectrum": "[problem]\nspec_x_lo = 5\nspec_x_hi = 1\n",
        "z0_fill = nan": small_inexact(method="z0_fill = nan\n"),
        "coupling_eps = nan": small_inexact(problem="coupling_eps = nan\n"),
        "spec_x_hi = inf": small_inexact(problem="spec_x_hi = inf\n"),
        "removed t0": small_inexact(rest="[armijo]\nt0 = 1.0\n"),
        "rel_grad_tol = nan": small_inexact(rest="[stop]\nrel_grad_tol = nan\n"),
        "tol_init = nan": small_inexact(rest="[inexact]\ntol_init = nan\n"),
        "removed max_trials": small_inexact(rest="[armijo]\nmax_trials = 60\n"),
        "removed inner solver": "[inexact]\ninner = gd-fixed\n",
        "removed gd_steps": "[inexact]\ngd_steps = 5\n",
        "removed curvature_scaled_init": "[armijo]\ncurvature_scaled_init = false\n",
        "removed inner_tol": "[problem]\nkind = logsumexp\nn = 30\nn_el = 3\n"
                             "[method]\nname = newton-elim\ninner_tol = 1e-3\n",
        "seed = -1": "[problem]\nseed = -1\n",
        "overflowing spectrum": small_inexact(problem=f"spec_y_hi = {HUGE}\n"),
        # sizes whose first allocation fails at once (exabytes)
        "n_x too large to allocate": "[problem]\nn_x = 1000000000\n",
        "n too large to allocate": "[problem]\nkind = logsumexp\nn = 1000000000000000000\n",
    }

    def test_config_error_exit_three(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        for case, text in self.BAD_CONFIGS.items():
            path.write_text(text + f"[output]\ndir = {tmp_path / 'o'}\n")
            assert main(["run", "--config", str(path)]) == 3, case
            err = capsys.readouterr().err
            assert err.startswith("config error") and len(err.splitlines()) == 1, case

    @pytest.mark.parametrize("verb, output", [
        ("run", "dir = blocker"), ("run", "log = ."), ("run", "history = blocker/sub"),
        ("sweep-table1", "dir = blocker"), ("sweep-table1", "dir = blocker/sub"),
    ], ids=["dir = blocker", "log = .", "history = blocker/sub",
            "sweep-table1 dir = blocker", "sweep-table1 dir = blocker/sub"])
    def test_unwritable_output_exit_three(self, tmp_path, capsys, monkeypatch, verb, output):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "blocker").write_text("")
        problem = SMALL_QUADRATIC if verb == "run" else "[problem]\nkind = logsumexp\nn = 60\n"
        (tmp_path / "cfg.ini").write_text(problem + f"[output]\n{output}\n")
        n_el = ["--n-el", "5"] if verb == "sweep-table1" else []
        assert main([verb, "--config", "cfg.ini", *n_el]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error") and len(err.splitlines()) == 1

    def test_missing_config_exit_three(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 3

    @pytest.mark.parametrize("argv", [
        ["run", "--bogus"], ["run", "--seed", "x"], ["frobnicate"], [],
        # flags a verb does not read
        ["sweep-table1", "--method", "gd"], ["sweep-table1", "--seed", "1"],
        ["report-condition", "--out", "o"], ["report-condition", "--method", "gd"],
    ], ids=lambda argv: " ".join(argv) or "no verb")
    def test_bad_command_line_exit_three(self, tmp_path, capsys, monkeypatch, argv):
        # nothing runs: run and sweep-table1 would write under ./runs
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: varred") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["run", "-h"], ["sweep-table1", "--help"]],
                             ids=" ".join)
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0 and "usage: varred" in capsys.readouterr().out

    def test_max_iter_exit_two(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(SMALL_QUADRATIC + "\n")
        cfg_text = SMALL_QUADRATIC.replace("max_iter = 5000", "max_iter = 2")
        path.write_text(cfg_text)
        assert main(["run", "--config", str(path), "--method", "gd",
                     "--out", str(tmp_path / "o")]) == 2

    def test_line_search_failure_exit_four(self, tmp_path, capsys, monkeypatch):
        # no config key tunes the line search, so the library's parameters are
        # patched; in the second case the one Armijo trial lands near
        # |x| = 1e300, where J overflows to inf, and a numpy warning on the way
        # would fail the test (pyproject.toml)
        for method, size, t0 in [("gd", "n = 30\nn_el = 3", 1e8),
                                 ("pgd-exact", "n = 60\nn_el = 4", 1e300)]:
            monkeypatch.setattr(varred.optimizers, "ArmijoParams",
                                functools.partial(ArmijoParams, t0=t0, max_trials=1))
            out = tmp_path / method
            path = tmp_path / "cfg.ini"
            path.write_text(f"[problem]\nkind = logsumexp\n{size}\n[method]\nname = {method}\n"
                            f"[output]\ndir = {out}\n")
            assert main(["run", "--config", str(path)]) == 4, method
            assert capsys.readouterr().err == "", method
            assert (out / "runs.log").read_text().split("\t")[-1] == (
                "failed: no sufficient decrease within 1 trials\n"), method

    @pytest.mark.parametrize("breakdown, method", [
        pytest.param(b, m, id=b if m == "gd" or b == "singular A22" else f"{b}, {m}")
        for b, m in [("negative curvature", "gd"), ("ascent direction", "gd"),
                     ("singular A22", "pgd-exact"),
                     *(("overflow at the start point", m) for m in METHODS)]])
    def test_solver_breakdown_logged_exit_four(self, tmp_path, capsys, monkeypatch,
                                               breakdown, method):
        method_lines = "step_mode = optimal"
        if breakdown == "negative curvature":
            # the optimal step meets d'Hd < 0 and raises DegenerateCurvature
            monkeypatch.setattr(QuadraticProblem, "hessian_vec", lambda self, z, v: -(self.a @ v))
        elif breakdown == "ascent direction":
            # an ascent direction reaches armijo_search, which raises NotDescentDirection
            monkeypatch.setattr(varred.optimizers, "_steepest", lambda x, g: g)
            method_lines = "step_mode = armijo"
        elif breakdown == "overflow at the start point":
            # A z overflows, and the step rule or the stop rule meets a
            # non-finite gradient; only gd and pgd-exact take a step_mode
            method_lines = (method_lines if method in ("gd", "pgd-exact") else "") + f"\nz0_fill = {HUGE}"
        else:
            # LAPACK's LU can find A22 singular where the Cholesky check of A passed,
            # e.g. on a 4/6 quadratic with spec_y_hi = 1e18
            def singular(*args, **kwargs):
                raise np.linalg.LinAlgError("Singular matrix")

            monkeypatch.setattr(np.linalg, "solve", singular)
        path = tmp_path / "cfg.ini"
        path.write_text(SMALL_QUADRATIC.replace(
            "eliminate = full", f"eliminate = full\n{method_lines}"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--method", method, "--out", str(out)]) == 4
        assert "Traceback" not in capsys.readouterr().err
        log_lines = (out / "runs.log").read_text().splitlines()
        assert len(log_lines) == 1
        assert log_lines[0].split("\t")[-1].startswith("failed: ")

    def test_singular_a22_with_a_warm_memo_exit_four(self, tmp_path, capsys, monkeypatch):
        # each run builds its problem on the config's matrix, already validated,
        # as a request does; its map still solves with A22
        path = tmp_path / "cfg.ini"
        path.write_text(SMALL_QUADRATIC)
        warm, part = build_problem(parse_config(path))
        built = []
        monkeypatch.setattr(varred.bench_cli, "build_problem", lambda cfg: (
            built.append(QuadraticProblem(warm.a, warm.b, warm.c, warm.partition)) or built[-1], part))

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        for run in range(2):
            out = tmp_path / f"o{run}"
            assert main(["run", "--config", str(path), "--out", str(out)]) == 4
            assert "Traceback" not in capsys.readouterr().err
            assert (out / "runs.log").read_text().split("\t")[-1].startswith("failed: Singular")
        assert len(built) == 2 and all(problem.a is warm.a for problem in built)

    @pytest.mark.parametrize("method", ["pgd-inexact", "altmin", "newton-elim"])
    @pytest.mark.parametrize("step_mode", ["optimal", "armijo"])
    def test_step_mode_of_a_method_without_one_exit_three(self, tmp_path, capsys, method, step_mode):
        path = tmp_path / "cfg.ini"
        path.write_text(SMALL_QUADRATIC.replace(
            "eliminate = full", f"eliminate = full\nstep_mode = {step_mode}"))
        assert main(["run", "--config", str(path), "--method", method,
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error") and len(err.splitlines()) == 1
        assert "step_mode" in err

    def test_report_condition_verb(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text(SMALL_QUADRATIC)
        assert main(["report-condition", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kappa2(A)" in out and "kappa2(S)" in out

    def test_sweep_verb(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text("[problem]\nkind = logsumexp\nn = 60\nn_el = 4\n"
                        f"[output]\ndir = {tmp_path / 'o'}\n")
        assert main(["sweep-table1", "--config", str(path), "--n-el", "4,8"]) == 0
        assert "pgd-inexact" in capsys.readouterr().out

    def test_sweep_marks_max_iter_and_failed_cells(self, tmp_path, capsys, monkeypatch):
        # gd and pgd-inexact run out of iterations; pgd-exact's exact map, the
        # only one of the three built by exact_map, stalls at every solve
        class Stalled(NewtonElimination):
            def solve(self, x, y0=None, tol=None):
                raise NonConvergence("inner Newton stalled", residual=1.0, iterations=50)

        monkeypatch.setattr(varred.elimination, "exact_map", Stalled)
        path = tmp_path / "cfg.ini"
        path.write_text("[problem]\nkind = logsumexp\nn = 60\nn_el = 4\n"
                        "[stop]\nmax_iter = 5\n"
                        f"[output]\ndir = {tmp_path / 'o'}\n")
        assert main(["sweep-table1", "--config", str(path), "--n-el", "4,8"]) == 4
        rows = {line.split("\t")[0]: line.split("\t")[1:]
                for line in capsys.readouterr().out.splitlines()[1:]}
        assert all(cell.startswith("5 (") and cell.endswith(") [max-iter]")
                   for cell in rows["gd"] + rows["pgd-inexact"])
        assert rows["pgd-exact"] == ["[failed: inner Newton stalled]"] * 2

    @pytest.mark.parametrize("config", [
        (ROOT / "configs" / "quadratic_partial.ini").read_text(),
        "[problem]\nkind = logsumexp\nn = 60\n[method]\neliminate = last:2\n",
        "[problem]\nkind = logsumexp\nn = 60\n[method]\nstep_mode = optimal\n",
        "[problem]\nkind = logsumexp\nn = 60\n[output]\nhistory = mine.csv\n",
    ], ids=["quadratic_partial.ini", "eliminate", "step_mode", "history"])
    def test_sweep_of_a_setting_it_fixes_exit_three(self, tmp_path, capsys, monkeypatch, config):
        # the sweep runs log-sum-exp with full elimination, the automatic step
        # and default history names; a config that sets otherwise runs nothing
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.ini").write_text(config)
        assert main(["sweep-table1", "--config", "cfg.ini", "--n-el", "4"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep-table1 fixes") and len(err.splitlines()) == 1
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.ini"]

    @pytest.mark.parametrize("n_el", ["4,x", "4.5", ",", "4,8,4"])
    def test_bad_n_el_list_exit_three(self, tmp_path, capsys, n_el):
        path = tmp_path / "cfg.ini"
        path.write_text("[problem]\nkind = logsumexp\nn = 60\nn_el = 4\n"
                        f"[output]\ndir = {tmp_path / 'o'}\n")
        assert main(["sweep-table1", "--config", str(path), "--n-el", n_el]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error") and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb, config, code", [
        ("run", small_inexact(problem=f"spec_y_hi = {HUGE}\n"), 3),
        ("report-condition", small_inexact(problem=f"spec_y_hi = {HUGE}\n"), 3),
        ("run", f"[problem]\nn_x = 4\nn_y = 6\n[method]\nname = pgd-exact\nz0_fill = {HUGE}\n", 4),
        *(("run", f"[problem]\nkind = logsumexp\nn = 60\nn_el = 4\n"
                  f"[method]\nname = {method}\nz0_fill = {HUGE}\n", 4) for method in METHODS),
    ], ids=["run overflowing spectrum", "report overflowing spectrum", "overflowing start point",
            *(f"overflowing start point on log-sum-exp, {method}" for method in METHODS)])
    def test_no_numpy_warning_on_stderr(self, tmp_path, verb, config, code):
        # a process of its own, so that numpy's warnings reach stderr uncaptured
        (tmp_path / "cfg.ini").write_text(config + "[output]\ndir = out\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "varred.bench_cli", verb, "--config", "cfg.ini"],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        if code == 3:
            assert proc.stderr.startswith("config error") and len(proc.stderr.splitlines()) == 1
        else:
            assert proc.stderr == ""
            log_lines = (tmp_path / "out" / "runs.log").read_text().splitlines()
            assert len(log_lines) == 1 and log_lines[0].split("\t")[-1].startswith("failed: ")


def _bad_values(section: str, typ):
    """Out-of-range, non-finite or malformed values for one config key type.

    Sizes are never large: a valid but huge n_x would only be slow."""
    if typ is float:
        return st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0]),
                         st.floats()).map(repr)
    if typ is int:
        return st.integers(max_value=0).map(str)
    if section == "output":
        # relative to the working directory, which holds a regular file "blocker"
        return st.sampled_from(["blocker", "blocker/sub", "missing/sub", ".", ""])
    return st.one_of(
        st.sampled_from(["", "maybe", "cubic", "last:0", "last:-1", "last:x", "last:99"]),
        st.text(alphabet=string.ascii_letters + string.digits + ":-_.", max_size=12))


FUZZ_KEYS = [(section, key, typ) for section, table in CONFIG_KEYS.items()
             for key, (_, typ) in table.items()]


class TestCLIFuzz:
    """One config key at a time set to a bad value on a tiny quadratic: the CLI
    ends with a documented exit code and never with a traceback."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # found by exploration: LAPACK finds A22 singular ("failed: Singular matrix", exit 4)
    @example(method="pgd-exact",
             entry=(("problem", "spec_y_hi", float), "9.624106701873542e+17"))
    @given(method=st.sampled_from(METHODS),
           entry=st.sampled_from(FUZZ_KEYS).flatmap(
               lambda e: st.tuples(st.just(e), _bad_values(e[0], e[2]))))
    def test_one_bad_key_exits_cleanly(self, tmp_path, monkeypatch, method, entry):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "blocker").write_text("")
        (section, key, _), value = entry
        sections = {"problem": {"n_x": "4", "n_y": "6"},
                    "method": {"name": method},
                    "stop": {"max_iter": "30"},
                    "output": {"dir": "out"}}
        sections.setdefault(section, {})[key] = value
        (tmp_path / "cfg.ini").write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in table.items())
            for name, table in sections.items()))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", "cfg.ini"])
        assert code in (0, 2, 3, 4), (section, key, value)
        assert "Traceback" not in err.getvalue()
