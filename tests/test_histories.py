"""Pinned convergence histories.

Every method runs through ``run_experiment`` on a small quadratic and a small
log-sum-exp problem, and its history is compared row by row with
``data/histories.json``.  That file was recorded before the outer loops of
gradient descent, inexact PGD, reduced Newton and alternating minimization
were folded into one, and before problems derived their values and gradients
from one evaluation; it must only change together with an intended change of
the histories.  Counts are compared exactly; values at relative 1e-12.  The
``iter`` column and the relative gradient norms, which the loop derives from
row 0, are checked exactly against the record itself.
"""

import json
from pathlib import Path

import pytest

from varred.bench_cli import ExperimentConfig, run_experiment

PINNED = json.loads((Path(__file__).parent / "data" / "histories.json").read_text())

PROBLEMS = {
    "quadratic": dict(kind="quadratic", n_x=4, n_y=6, spec_x_lo=1.0, spec_x_hi=5.0,
                      spec_y_lo=1.0, spec_y_hi=40.0, coupling_eps=0.1, seed=3),
    "logsumexp": dict(kind="logsumexp", n=60, n_el=4),
}
METHODS = ("gd", "pgd-exact", "pgd-inexact", "altmin", "newton-elim")
# extra quadratic cases: the Armijo paths and a partial elimination scope
VARIANTS = {
    "quadratic/gd/armijo": dict(method="gd", step_mode="armijo"),
    "quadratic/pgd-exact/armijo": dict(method="pgd-exact", step_mode="armijo"),
    "quadratic/pgd-exact/last:3": dict(method="pgd-exact", eliminate="last:3"),
    "quadratic/newton-elim/last:3": dict(method="newton-elim", eliminate="last:3"),
}
CASES = [f"{p}/{m}" for p in PROBLEMS for m in METHODS] + list(VARIANTS)


def config_for(case: str, out_dir: str) -> ExperimentConfig:
    problem, method = case.split("/")[:2]
    options = VARIANTS.get(case, {"method": method})
    return ExperimentConfig(**PROBLEMS[problem], **options, rel_grad_tol=1e-6,
                            max_iter=5000, out_dir=out_dir)


@pytest.mark.parametrize("case", CASES)
def test_history_matches_pinned(case, tmp_path):
    summary, record = run_experiment(config_for(case, str(tmp_path)), quiet=True)
    pinned = PINNED[case]
    assert summary.status == pinned["status"]
    assert record.iterations == pinned["iterations"]
    assert [r.inner_iters for r in record.rows] == pinned["inner_iters"]
    assert [r.cum_linear_solves for r in record.rows] == pinned["cum_linear_solves"]
    assert [r.iteration for r in record.rows] == list(range(record.iterations + 1))
    assert record.rows[0].rel_grad_norm == 1.0
    g0 = record.rows[0].grad_norm
    assert all(r.rel_grad_norm == r.grad_norm / g0 for r in record.rows[1:])
    for column in ("fval", "grad_norm", "step"):
        got = [getattr(r, column) for r in record.rows]
        assert got == pytest.approx(pinned[column], rel=1e-12, abs=0.0), column
