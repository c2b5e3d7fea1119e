"""Smoke test of the experiment scripts: each runs at a small size, as its own
process, into a temporary output directory and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "run_quadratic_comparison.py": [],
    "run_logsumexp_comparison.py": ["--n", "200", "--n-el", "10"],
    "run_elimination_sweep.py": ["--n", "200", "--n-el", "5,10"],
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SCRIPTS[script], "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert any(out.iterdir())
