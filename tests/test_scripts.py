"""The history comparison script, checked on two runs of one small config.
The quadratic and log-sum-exp comparisons are ``varred`` verbs on the shipped
configs, tested with the CLI."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SMALL_CONFIG = """
[problem]
kind = logsumexp
n = 60
n_el = 4

[method]
name = pgd-inexact
"""


def _python(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_compare_histories(tmp_path):
    config = tmp_path / "small.ini"
    config.write_text(SMALL_CONFIG)
    for side in ("old", "new"):
        proc = _python(["-m", "varred.bench_cli", "run", "--config", str(config),
                        "--out", str(tmp_path / side)], tmp_path)
        assert proc.returncode == 0, proc.stderr
    compare = [str(ROOT / "scripts" / "compare_histories.py"), "old", "new"]
    proc = _python(compare, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr

    (csv,) = (tmp_path / "new").glob("*.csv")
    extra = csv.with_name("extra.csv")
    extra.write_text(csv.read_text())
    proc = _python(compare, tmp_path)
    assert proc.returncode == 1
    assert "extra.csv: missing under OLD" in proc.stdout and "1 of 2 histories identical" in proc.stdout
    extra.unlink()

    header, *rows = csv.read_text().splitlines()
    column = header.split(",").index("grad_norm")
    cells = rows[1].split(",")
    cells[column] = f"{float(cells[column]) * (1 + 1e-9):.16e}"
    rows[1] = ",".join(cells)
    csv.write_text("\n".join([header, *rows]) + "\n")
    proc = _python(compare, tmp_path)
    assert proc.returncode == 1
    assert f"{csv.name}: grad_norm max abs diff" in proc.stdout
    assert "0 of 1 histories identical" in proc.stdout and "fval" not in proc.stdout
