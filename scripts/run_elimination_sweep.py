#!/usr/bin/env python3
"""Sweep the eliminated-variable count on the log-sum-exp problem.

For each n_el, runs full-space GD, PGD with exact elimination, and PGD with
scheduled inexact elimination from z = 0; writes a methods-by-n_el summary
table of outer iterations and seconds.  GD's iterations grow with n_el (at
n = 1e5 it reaches the 20,000-iteration budget from n_el = 1,000 on), while
both PGD variants stay within a few iterations and a few hundredths of a
second at every n_el: at the default sizes both take 7 to 9, and at n = 1e5
with n_el in {10, 100, 1000, 10000} exact PGD takes 2 and inexact PGD 2 to 3.
The table shows no inner work, so it cannot show whether the inexact map
needs less of it than the exact one.
"""

import argparse

from varred.bench_cli import ExperimentConfig, run_table1_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--n-el", type=str, default="10,50,200,400",
                    help="comma-separated eliminated-variable counts")
    ap.add_argument("--out", type=str, default="runs/sweep")
    args = ap.parse_args()

    values = [int(tok) for tok in args.n_el.split(",") if tok.strip()]
    cfg = ExperimentConfig(kind="logsumexp", n=args.n, out_dir=args.out,
                           max_iter=20000)
    table = run_table1_sweep(cfg, values)

    width = max(len(m) for m in table) + 2
    header = "".join(f"{'n_el=' + str(v):>16}" for v in values)
    print(f"{'':{width}}{header}")
    for method, per in table.items():
        cells = "".join(f"{per[v].iterations:>8d} ({per[v].elapsed_s:5.2f}s)" for v in values)
        print(f"{method:{width}}{cells}")
    print(f"\ntable written to {args.out}/table_sweep.tsv")


if __name__ == "__main__":
    main()
