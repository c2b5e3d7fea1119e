#!/usr/bin/env python3
"""Compare two trees of convergence-history CSVs, column by column.

    python scripts/compare_histories.py OLD NEW

Every CSV under either tree must sit at the same relative path under the
other, with the history header of ``varred run`` and as many rows; one that
does not is reported missing under OLD or under NEW.  ``iter``,
``inner_iters`` and ``cum_linear_solves`` must be equal.  For ``fval``,
``grad_norm``, ``rel_grad_norm`` and ``step`` the largest absolute and
relative differences are printed with the rows where they occur;
``elapsed_s`` is ignored.  Exits 0 only when every compared column is
identical, and 1 otherwise.
"""

import argparse
import math
import sys
from pathlib import Path

from varred.bench_cli import CSV_HEADER

COLUMNS = CSV_HEADER.split(",")
EXACT = ("iter", "inner_iters", "cum_linear_solves")
FLOATS = ("fval", "grad_norm", "rel_grad_norm", "step")


def _read(path: Path) -> tuple[str, list[list[str]]]:
    header, *rows = path.read_text().splitlines()
    return header, [row.split(",") for row in rows]


def _float_diffs(old: list[str], new: list[str]) -> tuple[float, int, float, int]:
    """(max abs difference, its row, max relative difference, its row)."""
    abs_max = rel_max = 0.0
    abs_row = rel_row = 0
    for row, (a, b) in enumerate(zip(map(float, old), map(float, new))):
        if a == b or math.isnan(a) and math.isnan(b):
            continue
        d = abs(a - b)
        if math.isfinite(d):
            rel = d / max(abs(a), abs(b))
        else:  # a non-finite value against a different one
            d = rel = math.inf
        if d > abs_max:
            abs_max, abs_row = d, row
        if rel > rel_max:
            rel_max, rel_row = rel, row
    return abs_max, abs_row, rel_max, rel_row


def compare(old_path: Path, new_path: Path, name: str) -> bool:
    """Print how one pair of histories differs; True when they match."""
    for label, path in (("OLD", old_path), ("NEW", new_path)):
        if not path.is_file():
            print(f"{name}: missing under {label}")
            return False
    (old_header, old_rows), (new_header, new_rows) = _read(old_path), _read(new_path)
    for label, header in (("OLD", old_header), ("NEW", new_header)):
        if header != CSV_HEADER:
            print(f"{name}: {label} header is not the history header: {header}")
            return False
    if len(old_rows) != len(new_rows):
        print(f"{name}: {len(old_rows)} rows under OLD, {len(new_rows)} under NEW")
        return False
    same = True
    for column in EXACT + FLOATS:
        i = COLUMNS.index(column)
        old, new = [r[i] for r in old_rows], [r[i] for r in new_rows]
        if old == new:
            continue
        same = False
        if column in EXACT:
            row = next(k for k, (a, b) in enumerate(zip(old, new)) if a != b)
            print(f"{name}: {column} first differs at row {row}: {old[row]} -> {new[row]}")
        else:
            abs_max, abs_row, rel_max, rel_row = _float_diffs(old, new)
            print(f"{name}: {column} max abs diff {abs_max:.3e} (row {abs_row}), "
                  f"max rel diff {rel_max:.3e} (row {rel_row})")
    if same:
        print(f"{name}: identical")
    return same


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=Path, help="directory of reference histories")
    ap.add_argument("new", type=Path, help="directory of histories to check")
    args = ap.parse_args()

    names = sorted({p.relative_to(root) for root in (args.old, args.new) for p in root.rglob("*.csv")})
    if not names:
        print(f"no CSV under {args.old} or {args.new}")
        return 1
    results = [compare(args.old / n, args.new / n, str(n)) for n in names]
    print(f"{sum(results)} of {len(results)} histories identical")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
