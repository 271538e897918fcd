"""Conditional rank correlation over a continuous z, as a program.

The command line has no conditional subcommand, so this calls the public
``psrkit.conditional_spearman`` and writes the curve as CSV.

Usage: python3 perfbench/conditional.py DATA SCHEMA SEED OUT
"""
from __future__ import annotations

import csv
import sys

N_GRID = 50
N_PERM = 199
N_BOOT = 50


def main(argv: list[str]) -> int:
    from psrkit import conditional_spearman, load_csv

    data, schema, seed, out = argv
    d = load_csv(data, schema)
    curve = conditional_spearman(
        d["x"], d["y"], d["z"], n_grid=N_GRID, n_perm=N_PERM, n_boot=N_BOOT, seed=int(seed)
    )
    with open(out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["z", "estimate", "ci_low", "ci_high", "p_value"])
        for z, res in curve:
            w.writerow([repr(z)] + [repr(v) for v in (res.estimate, res.ci_low, res.ci_high, res.p_value)])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
