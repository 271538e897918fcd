#!/usr/bin/env python3
"""Predictor scans that must not depend on the number of worker processes.

Writes a small seeded table and two predictor panels, each spanning several
blocks of predictors. The genotype-like panel has missing cells, a
predictor with a level seen in a single row, a constant predictor and a
predictor that sex separates. The continuous panel has missing cells and
about 118 distinct values per predictor, so its `orm-logit` x-margins take
the banded Newton solve (more than 32 unknowns) in the worker processes.
Runs `python -m psrkit.cli scan` on each panel with `--threads 1` and
`--threads 2`, exits 1 unless each pair of outputs is byte-identical, and
prints the count of each status.

Usage: python3 scripts/scan_demo.py [OUTDIR]
"""
import collections
import csv
import pathlib
import subprocess
import sys

import numpy as np

N_ROWS = 120
N_PREDICTORS = 150
N_CONTINUOUS = 130


def _write(path: pathlib.Path, columns: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(list(columns))
        for row in zip(*columns.values()):
            w.writerow(["NA" if np.isnan(v) else repr(float(v)) for v in row])


def write_inputs(outdir: pathlib.Path) -> None:
    rng = np.random.default_rng(2024)
    age = rng.uniform(20.0, 80.0, N_ROWS)
    sex = rng.integers(0, 2, N_ROWS).astype(float)
    panel = {}
    for j in range(N_PREDICTORS):
        g = rng.binomial(2, rng.uniform(0.05, 0.5), N_ROWS).astype(float)
        g[rng.random(N_ROWS) < 0.02] = np.nan
        panel[f"snp{j:03d}"] = g
    single = rng.binomial(1, 0.3, N_ROWS).astype(float)
    single[0] = 2.0
    panel["single_row_level"] = single
    panel["constant"] = np.ones(N_ROWS)
    panel["separated"] = np.where(sex == 1, 2.0, rng.binomial(1, 0.5, N_ROWS))
    y = 0.02 * age + 0.3 * sex + 0.8 * np.nan_to_num(panel["snp000"]) + rng.normal(size=N_ROWS)
    _write(outdir / "main.csv", {"y": y, "age": age, "sex": sex})
    _write(outdir / "predictors.csv", panel)
    continuous = {}
    for j in range(N_CONTINUOUS):
        x = 0.5 * y + rng.normal(size=N_ROWS) if j < 3 else rng.lognormal(size=N_ROWS)
        x[rng.random(N_ROWS) < 0.02] = np.nan
        continuous[f"x{j:03d}"] = x
    _write(outdir / "continuous.csv", continuous)


def scan(outdir: pathlib.Path, panel: str, threads: int) -> bytes:
    out = outdir / f"scan_{panel}_{threads}.csv"
    subprocess.run(
        [
            sys.executable, "-m", "psrkit.cli", "scan",
            "--data", str(outdir / "main.csv"),
            "--schema", "y:continuous,age:continuous,sex:binary",
            "--y", "y", "--z", "age,sex",
            "--predictors", str(outdir / f"{panel}.csv"),
            "--x-model", "orm-logit",
            "--perm", "99", "--seed", "11",
            "--threads", str(threads), "--out", str(out),
        ],
        check=True,
    )
    return out.read_bytes()


def main(argv: list[str]) -> int:
    outdir = pathlib.Path(argv[0]) if argv else pathlib.Path("scan_demo_out")
    outdir.mkdir(parents=True, exist_ok=True)
    write_inputs(outdir)
    code = 0
    for panel in ("predictors", "continuous"):
        one, two = scan(outdir, panel, 1), scan(outdir, panel, 2)
        rows = list(csv.DictReader(one.decode("utf-8").splitlines()))
        counts = collections.Counter(r["status"] for r in rows)
        print(f"{panel}: " + ", ".join(f"{status}: {counts[status]}" for status in sorted(counts)))
        capped = sum("capped" in r["detail"] for r in rows)
        print(f"{panel}: capped: {capped}")
        if one != two:
            print(f"{panel}: scan output differs between --threads 1 and --threads 2",
                  file=sys.stderr)
            code = 1
        else:
            print(f"{panel}: --threads 1 and --threads 2 outputs are byte-identical")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
