#!/usr/bin/env python3
"""Predictor scans and a bootstrap that must not depend on the number of
worker processes.

Writes a small seeded table and two predictor panels, each spanning several
blocks of predictors. The genotype-like panel has missing cells, a
predictor with a level seen in a single row, a constant predictor and a
predictor that sex separates. The continuous panel has missing cells and
about 118 distinct values per predictor, so its `orm-logit` x-margins take
the banded Newton solve (more than 32 unknowns) in the worker processes.
Runs `python -m psrkit.cli scan` on each panel with `--threads 1` and
`--threads 2`, and prints the count of each status. Then writes a 400-row
table and runs `python -m psrkit.cli pcor` with `orm-logit` margins and
`--boot 300`, whose replicates are refitted in 4 blocks, at `--threads 1`
and `--threads 2`. Exits 1 unless each pair of outputs is byte-identical.

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
N_PCOR = 400


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
    age = rng.uniform(20.0, 80.0, N_PCOR)
    sex = rng.integers(0, 2, N_PCOR).astype(float)
    x = 0.03 * age + 0.5 * sex + rng.normal(size=N_PCOR)
    grade = np.digitize(0.4 * x + 0.5 * sex + rng.normal(size=N_PCOR), [-0.5, 0.5, 1.5, 2.5])
    _write(outdir / "pcor.csv", {"x": x, "grade": grade, "age": age, "sex": sex})


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


def pcor(outdir: pathlib.Path, threads: int) -> bytes:
    out = outdir / f"pcor_{threads}.csv"
    subprocess.run(
        [
            sys.executable, "-m", "psrkit.cli", "pcor",
            "--data", str(outdir / "pcor.csv"),
            "--schema", "x:continuous,grade:continuous,age:continuous,sex:binary",
            "--x", "x", "--y", "grade", "--z", "age,sex",
            "--x-model", "orm-logit", "--y-model", "orm-logit",
            "--boot", "300", "--perm", "99", "--seed", "11",
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
    one, two = pcor(outdir, 1), pcor(outdir, 2)
    row = next(csv.DictReader(one.decode("utf-8").splitlines()))
    fields = ("estimate", "ci_low", "ci_high", "notes")
    print("pcor: " + ", ".join(f"{k}: {row[k]}" for k in fields))
    if one != two:
        print("pcor: output differs between --threads 1 and --threads 2", file=sys.stderr)
        code = 1
    else:
        print("pcor: --threads 1 and --threads 2 outputs are byte-identical")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
