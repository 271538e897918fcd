#!/usr/bin/env python3
"""A predictor scan that must not depend on the number of worker processes.

Writes a small seeded table and a genotype-like predictor panel that spans
several blocks of predictors. The panel has missing cells, a predictor with
a level seen in a single row, a constant predictor and a predictor that sex
separates. Runs `python -m psrkit.cli scan` with `--threads 1` and
`--threads 2`, exits 1 unless the two outputs are byte-identical, and
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


def scan(outdir: pathlib.Path, threads: int) -> bytes:
    out = outdir / f"scan_{threads}.csv"
    subprocess.run(
        [
            sys.executable, "-m", "psrkit.cli", "scan",
            "--data", str(outdir / "main.csv"),
            "--schema", "y:continuous,age:continuous,sex:binary",
            "--y", "y", "--z", "age,sex",
            "--predictors", str(outdir / "predictors.csv"),
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
    one, two = scan(outdir, 1), scan(outdir, 2)
    rows = list(csv.DictReader(one.decode("utf-8").splitlines()))
    counts = collections.Counter(r["status"] for r in rows)
    print(", ".join(f"{status}: {counts[status]}" for status in sorted(counts)))
    capped = sum("capped" in r["detail"] for r in rows)
    print(f"capped: {capped}")
    if one != two:
        print("scan output differs between --threads 1 and --threads 2", file=sys.stderr)
        return 1
    print("--threads 1 and --threads 2 outputs are byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
