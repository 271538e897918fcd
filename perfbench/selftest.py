#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

Runs each workload's operations once in-process (seed 1), confirms that
the checks pass on the real outputs, then feeds them deliberately
perturbed results (a shifted estimate, an off-grid p-value, a
non-stationary coefficient vector, ...) and confirms that each
perturbation is caught.  Exits 0 when every check behaves.

Usage, from the repository root: python3 perfbench/selftest.py
"""
from __future__ import annotations

import csv
import json
import os
import re
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import checks as C  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

SEED = 1


def _edit_csv(path: str, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def _edit_json(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _edit_text(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edit(text))


def _shift(row: dict, key: str, by: float) -> None:
    row[key] = repr(float(row[key]) + by)


# --- scan -----------------------------------------------------------------


def _two_level_row(rows, work, info):
    preds = C.read_columns(os.path.join(work, info["predictors"]))
    for r in rows:
        vals = {t for t in preds[r["name"]] if t != "NA"}
        if r["status"] == "ok" and len(vals) == 2:
            return r
    raise RuntimeError("no two-level predictor")


def _fail_dense_predictor(rows, work, info) -> None:
    """Report failed a predictor whose every level has several rows."""
    preds = C.read_columns(os.path.join(work, info["predictors"]))
    for r in rows:
        if r["status"] == "ok" and C.min_level_rows(C.numeric(preds[r["name"]])) > 1:
            r.update(status="failed", estimate="", p_value="", rank="")
            return
    raise RuntimeError("no predictor without a single-row level")


def _swap_names(rows) -> None:
    rows[0]["name"], rows[10]["name"] = rows[10]["name"], rows[0]["name"]


def scan_perturbations(work, info):
    out = os.path.join(work, "scan_out.csv")
    return {
        "two-level estimate shifted by 1e-5": ("IRLS", lambda: _edit_csv(
            out, lambda rows: _shift(_two_level_row(rows, work, info), "estimate", 1e-5)
        )),
        "off-grid p-value": ("grid", lambda: _edit_csv(
            out, lambda rows: rows[0].update(p_value="0.00501")
        )),
        "planted predictor not ranked first": ("planted", lambda: _edit_csv(out, _swap_names)),
        "constant predictor reported failed": ("constant predictor", lambda: _edit_csv(
            out, lambda rows: rows[-1].update(status="failed")
        )),
        "predictor without a single-row level reported failed": (
            "not ok", lambda: _edit_csv(out, lambda rows: _fail_dense_predictor(rows, work, info))
        ),
        "null p-values miscalibrated": ("null p-values", lambda: _edit_csv(
            out, lambda rows: [r.update(p_value="0.005") for r in rows[:600]]
        )),
    }


# --- assoc ----------------------------------------------------------------


def _nonstationary(work, info):
    from psrkit import build_design, fit_cumulative_link, load_csv, parse_term_list

    d = load_csv(os.path.join(work, info["pcor"]), info["pcor_schema"])
    Z = build_design(d, parse_term_list(info["pcor_z"]))
    fit = fit_cumulative_link(d["x"], Z)
    codes = np.searchsorted(fit.support, d["x"].values)
    return C.check_stationary(fit.alpha, fit.beta * 1.001, codes, Z.matrix, "perturbed")


def assoc_perturbations(work, info):
    pcor = os.path.join(work, "pcor_out.csv")
    est = os.path.join(work, "matrix_est.csv")
    cond = os.path.join(work, "cond_out.csv")
    return {
        "pcor estimate shifted by 1e-6": ("recomputed", lambda: _edit_csv(
            pcor, lambda rows: _shift(rows[0], "estimate", 1e-6)
        )),
        "pcor CI excludes the estimate": ("does not contain", lambda: _edit_csv(
            pcor, lambda rows: rows[0].update(ci_low=repr(float(rows[0]["estimate"]) + 0.01))
        )),
        "pcor off-grid p-value": ("grid", lambda: _edit_csv(
            pcor, lambda rows: rows[0].update(p_value="0.0015")
        )),
        "pcor bootstrap replicate failed": ("bootstrap", lambda: _edit_csv(
            pcor, lambda rows: rows[0].update(notes="1 of 200 bootstrap replicates failed")
        )),
        "non-stationary coefficient vector": ("not stationary", lambda: _nonstationary(work, info)),
        "matrix entry shifted by 1e-9": ("spearmanr", lambda: _edit_csv(
            est, lambda rows: _shift(rows[0], "b2", 1e-9)
        )),
        "conditional curve reversed": ("curve", lambda: _edit_csv(
            cond, lambda rows: [
                r.update(estimate=s["estimate"]) for r, s in zip(rows, [dict(x) for x in rows[::-1]])
            ]
        )),
    }


# --- modelcheck -------------------------------------------------------------


def _modelcheck_nonstationary(work, info):
    from psrkit import design_for_spec, fit_cumulative_link, load_csv, parse_model_spec

    d = load_csv(os.path.join(work, info["data"]), info["schema"])
    y, X = design_for_spec(parse_model_spec(info["model"]), d)
    fit = fit_cumulative_link(y, X)
    codes = np.searchsorted(fit.support, y.values)
    alpha = fit.alpha.copy()
    alpha[len(alpha) // 2] += 1e-4
    return C.check_stationary(alpha, fit.beta, codes, X.matrix, "perturbed")


def _nudge_smooth(text: str) -> str:
    m = re.search(r'<polyline points="([^" ]+)', text)
    x, y = m.group(1).split(",")
    return text.replace(m.group(0), f'<polyline points="{x},{float(y) + 0.05:.2f}', 1)


def modelcheck_perturbations(work, info):
    psr = os.path.join(work, "psr.csv")
    return {
        "one residual shifted by 1e-6": ("residuals differ", lambda: _edit_csv(
            psr, lambda rows: _shift(rows[5], "psr", 1e-6)
        )),
        "fit coefficient changed": ("coefficients", lambda: _edit_json(
            os.path.join(work, "fit.json"),
            lambda s: s["coefficients"].update(age=s["coefficients"]["age"] * (1 + 1e-9)),
        )),
        "KS statistic shifted by 1e-9": ("kstest", lambda: _edit_json(
            os.path.join(work, "diag.json"),
            lambda s: s.update(ks_statistic=s["ks_statistic"] + 1e-9),
        )),
        "lowess point moved by 0.05 px": ("reference lowess", lambda: _edit_text(
            os.path.join(work, "age.svg"), _nudge_smooth
        )),
        "non-stationary intercepts": ("not stationary", lambda: _modelcheck_nonstationary(work, info)),
    }


PERTURBATIONS = {
    "scan": scan_perturbations,
    "assoc": assoc_perturbations,
    "modelcheck": modelcheck_perturbations,
}


def main() -> int:
    work = os.path.join(HERE, "out", "selftest")
    ok = True
    for workload, (ops_of, check) in W.WORKLOADS.items():
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        info = gen.make_inputs(workload, SEED, work)
        ops = ops_of(info, SEED)
        exits = {op.name: tracing.run_op(work, op) for op in ops}
        errs = W.exit_errors(ops, exits) or check(work, info, exits)
        print(f"{'ok  ' if not errs else 'FAIL'} {workload}: checks pass on the real outputs"
              + ("" if not errs else f": {errs[0]}"))
        ok &= not errs
        pristine = os.path.join(HERE, "out", "selftest-pristine")
        shutil.rmtree(pristine, ignore_errors=True)
        shutil.copytree(work, pristine)
        for label, (expected, perturb) in PERTURBATIONS[workload](work, info).items():
            direct = perturb()
            errs = direct if isinstance(direct, list) else check(work, info, exits)
            caught = [e for e in errs if expected in e]
            print(f"{'ok  ' if caught else 'FAIL'} {workload}: {label} -> "
                  + (caught[0] if caught else f"not detected ({errs})"))
            ok &= bool(caught)
            shutil.rmtree(work)
            shutil.copytree(pristine, work)
        shutil.rmtree(pristine)
    shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
