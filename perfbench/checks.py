"""Correctness checks on the program's outputs, and the references they use.

Every check compares against a computation made here, apart from the
program (logistic IRLS, mid-ranks, a cumulative-logit score, a plain
lowess, ``scipy.stats``), or against a property the method must have.
None compares against a stored copy of earlier output.  A check returns a
list of failure messages; an empty list means the output passed.
"""
from __future__ import annotations

import csv
import json
import math
import re

import numpy as np
from scipy import special, stats

#: agreement with the logistic IRLS reference for two-level predictors
SCAN_ORACLE_TOL = 1e-6
#: a p-value k/(B+1) must have k within this of an integer
GRID_TOL = 1e-9
#: the null count of p <= 0.05 must lie within these binomial tail bounds
NULL_TAIL = 1e-6
#: largest acceptable score max-norm at a reported maximum-likelihood fit
STATIONARY_TOL = 1e-6
#: agreement of residuals and estimates recomputed here with the program's
RECOMPUTE_TOL = 1e-9
#: agreement of the matrix's unadjusted triangle with scipy.stats.spearmanr
SPEARMAN_TOL = 1e-12
#: SVG coordinates are printed to 0.01 px
SVG_TOL = 0.011


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_columns(path: str) -> dict[str, list[str]]:
    rows = read_csv(path)
    return {k: [r[k] for r in rows] for k in rows[0]}


def numeric(tokens: list[str]) -> np.ndarray:
    return np.array([np.nan if t in ("", "NA") else float(t) for t in tokens])


def _on_grid(p: float, n_draws: int) -> bool:
    k = p * (n_draws + 1)
    return 1 - GRID_TOL <= k <= n_draws + 1 + GRID_TOL and abs(k - round(k)) <= GRID_TOL


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def logistic_irls(x01: np.ndarray, Z: np.ndarray, iters: int = 100) -> np.ndarray:
    """Fitted P(x = 1 | Z) from a logistic regression with intercept."""
    A = np.column_stack([np.ones(len(x01)), Z])
    coef = np.zeros(A.shape[1])
    for _ in range(iters):
        p = special.expit(A @ coef)
        w = p * (1.0 - p)
        step = np.linalg.solve(A.T @ (A * w[:, None]), A.T @ (x01 - p))
        coef += step
        if np.max(np.abs(step)) < 1e-13:
            break
    return special.expit(A @ coef)


def ols_midrank_residual(y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Least-squares residuals of y on (1, Z), scored as (2 midrank - n - 1) / n."""
    A = np.column_stack([np.ones(len(y)), Z])
    e = y - A @ np.linalg.lstsq(A, y, rcond=None)[0]
    return (2.0 * stats.rankdata(e) - len(e) - 1.0) / len(e)


def pearson(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.corrcoef(u, v)[0, 1])


def _cumlogit_parts(alpha, beta, codes, X):
    """Per-row upper/lower linear predictors; rows at the ends get +-inf."""
    xb = X @ beta if X.shape[1] else np.zeros(len(codes))
    a = np.concatenate([[-np.inf], alpha, [np.inf]])
    return a[codes + 1] - xb, a[codes] - xb


def cumlogit_score(alpha, beta, codes, X) -> np.ndarray:
    """Gradient of the cumulative-logit log-likelihood in (alpha, beta).

    Model: P(Y <= level j | x) = expit(alpha_j - x'beta), codes 0..J-1.
    """
    up, lo = _cumlogit_parts(alpha, beta, codes, X)
    F_up, F_lo = special.expit(up), special.expit(lo)
    f_up, f_lo = F_up * (1.0 - F_up), F_lo * (1.0 - F_lo)
    prob = F_up - F_lo
    g_alpha = np.zeros(len(alpha))
    top = codes < len(alpha)
    bottom = codes > 0
    np.add.at(g_alpha, codes[top], f_up[top] / prob[top])
    np.add.at(g_alpha, codes[bottom] - 1, -f_lo[bottom] / prob[bottom])
    g_beta = -X.T @ ((f_up - f_lo) / prob)
    return np.concatenate([g_alpha, g_beta])


def cumlogit_residuals(alpha, beta, codes, X) -> np.ndarray:
    """r = P(Y < y) - P(Y > y) = F(y-) + F(y) - 1 under the fitted model."""
    up, lo = _cumlogit_parts(alpha, beta, codes, X)
    return special.expit(up) + special.expit(lo) - 1.0


def check_stationary(alpha, beta, codes, X, label: str) -> list[str]:
    g = cumlogit_score(np.asarray(alpha), np.asarray(beta), codes, X)
    gmax = float(np.max(np.abs(g)))
    if not gmax <= STATIONARY_TOL:
        return [f"{label}: score max-norm {gmax:.3e} at the reported fit (not stationary)"]
    return []


def reference_lowess(x, y, span=2.0 / 3.0, robust_iters=3) -> tuple[np.ndarray, np.ndarray]:
    """Cleveland's robust lowess: tricube local lines, bisquare reweighting."""
    order = np.argsort(x, kind="stable")
    xs, ys = np.asarray(x)[order], np.asarray(y)[order]
    n = len(xs)
    r = int(math.ceil(span * n))
    robust = np.ones(n)
    fitted = np.empty(n)
    for it in range(robust_iters + 1):
        for i in range(n):
            d = np.abs(xs - xs[i])
            h = np.partition(d, r - 1)[r - 1]
            w = np.clip(1.0 - (d / h) ** 3, 0.0, None) ** 3 * robust
            # weighted least-squares line through the neighbourhood, at xs[i]
            sw, sx, sy = w.sum(), w @ xs, w @ ys
            sxx, sxy = w @ (xs * xs), w @ (xs * ys)
            slope = (sw * sxy - sx * sy) / (sw * sxx - sx * sx)
            fitted[i] = (sy - slope * sx) / sw + slope * xs[i]
        if it == robust_iters:
            break
        resid = ys - fitted
        s = np.median(np.abs(resid))
        robust = np.clip(1.0 - (resid / (6.0 * s)) ** 2, 0.0, None) ** 2
    grid, first = np.unique(xs, return_index=True)
    return grid, fitted[first]


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def min_level_rows(g: np.ndarray) -> int:
    """Rows in the rarest observed level of a predictor (NaN = missing)."""
    return int(np.unique(g[~np.isnan(g)], return_counts=True)[1].min())


def check_scan(scan_rows, main, preds, planted, constant, n_perm) -> list[str]:
    """``scan_rows``: output CSV rows; ``main``: dict of y/age/sex arrays;
    ``preds``: dict name -> array with NaN for missing cells."""
    errs: list[str] = []
    by_name = {r["name"]: r for r in scan_rows}
    if sorted(by_name) != sorted(preds):
        return ["scan: output names do not match the predictor panel"]
    Z = np.column_stack([main["age"], main["sex"]])
    v_full = ols_midrank_residual(main["y"], Z)
    ok = [r for r in scan_rows if r["status"] == "ok"]
    for name in constant:
        if by_name[name]["status"] != "degenerate":
            errs.append(f"scan: constant predictor {name} reported {by_name[name]['status']}")
    # fit_cumulative_link can fail to converge on a predictor with a level
    # seen in a single row; such a predictor may be reported failed
    others = [
        r for r in scan_rows
        if r["status"] != "ok" and r["name"] not in constant
        and not (r["status"] == "failed" and min_level_rows(preds[r["name"]]) == 1)
    ]
    if others:
        errs.append(f"scan: {len(others)} non-constant predictors not ok, e.g. {others[0]}")
    if [int(r["rank"]) for r in ok] != list(range(1, len(ok) + 1)):
        errs.append("scan: ok rows are not ranked 1..m in order")
    keys = [(float(r["p_value"]), -abs(float(r["estimate"]))) for r in ok]
    if keys != sorted(keys):
        errs.append("scan: rows are not ordered by p-value, then |estimate|")
    off_grid = [r["name"] for r in ok if not _on_grid(float(r["p_value"]), n_perm)]
    if off_grid:
        errs.append(f"scan: p-values off the k/{n_perm + 1} grid: {off_grid[:3]}")
    planted_ok = sorted(name for name in planted if by_name[name]["status"] == "ok")
    if sorted(r["name"] for r in ok[: len(planted_ok)]) != planted_ok:
        errs.append(f"scan: planted predictors {planted_ok} do not rank first")
    null = [float(r["p_value"]) for r in ok if r["name"] not in planted]
    hits = sum(p <= 0.05 for p in null)
    lo = stats.binom.ppf(NULL_TAIL, len(null), 0.05)
    hi = stats.binom.isf(NULL_TAIL, len(null), 0.05)
    if not lo <= hits <= hi:
        errs.append(f"scan: {hits} of {len(null)} null p-values <= 0.05, outside [{lo}, {hi}]")
    n_two = 0
    worst = 0.0
    for r in ok:
        g = preds[r["name"]]
        mask = ~np.isnan(g)
        levels = np.unique(g[mask])
        if levels.size != 2:
            continue
        n_two += 1
        x01 = (g[mask] == levels[1]).astype(float)
        u = x01 - logistic_irls(x01, Z[mask])
        ref = pearson(u, v_full[mask])
        worst = max(worst, abs(ref - float(r["estimate"])))
        if int(r["n_used"]) != int(mask.sum()):
            errs.append(f"scan: {r['name']} n_used {r['n_used']} != {int(mask.sum())}")
    if n_two == 0:
        errs.append("scan: no two-level predictor was checked against the IRLS reference")
    if not worst <= SCAN_ORACLE_TOL:
        errs.append(f"scan: two-level estimates differ from the IRLS reference by {worst:.3e}")
    return errs


# ---------------------------------------------------------------------------
# assoc
# ---------------------------------------------------------------------------


def check_pcor(row: dict, rx: np.ndarray, ry: np.ndarray, n_perm: int) -> list[str]:
    """``rx``/``ry``: margin residuals recomputed here from checked coefficients."""
    errs: list[str] = []
    est, lo, hi, p = (float(row[k]) for k in ("estimate", "ci_low", "ci_high", "p_value"))
    ref = pearson(rx, ry)
    if not abs(ref - est) <= RECOMPUTE_TOL:
        errs.append(f"pcor: estimate {est!r} differs from the recomputed {ref!r}")
    if not lo <= est <= hi:
        errs.append(f"pcor: CI [{lo}, {hi}] does not contain the estimate {est}")
    if not (lo > 0.0 or hi < 0.0):
        errs.append(f"pcor: CI [{lo}, {hi}] does not exclude 0 for the planted effect")
    if not _on_grid(p, n_perm):
        errs.append(f"pcor: p-value {p!r} is off the k/{n_perm + 1} grid")
    if "failed" in row["notes"]:
        errs.append(f"pcor: bootstrap replicates failed: {row['notes']}")
    return errs


def check_matrix(est_rows, p_rows, columns: dict[str, np.ndarray], n_perm: int) -> list[str]:
    errs: list[str] = []
    names = [r[""] for r in est_rows]
    k = len(names)
    est = np.array([numeric([r[c] for c in names]) for r in est_rows])
    pv = np.array([numeric([r[c] for c in names]) for r in p_rows])
    if not np.array_equal(np.diag(est), np.ones(k)):
        errs.append("matrix: diagonal is not 1")
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            if i < j:
                ref = float(stats.spearmanr(columns[names[i]], columns[names[j]]).statistic)
                if not abs(est[i, j] - ref) <= SPEARMAN_TOL:
                    errs.append(
                        f"matrix: {names[i]}/{names[j]} {est[i, j]!r} != spearmanr {ref!r}"
                    )
            elif not abs(est[i, j]) <= 1.0:
                errs.append(f"matrix: adjusted {names[j]}/{names[i]} is {est[i, j]!r}")
            if not _on_grid(pv[i, j], n_perm):
                errs.append(f"matrix: p-value {pv[i, j]!r} off the k/{n_perm + 1} grid")
    return errs


def check_conditional(rows, n_perm: int) -> list[str]:
    """The planted association grows with z: the curve must rise across it."""
    errs: list[str] = []
    grid = np.array([float(r["z"]) for r in rows])
    est = np.array([float(r["estimate"]) for r in rows])
    lo = np.array([float(r["ci_low"]) for r in rows])
    hi = np.array([float(r["ci_high"]) for r in rows])
    if not np.all(np.diff(grid) > 0):
        errs.append("conditional: grid is not increasing")
    if not est[-1] - est[0] >= 0.5:
        errs.append(f"conditional: curve rises only {est[-1] - est[0]:.3f} across z")
    rho = stats.spearmanr(grid, est).statistic
    if not rho >= 0.9:
        errs.append(f"conditional: curve is not increasing in z (spearman {rho:.3f})")
    if not (np.all(np.abs(est) <= 1.0) and np.all(lo <= hi)):
        errs.append("conditional: estimates outside [-1, 1] or inverted intervals")
    bad = [r["p_value"] for r in rows if not _on_grid(float(r["p_value"]), n_perm)]
    if bad:
        errs.append(f"conditional: p-values off the k/{n_perm + 1} grid: {bad[:3]}")
    return errs


# ---------------------------------------------------------------------------
# modelcheck
# ---------------------------------------------------------------------------


def check_fit_summary(summary: dict, alpha, beta, loglik) -> list[str]:
    """The CLI summary must report the coefficients the checks were run on."""
    errs: list[str] = []
    reported = np.array(list(summary["coefficients"].values()))
    if not np.allclose(reported, beta, rtol=1e-12, atol=0.0):
        errs.append(f"fit: coefficients {reported.tolist()} differ from {list(beta)}")
    ic = summary["intercepts"]  # more than 50 intercepts are summarised
    if not np.allclose([ic["first"], ic["last"]], [alpha[0], alpha[-1]], rtol=1e-12, atol=0.0):
        errs.append("fit: intercepts differ from the fit the checks were run on")
    if not math.isclose(summary["loglik"], loglik, rel_tol=1e-12):
        errs.append("fit: log-likelihood differs from the fit the checks were run on")
    if not summary["converged"]:
        errs.append("fit: not converged")
    return errs


def check_residuals(psr_rows, r_ref: np.ndarray) -> list[str]:
    errs: list[str] = []
    r = np.array([float(row["psr"]) for row in psr_rows])
    if r.shape != r_ref.shape:
        return [f"psr: {r.size} residuals, expected {r_ref.size}"]
    worst = float(np.max(np.abs(r - r_ref)))
    if not worst <= RECOMPUTE_TOL:
        errs.append(f"psr: residuals differ from the recomputed ones by {worst:.3e}")
    total = float(np.sum(r))
    if not abs(total) <= 1e-6:
        errs.append(f"psr: residuals of the logit fit sum to {total:.3e}, not 0")
    normal = np.array([float(row["psr_normal"]) for row in psr_rows])
    if not np.allclose(normal, special.ndtri((r + 1.0) / 2.0), rtol=1e-12, atol=1e-12):
        errs.append("psr: psr_normal is not ndtri((r + 1) / 2)")
    if [row["row_id"] for row in psr_rows] != [str(i) for i in range(1, r.size + 1)]:
        errs.append("psr: row ids are not 1..n")
    return errs


_POLYLINE = re.compile(r'<polyline points="([^"]*)"')
_CIRCLE = re.compile(r"<circle ")


def check_diag(summary: dict, r: np.ndarray, svgs: dict[str, str], predictors) -> list[str]:
    """KS against scipy, QQ point count, and each smooth against a reference lowess.

    ``predictors`` maps an --rbp name to its column values.
    """
    errs: list[str] = []
    ks = float(stats.kstest((r + 1.0) / 2.0, "uniform").statistic)
    if not abs(summary["ks_statistic"] - ks) <= 1e-12:
        errs.append(f"diag: KS {summary['ks_statistic']!r} != scipy.stats.kstest {ks!r}")
    if summary["n_obs"] != r.size:
        errs.append("diag: n_obs differs from the residual count")
    if len(_CIRCLE.findall(svgs["qq"])) != r.size:
        errs.append("diag: QQ plot does not draw one point per residual")
    for name, x in predictors.items():
        svg = svgs[name]
        m = _POLYLINE.search(svg)
        if m is None:
            errs.append(f"diag: {name} plot has no smooth")
            continue
        pts = np.array([[float(c) for c in p.split(",")] for p in m.group(1).split()])
        grid, fitted = reference_lowess(x, r)
        x_lo, x_hi = float(x.min()), float(x.max())
        px = 64.0 + (grid - x_lo) / (x_hi - x_lo) * (640.0 - 64.0 - 24.0)
        py = 480.0 - 48.0 - (fitted + 1.0) / 2.0 * (480.0 - 40.0 - 48.0)
        if pts.shape != (grid.size, 2):
            errs.append(f"diag: {name} smooth has {len(pts)} points, expected {grid.size}")
            continue
        worst = float(np.max(np.abs(pts - np.column_stack([px, py]))))
        if not worst <= SVG_TOL:
            errs.append(f"diag: {name} smooth is {worst:.3f} px from the reference lowess")
        if len(_CIRCLE.findall(svg)) != r.size:
            errs.append(f"diag: {name} plot does not draw one point per residual")
    return errs


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
