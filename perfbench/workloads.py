"""The workloads: the operations each one runs and how its outputs are checked.

An operation is one ``psr-kit`` command (or, where the command line has
no subcommand, one call of a public function through ``conditional.py``),
run in the workload's directory.  A round is the workload's operations in
order; every run attempts whole rounds.  After the rounds, ``check`` reads
the outputs, given each operation's exit code, and returns failure
messages.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

import checks as C
import conditional

SCAN_PERM = 199
SCAN_THREADS = 2
PCOR_BOOT = 200
PCOR_PERM = 999
MATRIX_PERM = 199


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``program`` is ``cli`` (``python -m psrkit.cli ARGS``) or
    ``conditional`` (``python perfbench/conditional.py ARGS``).  ``stdout``
    names the file that receives standard output; ``outputs`` are the files
    the operation writes, which must be byte-identical in every round.
    ``fails_today`` marks the one operation that exits 2 on every input
    until a known fault is mended; it is counted as failed, not as wrong.
    """

    name: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]
    program: str = "cli"
    stdout: str | None = None
    fails_today: bool = False


def scan_ops(info: dict, seed: int) -> list[Op]:
    return [
        Op(
            "scan",
            scan_args(info, seed, SCAN_PERM, SCAN_THREADS, "scan_out.csv"),
            ("scan_out.csv",),
        )
    ]


def scan_args(info, seed, n_perm, threads, out, x_model="orm-logit", y_model="linear-empirical"):
    return (
        "scan", "--data", info["data"], "--schema", info["schema"], "--y", "y",
        "--z", "age,sex", "--predictors", info["predictors"],
        "--x-model", x_model, "--y-model", y_model, "--perm", str(n_perm),
        "--threads", str(threads), "--seed", str(seed), "--out", out,
    )


def assoc_ops(info: dict, seed: int) -> list[Op]:
    return [
        Op("pcor", pcor_args(info, seed), ("pcor_out.csv",)),
        Op(
            "matrix",
            (
                "pcor", "--data", info["matrix"], "--schema", info["matrix_schema"],
                "--matrix", "--cols", ",".join(info["matrix_cols"]), "--z", "age,sex",
                "--perm", str(MATRIX_PERM), "--seed", str(seed),
                "--out", "matrix_est.csv", "--pout", "matrix_p.csv",
            ),
            ("matrix_est.csv", "matrix_p.csv"),
        ),
        Op(
            "conditional",
            (info["cond"], info["cond_schema"], str(seed), "cond_out.csv"),
            ("cond_out.csv",),
            program="conditional",
        ),
    ]


def pcor_args(info, seed):
    return (
        "pcor", "--data", info["pcor"], "--schema", info["pcor_schema"],
        "--x", "x", "--y", "y", "--z", info["pcor_z"],
        "--x-model", "orm-logit", "--y-model", "orm-logit",
        "--boot", str(PCOR_BOOT), "--perm", str(PCOR_PERM), "--seed", str(seed),
        "--out", "pcor_out.csv",
    )


def modelcheck_ops(info: dict, seed: int) -> list[Op]:
    common = ("--data", info["data"], "--schema", info["schema"])
    return [
        Op("fit", ("fit",) + common + ("--model", info["model"], "--out", "fit.json"),
           ("fit.json",)),
        Op("psr", ("psr",) + common + ("--model", info["model"], "--normal", "--out", "psr.csv"),
           ("psr.csv",)),
        Op(
            "diag",
            ("diag",) + common + (
                "--fit-spec", info["model"], "--qq", "qq.svg",
                "--rbp", "age=age.svg", "--rbp", "bmi=bmi.svg",
            ),
            ("diag.json", "qq.svg", "age.svg", "bmi.svg"),
            stdout="diag.json",
        ),
        Op(
            "fit_large",
            ("fit", "--data", info["large"], "--schema", info["schema"],
             "--model", info["model"], "--out", "fit_large.json"),
            ("fit_large.json",),
            fails_today=True,
        ),
    ]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def hash_outputs(work: str, ops) -> dict:
    """SHA-256 of every output file of ``ops`` (None for a file not written)."""
    out = {}
    for op in ops:
        for name in op.outputs:
            path = os.path.join(work, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    out[name] = hashlib.sha256(fh.read()).hexdigest()
            else:
                out[name] = None
    return out


def exit_errors(ops, exits: dict) -> list[str]:
    """Operations that failed, other than the expected exit 2 of ``fails_today``."""
    return [
        f"{op.name}: exit code {exits[op.name]}"
        for op in ops
        if exits[op.name] != 0 and not (op.fails_today and exits[op.name] == 2)
    ]


def _numeric_columns(path: str) -> dict[str, np.ndarray]:
    return {k: C.numeric(v) for k, v in C.read_columns(path).items()}


def check_scan(work: str, info: dict, exits: dict) -> list[str]:
    return C.check_scan(
        C.read_csv(os.path.join(work, "scan_out.csv")),
        _numeric_columns(os.path.join(work, info["data"])),
        _numeric_columns(os.path.join(work, info["predictors"])),
        info["planted"],
        info["constant"],
        SCAN_PERM,
    )


def _fit_and_codes(y, X):
    """Fit with the program's public fitter; the caller checks the result."""
    from psrkit import fit_cumulative_link

    fit = fit_cumulative_link(y, X)
    return fit, np.searchsorted(fit.support, y.values)


def check_assoc(work: str, info: dict, exits: dict) -> list[str]:
    from psrkit import build_design, load_csv, parse_term_list

    errs: list[str] = []
    d = load_csv(os.path.join(work, info["pcor"]), info["pcor_schema"])
    Z = build_design(d, parse_term_list(info["pcor_z"]))
    resid = []
    for name in ("x", "y"):
        fit, codes = _fit_and_codes(d[name], Z)
        errs += C.check_stationary(fit.alpha, fit.beta, codes, Z.matrix, f"pcor {name} margin")
        resid.append(C.cumlogit_residuals(fit.alpha, fit.beta, codes, Z.matrix))
    errs += C.check_pcor(C.read_csv(os.path.join(work, "pcor_out.csv"))[0], *resid, PCOR_PERM)
    errs += C.check_matrix(
        C.read_csv(os.path.join(work, "matrix_est.csv")),
        C.read_csv(os.path.join(work, "matrix_p.csv")),
        _numeric_columns(os.path.join(work, info["matrix"])),
        MATRIX_PERM,
    )
    errs += C.check_conditional(C.read_csv(os.path.join(work, "cond_out.csv")), conditional.N_PERM)
    return errs


def _checked_fit(work: str, info: dict, data: str, summary_path: str, label: str):
    """Fit in-process, check stationarity and the CLI summary; return residuals."""
    from psrkit import design_for_spec, load_csv, parse_model_spec

    d = load_csv(os.path.join(work, data), info["schema"])
    y, X = design_for_spec(parse_model_spec(info["model"]), d)
    fit, codes = _fit_and_codes(y, X)
    errs = C.check_stationary(fit.alpha, fit.beta, codes, X.matrix, label)
    errs += C.check_fit_summary(
        C.load_json(os.path.join(work, summary_path)), fit.alpha, fit.beta, fit.loglik
    )
    return d, C.cumlogit_residuals(fit.alpha, fit.beta, codes, X.matrix), errs


def check_modelcheck(work: str, info: dict, exits: dict) -> list[str]:
    d, r, errs = _checked_fit(work, info, info["data"], "fit.json", "fit")
    errs += C.check_residuals(C.read_csv(os.path.join(work, "psr.csv")), r)
    svgs = {}
    for key in ("qq", "age", "bmi"):
        with open(os.path.join(work, f"{key}.svg"), encoding="utf-8") as fh:
            svgs[key] = fh.read()
    errs += C.check_diag(
        C.load_json(os.path.join(work, "diag.json")),
        r,
        svgs,
        {"age": d["age"].values, "bmi": d["bmi"].values},
    )
    if exits.get("fit_large") == 0:
        # once the stopping rule is mended the large fit must be a true MLE
        errs += _checked_fit(work, info, info["large"], "fit_large.json", "fit_large")[2]
    return errs


WORKLOADS = {
    "scan": (scan_ops, check_scan),
    "assoc": (assoc_ops, check_assoc),
    "modelcheck": (modelcheck_ops, check_modelcheck),
}
