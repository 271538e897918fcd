"""Command-line front end: ``psr-kit``.

Subcommands cover the full workflow: ``fit`` (model summaries), ``psr``
(residual extraction), ``diag`` (uniformity diagnostics and plots),
``pcor`` (adjusted rank correlations, single pair or matrix), and ``scan``
(one outcome against many candidate predictors).

Exit codes: 0 on success, 1 on user error (bad flags, malformed input,
schema mismatch), 2 on numerical failure (non-convergence, degenerate
fits).  All randomness flows from ``--seed`` through named substreams, and
every output is written with fixed formatting, so identical inputs and
arguments produce byte-identical files, whatever ``--threads`` is.

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless the variable
is already set, so every command (and each of its worker processes) runs
numpy's BLAS on one thread; the library itself leaves the variable alone.
The ``diag`` plotting code loads only when ``diag`` runs.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

# One OpenBLAS thread: psrkit's products are too small to split, and
# ``--threads`` (worker processes, which inherit this) is the one parallelism.
# OpenBLAS reads the variable once, when numpy loads, so it is set before the
# first import of numpy; a value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .data_model import (
    Column,
    ColumnKind,
    ColumnSpec,
    Dataset,
    MISSING_TOKEN,
    _open_csv,
    build_design,
    complete_cases,
    load_csv,
)
from .exceptions import InputError, NumericError
from .formula import design_for_spec, fit_spec, parse_model_spec, parse_term_list
from .psr import normal_transform
from .rank_association import (
    MARGIN_MODELS,
    ScanConfig,
    _check_draws,
    _margin,
    _margin_fit,
    batch_partial_spearman,
    correlation_matrix,
    default_margin_model,
    margin_psr,
    partial_spearman,
)

PROG = "psr-kit"

__all__ = ["main", "run"]

#: the flag that sets each of ``rank_association._check_draws``'s parameters
_DRAW_FLAGS = {"n_boot": "--boot", "n_perm": "--perm", "workers": "--threads", "seed": "--seed"}


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# small deterministic writers
# ---------------------------------------------------------------------------


def _fmt_value(v) -> str:
    if v is None:
        return MISSING_TOKEN
    f = float(v)
    if np.isnan(f):
        return MISSING_TOKEN
    return repr(f)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _format_observed(col: Column, i: int) -> str:
    if col.kind is ColumnKind.RIGHT_CENSORED:
        t = float(col.values[i])
        s = str(int(t)) if t.is_integer() else repr(t)
        return s if col.events is not None and col.events[i] else s + "+"
    return col.label_of(col.values[i])


def _load_complete(
    path: str, schema: str, needed: list[str]
) -> tuple[Dataset, np.ndarray, int]:
    """Load a CSV and keep rows complete in the ``needed`` columns.

    Returns the filtered dataset, the original row indices kept, and the
    number of rows removed.
    """
    d = load_csv(path, schema)
    complete, kept = complete_cases(d, needed)
    return complete, kept, d.n - kept.size


def _model_columns(spec) -> list[str]:
    names = [spec.outcome]
    for t in spec.terms:
        if t.name not in names:
            names.append(t.name)
    return names


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _cmd_fit(args) -> int:
    spec = parse_model_spec(args.model)
    d, _, removed = _load_complete(args.data, args.schema, _model_columns(spec))
    fit, _ = fit_spec(spec, d)
    if fit.alpha.size <= 50:
        intercepts = [float(a) for a in fit.alpha]
    else:
        intercepts = {
            "count": int(fit.alpha.size),
            "first": float(fit.alpha[0]),
            "last": float(fit.alpha[-1]),
        }
    summary = {
        "model": spec.describe(),
        "link": fit.link,
        "outcome": fit.outcome,
        "n_obs": fit.n_obs,
        "rows_removed": removed,
        "coefficients": {n: float(b) for n, b in zip(fit.term_names, fit.beta)},
        "intercepts": intercepts,
        "loglik": float(fit.loglik),
        "aic": float(fit.aic),
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
        "gradient_max_norm": float(fit.grad_max_norm),
        "notes": list(fit.notes),
    }
    if fit.scale is not None:
        summary["scale"] = float(fit.scale)
    _write_text(args.out, json.dumps(summary, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# psr
# ---------------------------------------------------------------------------


def _parse_keyed_path(text: str, flag: str) -> tuple[str, str]:
    if "=" not in text:
        raise InputError(f"{flag} expects KEY=PATH, got {text!r}")
    key, path = text.split("=", 1)
    if not key or not path:
        raise InputError(f"{flag} expects KEY=PATH, got {text!r}")
    return key, path


def _cmd_psr(args) -> int:
    spec = parse_model_spec(args.model)
    d, kept, _ = _load_complete(args.data, args.schema, _model_columns(spec))
    y, X = design_for_spec(spec, d)
    fit, r = _margin_fit(y, X, spec.family)
    header = ["row_id", "observed", "psr"]
    if args.normal:
        header.append("psr_normal")
    rows: list[list[str]] = [header]
    normal = normal_transform(r) if args.normal else None
    for i in range(y.n):
        row = [str(int(kept[i]) + 1), _format_observed(y, i), _fmt_value(r.values[i])]
        if normal is not None:
            row.append(_fmt_value(normal[i]))
        rows.append(row)
    _write_text(args.out, _csv_text(rows))

    if args.dump_dist:
        row_distribution = _margin(spec.family).row_distribution
        for item in args.dump_dist:
            key, path = _parse_keyed_path(item, "--dump-dist")
            try:
                row_id = int(key)
            except ValueError:
                raise InputError(f"--dump-dist row id {key!r} is not an integer") from None
            pos = np.flatnonzero(kept + 1 == row_id)
            if pos.size == 0:
                raise InputError(
                    f"--dump-dist row {row_id} is not among the complete rows"
                )
            dist = row_distribution(fit, y, X, int(pos[0]))
            _write_text(path, json.dumps(dist.to_debug_dict(), indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# diag
# ---------------------------------------------------------------------------


def _plot_csv(kinds_points) -> str:
    rows = [["kind", "x", "y"]]
    for kind, xs, ys in kinds_points:
        for xv, yv in zip(xs, ys):
            rows.append([kind, _fmt_value(xv), _fmt_value(yv)])
    return _csv_text(rows)


def _cmd_diag(args) -> int:
    from .diagnostics import (
        ks_uniform, qq_uniform, render_qq, render_residual, residual_by_predictor,
    )

    rbp_items = [_parse_keyed_path(t, "--rbp") for t in (args.rbp or [])]
    spec = parse_model_spec(args.fit_spec)
    needed = _model_columns(spec)
    for name, _ in rbp_items:
        if name not in needed:
            needed.append(name)
    d, _, removed = _load_complete(args.data, args.schema, needed)
    y, X = design_for_spec(spec, d)
    r = margin_psr(y, X, spec.family)
    ks = ks_uniform(r)
    summary = {
        "model": spec.describe(),
        "n_obs": y.n,
        "rows_removed": removed,
        "ks_statistic": float(ks.statistic),
        "ks_p_value": float(ks.p_value),
        "smooths": {},
    }
    if args.qq:
        qq = qq_uniform(r)
        if args.csv:
            _write_text(args.qq, _plot_csv([("point", qq.theoretical, qq.sample)]))
        else:
            _write_text(args.qq, render_qq(qq))
    for name, path in rbp_items:
        plot = residual_by_predictor(d[name], r)
        if args.csv:
            _write_text(
                path,
                _plot_csv(
                    [
                        ("point", plot.x, plot.residuals),
                        ("smooth", plot.smooth.grid, plot.smooth.fitted),
                    ]
                ),
            )
        else:
            _write_text(path, render_residual(plot))
        summary["smooths"][name] = {
            "n_grid": int(plot.smooth.grid.size),
            "passes": plot.smooth.passes,
        }
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# pcor
# ---------------------------------------------------------------------------


def _assoc_csv(res, x_name, y_name, x_model, y_model) -> str:
    rows = [
        [
            "method", "x", "y", "x_model", "y_model", "estimate",
            "ci_low", "ci_high", "p_value", "n_used", "notes",
        ],
        [
            res.method, x_name, y_name, x_model, y_model,
            _fmt_value(res.estimate), _fmt_value(res.ci_low),
            _fmt_value(res.ci_high), _fmt_value(res.p_value),
            str(res.n_used), "; ".join(res.notes),
        ],
    ]
    return _csv_text(rows)


def _cmd_pcor(args) -> int:
    n_boot = 0 if args.matrix else args.boot
    _check_draws(n_boot, args.perm, args.threads, args.seed, flags=_DRAW_FLAGS)
    zterms = parse_term_list(args.z)
    # each path rejects the flags only the other one uses
    for flag in ("x", "y", "x_model", "y_model") if args.matrix else ("cols", "pout"):
        if getattr(args, flag) is not None:
            rule = "cannot be used with" if args.matrix else "can be used only with"
            raise InputError(f"--{flag.replace('_', '-')} {rule} --matrix")
    if args.matrix:
        if not args.cols:
            raise InputError("--matrix needs --cols with at least two column names")
        cols = [c.strip() for c in args.cols.split(",") if c.strip()]
        d, _, _ = _load_complete(args.data, args.schema, [t.name for t in zterms])
        Z = build_design(d, zterms) if zterms else None
        # upper triangle unadjusted, lower triangle Z-adjusted, diagonal 1
        names, est, pval, notes = correlation_matrix(d, cols, Z, n_perm=args.perm, seed=args.seed)

        def matrix_csv(values) -> str:
            rows = [[nm] + [_fmt_value(v) for v in values[i]] for i, nm in enumerate(names)]
            return _csv_text([[""] + names] + rows)

        _write_text(args.out, matrix_csv(est))
        if args.pout:
            _write_text(args.pout, matrix_csv(pval))
        for note in notes:
            print(f"{PROG}: note: {note}", file=sys.stderr)
        return 0

    if not args.x or not args.y:
        raise InputError("pcor needs --x and --y (or --matrix with --cols)")
    needed = [args.x, args.y] + [t.name for t in zterms]
    d, _, _ = _load_complete(args.data, args.schema, needed)
    Z = build_design(d, zterms) if zterms else None
    cx, cy = d[args.x], d[args.y]
    x_model = args.x_model or default_margin_model(cx, Z)
    y_model = args.y_model or default_margin_model(cy, Z)
    res = partial_spearman(
        cx, cy, Z,
        x_model=x_model, y_model=y_model,
        n_boot=args.boot, n_perm=args.perm, seed=args.seed, workers=args.threads,
    )
    _write_text(args.out, _assoc_csv(res, args.x, args.y, x_model, y_model))
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _load_predictors(path: str, n_expected: int, kept: np.ndarray) -> list[Column]:
    """Every column of the predictor file, read as continuous, at the ``kept`` rows."""
    with _open_csv(path) as fh:
        header = next(csv.reader(fh), [])
    d = load_csv(path, tuple(ColumnSpec(name, ColumnKind.CONTINUOUS) for name in header))
    if d.n != n_expected:
        raise InputError(
            f"{path}: has {d.n} data rows but the main table has {n_expected}"
        )
    return list(d.take(kept).columns)


def _cmd_scan(args) -> int:
    _check_draws(0, args.perm, args.threads, args.seed, flags=_DRAW_FLAGS)
    zterms = parse_term_list(args.z)
    needed = [args.y] + [t.name for t in zterms]
    d, kept, removed = _load_complete(args.data, args.schema, needed)
    Z = build_design(d, zterms) if zterms else None
    preds = _load_predictors(args.predictors, kept.size + removed, kept)
    config = ScanConfig(
        x_model=args.x_model,
        y_model=args.y_model,
        n_perm=args.perm,
        workers=args.threads,
        seed=args.seed,
    )
    result = batch_partial_spearman(d[args.y], Z, preds, config)
    rows = [["rank", "name", "estimate", "p_value", "n_used", "status", "detail"]]
    for r in result:
        rows.append(
            [
                "" if r.rank is None else str(r.rank),
                r.name,
                _fmt_value(r.estimate),
                _fmt_value(r.p_value),
                str(r.n_used),
                r.status,
                r.detail,
            ]
        )
    _write_text(args.out, _csv_text(rows))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _CliArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise _CliArgumentError(message)


def _add_common(sub, model_flag: str | None = "--model") -> None:
    sub.add_argument("--data", required=True, help="input CSV path")
    sub.add_argument(
        "--schema",
        required=True,
        help=(
            "column declarations, e.g. "
            "'y:continuous,sex:binary,stage:ordinal(I<II<III),t:surv(time,event)'"
        ),
    )
    if model_flag:
        sub.add_argument(
            model_flag,
            dest="model" if model_flag == "--model" else "fit_spec",
            required=True,
            help="model spec, e.g. 'orm-logit(y ~ age + rcs(bmi,3))'",
        )


def build_parser() -> _Parser:
    from . import __version__

    parser = _Parser(
        prog=PROG,
        description="Probability-scale residuals: fits, diagnostics, rank association.",
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    threads = _usable_cpus()
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    p_fit = sub.add_parser("fit", help="fit a model and print a JSON summary")
    _add_common(p_fit)
    p_fit.add_argument("--out", help="write the JSON summary here instead of stdout")
    p_fit.set_defaults(func=_cmd_fit)

    p_psr = sub.add_parser("psr", help="write per-row residuals as CSV")
    _add_common(p_psr)
    p_psr.add_argument("--out", help="output CSV path (default stdout)")
    p_psr.add_argument(
        "--normal", action="store_true", help="add a normal-transformed residual column"
    )
    p_psr.add_argument(
        "--dump-dist",
        action="append",
        metavar="ROW=PATH",
        help="write the predicted distribution for input row ROW as debug JSON",
    )
    p_psr.set_defaults(func=_cmd_psr)

    p_diag = sub.add_parser("diag", help="uniformity diagnostics and plots")
    _add_common(p_diag, model_flag="--fit-spec")
    p_diag.add_argument("--qq", metavar="PATH", help="write the uniform QQ plot here")
    p_diag.add_argument(
        "--rbp",
        action="append",
        metavar="PREDICTOR=PATH",
        help="residual-vs-predictor plot (repeatable)",
    )
    p_diag.add_argument(
        "--csv", action="store_true", help="emit plot data as CSV instead of SVG"
    )
    p_diag.set_defaults(func=_cmd_diag)

    p_pcor = sub.add_parser("pcor", help="rank correlation adjusted for covariates")
    _add_common(p_pcor, model_flag=None)
    p_pcor.add_argument("--x", help="first column")
    p_pcor.add_argument("--y", help="second column")
    p_pcor.add_argument(
        "--z", default="", help="comma-separated covariate terms, e.g. 'age,rcs(bmi,4)'"
    )
    p_pcor.add_argument("--x-model", choices=MARGIN_MODELS, help="margin model for x")
    p_pcor.add_argument("--y-model", choices=MARGIN_MODELS, help="margin model for y")
    p_pcor.add_argument("--boot", type=int, default=1000, metavar="B",
                        help="bootstrap replicates for the CI (0 disables)")
    p_pcor.add_argument("--perm", type=int, default=1000, metavar="B",
                        help="permutation draws for the p-value (0 disables)")
    p_pcor.add_argument("--threads", type=int, default=threads, metavar="N",
                        help="worker processes for the bootstrap refits "
                             "(default: the usable CPUs); outputs do not depend on it")
    p_pcor.add_argument("--seed", type=int, help="RNG seed (required when resampling)")
    p_pcor.add_argument("--matrix", action="store_true",
                        help="emit a correlation matrix over --cols instead of one pair")
    p_pcor.add_argument("--cols", help="comma-separated columns for --matrix")
    p_pcor.add_argument("--out", help="estimates CSV path (default stdout)")
    p_pcor.add_argument("--pout", help="p-value matrix CSV path (--matrix only)")
    p_pcor.set_defaults(func=_cmd_pcor)

    p_scan = sub.add_parser("scan", help="scan many predictors against one outcome")
    _add_common(p_scan, model_flag=None)
    p_scan.add_argument("--y", required=True, help="outcome column")
    p_scan.add_argument("--z", default="", help="comma-separated adjustment terms")
    p_scan.add_argument("--predictors", required=True, metavar="PATH",
                        help="CSV of candidate predictor columns, rows aligned with --data")
    p_scan.add_argument("--x-model", choices=MARGIN_MODELS, default=ScanConfig.x_model,
                        help="margin model for each predictor")
    p_scan.add_argument("--y-model", choices=MARGIN_MODELS, default=ScanConfig.y_model,
                        help="margin model for the outcome")
    p_scan.add_argument("--perm", type=int, default=1000, metavar="B",
                        help="permutation draws per predictor (0 disables)")
    p_scan.add_argument("--threads", type=int, default=threads, metavar="N",
                        help="worker processes (default: the usable CPUs); "
                             "outputs do not depend on it")
    p_scan.add_argument("--seed", type=int, help="RNG seed (required when resampling)")
    p_scan.add_argument("--out", help="output CSV path (default stdout)")
    p_scan.set_defaults(func=_cmd_scan)
    return parser


def run(argv: list[str]) -> int:
    """Parse arguments and execute one subcommand; returns the exit code."""
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except _CliArgumentError as exc:
        parser.print_usage(sys.stderr)
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (OSError, InputError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"{PROG}: numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
