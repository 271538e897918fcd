#!/usr/bin/env python3
"""Residual diagnostics on a simulated misspecified fit.

Simulates an outcome with a concave age effect, fits a straight-line model,
and renders the two diagnostic plots: the uniform QQ plot and the smoothed
residual-by-age plot. Then refits with the quadratic term included to show
both plots flattening out. Writes four SVGs into the output directory, and
exits 1 unless the uniformity test rejects the straight-line fit
(KS p < 1e-3) and does not reject the quadratic one (KS p > 0.01).

Usage: python3 scripts/diagnostics_demo.py [OUTDIR]
"""
import pathlib
import sys

import numpy as np

from psrkit.data_model import Column, DesignMatrix
from psrkit.diagnostics import (
    ks_uniform,
    qq_uniform,
    render_qq,
    render_residual,
    residual_by_predictor,
)
from psrkit.estimators import fit_linear_normal
from psrkit.psr import psr_all


def main(argv: list[str]) -> int:
    outdir = pathlib.Path(argv[0]) if argv else pathlib.Path("diagnostics_out")
    outdir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(505)
    n = 1000
    age = rng.uniform(0, 10, n)
    y = -0.30 * (age - 5.0) ** 2 + rng.normal(0, 1, n)
    col = Column.continuous("y", y)

    code = 0
    for tag, design, p_ok in [
        # the misfit: the uniformity test must reject it
        ("linear", DesignMatrix(age[:, None], ("age",)), lambda p: p < 1e-3),
        # the refit: the test must not reject it
        ("quadratic", DesignMatrix(np.column_stack([age, age**2]), ("age", "age_sq")),
         lambda p: p > 0.01),
    ]:
        fit = fit_linear_normal(col, design)
        r = psr_all(fit, col, design)
        ks = ks_uniform(r)
        plot = residual_by_predictor(age, r, label="age")
        qq_path = outdir / f"qq_{tag}.svg"
        rbp_path = outdir / f"residual_by_age_{tag}.svg"
        qq_path.write_text(render_qq(qq_uniform(r), title=f"QQ — {tag} fit"))
        rbp_path.write_text(
            render_residual(plot, title=f"residuals vs age — {tag} fit")
        )
        smooth_range = float(np.ptp(plot.smooth.fitted))
        print(
            f"{tag:>9} fit: KS p = {ks.p_value:.3g}, "
            f"smooth range = {smooth_range:.3f} -> {qq_path}, {rbp_path}"
        )
        if not p_ok(ks.p_value):
            print(f"{tag} fit: unexpected KS p = {ks.p_value!r}", file=sys.stderr)
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
