"""Diagnostics: uniformity checks, robust smoothing, SVG rendering."""
import warnings

import numpy as np
import pytest
from scipy import special, stats

from psrkit import diagnostics
from psrkit.data_model import Column
from psrkit.diagnostics import (
    ks_uniform,
    lowess,
    qq_uniform,
    render_qq,
    render_residual,
    residual_by_predictor,
)
from psrkit.estimators import fit_cumulative_link, fit_empirical
from psrkit.exceptions import InputError
from psrkit.psr import psr_all


class TestQQ:
    def test_theoretical_positions_n4(self):
        qq = qq_uniform(np.array([0.3, -0.9, 0.1, -0.2]))
        # midpoint positions on [-1, 1]: -1 + 2*(i - 0.5)/n
        assert qq.theoretical.tolist() == [-0.75, -0.25, 0.25, 0.75]
        assert qq.sample.tolist() == [-0.9, -0.2, 0.1, 0.3]
        assert qq.n == 4

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            qq_uniform(np.array([0.0, 1.5]))

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            qq_uniform(np.array([0.0, np.nan]))

    def test_uniform_sample_hugs_identity(self):
        rng = np.random.default_rng(0)
        qq = qq_uniform(rng.uniform(-1, 1, 4000))
        assert np.max(np.abs(qq.sample - qq.theoretical)) < 0.08


class TestKsUniform:
    def test_matches_reference_asymptotic_ks(self):
        rng = np.random.default_rng(1)
        r = rng.uniform(-1, 1, 200)
        ours = ks_uniform(r)
        ref = stats.kstest((r + 1) / 2, "uniform", mode="asymp")
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_hand_statistic(self):
        # n=8 equally spaced at midpoints: D+ = D- = 1/(2n)
        r = -1 + 2 * (np.arange(1, 9) - 0.5) / 8
        res = ks_uniform(r)
        assert res.statistic == pytest.approx(1 / 16, abs=1e-15)

    def test_needs_eight_observations(self):
        with pytest.raises(InputError, match="8"):
            ks_uniform(np.zeros(7))

    def test_discrete_residuals_warn(self):
        rng = np.random.default_rng(2)
        y = Column.ordinal("y", rng.integers(0, 3, 100).astype(float), ("a", "b", "c"))
        r = psr_all(fit_empirical(y), y)
        with pytest.warns(UserWarning, match="discrete"):
            ks_uniform(r)

    def test_shifted_distribution_rejected(self):
        rng = np.random.default_rng(3)
        res = ks_uniform(np.clip(rng.uniform(-1, 1, 500) + 0.3, -1, 1))
        assert res.p_value < 1e-6

    def test_calibration_near_nominal_level(self):
        rng = np.random.default_rng(4)
        reps, n, alpha = 400, 500, 0.05
        rejections = sum(
            ks_uniform(rng.uniform(-1, 1, n)).p_value < alpha for _ in range(reps)
        )
        assert 0.02 <= rejections / reps <= 0.09

    def test_correct_model_residuals_pass(self):
        rng = np.random.default_rng(5)
        n = 1500
        x = rng.normal(0, 1, n)
        latent = 1.2 * x + rng.logistic(0, 1, n)
        y = Column.continuous("y", np.round(latent, 1))
        from psrkit.data_model import DesignMatrix

        fit = fit_cumulative_link(y, DesignMatrix(x[:, None], ("x",)), link="logit")
        with pytest.warns(UserWarning, match="discrete"):
            res = ks_uniform(psr_all(fit, y, DesignMatrix(x[:, None], ("x",))))
        assert res.p_value > 0.01


class TestKolmogorovSf:
    def test_matches_scipy(self):
        # both sides of the switch between the two series at 0.82
        x = np.concatenate([
            np.linspace(0.0, 8.0, 8001),
            [np.nextafter(0.82, 0.0), 0.82, np.nextafter(0.82, 1.0)],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.array([diagnostics._kolmogorov_sf(float(v)) for v in x])
        assert np.max(np.abs(got - special.kolmogorov(x))) <= 1e-14

    def test_limits(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert diagnostics._kolmogorov_sf(0.0) == 1.0
            assert diagnostics._kolmogorov_sf(-1.0) == 1.0
            assert diagnostics._kolmogorov_sf(1e-300) == 1.0
            assert diagnostics._kolmogorov_sf(30.0) == 0.0


class TestLowess:
    def test_exact_on_line(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 10, 60)
        y = 2.0 + 0.5 * x
        sm = lowess(x, y)
        assert np.allclose(sm.fitted, 2.0 + 0.5 * sm.grid, atol=1e-9)

    def test_grid_is_sorted_unique_x(self):
        x = np.array([3.0, 1.0, 2.0, 1.0])
        sm = lowess(x, np.array([1.0, 2.0, 3.0, 4.0]), span=1.0)
        assert sm.grid.tolist() == [1.0, 2.0, 3.0]

    def test_duplicates_average_when_window_degenerate(self):
        x = np.array([1.0, 1.0, 1.0, 5.0, 5.0])
        y = np.array([1.0, 2.0, 3.0, 10.0, 12.0])
        sm = lowess(x, y, span=0.4, robust_iters=0)
        i1 = np.searchsorted(sm.grid, 1.0)
        assert sm.fitted[i1] == pytest.approx(2.0, abs=1e-12)

    def test_robust_iterations_resist_outliers(self):
        rng = np.random.default_rng(7)
        x = np.linspace(0, 1, 120)
        y = np.sin(2 * x) + rng.normal(0, 0.03, 120)
        y[::17] += 6.0  # gross outliers
        plain = lowess(x, y, robust_iters=0)
        robust = lowess(x, y, robust_iters=3)
        truth = np.sin(2 * plain.grid)
        err_plain = np.max(np.abs(plain.fitted - truth))
        err_robust = np.max(np.abs(robust.fitted - truth))
        assert err_robust < err_plain / 3

    def test_recovers_smooth_curve(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-2, 2, 400)
        y = x**2 + rng.normal(0, 0.1, 400)
        sm = lowess(x, y, span=0.3)
        inner = (sm.grid > -1.5) & (sm.grid < 1.5)
        assert np.max(np.abs(sm.fitted[inner] - sm.grid[inner] ** 2)) < 0.15

    def test_span_validation(self):
        x, y = np.arange(10.0), np.arange(10.0)
        with pytest.raises(InputError):
            lowess(x, y, span=0.0)
        with pytest.raises(InputError):
            lowess(x, y, span=1.5)
        with pytest.raises(InputError):
            lowess(x, y[:5])

    def test_needs_enough_points(self):
        with pytest.raises(InputError):
            lowess(np.array([1.0]), np.array([1.0]))

    @pytest.mark.parametrize("iters", [-1, 1.0, "3"])
    def test_robust_iters_must_be_nonnegative_integer(self, iters):
        x = np.arange(5.0)
        with pytest.raises(InputError, match="robust_iters"):
            lowess(x, np.ones(5), robust_iters=iters)
        with pytest.raises(InputError, match="robust_iters"):
            residual_by_predictor(x, np.zeros(5), robust_iters=iters)

    def test_passes_counts_each_fit(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 1, 50)
        y = rng.normal(0, 1, 50)
        assert lowess(x, y, robust_iters=0).passes == 1
        assert lowess(x, y, robust_iters=3).passes == 4

    def test_zero_outcome_stops_after_first_pass(self):
        sm = lowess(np.arange(10.0), np.zeros(10))
        assert sm.passes == 1
        assert not sm.fitted.any()

    @pytest.mark.parametrize("seed", range(20))
    def test_interpolating_lines_skip_robustness_passes(self, seed):
        # span 0.1 of 27 points: each local line has two weighted points and
        # passes through its own, so the residuals are rounding noise
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, 27)
        y = rng.normal(size=27)
        robust = lowess(x, y, span=0.1, robust_iters=3)
        plain = lowess(x, y, span=0.1, robust_iters=0)
        assert robust.passes == 1
        assert np.array_equal(robust.fitted, plain.fitted)


def _loop_lowess(x, y, span, robust_iters, dtype=np.float64):
    """The per-point lowess loop, one partition per point and pass, with sums
    about each window's weighted mean, in ``dtype`` arithmetic.

    Returns the grid, the fitted values and the names of the branches taken.
    """
    order = np.argsort(x, kind="stable")
    xs, ys = x[order].astype(dtype), y[order].astype(dtype)
    n = xs.size
    r = int(np.ceil(span * n))
    y_scale = np.max(np.abs(ys))
    robust = np.ones(n, dtype)
    fitted = np.empty(n, dtype)
    branches = set()
    for iteration in range(robust_iters + 1):
        for i in range(n):
            d = np.abs(xs - xs[i])
            cutoff = np.partition(d, r - 1)[r - 1]
            if cutoff <= 0.0:
                sel = d == 0.0
                w = robust[sel]
                branches.add("tied" if w.sum() > 0 else "tied_zero_weight")
                fitted[i] = w @ ys[sel] / w.sum() if w.sum() > 0 else ys[sel].mean()
                continue
            w = np.clip(1.0 - (d / cutoff) ** 3, 0.0, None) ** 3 * robust
            sw = w.sum()
            if sw <= 0.0:
                branches.add("zero_weight")
                fitted[i] = ys[d <= cutoff].mean()
                continue
            xbar = (w @ xs) / sw
            dx = xs - xbar
            vxx = w @ np.square(dx)
            mean_y = (w @ ys) / sw
            if vxx <= 1e-12 * max(1.0, w @ np.square(xs)):
                branches.add("flat")
                fitted[i] = mean_y
            else:
                slope = (w @ (dx * ys)) / vxx
                fitted[i] = mean_y + slope * (xs[i] - xbar)
        if iteration == robust_iters:
            break
        resid = ys - fitted
        s = np.median(np.abs(resid))
        if 6.0 * s <= 1e-10 * y_scale:
            break
        robust = np.clip(1.0 - np.square(resid / (6.0 * s)), 0.0, None) ** 2
    grid, first = np.unique(xs, return_index=True)
    return grid.astype(np.float64), fitted[first], branches


class TestLowessMatchesLoop:
    """The blocked lowess against the per-point loop it replaced."""

    @staticmethod
    def _agree(x, y, span, robust_iters):
        grid, fitted, branches = _loop_lowess(x, y, span, robust_iters)
        sm = lowess(x, y, span=span, robust_iters=robust_iters)
        assert np.array_equal(sm.grid, grid)
        assert np.max(np.abs(sm.fitted - fitted)) <= 1e-10
        return branches

    def test_seeded_sweep(self):
        rng = np.random.default_rng(13)
        for case in range(48):
            n = int(rng.integers(2, 300))
            x = rng.uniform(0, 10, n)
            if case % 4 == 1:
                x = np.round(x)
            elif case % 4 == 2:
                x = 1e6 + 1e-3 * x
            y = np.sin(x) + rng.normal(0, 0.3, n)
            if case % 4 == 3:
                y[rng.integers(0, n, n // 10 + 1)] += 8.0
            span = max((0.1, 0.3, 2.0 / 3.0, 1.0)[case // 4 % 4], 2.0 / n)
            self._agree(x, np.clip(y, -10.0, 10.0), span, case % 4)

    def test_rows_tied_at_cutoff_zero(self):
        # eight rows at each x and a window of eight: every cut-off is 0;
        # the rows at x = 4 alternate 10 and -8, so their robust weights are all 0
        rng = np.random.default_rng(14)
        x = np.repeat(np.arange(10.0), 8)
        y = rng.normal(0, 0.1, 80)
        y[32:40] = np.where(np.arange(8) % 2 == 0, 10.0, -8.0)
        assert {"tied", "tied_zero_weight"} <= self._agree(x, y, 0.1, 3)

    def test_window_with_zero_robust_weight(self):
        # rows 20-39 alternate +-10 around a smooth curve: every point there
        # is a gross outlier, so the middle rows' windows weigh nothing
        rng = np.random.default_rng(15)
        x = np.arange(60.0)
        y = np.sin(x / 10.0) + rng.normal(0, 0.01, 60)
        y[20:40] = np.where(np.arange(20) % 2 == 0, 10.0, -10.0)
        assert "zero_weight" in self._agree(x, y, 5 / 60, 1)

    def test_flat_window(self):
        # the five rows at 0 weigh only each other: the point at 10 sits at
        # their cut-off and has tricube weight 0
        rng = np.random.default_rng(16)
        x = np.concatenate([np.zeros(5), 10.0 * np.arange(1.0, 16.0)])
        y = rng.normal(0, 1, 20)
        assert "flat" in self._agree(x, y, 0.3, 2)

    def test_one_sided_window_matches_extended_reference(self):
        # alternating +-8 outliers around x = 0 get robust weight 0 after the
        # first pass, so the second pass fits their rows from a cluster of
        # eight points at x = 1 with spread 7e-5 alone: every weighted point
        # sits on one side, far compared with its spread
        rng = np.random.default_rng(18)
        out_x = np.array([-1.5, -1.2, -0.9, -0.6, -0.3, 0.0, 0.1, 0.2])
        out_y = np.where(np.arange(out_x.size) % 2 == 0, 8.0, -8.0)
        bx = np.linspace(2.0, 10.0, 60)
        x = np.concatenate([out_x, 1.0 + 1e-5 * np.arange(8), bx])
        y = np.concatenate([out_y, 1e-4 * rng.normal(size=8), np.sin(bx) + rng.normal(0, 0.1, 60)])
        span = 16 / x.size
        grid, fitted, _ = _loop_lowess(x, y, span, 1, np.longdouble)
        sm = lowess(x, y, span=span, robust_iters=1)
        assert np.array_equal(sm.grid, grid)
        assert np.max(np.abs(sm.fitted - fitted)) <= 1e-10 * np.max(np.abs(y))

    def test_x_offset_by_1e6(self):
        rng = np.random.default_rng(17)
        x = 1e6 + rng.uniform(0, 1, 200)
        y = np.clip(np.cos(3.0 * (x - 1e6)) + rng.normal(0, 0.2, 200), -10.0, 10.0)
        for span in (0.1, 0.5, 1.0):
            self._agree(x, y, span, 3)

    @pytest.mark.parametrize("n", [1000, 1237])
    def test_several_blocks(self, n):
        height = diagnostics._LOWESS_BLOCK_CELLS // n
        assert 1 < height < n
        rng = np.random.default_rng(n)
        x = rng.uniform(-2, 2, n)
        y = np.clip(x**2 + rng.standard_t(2, n) * 0.3, -10.0, 10.0)
        self._agree(x, y, 2.0 / 3.0, 3)


class TestLowessCutoffs:
    @pytest.mark.parametrize("n", [2, 3, 50, 3000])
    def test_equal_to_partition(self, n):
        # x rounded to one decimal: many ties; and a 0.0 sorted ahead of a
        # -0.0, which differ by -0.0 where |x_j - x_i| is 0.0
        rng = np.random.default_rng(n)
        x = np.round(rng.normal(0.0, 1.0, n), 1)
        x[:2] = [0.0, -0.0]
        xs = np.sort(x, kind="stable")
        for r in sorted({2, int(np.ceil(2.0 * n / 3.0)), n}):
            want = np.concatenate([
                np.partition(np.abs(xs - xs[b : b + 500, None]), r - 1, axis=1)[:, r - 1]
                for b in range(0, n, 500)
            ])
            got = diagnostics._lowess_cutoffs(xs, r)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestResidualByPredictor:
    def test_column_input_and_label(self):
        rng = np.random.default_rng(9)
        x = Column.continuous("age", rng.uniform(20, 80, 50))
        r = rng.uniform(-1, 1, 50)
        plot = residual_by_predictor(x, r)
        assert plot.x_label == "age"
        assert plot.smooth.grid.size == np.unique(x.values).size

    def test_rejects_noncontinuous_column(self):
        x = Column.binary("b", np.zeros(20))
        with pytest.raises(InputError, match="continuous"):
            residual_by_predictor(x, np.zeros(20))

    def test_rejects_missing(self):
        x = Column.continuous("a", np.arange(20.0), missing=np.arange(20) == 3)
        with pytest.raises(InputError, match="complete_cases"):
            residual_by_predictor(x, np.zeros(20))

    def test_length_mismatch(self):
        with pytest.raises(InputError, match="length"):
            residual_by_predictor(np.arange(10.0), np.zeros(9))


class TestSvgRendering:
    def _qq(self):
        rng = np.random.default_rng(10)
        return qq_uniform(rng.uniform(-1, 1, 25))

    def _plot(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, 25)
        return residual_by_predictor(x, rng.uniform(-1, 1, 25))

    def test_qq_structure(self):
        svg = render_qq(self._qq())
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert 'width="640.00"' in svg and 'height="480.00"' in svg
        assert svg.count("<circle") == 25
        assert svg.count("<line ") == 1  # identity reference
        assert svg.count("<path") == 1  # axes
        assert "<polyline" not in svg
        assert "Residual uniformity (QQ)" in svg

    def test_residual_structure(self):
        svg = render_residual(self._plot(), title="residuals vs x")
        assert svg.count("<circle") == 25
        assert svg.count("<line ") == 1  # zero reference
        assert svg.count("<polyline") == 1  # smooth curve
        assert "residuals vs x" in svg

    def test_byte_determinism(self):
        assert render_qq(self._qq()) == render_qq(self._qq())
        assert render_residual(self._plot()) == render_residual(self._plot())

    def test_coordinates_are_fixed_precision(self):
        import re

        svg = render_qq(self._qq())
        for m in re.finditer(r'c[xy]="([-0-9.]+)"', svg):
            whole, frac = m.group(1).split(".")
            assert len(frac) == 2

    def test_degenerate_range_still_renders(self):
        svg = render_residual(
            residual_by_predictor(np.full(10, 3.0), np.zeros(10), span=1.0)
        )
        assert svg.count("<circle") == 10
