"""Rank association: bridges to classical Spearman, resampling, batch scan."""
import concurrent.futures
import copy
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from psrkit.data_model import Column, ColumnKind, Dataset, DesignMatrix
from psrkit.estimators import fit_linear_normal
from psrkit import rank_association as ra
from psrkit.exceptions import DegenerateFitError, InputError, NumericError, PsrKitError
from psrkit.psr import psr_all, psr_from_omers
from psrkit.rank_association import (
    ScanConfig,
    batch_partial_spearman,
    conditional_spearman,
    correlation_matrix,
    default_margin_model,
    margin_psr,
    partial_spearman,
    psr_covariance,
    psr_variance_discrete,
    spearman,
)
from psrkit.estimators import fit_empirical


class TestSpearmanBridge:
    def test_matches_midrank_spearman_with_ties(self):
        rng = np.random.default_rng(2)
        for trial in range(12):
            n = int(rng.integers(8, 120))
            x = rng.integers(0, 5, n).astype(float)
            y = np.round(0.5 * x + rng.normal(0, 1, n), int(rng.integers(0, 2)))
            if np.unique(x).size < 2 or np.unique(y).size < 2:
                continue
            ours = spearman(
                Column.continuous("x", x), Column.continuous("y", y)
            ).estimate
            ref = stats.spearmanr(x, y).statistic
            assert ours == pytest.approx(ref, abs=1e-12), trial

    def test_perfect_monotone_is_one(self):
        x = np.arange(25.0)
        r = spearman(
            Column.continuous("x", x), Column.continuous("y", np.exp(x))
        ).estimate
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_orderable_kinds_required(self):
        t = Column.right_censored("t", [1.0, 2.0, 3.0], [1, 1, 0])
        y = Column.continuous("y", [1.0, 2.0, 3.0])
        with pytest.raises(InputError):
            spearman(t, y)

    def test_missing_rejected(self):
        x = Column.continuous("x", [1.0, 2.0], missing=[True, False])
        y = Column.continuous("y", [1.0, 2.0])
        with pytest.raises(InputError, match="complete_cases"):
            spearman(x, y)


class TestVarianceFormula:
    def test_fair_coin_exact(self):
        assert psr_variance_discrete((0.5, 0.5)) == 0.25

    def test_continuous_limit(self):
        assert psr_variance_discrete(np.full(10_000, 1e-4)) == pytest.approx(
            1 / 3, abs=1e-4
        )

    def test_matches_empirical_psr_moments_exactly(self):
        # algebraic identity: mean squared intercept-only PSR equals
        # (1 - sum f^3)/3 computed from the observed frequencies
        rng = np.random.default_rng(5)
        vals = rng.integers(0, 4, 500).astype(float)
        col = Column.continuous("y", vals)
        r = psr_all(fit_empirical(col), col).values
        _, counts = np.unique(vals, return_counts=True)
        f = counts / vals.size
        assert abs(r.mean()) < 1e-14
        assert np.mean(r**2) == pytest.approx(psr_variance_discrete(f), abs=1e-12)

    def test_validation(self):
        with pytest.raises(InputError):
            psr_variance_discrete((0.5, 0.6))
        with pytest.raises(InputError):
            psr_variance_discrete((-0.1, 1.1))


class TestPartialSpearman:
    def test_reduces_to_spearman_without_z(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, 80)
        y = x + rng.normal(0, 1, 80)
        cx, cy = Column.continuous("x", x), Column.continuous("y", y)
        a = spearman(cx, cy).estimate
        b = partial_spearman(cx, cy, None, n_boot=0, n_perm=0).estimate
        assert a == pytest.approx(b, abs=1e-14)

    @pytest.mark.parametrize("equal_first", [True, False])
    def test_equal_nonzero_residuals_are_degenerate(self, equal_first):
        # equal residuals of a pair whose mean rounds off centre to a norm of about 2e-17
        u, v = np.full(3, 0.1), np.array([0.0, 1.0, 2.0])
        with pytest.raises(DegenerateFitError, match="zero variance"):
            ra._pearson(*((u, v) if equal_first else (v, u)))

    def test_adjusts_away_confounder(self):
        rng = np.random.default_rng(9)
        n = 500
        z = rng.normal(0, 1, n)
        x = z + rng.normal(0, 1, n)
        y = 2 * z + rng.normal(0, 1, n)
        cx, cy = Column.continuous("x", x), Column.continuous("y", y)
        Z = DesignMatrix(z[:, None], ("z",))
        un = spearman(cx, cy).estimate
        ad = partial_spearman(cx, cy, Z, n_boot=0, n_perm=0).estimate
        assert abs(un) > 0.4
        assert abs(ad) < abs(un) / 3

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0, 1, 60)
        y = 0.4 * x + rng.normal(0, 1, 60)
        z = rng.normal(0, 1, 60)
        cx, cy = Column.continuous("x", x), Column.continuous("y", y)
        Z = DesignMatrix(z[:, None], ("z",))
        r1 = partial_spearman(cx, cy, Z, n_boot=120, n_perm=120, seed=99)
        r2 = partial_spearman(cx, cy, Z, n_boot=120, n_perm=120, seed=99)
        assert (r1.ci_low, r1.ci_high, r1.p_value) == (r2.ci_low, r2.ci_high, r2.p_value)
        r3 = partial_spearman(cx, cy, Z, n_boot=120, n_perm=120, seed=100)
        assert (r1.ci_low, r1.ci_high) != (r3.ci_low, r3.ci_high)

    def test_seed_required_for_resampling(self):
        cx = Column.continuous("x", np.arange(10.0))
        cy = Column.continuous("y", np.arange(10.0) ** 2)
        with pytest.raises(InputError, match="seed"):
            partial_spearman(cx, cy, None)  # default resampling, no seed

    def test_seed_checked_before_the_margins_are_fitted(self):
        # a constant x would fail its fit; the missing seed is reported first
        cx = Column.continuous("x", np.ones(10))
        cy = Column.continuous("y", np.arange(10.0))
        with pytest.raises(InputError, match="seed"):
            partial_spearman(cx, cy, None, n_boot=0, n_perm=99)

    def test_ci_brackets_estimate_and_positive_signal_detected(self):
        rng = np.random.default_rng(11)
        n = 250
        x = rng.normal(0, 1, n)
        y = 0.9 * x + rng.normal(0, 1, n)
        cx, cy = Column.continuous("x", x), Column.continuous("y", y)
        res = partial_spearman(cx, cy, None, n_boot=300, n_perm=300, seed=4)
        assert res.ci_low < res.estimate < res.ci_high
        assert res.ci_low > 0  # strong positive association
        assert res.p_value == pytest.approx(1 / 301, abs=1e-12)
        kinds = {info.kind for info in res.resampling}
        assert kinds == {"bootstrap", "permutation"}

    def test_resampling_metadata(self):
        cx = Column.continuous("x", np.arange(30.0))
        cy = Column.continuous("y", np.arange(30.0) % 7)
        res = partial_spearman(cx, cy, None, n_boot=50, n_perm=0, seed=1)
        assert res.p_value is None
        assert res.resampling[0].n_draws == 50
        assert res.resampling[0].seed == 1

    @pytest.mark.parametrize("estimator", [partial_spearman, psr_covariance])
    def test_design_with_no_columns_is_no_design(self, estimator):
        # estimate, interval, p-value and notes are the ones without Z, bit for bit
        rng = np.random.default_rng(12)
        n = 80
        x = np.round(rng.normal(0, 1, n), 1)
        cx = Column.continuous("x", x)
        cy = Column.continuous("y", 0.5 * x + rng.normal(0, 1, n))
        empty = DesignMatrix(np.zeros((n, 0)), ())
        kw = dict(x_model="orm-logit", y_model="linear", n_boot=40, n_perm=40, seed=5)
        with_empty = estimator(cx, cy, empty, **kw)
        without = estimator(cx, cy, None, **kw)
        assert with_empty.ci_low < with_empty.estimate < with_empty.ci_high
        assert with_empty == without

    @pytest.mark.parametrize("y_model", ["linear", "exp-surv"])
    def test_replicate_that_loses_a_binary_level_fails_alone(self, y_model):
        # two of 40 rows carry z = 1, so about one resample in eight has a
        # constant z, collinear with the intercept: that replicate fails and
        # is dropped, and the interval comes from the others
        rng = np.random.default_rng(1)
        z = np.zeros(40)
        z[:2] = 1.0
        t = rng.exponential(1.0, 40)
        y = (
            Column.continuous("y", t)
            if y_model == "linear"
            else Column.right_censored("y", t, (rng.uniform(size=40) < 0.8).astype(float))
        )
        res = partial_spearman(
            Column.continuous("x", rng.normal(size=40)), y, DesignMatrix(z[:, None], ("z",)),
            x_model="empirical", y_model=y_model, n_boot=100, n_perm=0, seed=3,
        )
        assert len(res.notes) == 1
        assert res.notes[0].endswith("of 100 bootstrap replicates failed and were dropped")
        assert int(res.notes[0].split()[0]) > 0
        assert res.ci_low < res.estimate < res.ci_high


class TestMarginModels:
    def test_default_rules(self):
        cont = Column.continuous("x", np.arange(10.0))
        surv = Column.right_censored("t", np.arange(1.0, 11.0), np.ones(10))
        Z = DesignMatrix(np.arange(10.0)[:, None], ("z",))
        assert default_margin_model(cont, None) == "empirical"
        assert default_margin_model(cont, Z) == "orm-logit"
        assert default_margin_model(surv, Z) == "exp-surv"

    def test_linear_empirical_is_omer_rank_device(self):
        rng = np.random.default_rng(14)
        n = 90
        z = rng.normal(0, 1, n)
        y = 1.0 + 2.0 * z + rng.standard_t(3, n)
        col = Column.continuous("y", y)
        Z = DesignMatrix(z[:, None], ("z",))
        got = margin_psr(col, Z, "linear-empirical").values
        fit = fit_linear_normal(col, Z)
        resid = y - (fit.alpha[0] + z * fit.beta[0])
        want = psr_from_omers(resid).values
        assert np.array_equal(got, want)

    def test_results_name_the_fitted_margins(self):
        rng = np.random.default_rng(15)
        x = Column.continuous("x", rng.normal(0, 1, 40))
        y = Column.continuous("y", rng.normal(0, 1, 40))
        t = Column.right_censored("t", rng.exponential(1.0, 40), np.ones(40))
        Z = DesignMatrix(rng.normal(0, 1, (40, 1)), ("z",))
        fitted = [
            (spearman(x, y), ("empirical", "empirical")),
            (partial_spearman(x, y, None, n_boot=0, n_perm=0), ("empirical", "empirical")),
            (partial_spearman(x, t, Z, n_boot=0, n_perm=0), ("orm-logit", "exp-surv")),
            (psr_covariance(x, y, Z, y_model="linear"), ("orm-logit", "linear")),
        ]
        for res, models in fitted:
            assert (res.x_model, res.y_model) == models

    def test_unknown_model_rejected(self):
        col = Column.continuous("x", np.arange(5.0))
        with pytest.raises(InputError, match="margin model"):
            margin_psr(col, None, "quantile")

    def test_failed_member_fit_is_returned(self):
        # a member whose rows hold only zero counts fails; its neighbour fits
        col = Column.count("k", [0, 0, 0, 1, 2, 3, 0, 4])
        rows = [np.array([0, 1, 2, 6]), np.arange(8)]
        fits = ra._margin("poisson").fit_rows([col, col], None, rows)
        assert isinstance(fits[0], DegenerateFitError)
        assert str(fits[0]) == "column 'k': all counts are zero"
        assert fits[1].alpha[0] == pytest.approx(np.log(10 / 8), abs=1e-12)


#: every estimator over columns x, y and a design Z; conditional_spearman
#: conditions on Z's column
_ENTRY_POINTS = {
    "spearman": lambda x, y, Z: spearman(x, y),
    "partial_spearman": lambda x, y, Z: partial_spearman(x, y, Z, n_boot=0, n_perm=0),
    "psr_covariance": lambda x, y, Z: psr_covariance(x, y, Z),
    "conditional_spearman": lambda x, y, Z: conditional_spearman(
        x, y, Column.continuous("z", Z.matrix[:, 0])
    ),
    "batch_partial_spearman": lambda x, y, Z: batch_partial_spearman(
        y, Z, [x], ScanConfig(n_perm=0)
    ),
}


class TestColumnChecks:
    @pytest.mark.parametrize(
        "entry, defect",
        [(e, d) for e in _ENTRY_POINTS for d in ("short column", "missing cell", "short Z")
         if (e, d) != ("spearman", "short Z")],
    )
    def test_rejected_by_every_entry_point(self, entry, defect):
        rng = np.random.default_rng(26)
        n = 40
        z = rng.normal(0, 1, n)
        x = Column.continuous("x", z + rng.normal(0, 1, n))
        yv = z + rng.normal(0, 1, n)
        y = Column.continuous("y", yv)
        Z = DesignMatrix(z[:, None], ("z",))
        message = "different lengths|does not align"
        if defect == "short column":
            y = y.take(np.arange(n - 1))
        elif defect == "missing cell":
            y = Column.continuous("y", yv, missing=np.arange(n) == 7)
            message = "column 'y' has missing values"
        else:
            Z = Z.take(np.arange(n - 1))
        with pytest.raises(InputError, match=message):
            _ENTRY_POINTS[entry](x, y, Z)

    def test_short_predictor_rejected_before_the_outcome_is_fitted(self):
        # a constant outcome's linear-empirical fit would raise a numeric error
        y = Column.continuous("y", np.full(40, 2.0))
        short = Column.continuous("p", np.arange(39.0))
        with pytest.raises(InputError, match="predictor 'p' does not align"):
            batch_partial_spearman(y, None, [short], ScanConfig(n_perm=0))


class TestPsrCovariance:
    def test_hand_value_empirical_margins(self):
        x = Column.continuous("x", [1.0, 2.0, 3.0])
        y = Column.continuous("y", [1.0, 3.0, 2.0])
        res = psr_covariance(x, y)
        u = psr_from_omers(np.array([1.0, 2.0, 3.0])).values
        v = psr_from_omers(np.array([1.0, 3.0, 2.0])).values
        assert res.estimate == pytest.approx(float(np.mean(u * v)), abs=1e-15)

    def test_sign_matches_correlation(self):
        rng = np.random.default_rng(15)
        x = rng.normal(0, 1, 100)
        y = -0.8 * x + rng.normal(0, 1, 100)
        cx, cy = Column.continuous("x", x), Column.continuous("y", y)
        cov = psr_covariance(cx, cy).estimate
        cor = spearman(cx, cy).estimate
        assert np.sign(cov) == np.sign(cor)


class TestConditionalSpearman:
    def test_categorical_equals_per_stratum_spearman(self):
        rng = np.random.default_rng(16)
        n = 120
        g = rng.integers(0, 2, n).astype(float)
        x = rng.normal(0, 1, n)
        y = x * g + rng.normal(0, 1, n)
        res = conditional_spearman(
            Column.continuous("x", x),
            Column.continuous("y", y),
            Column.binary("g", g),
        )
        assert len(res) == 2
        for code, (label, r) in enumerate(res):
            rows = np.flatnonzero(g == code)
            direct = spearman(
                Column.continuous("x", x[rows]), Column.continuous("y", y[rows])
            ).estimate
            assert r.estimate == pytest.approx(direct, abs=1e-14)
            assert r.n_used == rows.size

    def test_ordinal_labels_returned(self):
        rng = np.random.default_rng(17)
        g = rng.integers(0, 2, 40).astype(float)
        res = conditional_spearman(
            Column.continuous("x", rng.normal(0, 1, 40)),
            Column.continuous("y", rng.normal(0, 1, 40)),
            Column.ordinal("g", g, ("low", "high")),
        )
        assert [label for label, _ in res] == ["low", "high"]

    def test_thin_stratum_rejected(self):
        g = np.array([0.0] * 10 + [1.0] * 3)
        with pytest.raises(InputError, match="fewer than 5 rows: 1$"):
            conditional_spearman(
                Column.continuous("x", np.arange(13.0)),
                Column.continuous("y", np.arange(13.0)),
                Column.binary("g", g),
            )

    def test_thin_ordinal_levels_named_by_label(self):
        z = Column.ordinal("g", [0.0] * 6 + [1.0] * 3 + [2.0] * 4, ("low", "mid", "high"))
        x = Column.continuous("x", np.arange(13.0))
        with pytest.raises(InputError, match="fewer than 5 rows: mid, high$"):
            conditional_spearman(x, x, z)

    def test_continuous_recovers_effect_modification(self):
        rng = np.random.default_rng(18)
        n = 400
        z = rng.uniform(0, 1, n)
        x = rng.normal(0, 1, n)
        y = x * z + rng.normal(0, 0.5, n)
        curve = conditional_spearman(
            Column.continuous("x", x),
            Column.continuous("y", y),
            Column.continuous("z", z),
            n_grid=11,
        )
        assert len(curve) == 11
        est = [r.estimate for _, r in curve]
        assert est[-1] > est[0] + 0.2

    def test_continuous_needs_30_rows(self):
        with pytest.raises(InputError, match="30"):
            conditional_spearman(
                Column.continuous("x", np.arange(10.0)),
                Column.continuous("y", np.arange(10.0)),
                Column.continuous("z", np.arange(10.0)),
            )

    def test_degenerate_bandwidth_rejected(self):
        n = 40
        with pytest.raises(InputError, match="bandwidth"):
            conditional_spearman(
                Column.continuous("x", np.arange(float(n))),
                Column.continuous("y", np.arange(float(n))),
                Column.continuous("z", np.full(n, 2.0)),
            )

    def test_grid_point_without_data_has_no_p_value(self):
        # two clusters of z, 100 apart: at the middle grid point every
        # kernel weight underflows to 0, so there is no estimate to test
        rng = np.random.default_rng(3)
        z = np.concatenate([rng.normal(0, 1, 30), rng.normal(100, 1, 30)])
        x = rng.normal(0, 1, 60)
        y = x + rng.normal(0, 1, 60)
        curve = conditional_spearman(
            Column.continuous("x", x), Column.continuous("y", y), Column.continuous("z", z),
            n_grid=5, bandwidth=1.0, n_perm=99, n_boot=20, seed=1,
        )
        empty = curve[2][1]
        assert np.isnan([empty.estimate, empty.p_value, empty.ci_low, empty.ci_high]).all()
        for g in (0, 1, 3, 4):
            r = curve[g][1]
            assert not np.isnan([r.estimate, r.p_value, r.ci_low, r.ci_high]).any()

    @pytest.mark.parametrize("z_kind", ["binary", "continuous"])
    def test_censored_x_takes_the_default_margin(self, z_kind):
        rng = np.random.default_rng(4)
        zv = rng.normal(0, 1, 60)
        if z_kind == "binary":
            zv = (zv > 0).astype(float)
        t = rng.exponential(np.exp(-0.5 * zv))
        x = Column.right_censored("t", t, (rng.random(60) < 0.7).astype(float))
        y = Column.continuous("y", zv + rng.normal(0, 1, 60))
        z = Column(z_kind, ColumnKind(z_kind), zv, np.zeros(60, dtype=bool))
        kw = dict(n_grid=3, n_boot=4, n_perm=9, seed=1)
        got = conditional_spearman(x, y, z, **kw)
        y_model = "empirical" if z_kind == "binary" else "orm-logit"
        assert got == conditional_spearman(x, y, z, x_model="exp-surv", y_model=y_model, **kw)
        assert len(got) == (2 if z_kind == "binary" else 3)


def _curve_columns():
    rng = np.random.default_rng(31)
    n = 60
    z = rng.uniform(-1, 1, n)
    x = rng.normal(0, 1, n)
    y = z * x + rng.normal(0, 1, n)
    return Column.continuous("x", x), Column.continuous("y", y), Column.continuous("z", z)


def _curve(n_boot=30, n_perm=39):
    cx, cy, cz = _curve_columns()
    return conditional_spearman(
        cx, cy, cz, n_grid=5, n_boot=n_boot, n_perm=n_perm, seed=7
    )


def _partial(n_boot=30, n_perm=39):
    cx, cy, _ = _curve_columns()
    return partial_spearman(cx, cy, None, n_boot=n_boot, n_perm=n_perm, seed=7)


def _fail_x_refits(monkeypatch, failing):
    """Make the replicate fitter return a NumericError for the x refit of
    each bootstrap replicate whose 1-based number is in ``failing``."""
    done = [0]
    real = ra._MarginModel.fit_rows

    def flaky(self, cols, Z, rows):
        fits = real(self, cols, Z, rows)
        if cols[0].name != "x":
            return fits
        first = done[0]
        done[0] += len(fits)
        return [
            NumericError("injected refit failure") if first + k + 1 in failing else fit
            for k, fit in enumerate(fits)
        ]

    monkeypatch.setattr(ra._MarginModel, "fit_rows", flaky)


def _fail_x_refits_by_rows(monkeypatch, error):
    """Make the x refit of each bootstrap replicate whose row indices sum to
    a multiple of 5 an ``error("injected refit failure")``.  The choice
    depends on the replicate alone, so worker processes make the same one."""
    real = ra._MarginModel.fit_rows

    def flaky(self, cols, Z, rows):
        fits = real(self, cols, Z, rows)
        if cols[0].name != "x":
            return fits
        return [
            error("injected refit failure") if int(idx.sum()) % 5 == 0 else fit
            for idx, fit in zip(rows, fits)
        ]

    monkeypatch.setattr(ra._MarginModel, "fit_rows", flaky)


def _spy_pools(monkeypatch):
    """The ``max_workers`` of each process pool the module starts."""
    pools = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return pools


def _separable_columns():
    """x = 1[z > 0] but for the row with the largest z: resamples that leave
    that row out are completely separated."""
    rng = np.random.default_rng(12)
    z = rng.normal(0, 1, 40)
    x = (z > 0).astype(float)
    x[np.argmax(z)] = 0.0
    y = z + rng.normal(0, 1, 40)
    return Column.binary("x", x), Column.continuous("y", y), DesignMatrix(z[:, None], ("z",))


def _reference_bootstrap(x, y, Z, n_boot, seed, failing=()):
    """A per-replicate pairs bootstrap of the partial Spearman with orm-logit
    margins: one ``margin_psr`` refit of each margin per replicate, capped
    replicates counted from the warnings the refits raise.  Returns the
    percentile interval and the notes."""
    rng = ra._substream(seed, ra._TAG_BOOT)
    draws, capped = [], 0
    for b in range(1, n_boot + 1):
        idx = rng.integers(0, x.n, size=x.n)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                if b in failing:
                    raise NumericError("injected refit failure")
                u = margin_psr(x.take(idx), Z.take(idx), "orm-logit").values
                v = margin_psr(y.take(idx), Z.take(idx), "orm-logit").values
                draws.append(ra._pearson(u, v))
            except NumericError:
                pass
        capped += any("coefficients capped" in str(w.message) for w in caught)
    notes = []
    if len(draws) < n_boot:
        notes.append(f"{n_boot - len(draws)} of {n_boot} bootstrap replicates failed and were dropped")
    if capped:
        notes.append(f"{capped} of {n_boot} bootstrap replicates capped coefficients")
    lo, hi = np.percentile(draws, [2.5, 97.5])
    return lo, hi, tuple(notes)


class TestResamplingEngine:
    def test_seeded_curve_inference(self):
        curve = _curve()
        assert curve == _curve()
        for _, r in curve:
            assert (r.p_value * 40) == pytest.approx(round(r.p_value * 40), abs=1e-9)
            assert r.ci_low <= r.ci_high
            assert r.notes == ()
            assert {i.kind for i in r.resampling} == {"bootstrap", "permutation"}
        # values captured with the stacked Newton loop on (alpha, beta),
        # upper-tail probabilities from the survival function and bootstrap
        # refits as weighted members of one stacked fit, the numpy logit
        # link and the numpy cyclic-reduction banded solve, same seed; ci_low
        # recaptured once every member, whatever its size, took that solve
        z, r = curve[3]
        assert z == 0.5012730521944495
        assert r.estimate == 0.543464371626495
        assert (r.ci_low, r.ci_high) == (0.31556512320320784, 0.7076936012595837)
        assert r.p_value == 0.025
        assert curve[2][1].p_value == 0.625

    def test_curve_counts_failed_replicates(self, monkeypatch):
        _fail_x_refits(monkeypatch, {2, 5})
        curve = _curve(n_boot=20, n_perm=0)
        for _, r in curve:
            assert r.notes == ("2 of 20 bootstrap replicates failed and were dropped",)
            assert r.ci_low <= r.ci_high

    @pytest.mark.parametrize("estimate", [_partial, _curve], ids=["partial", "curve"])
    def test_too_few_usable_replicates_raise(self, monkeypatch, estimate):
        # 9 of 20 replicates usable: one short of half
        _fail_x_refits(monkeypatch, set(range(10, 21)))
        with pytest.raises(NumericError, match="only 9 of 20 replicates usable"):
            estimate(n_boot=20, n_perm=0)

    def test_capped_replicates_counted_after_failures(self, monkeypatch):
        _fail_x_refits(monkeypatch, {1})
        r = partial_spearman(*_separable_columns(), n_boot=20, n_perm=0, seed=3)
        assert r.notes == (
            "1 of 20 bootstrap replicates failed and were dropped",
            "4 of 20 bootstrap replicates capped coefficients",
        )

    def test_capped_count_does_not_depend_on_which_margin_is_x(self, monkeypatch):
        # the continuous column's refits fail in replicates 1-7, some of
        # which capped the separable column's refit
        sep, y, Z = _separable_columns()
        w, x = Column.binary("w", sep.values), Column.continuous("x", y.values)

        def notes(*pair):
            with monkeypatch.context() as m:
                _fail_x_refits(m, set(range(1, 8)))
                return partial_spearman(
                    *pair, Z, x_model="orm-logit", y_model="orm-logit", n_boot=20, n_perm=0, seed=3
                ).notes

        assert notes(x, w) == notes(w, x) == (
            "7 of 20 bootstrap replicates failed and were dropped",
            "4 of 20 bootstrap replicates capped coefficients",
        )


class TestDrawCounts:
    """A negative draw count, a single bootstrap replicate or fewer than one
    worker is an input error raised before any fit."""

    @pytest.fixture
    def no_fits(self, monkeypatch):
        fits = []
        monkeypatch.setattr(ra, "margin_psr", lambda *args: fits.append(args))
        yield
        assert fits == []

    @pytest.mark.parametrize(
        "kw, text",
        [({"n_perm": -3}, "n_perm"), ({"n_boot": -1}, "n_boot"), ({"n_boot": 1}, "n_boot")],
        ids=["perm-negative", "boot-negative", "boot-one"],
    )
    def test_estimators_reject(self, no_fits, kw, text):
        cx, cy, cz = _curve_columns()
        Z = DesignMatrix(cz.values[:, None], ("z",))
        for call in (
            lambda: partial_spearman(cx, cy, Z, **{"n_boot": 0, "n_perm": 0, **kw}, seed=1),
            lambda: spearman(cx, cy, **kw, seed=1),
            lambda: conditional_spearman(cx, cy, cz, **kw, seed=1),
        ):
            with pytest.raises(InputError, match=text):
                call()

    def test_scan_and_matrix_reject_negative_perm(self, no_fits):
        cx, cy, _ = _curve_columns()
        with pytest.raises(InputError, match="n_perm"):
            batch_partial_spearman(cy, None, [cx], ScanConfig(n_perm=-3, seed=1))
        d = Dataset([cx, cy])
        with pytest.raises(InputError, match="n_perm"):
            correlation_matrix(d, ["x", "y"], None, n_perm=-3, seed=1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_partial_spearman_rejects_workers_below_one(self, no_fits, workers):
        cx, cy, cz = _curve_columns()
        Z = DesignMatrix(cz.values[:, None], ("z",))
        with pytest.raises(InputError, match=f"workers must be >= 1, got {workers}"):
            partial_spearman(cx, cy, Z, n_boot=20, n_perm=0, seed=1, workers=workers)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_scan_rejects_workers_below_one(self, no_fits, workers):
        cx, cy, _ = _curve_columns()
        config = ScanConfig(n_perm=9, workers=workers, seed=1)
        with pytest.raises(InputError, match=f"workers must be >= 1, got {workers}"):
            batch_partial_spearman(cy, None, [cx], config)


class TestStackedBootstrap:
    """The orm-* refits of a block of replicates are one weighted stacked fit."""

    @pytest.mark.parametrize("data", ["continuous", "separable"])
    def test_matches_per_replicate_refits(self, monkeypatch, data):
        if data == "continuous":
            cx, cy, cz = _curve_columns()
            x, y, Z, failing = cx, cy, DesignMatrix(cz.values[:, None], ("z",)), ()
        else:
            (x, y, Z), failing = _separable_columns(), {1}
            _fail_x_refits(monkeypatch, failing)
        lo, hi, notes = _reference_bootstrap(x, y, Z, 20, 3, failing)
        r = partial_spearman(
            x, y, Z, x_model="orm-logit", y_model="orm-logit", n_boot=20, n_perm=0, seed=3
        )
        assert abs(r.ci_low - lo) <= 1e-12 and abs(r.ci_high - hi) <= 1e-12
        assert r.notes == notes
        if data == "separable":
            assert notes == (
                "1 of 20 bootstrap replicates failed and were dropped",
                "4 of 20 bootstrap replicates capped coefficients",
            )

    @pytest.mark.parametrize("per_block", [1, 7])
    def test_interval_does_not_depend_on_blocks(self, monkeypatch, per_block):
        x, y, Z = _separable_columns()

        def run():
            return partial_spearman(x, y, Z, n_boot=20, n_perm=0, seed=3)

        whole = run()
        monkeypatch.setattr(ra, "_BOOT_BLOCK_CELLS", per_block * x.n)
        blocked = run()
        assert abs(blocked.ci_low - whole.ci_low) <= 1e-12
        assert abs(blocked.ci_high - whole.ci_high) <= 1e-12
        assert blocked.notes == whole.notes

    @pytest.mark.parametrize("data", ["continuous", "separable"])
    def test_worker_processes_give_the_serial_result(self, monkeypatch, data):
        if data == "continuous":
            cx, cy, cz = _curve_columns()
            x, y, Z = cx, cy, DesignMatrix(cz.values[:, None], ("z",))
        else:
            x, y, Z = _separable_columns()
        _fail_x_refits_by_rows(monkeypatch, NumericError)
        # blocks of 7, 7 and 6 replicates
        monkeypatch.setattr(ra, "_BOOT_BLOCK_CELLS", 7 * x.n)

        def run(workers):
            return partial_spearman(
                x, y, Z, x_model="orm-logit", y_model="orm-logit",
                n_boot=20, n_perm=0, seed=3, workers=workers,
            )

        serial = run(1)
        pools = _spy_pools(monkeypatch)
        assert run(2) == serial
        assert run(5) == serial
        assert pools == [2, 3]
        assert serial.notes[0].endswith("bootstrap replicates failed and were dropped")
        if data == "separable":
            assert serial.notes[1].endswith("bootstrap replicates capped coefficients")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_other_errors_propagate_from_workers(self, monkeypatch, workers):
        x, y, Z = _separable_columns()
        _fail_x_refits_by_rows(monkeypatch, InputError)
        monkeypatch.setattr(ra, "_BOOT_BLOCK_CELLS", 7 * x.n)
        pools = _spy_pools(monkeypatch)
        with pytest.raises(InputError, match="injected refit failure"):
            partial_spearman(x, y, Z, n_boot=20, n_perm=0, seed=3, workers=workers)
        assert pools == ([2] if workers == 2 else [])


def _loop_pvalue(u, v, observed, n_perm, rng, stat):
    """One ``rng.permutation`` and one 1-d statistic per draw."""
    hits = 0
    for _ in range(n_perm):
        hits = hits + (np.abs(stat(u, rng.permutation(v), None)) >= np.abs(observed))
    return (1 + hits) / (n_perm + 1)


def _spy_perm_pvalue(monkeypatch):
    """Record the arguments of every permutation test, with the generator
    as it stood before the draws."""
    calls = []
    real = ra._perm_pvalue

    def spy(u, v, observed, n_perm, rng, stat):
        calls.append((u, v, observed, n_perm, copy.deepcopy(rng), stat))
        return real(u, v, observed, n_perm, rng, stat)

    monkeypatch.setattr(ra, "_perm_pvalue", spy)
    return calls


class TestBlockedPermutations:
    @pytest.mark.parametrize("rows", [1, 7, 23, None], ids=["1", "7", "all", "default"])
    def test_blocks_draw_the_sequential_permutations(self, monkeypatch, rows):
        n, n_perm = 30, 23
        if rows is not None:
            monkeypatch.setattr(ra, "_PERM_BLOCK_CELLS", rows * n)
        stacks = []

        def record(u, v, rows):
            stacks.append(v.copy())
            return np.zeros(len(v))

        rng = ra._substream(11, ra._TAG_SCAN, 4)
        ra._perm_pvalue(np.zeros(n), np.arange(float(n)), 1.0, n_perm, rng, record)
        rng = ra._substream(11, ra._TAG_SCAN, 4)
        expected = [rng.permutation(n) for _ in range(n_perm)]
        assert np.array_equal(np.vstack(stacks), expected)
        if rows is not None:
            assert [len(s) for s in stacks[:-1]] == [rows] * (len(stacks) - 1)

    def test_block_size_and_per_draw_reference(self, monkeypatch):
        cx, cy, cz = _curve_columns()
        n, n_perm = cx.n, 39

        def run():
            return [
                spearman(cx, cy, n_perm=n_perm, seed=3).p_value,
                psr_covariance(cx, cy, n_perm=n_perm, seed=3).p_value,
                *[r.p_value for _, r in conditional_spearman(
                    cx, cy, cz, n_grid=4, n_perm=n_perm, seed=3
                )],
            ]

        calls = _spy_perm_pvalue(monkeypatch)
        p_default = run()
        for rows in (1, n_perm):
            monkeypatch.setattr(ra, "_PERM_BLOCK_CELLS", rows * n)
            assert run() == p_default
        # continuous data: no permuted statistic ties the observed one
        assert [call[5] for call in calls[:2]] == [ra._pearson, ra._mean_product]
        reference = []
        for call in calls[:3]:
            reference.extend(np.atleast_1d(_loop_pvalue(*call)))
        assert reference == p_default

    def test_exact_ties_count_as_extreme(self):
        # binary x against a 3-level y: the numerator of each permuted
        # Spearman is an integer sum, so ties with the observed one are exact
        rng = np.random.default_rng(2024)
        n, n_perm, seed = 40, 199, 0
        x = rng.integers(0, 2, n).astype(float)
        y = rng.integers(0, 3, n)

        def scaled_psr(a):  # n * (F(a-) + F(a) - 1), in integers
            return np.array([np.sum(a < t) + np.sum(a <= t) - n for t in a])

        U, V = scaled_psr(x), scaled_psr(y)
        rng = ra._substream(seed, ra._TAG_PERM)
        extreme = sum(
            abs(U @ V[rng.permutation(n)]) >= abs(U @ V) for _ in range(n_perm)
        )
        r = spearman(
            Column.binary("x", x), Column.ordinal("y", y, ("a", "b", "c")),
            n_perm=n_perm, seed=seed,
        )
        assert r.p_value == (1 + extreme) / (n_perm + 1)


def _gathered_pearson(u, v, rows=None):
    """Pearson of u with each row of a stack, each row centred on its own mean."""
    uc = u - u.mean()
    vc = v - v.mean(axis=1, keepdims=True)
    return (vc @ uc) / (np.sqrt(uc @ uc) * np.sqrt(np.einsum("ij,ij->i", vc, vc)))


def _gathered_pvalue(u, v, observed, n_perm, rng, stat):
    """The blocked permutation p-value with each block's draws taken as
    ``v`` gathered at permuted index rows."""
    n = v.size
    block = max(1, ra._PERM_BLOCK_CELLS // n)
    target = np.abs(observed) - ra._TIE_EPS
    hits = 0
    for start in range(0, n_perm, block):
        index = np.tile(np.arange(n), (min(block, n_perm - start), 1))
        stats_ = stat(u, v[rng.permuted(index, axis=1)], None)
        hits = hits + np.count_nonzero(np.abs(stats_) >= target, axis=0)
    return (1 + hits) / (n_perm + 1)


@st.composite
def tied_pairs(draw):
    """Residual-like vectors u and v with few distinct values, so that many
    permuted statistics tie the observed one, exactly or to rounding."""
    n = draw(st.integers(3, 300))
    levels = st.integers(1, 3)
    ku, kv = draw(levels), draw(levels)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    u = (rng.integers(0, ku + 1, n) - ku / 2) / n
    v = (rng.integers(0, kv + 1, n) - kv / 2) / n
    assume(np.ptp(u) > 0 and np.ptp(v) > 0)
    return u, v, seed


class TestDrawPath:
    @pytest.mark.parametrize("n", [3, 40, 300])
    def test_permuted_values_equal_gathered_index_rows(self, n):
        v = np.random.default_rng(n).normal(size=n)
        for rows in (1, 7, ra._PERM_BLOCK_CELLS // n):
            by_index = ra._substream(5, ra._TAG_SCAN, n)
            by_value = ra._substream(5, ra._TAG_SCAN, n)
            for _ in range(3):
                index = np.tile(np.arange(n), (rows, 1))
                gathered = v[by_index.permuted(index, axis=1)]
                stack = np.tile(v, (rows, 1))
                by_value.permuted(stack, axis=1, out=stack)
                assert stack.tobytes() == gathered.tobytes()

    @given(tied_pairs(), st.integers(1, 60), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_pvalue_equals_gathered_reference(self, pair, n_perm, rows):
        u, v, seed = pair
        for stat, reference in (
            (ra._pearson, _gathered_pearson),
            (ra._mean_product, ra._mean_product),
        ):
            observed = stat(u, v, None)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ra, "_PERM_BLOCK_CELLS", rows * u.size)
                got = ra._perm_pvalue(
                    u, v, observed, n_perm, ra._substream(seed, ra._TAG_PERM), stat
                )
                want = _gathered_pvalue(
                    u, v, observed, n_perm, ra._substream(seed, ra._TAG_PERM), reference
                )
            assert got == want

    @given(tied_pairs())
    @settings(max_examples=40, deadline=None)
    def test_stacked_pearson_matches_each_row(self, pair):
        u, v, seed = pair
        rng = np.random.default_rng(seed)
        stack = np.stack([rng.permutation(v) for _ in range(7)])
        rowwise = [ra._pearson(u, row) for row in stack]
        assert np.allclose(ra._pearson(u, stack), rowwise, rtol=0, atol=1e-15)


class TestBatchScan:
    def _setup(self, rng, n=150, n_null=10):
        z = rng.normal(0, 1, n)
        y = 0.7 * z + rng.normal(0, 1, n)
        planted = np.round(y + rng.normal(0, 0.7, n), 1)
        preds = [Column.continuous("planted", planted)]
        for k in range(n_null):
            vals = rng.integers(0, 3, n).astype(float)
            miss = np.zeros(n, bool)
            miss[rng.integers(0, n, 4)] = True
            preds.append(
                Column.continuous(f"null{k}", np.where(miss, 0, vals), missing=miss)
            )
        return Column.continuous("y", y), DesignMatrix(z[:, None], ("z",)), preds

    def test_planted_ranks_first_and_rows_complete(self):
        rng = np.random.default_rng(20)
        y, Z, preds = self._setup(rng)
        rows = batch_partial_spearman(
            y, Z, preds, ScanConfig(n_perm=199, seed=31)
        )
        assert len(rows) == len(preds)
        assert rows[0].name == "planted"
        assert rows[0].rank == 1
        ranks = [r.rank for r in rows if r.status == "ok"]
        assert ranks == sorted(ranks)
        p_sorted = [r.p_value for r in rows if r.status == "ok"]
        assert p_sorted == sorted(p_sorted)
        for r in rows:
            if r.name.startswith("null"):
                assert r.n_used < y.n  # missing cells dropped per predictor

    def test_worker_parity_and_determinism(self):
        rng = np.random.default_rng(21)
        y, Z, preds = self._setup(rng, n=100, n_null=6)
        cfg1 = ScanConfig(n_perm=99, seed=7, workers=1)
        cfg2 = ScanConfig(n_perm=99, seed=7, workers=3)
        r1 = batch_partial_spearman(y, Z, preds, cfg1)
        r2 = batch_partial_spearman(y, Z, preds, cfg2)
        r3 = batch_partial_spearman(y, Z, preds, cfg1)
        assert r1 == r2 == r3

    def test_degenerate_and_failed_predictors_reported(self):
        rng = np.random.default_rng(22)
        y, Z, preds = self._setup(rng, n=60, n_null=2)
        flat = Column.continuous("flat", np.full(60, 1.0))
        thin = Column.continuous(
            "thin", np.zeros(60), missing=np.array([False] * 2 + [True] * 58)
        )
        rows = batch_partial_spearman(
            y, Z, preds + [flat, thin], ScanConfig(n_perm=19, seed=3)
        )
        by_name = {r.name: r for r in rows}
        assert by_name["flat"].status == "degenerate"
        assert by_name["flat"].rank is None
        assert by_name["thin"].status == "failed"
        ok_names = [r.name for r in rows if r.status == "ok"]
        assert set(ok_names) == {"planted", "null0", "null1"}

    def test_capped_fit_notes_in_detail(self):
        rng = np.random.default_rng(24)
        n = 200
        age_z = rng.normal(0, 1, n)
        sex = rng.integers(0, 2, n).astype(float)
        y = Column.continuous("y", age_z + rng.normal(0, 1, n))
        Z = DesignMatrix(np.column_stack([age_z, sex]), ("age_z", "sex"))
        x = Column.continuous("x", (age_z > 0).astype(float))
        (row,) = batch_partial_spearman(y, Z, [x], ScanConfig(n_perm=9, seed=5))
        assert row.status == "ok"
        assert "capped" in row.detail

    def test_only_separation_warnings_silenced(self, monkeypatch):
        rng = np.random.default_rng(24)
        n = 200
        age_z = rng.normal(0, 1, n)
        y = Column.continuous("y", age_z + rng.normal(0, 1, n))
        Z = DesignMatrix(age_z[:, None], ("age_z",))
        x = Column.continuous("x", (age_z > 0).astype(float))
        real = ra.fit_cumulative_link_batch

        def noisy(cols, Z, link, **kw):
            if any(col.name == "x" for col in cols):
                warnings.warn("an unrelated fit warning")
            return real(cols, Z, link, **kw)

        monkeypatch.setattr(ra, "fit_cumulative_link_batch", noisy)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (row,) = batch_partial_spearman(y, Z, [x], ScanConfig(n_perm=9, seed=5))
        assert "capped" in row.detail
        assert [str(w.message) for w in caught] == ["an unrelated fit warning"]

    @pytest.mark.parametrize("x_model", ["orm-logit", "linear"])
    def test_block_of_constant_predictors(self, x_model):
        rng = np.random.default_rng(25)
        y, Z, _ = self._setup(rng, n=50, n_null=0)
        flat = [Column.continuous(f"flat{k}", np.full(50, float(k))) for k in range(3)]
        rows = batch_partial_spearman(
            y, Z, flat, ScanConfig(x_model=x_model, n_perm=9, seed=5)
        )
        assert [(r.name, r.status) for r in rows] == [(c.name, "degenerate") for c in flat]

    def test_predictor_equal_to_a_z_column_is_degenerate(self):
        rng = np.random.default_rng(26)
        n = 80
        age = rng.normal(size=n)
        sex = (rng.random(n) < 0.5).astype(float)
        y = Column.continuous("y", age + sex + rng.normal(size=n))
        Z = DesignMatrix(np.column_stack([age, sex]), ("age", "sex"))
        (row,) = batch_partial_spearman(
            y, Z, [Column.binary("sex", sex)], ScanConfig(n_perm=9, seed=5)
        )
        assert (row.status, row.detail) == (
            "degenerate", "predictor residuals have (near) zero variance given Z"
        )

    @pytest.mark.parametrize("x_model", ["orm-logit", "linear"])
    def test_equal_outcome_residuals_on_predictor_rows_are_degenerate(self, x_model):
        # the outcome's residuals at its three tied rows are all 0.1, whose mean
        # rounds to 0.10000000000000002: equal values, not a correlation of noise
        y = Column.continuous("y", [1, 2, 3, 5, 5, 5, 7, 8, 9, 4])
        miss = np.ones(10, bool)
        miss[3:6] = False
        x = Column.continuous("x", np.where(miss, 0.0, np.arange(10.0) - 3.0), missing=miss)
        (row,) = batch_partial_spearman(
            y, None, [x], ScanConfig(x_model=x_model, n_perm=99, seed=1)
        )
        assert (row.status, row.detail, row.rank, row.n_used) == (
            "degenerate", "residual vector has zero variance (constant column?)", None, 3
        )

    def test_seed_required(self):
        rng = np.random.default_rng(23)
        y, Z, preds = self._setup(rng, n=50, n_null=1)
        with pytest.raises(InputError, match="seed"):
            batch_partial_spearman(y, Z, preds, ScanConfig(n_perm=10))

    def test_outcome_failure_aborts(self):
        y = Column.continuous("y", np.full(40, 2.0))
        preds = [Column.continuous("p", np.arange(40.0))]
        with pytest.raises(Exception):
            batch_partial_spearman(y, None, preds, ScanConfig(n_perm=9, seed=1))


class TestCorrelationMatrix:
    def test_empty_z_triangles_agree(self):
        rng = np.random.default_rng(24)
        n = 80
        a = rng.normal(0, 1, n)
        b = a + rng.normal(0, 1, n)
        c = rng.normal(0, 1, n)
        d = Dataset(
            (
                Column.continuous("a", a),
                Column.continuous("b", b),
                Column.continuous("c", c),
            )
        )
        names, est, pval, notes = correlation_matrix(
            d, ["a", "b", "c"], None, n_perm=99, seed=6
        )
        assert np.allclose(np.diag(est), 1.0)
        for i in range(3):
            for j in range(i + 1, 3):
                assert est[i, j] == pytest.approx(est[j, i], abs=1e-14)
        assert notes == []

    def test_adjustment_shrinks_induced_dependence(self):
        rng = np.random.default_rng(25)
        n = 300
        z = rng.normal(0, 1, n)
        cols = [
            Column.continuous(f"m{i}", z + rng.normal(0, 0.7, n)) for i in range(3)
        ]
        d = Dataset(tuple(cols))
        Z = DesignMatrix(z[:, None], ("z",))
        _, est, _, _ = correlation_matrix(d, [c.name for c in cols], Z, n_perm=0)
        upper = [abs(est[i, j]) for i in range(3) for j in range(i + 1, 3)]
        lower = [abs(est[j, i]) for i in range(3) for j in range(i + 1, 3)]
        assert np.mean(lower) < np.mean(upper)

    def test_failed_pair_leaves_nan_and_note(self):
        d = Dataset(
            (
                Column.continuous("a", np.arange(20.0)),
                Column.continuous("b", np.arange(20.0) % 3),
                Column.right_censored("t", np.arange(1.0, 21.0), np.ones(20)),
            )
        )
        names, est, pval, notes = correlation_matrix(
            d, ["a", "b", "t"], None, n_perm=0
        )
        assert np.isnan(est[0, 2])  # censored column has no unadjusted spearman
        assert not np.isnan(est[0, 1])
        assert notes

    def test_needs_two_columns(self):
        d = Dataset((Column.continuous("a", np.arange(5.0)),))
        with pytest.raises(InputError):
            correlation_matrix(d, ["a"], None, n_perm=0)

    def test_seed_required_before_any_fit(self, monkeypatch):
        d = Dataset(
            (Column.continuous("a", np.arange(20.0)), Column.continuous("b", np.arange(20.0) % 7))
        )
        fits = []
        monkeypatch.setattr(ra, "margin_psr", lambda *args: fits.append(args))
        with pytest.raises(InputError, match="seed"):
            correlation_matrix(d, ["a", "b"], None, n_perm=9, seed=None)
        assert fits == []


def _reference_matrix(d, names, Z, n_perm, seed):
    """``correlation_matrix`` as the public estimators give it: each pair's
    complete rows scored by ``spearman`` and ``partial_spearman``."""
    k = len(names)
    est, pval, notes = np.eye(k), np.full((k, k), np.nan), []
    for i in range(k):
        for j in range(i + 1, k):
            ci, cj = d[names[i]], d[names[j]]
            rows = np.flatnonzero(~ci.missing & ~cj.missing)
            if rows.size < 3:
                notes.append(f"{names[i]}/{names[j]}: fewer than 3 complete rows")
                est[i, j] = est[j, i] = np.nan
                continue
            xs, ys = ci.take(rows), cj.take(rows)
            Zs = Z.take(rows) if Z is not None else None
            pair_seed = ra._fold_seed(seed, ra._TAG_PAIR, i, j)
            scores = (
                ((i, j), "unadjusted", lambda: spearman(xs, ys, n_perm=n_perm, seed=pair_seed)),
                ((j, i), "adjusted", lambda: partial_spearman(
                    xs, ys, Zs, n_boot=0, n_perm=n_perm, seed=pair_seed
                )),
            )
            for cell, label, score in scores:
                try:
                    res = score()
                except PsrKitError as exc:
                    notes.append(f"{names[i]}/{names[j]} {label}: {exc}")
                    est[cell] = np.nan
                else:
                    est[cell] = res.estimate
                    pval[cell] = np.nan if res.p_value is None else res.p_value
    return est, pval, notes


def _matrix_panel(seed, missing_share, n=48):
    """A biomarker panel with every kind of pair the matrix meets: distinct
    and tied values, an ordinal and a censored column, a constant column, a
    binary column that Z separates and a column with 2 observed cells; each
    column but the last misses about ``missing_share`` of its cells."""
    rng = np.random.default_rng(seed)
    age = rng.normal(size=n)
    sex = (rng.random(n) < 0.5).astype(float)
    sex[:2] = 0.0, 1.0
    shared = age + sex

    def gaps():
        return rng.random(n) < missing_share

    thin = np.ones(n, bool)
    thin[rng.choice(n, 2, replace=False)] = False
    cols = (
        Column.continuous("a", shared + rng.normal(size=n), gaps()),
        Column.continuous("b", np.round(shared + rng.normal(size=n)), gaps()),
        Column.ordinal("c", np.clip(np.round(shared + 1), 0, 2), ("lo", "mid", "hi"), gaps()),
        Column.continuous("flat", np.full(n, 2.0), gaps()),
        Column.binary("sep", (age > 0).astype(float), gaps()),
        Column.right_censored("t", rng.exponential(size=n), rng.random(n) < 0.7, gaps()),
        Column.continuous("thin", rng.normal(size=n), thin),
    )
    Z = DesignMatrix(np.column_stack([age, sex]), ("age", "sex"))
    return Dataset(cols), [c.name for c in cols], Z


class TestMatrixPairs:
    """The matrix scores each pair as the public estimators do on that
    pair's complete rows, bit for bit, while fitting each column's margin
    once per row set."""

    @pytest.mark.filterwarnings("ignore:fit of .* complete separation suspected")
    @pytest.mark.parametrize("missing_share", [0.0, 0.05, 0.3])
    @pytest.mark.parametrize("adjust", [False, True])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_equals_per_pair_estimators(self, seed, adjust, missing_share):
        d, names, Z = _matrix_panel(seed, missing_share)
        Z = Z if adjust else None
        n_perm = 19 if seed % 2 else 0
        _, est, pval, notes = correlation_matrix(d, names, Z, n_perm=n_perm, seed=seed)
        ref_est, ref_pval, ref_notes = _reference_matrix(d, names, Z, n_perm, seed)
        assert est.tobytes() == ref_est.tobytes()
        assert pval.tobytes() == ref_pval.tobytes()
        assert notes == ref_notes
        assert any("fewer than 3 complete rows" in note for note in notes)
        assert any(" adjusted: " in note for note in notes)

    def test_one_margin_fit_per_column_and_triangle(self, monkeypatch):
        rng = np.random.default_rng(8)
        n, k = 60, 4
        z = rng.normal(size=n)
        d = Dataset(tuple(Column.continuous(f"m{c}", z + rng.normal(size=n)) for c in range(k)))
        Z = DesignMatrix(z[:, None], ("z",))
        calls = []
        real = ra.margin_psr

        def counted(col, Z, model):
            calls.append((col.name, model))
            return real(col, Z, model)

        monkeypatch.setattr(ra, "margin_psr", counted)
        correlation_matrix(d, d.names, Z, n_perm=9, seed=1)
        assert sorted(calls) == sorted(
            (f"m{c}", model) for c in range(k) for model in ("empirical", "orm-logit")
        )

    @pytest.mark.parametrize("z_rows", [5, 14])
    def test_z_length_checked_before_any_fit(self, monkeypatch, z_rows):
        d = Dataset(tuple(Column.continuous(name, np.arange(10.0) % 7) for name in "ab"))
        Z = DesignMatrix(np.arange(float(z_rows))[:, None], ("w",))
        calls = []
        monkeypatch.setattr(ra, "margin_psr", lambda *args: calls.append(args))
        with pytest.raises(InputError, match="^Z does not align with the columns$"):
            correlation_matrix(d, ["a", "b"], Z, n_perm=0)
        assert calls == []

    def test_unknown_column_raises_before_any_fit(self, monkeypatch):
        d = Dataset(tuple(Column.continuous(name, np.arange(20.0) % 7) for name in "ab"))
        calls = []
        monkeypatch.setattr(ra, "margin_psr", lambda *args: calls.append(args))
        with pytest.raises(InputError, match="no column named 'zz'"):
            correlation_matrix(d, ["a", "b", "zz"], None, n_perm=0)
        assert calls == []
