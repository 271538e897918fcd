"""Fitters checked against independent oracles and exact closed forms.

The cumulative-link fitter is validated three ways: against a test-local
IRLS logistic regression (binary outcomes are the J=2 special case),
against the empirical CDF (intercept-only fits have a closed form), and
by verifying the fitted parameters are a local maximum of a test-local
log-likelihood written directly from the link CDF.
"""
import warnings

import numpy as np
import pytest
from scipy import special

from psrkit.data_model import Column, DesignMatrix
from psrkit.estimators import (
    CUMULATIVE_LINKS,
    DECREMENT_TOL,
    ModelFit,
    _ClmStack,
    _banded_steps,
    _clm_score,
    _expit,
    _logit,
    _ndtri,
    fit_cumulative_link,
    fit_cumulative_link_batch,
    fit_empirical,
    fit_exponential_survival,
    fit_linear_normal,
    fit_poisson,
    lr_test,
    predict_distribution,
)
from psrkit.exceptions import ConvergenceError, DegenerateFitError, InputError, PsrKitError
from psrkit.fitted_dist import DiscreteSupport, ExponentialDist, NormalDist


# ---------------------------------------------------------------------------
# test-local oracles
# ---------------------------------------------------------------------------


def logit_pi_extended(alpha, beta, codes, Xm):
    """Per-row cumulative-logit category probabilities in ``np.longdouble``."""
    cuts = np.concatenate([[-np.inf], alpha, [np.inf]]).astype(np.longdouble)
    xb = Xm.astype(np.longdouble) @ np.asarray(beta, dtype=np.longdouble)

    def cdf(eta):
        return 1 / (1 + np.exp(-eta))

    return cdf(cuts[codes + 1] - xb) - cdf(cuts[codes] - xb)


def irls_logistic(X1, y, iters=200, tol=1e-12):
    """Plain Newton/IRLS logistic regression; X1 includes the intercept."""
    b = np.zeros(X1.shape[1])
    for _ in range(iters):
        p = special.expit(X1 @ b)
        g = X1.T @ (y - p)
        H = X1.T @ (X1 * (p * (1 - p))[:, None])
        step = np.linalg.solve(H, g)
        b = b + step
        if np.max(np.abs(step)) < tol:
            break
    return b


def irls_poisson(X1, y, iters=200, tol=1e-12):
    b = np.zeros(X1.shape[1])
    b[0] = np.log(max(y.mean(), 0.1))
    for _ in range(iters):
        mu = np.exp(X1 @ b)
        g = X1.T @ (y - mu)
        H = X1.T @ (X1 * mu[:, None])
        step = np.linalg.solve(H, g)
        b = b + step
        if np.max(np.abs(step)) < tol:
            break
    return b


_LINK_CDF = {
    "logit": special.expit,
    "probit": special.ndtr,
    "cloglog": lambda e: -np.expm1(-np.exp(e)),
    "loglog": lambda e: np.exp(-np.exp(-e)),
}


def clm_loglik(alpha, beta, y_values, X, link):
    """Cumulative-link log-likelihood written directly from its definition."""
    h = _LINK_CDF[link]
    support = np.unique(y_values)
    eta = X @ beta if X is not None else np.zeros(y_values.size)
    total = 0.0
    for yi, xb in zip(y_values, eta):
        j = int(np.searchsorted(support, yi))
        hi = 1.0 if j == support.size - 1 else h(alpha[j] - xb)
        lo = 0.0 if j == 0 else h(alpha[j - 1] - xb)
        total += np.log(hi - lo)
    return total


# ---------------------------------------------------------------------------
# the numpy link functions, against scipy.special
# ---------------------------------------------------------------------------


def _ulps(a, b):
    """|a - b| in units of the spacing at the larger magnitude."""
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


class TestLogitFunctions:
    @staticmethod
    def _grid():
        rng = np.random.default_rng(11)
        return np.concatenate([
            rng.uniform(-800.0, 800.0, 20000),
            rng.uniform(-40.0, 40.0, 20000),
            rng.normal(0.0, 1.0, 20000),
            [-800.0, -745.0, -709.0, -36.0, 0.0, 36.0, 709.0, 800.0],
        ])

    def test_expit_matches_scipy(self):
        x = self._grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _expit(x)
        assert np.max(_ulps(got, special.expit(x))) <= 4.0

    def test_logit_matches_scipy(self):
        rng = np.random.default_rng(12)
        # probabilities of every size, and the interval around 1/2 where
        # log(p / (1 - p)) alone would lose accuracy
        p = special.expit(self._grid())
        p = np.concatenate([p, rng.uniform(0.0, 1.0, 20000), rng.uniform(0.29, 0.66, 20000)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _logit(p)
        want = special.logit(p)
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])
        assert np.max(_ulps(got[finite], want[finite])) <= 4.0

    def test_exact_limits_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _expit(np.array([-np.inf, -800.0, 800.0, np.inf])).tolist() == [
                0.0, 0.0, 1.0, 1.0,
            ]
            assert _expit(-800.0) == 0.0 and _expit(800.0) == 1.0
            assert _logit(np.array([0.0, 0.5, 1.0])).tolist() == [-np.inf, 0.0, np.inf]
            assert _logit(0.0) == -np.inf and _logit(1.0) == np.inf


class TestNdtri:
    def test_matches_scipy(self):
        rng = np.random.default_rng(19)
        # where AS241 switches between its three approximations,
        # |p - 1/2| = 0.425 and sqrt(-log min(p, 1 - p)) = 5
        edges = np.array([0.075, 0.925, np.exp(-25.0), -np.expm1(-25.0)])
        p = np.concatenate([
            rng.uniform(0.0, 1.0, 100000),
            10.0 ** rng.uniform(-300.0, 0.0, 50000),
            1.0 - 10.0 ** -np.arange(1.0, 17.0),
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), [0.5],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _ndtri(p)
        want = special.ndtri(p)
        zero = want == 0.0
        assert np.array_equal(got[zero], want[zero])
        assert np.max(np.abs(got[~zero] - want[~zero]) / np.abs(want[~zero])) <= 4e-15

    def test_limits_and_invalid_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _ndtri(np.array([0.0, 1.0, np.nan, -0.1, 1.1]))
        assert got[0] == -np.inf and got[1] == np.inf
        assert np.isnan(got[2:]).all()


# ---------------------------------------------------------------------------
# cumulative link models
# ---------------------------------------------------------------------------


class TestCumulativeLink:
    def test_binary_matches_irls_logistic(self):
        rng = np.random.default_rng(42)
        for _ in range(6):
            n = int(rng.integers(40, 120))
            p = int(rng.integers(1, 4))
            X = rng.normal(0, 1, (n, p))
            b_true = rng.normal(0, 0.8, p)
            prob = special.expit(0.3 + X @ b_true)
            y = (rng.uniform(size=n) < prob).astype(float)
            if y.min() == y.max():
                continue
            fit = fit_cumulative_link(
                Column.binary("y", y),
                DesignMatrix(X, tuple(f"x{j}" for j in range(p))),
                "logit",
            )
            oracle = irls_logistic(np.column_stack([np.ones(n), X]), y)
            # P(Y = 1 | x) = expit(x'beta - alpha_1): intercept = -alpha_1
            assert abs(-fit.alpha[0] - oracle[0]) < 1e-8
            assert np.max(np.abs(fit.beta - oracle[1:])) < 1e-8

    def test_intercept_only_equals_ecdf(self):
        rng = np.random.default_rng(7)
        y = rng.integers(0, 4, 60).astype(float)
        col = Column.continuous("y", y)
        for link in ("logit", "probit", "cloglog", "loglog"):
            fit = fit_cumulative_link(col, None, link)
            support, counts = np.unique(y, return_counts=True)
            ecdf = np.cumsum(counts)[:-1] / y.size
            h = _LINK_CDF[link]
            assert np.max(np.abs(h(fit.alpha) - ecdf)) < 1e-9

    def test_fitted_params_are_local_maximum(self):
        rng = np.random.default_rng(3)
        n = 80
        X = rng.normal(0, 1, (n, 2))
        y = np.floor(
            2.0 + X @ np.array([0.8, -0.5]) + rng.normal(0, 1, n)
        ).clip(0, 5)
        col = Column.continuous("y", y)
        Xd = DesignMatrix(X, ("a", "b"))
        for link in ("logit", "probit", "cloglog", "loglog"):
            fit = fit_cumulative_link(col, Xd, link)
            ll_hat = clm_loglik(fit.alpha, fit.beta, y, X, link)
            assert ll_hat == pytest.approx(fit.loglik, abs=1e-8)
            for _ in range(25):
                da = rng.normal(0, 1e-3, fit.alpha.size)
                db = rng.normal(0, 1e-3, 2)
                alpha_p = np.sort(fit.alpha + da)
                assert clm_loglik(alpha_p, fit.beta + db, y, X, link) <= ll_hat + 1e-12

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(11)
        n = 70
        X = rng.normal(0, 1, (n, 1))
        y = np.round(X[:, 0] + rng.normal(0, 1, n), 1)
        perm = rng.permutation(n)
        f1 = fit_cumulative_link(
            Column.continuous("y", y), DesignMatrix(X, ("x",)), "logit"
        )
        f2 = fit_cumulative_link(
            Column.continuous("y", y[perm]), DesignMatrix(X[perm], ("x",)), "logit"
        )
        assert f1.loglik == pytest.approx(f2.loglik, abs=1e-9)
        assert np.allclose(f1.beta, f2.beta, atol=1e-9)
        assert np.allclose(f1.alpha, f2.alpha, atol=1e-8)

    def test_nested_loglik_ordering(self):
        rng = np.random.default_rng(5)
        n = 90
        X = rng.normal(0, 1, (n, 2))
        y = np.round(X @ np.array([1.0, 0.3]) + rng.normal(0, 1, n), 1)
        col = Column.continuous("y", y)
        reduced = fit_cumulative_link(col, DesignMatrix(X[:, :1], ("a",)), "logit")
        full = fit_cumulative_link(col, DesignMatrix(X, ("a", "b")), "logit")
        assert full.loglik >= reduced.loglik

    def test_separation_caps_and_warns(self):
        x = np.concatenate([np.zeros(20), np.ones(20)])
        y = x.copy()
        with pytest.warns(UserWarning, match="separation"):
            fit = fit_cumulative_link(
                Column.binary("y", y), DesignMatrix(x[:, None], ("x",)), "logit"
            )
        assert not fit.converged
        assert np.max(np.abs(fit.beta)) <= 30.0
        assert fit.notes

    def test_capped_fit_has_finite_loglik(self):
        # the capped point lies on the last accepted step, so every row
        # keeps a positive probability there
        rng = np.random.default_rng(81)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(float)
        with pytest.warns(UserWarning, match="separation"):
            fit = fit_cumulative_link(
                Column.binary("y", y), DesignMatrix(X, ("a", "b")), "loglog"
            )
        assert np.max(np.abs(fit.beta)) == pytest.approx(30.0, abs=1e-12)
        assert np.isfinite(fit.loglik)
        start = fit_cumulative_link(Column.binary("y", y), None, "loglog")
        assert fit.loglik > start.loglik

    @pytest.mark.parametrize("seed", [12, 53])
    def test_loglog_all_distinct_converges(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(300, 2))
        y = X @ [1.0, -0.5] + rng.logistic(size=300)
        fit = fit_cumulative_link(
            Column.continuous("y", y), DesignMatrix(X, ("a", "b")), "loglog"
        )
        assert fit.converged
        assert fit.grad_max_norm < 1e-8

    def test_nonconvergence_raises(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 50)
        y = np.round(x + rng.normal(0, 1, 50), 1)
        with pytest.raises(ConvergenceError):
            fit_cumulative_link(
                Column.continuous("y", y),
                DesignMatrix(x[:, None], ("x",)),
                "logit",
                max_iter=1,
            )

    @pytest.mark.parametrize("seed", [583, 780])
    def test_single_row_top_level_converges(self, seed):
        # a 3-level predictor whose top level has one row, as in a genotype scan
        rng = np.random.default_rng(seed)
        n = 295
        Z = np.column_stack([rng.normal(50, 10, n), rng.integers(0, 2, n)])
        x = rng.binomial(1, rng.uniform(0.1, 0.5), n).astype(float)
        x[rng.integers(n)] = 2.0
        fit = fit_cumulative_link(
            Column.continuous("x", x), DesignMatrix(Z, ("age", "sex")), "logit"
        )
        assert fit.converged
        assert fit.grad_max_norm < 1e-8

    @pytest.mark.parametrize(
        "n, seed", [(1000, 12), (10_000, 11), (10_000, 23), (10_000, 32), (10_000, 38)]
    )
    def test_cloglog_upper_tail_converges(self, n, seed):
        # rows whose lower cut point has F close to 1: their probabilities are
        # taken from the survival function, not as a difference of two CDFs
        # that keeps only the digits above 1e-16, on which the line search stalled
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2))
        y = X @ (1, -0.5) + rng.logistic(size=n)
        fit = fit_cumulative_link(
            Column.continuous("y", y), DesignMatrix(X, ("a", "b")), "cloglog"
        )
        assert fit.converged

    def test_constant_outcome_rejected(self):
        with pytest.raises(DegenerateFitError):
            fit_cumulative_link(Column.continuous("y", np.ones(10)), None, "logit")

    def test_unknown_link_rejected(self):
        with pytest.raises(InputError):
            fit_cumulative_link(
                Column.continuous("y", np.arange(10.0)), None, "cauchit"
            )

    def test_design_collinear_with_cut_points_rejected(self):
        # only beta_a - beta_b is identified next to the cut points
        rng = np.random.default_rng(10)
        a = (np.arange(120) % 2).astype(float)
        y = Column.continuous("y", rng.integers(0, 3, 120).astype(float))
        X = DesignMatrix(np.column_stack([a, 1.0 - a]), ("a", "b"))
        with pytest.raises(InputError, match="rank deficient once an intercept is added"):
            fit_cumulative_link(y, X)
        with pytest.raises(InputError, match="rank deficient once an intercept is added"):
            fit_cumulative_link_batch([y], X)


def _panel(seed, n=150):
    """Predictors with missing cells: 3- and 2-level genotypes, one with a
    single-row level, one separated by a covariate, one with many levels and
    a constant."""
    rng = np.random.default_rng(seed)
    Z = np.column_stack([rng.normal(50, 10, n), rng.integers(0, 2, n).astype(float)])
    cols = []

    def add(name, x, share=0.05):
        miss = rng.random(n) < share
        cols.append(Column.continuous(name, np.where(miss, 0.0, x), missing=miss))

    for j in range(4):
        add(f"g{j}", rng.binomial(2, rng.uniform(0.1, 0.5), n).astype(float))
    add("two", rng.binomial(1, 0.3, n).astype(float))
    single = rng.binomial(1, 0.4, n).astype(float)
    single[rng.integers(n)] = 2.0
    add("single", single, share=0.0)
    add("separated", Z[:, 1].copy())
    add("many", np.round(rng.normal(size=n), 1))
    add("constant", np.ones(n))
    return cols, DesignMatrix(Z, ("age", "sex"))


def _alone(col, Z, **kw):
    """The batch of one: the fit of one column on its observed rows, or its error."""
    rows = np.flatnonzero(~col.missing)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return fit_cumulative_link(col.take(rows), Z.take(rows), **kw)
    except PsrKitError as exc:
        return exc


def _batch(cols, Z, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit_cumulative_link_batch(cols, Z, **kw)


def _assert_same_fit(a, b):
    assert np.max(np.abs(a.alpha - b.alpha)) <= 1e-12
    assert np.max(np.abs(a.beta - b.beta)) <= 1e-12
    assert abs(a.loglik - b.loglik) <= 1e-12
    assert (a.iterations, a.converged, a.notes) == (b.iterations, b.converged, b.notes)
    assert np.array_equal(a.support, b.support) and a.n_obs == b.n_obs


class TestStackedFit:
    """Each member of a stacked fit is the fit of that column alone."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("max_iter", [100, 4])
    def test_members_match_batch_of_one(self, seed, max_iter):
        cols, Z = _panel(seed)
        fits = _batch(cols, Z, max_iter=max_iter)
        for col, fit in zip(cols, fits):
            ref = _alone(col, Z, max_iter=max_iter)
            if isinstance(ref, PsrKitError):
                assert type(fit) is type(ref) and str(fit) == str(ref)
            else:
                _assert_same_fit(fit, ref)
        by_name = dict(zip((c.name for c in cols), fits))
        assert isinstance(by_name["constant"], DegenerateFitError)
        if max_iter == 100:
            assert "capped" in by_name["separated"].notes[0]
        else:
            # a member out of iterations fails; the others still converge
            assert isinstance(by_name["separated"], ConvergenceError)
            assert by_name["g0"].converged

    def test_fit_does_not_depend_on_block_position(self):
        cols, Z = _panel(5)
        for k, col in enumerate(cols[:-1]):
            (ref,) = _batch([col], Z)
            others = cols[:k] + cols[k + 1 :]
            _assert_same_fit(_batch([col] + others, Z)[0], ref)
            _assert_same_fit(_batch(others + [col], Z)[-1], ref)

    def test_singular_member_does_not_fail_neighbours(self):
        # observed only where sex == 0, so its sex column is zero and its
        # Newton system is singular at every step
        cols, Z = _panel(4)
        sex = Z.matrix[:, 1]
        x = np.random.default_rng(9).binomial(2, 0.3, sex.size).astype(float)
        singular = Column.continuous("singular", np.where(sex == 1, 0.0, x), missing=sex == 1)
        first, bad, last = _batch([cols[0], singular, cols[1]], Z)
        assert isinstance(bad, ConvergenceError)
        _assert_same_fit(first, _alone(cols[0], Z))
        _assert_same_fit(last, _alone(cols[1], Z))
        assert first.converged and last.converged

    def test_separation_in_member_notes_not_warnings(self):
        cols, Z = _panel(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = fit_cumulative_link_batch(cols[6:8], Z)
        separated, many = fits
        assert any("complete separation suspected" in n for n in separated.notes)
        assert not any("separation" in n for n in many.notes)

    def test_malformed_input_raises(self):
        cols, Z = _panel(1)
        with pytest.raises(InputError):
            fit_cumulative_link_batch(cols, Z.take(np.arange(10)))
        with pytest.raises(InputError):
            fit_cumulative_link_batch(cols, Z, link="cauchit")


def _weighted_panel():
    """Five design columns; a 5-level outcome, an all-distinct one and
    x = 1[a > 0] but for the row with the largest a, so that a resample
    without that row is completely separated."""
    rng = np.random.default_rng(8)
    n = 120
    Zm = rng.normal(size=(n, 5))
    lin = Zm @ [0.8, -0.5, 0.3, 0.2, -0.4]
    five_level = np.digitize(lin + rng.logistic(size=n), [-1.5, -0.5, 0.5, 1.5]).astype(float)
    distinct = lin + rng.logistic(size=n)
    top = int(np.argmax(Zm[:, 0]))
    sep = (Zm[:, 0] > 0).astype(float)
    sep[top] = 0.0
    cols = [
        Column.continuous("five_level", five_level),
        Column.continuous("distinct", distinct),
        Column.binary("sep", sep),
    ]
    return cols, DesignMatrix(Zm, tuple("abcde")), top, rng


class TestWeightedFit:
    """A member with integer row weights is the fit of its rows, each
    repeated by its weight."""

    def test_weights_match_repeated_rows(self):
        (five_level, distinct, sep), Z, top, rng = _weighted_panel()
        n = Z.n
        idxs = [rng.integers(0, n, n) for _ in range(4)]
        idxs[3][0] = top
        without_top = rng.choice(np.delete(np.arange(n), top), n)
        cols = [five_level, five_level, distinct, distinct, sep, sep]
        use = [idxs[0], idxs[1], idxs[2], idxs[3], idxs[3], without_top]
        weights = np.array([np.bincount(idx, minlength=n) for idx in use])
        fits = _batch(cols, Z, weights=weights)
        for col, idx, fit in zip(cols, use, fits):
            _assert_same_fit(fit, _alone(col.take(idx), Z.take(idx)))
            assert fit.n_obs == n
        assert fits[0].alpha.size == 4 and fits[2].alpha.size == np.unique(use[2]).size - 1
        assert not fits[4].notes
        assert "capped" in fits[5].notes[0]

    def test_zero_one_weights_are_the_observed_rows(self):
        cols, Z = _panel(1)
        masked = _batch(cols, Z)
        filled = [Column.continuous(c.name, np.where(c.missing, 7.0, c.values)) for c in cols]
        weights = np.array([~c.missing for c in cols], dtype=float)
        fits = _batch(filled, Z, weights=weights)
        for a, b in zip(masked, fits):
            if isinstance(a, PsrKitError):
                assert str(a) == str(b)
                continue
            assert np.array_equal(a.alpha, b.alpha) and np.array_equal(a.beta, b.beta)
            assert (a.loglik, a.iterations, a.notes, a.n_obs) == (
                b.loglik, b.iterations, b.notes, b.n_obs
            )
        # captured with the observed-row mask that row weights replace; the
        # "many" values recaptured with the numpy logit link and again with
        # the numpy cyclic-reduction banded solve, and the "g0" value once
        # every member, whatever its size, took that solve
        by_name = dict(zip((c.name for c in cols), fits))
        assert by_name["g0"].loglik == -102.82639434196683
        assert by_name["many"].loglik == -501.4744152908861
        assert by_name["many"].beta.tolist() == [-0.020760247660685453, 0.269498541593529]

    def test_n_obs_is_the_weight_sum(self):
        (five_level, distinct, _), Z, _, _ = _weighted_panel()
        weights = np.ones((2, Z.n))
        weights[0, :10] = 3.0
        weights[1, :40] = 0.0
        fits = _batch([five_level, distinct], Z, weights=weights)
        assert [f.n_obs for f in fits] == [Z.n + 20, Z.n - 40]

    @pytest.mark.parametrize("bad", [-1.0, 0.5, np.nan])
    def test_weights_must_be_nonnegative_integers(self, bad):
        (five_level, _, _), Z, _, _ = _weighted_panel()
        weights = np.ones((1, Z.n))
        weights[0, 3] = bad
        with pytest.raises(InputError, match="nonnegative integers"):
            fit_cumulative_link_batch([five_level], Z, weights=weights)
        with pytest.raises(InputError, match="one row per column"):
            fit_cumulative_link_batch([five_level], Z, weights=np.ones(Z.n))


def _all_distinct(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.logistic(size=(n, 3))
    y = X @ [0.5, -0.3, 0.2] + rng.logistic(size=n)
    return Column.continuous("y", y), DesignMatrix(X, ("a", "b", "c"))


class TestLargeSupport:
    """Continuous outcomes with one cut point per row."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ten_thousand_rows_stationary(self, seed):
        fit = fit_cumulative_link(*_all_distinct(10_000, seed))
        assert fit.converged and fit.iterations <= 15
        assert fit.grad_max_norm < 1e-6

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fifty_thousand_rows_newton_step_gains_nothing(self, seed):
        # the score's rounding noise is about 2e-6 at this size, so optimality
        # is checked through one more raw Newton step in (alpha, beta) space.
        # In float64 the gain of that step reads rounding noise in pi of about
        # 1e-9, so both likelihoods are evaluated in extended precision.
        y, X = _all_distinct(50_000, seed)
        fit = fit_cumulative_link(y, X)
        assert fit.converged and fit.iterations <= 15
        codes = np.unique(y.values, return_inverse=True)[1]
        stack = _ClmStack(
            codes[None], np.ones((1, codes.size), bool), X.matrix, CUMULATIVE_LINKS["logit"]
        )
        score = _clm_score(fit.alpha[None], fit.beta[None], stack)
        v_a, v_b, solved = _banded_steps(score, stack.n_alpha, np.zeros(1))
        assert solved[0]
        g_a, g_b, v_a, v_b = score[1][0], score[2][0], v_a[0], v_b[0]
        assert abs(g_a @ v_a + g_b @ v_b) <= DECREMENT_TOL
        pi = logit_pi_extended(fit.alpha, fit.beta, codes, X.matrix)
        pi_step = logit_pi_extended(fit.alpha - v_a, fit.beta - v_b, codes, X.matrix)
        assert np.sum(np.log(pi_step / pi)) <= 1e-9


def _bordered_stack(sizes, p, seed=0):
    """The score pieces of a stack of bordered systems, member i with
    ``sizes[i]`` intercepts, zero past them; each system is symmetric,
    strictly diagonally dominant and has a negative diagonal, so it is
    negative definite as a concave log-likelihood's Hessian is."""
    rng = np.random.default_rng(seed)
    m, w = len(sizes), max(sizes)
    g_a, h_d, h_ab = np.zeros((m, w)), np.zeros((m, w)), np.zeros((m, w, p))
    h_o, h_bb = np.zeros((m, w - 1)), np.zeros((m, p, p))
    for i, k in enumerate(sizes):
        off = rng.uniform(0.1, 1.0, k - 1) * rng.choice([-1.0, 1.0], k - 1)
        ab = rng.normal(0.0, 0.3, (k, p))
        h_o[i, : k - 1] = off
        h_ab[i, :k] = ab
        dominance = np.abs(np.r_[0.0, off]) + np.abs(np.r_[off, 0.0]) + np.abs(ab).sum(axis=1)
        h_d[i, :k] = -(dominance + rng.uniform(0.1, 1.0, k))
        g_a[i, :k] = rng.normal(size=k)
        bb = rng.normal(0.0, 0.1, (p, p))
        bb += bb.T
        h_bb[i] = bb - np.diag(np.abs(ab).sum(axis=0) + np.abs(bb).sum(axis=1) + 1.0)
    return [None, g_a, rng.normal(size=(m, p)), h_d, h_o, h_ab, h_bb]


def _dense_bordered_step(score, i, k, ridge):
    """Member i's step from ``np.linalg.solve`` on its assembled matrix."""
    g_a, g_b, h_d, h_o, h_ab, h_bb = (s[i] for s in score[1:])
    p = g_b.size
    H = np.diag(h_d[:k] - ridge) + np.diag(h_o[: k - 1], 1) + np.diag(h_o[: k - 1], -1)
    H = np.block([[H, h_ab[:k]], [h_ab[:k].T, h_bb - ridge * np.eye(p)]])
    sol = np.linalg.solve(H, np.concatenate([g_a[:k], g_b]))
    return sol[:k], sol[k:]


#: small members (a binary or few-level outcome) mixed with large ones
_BANDED_SIZES = [33, 1, 512, 2, 1023, 3, 1024, 4, 1025, 31, 2000]


class TestBandedSolve:
    """The batched cyclic-reduction solve of the bordered Newton systems."""

    @pytest.mark.parametrize("p", [0, 1, 3])
    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    def test_matches_dense_solve(self, p, ridge):
        score = _bordered_stack(_BANDED_SIZES, p)
        m = len(_BANDED_SIZES)
        v_a, v_b, solved = _banded_steps(score, np.array(_BANDED_SIZES), np.full(m, ridge))
        assert solved.all()
        for i, k in enumerate(_BANDED_SIZES):
            ref_a, ref_b = _dense_bordered_step(score, i, k, ridge)
            ref, got = np.concatenate([ref_a, ref_b]), np.concatenate([v_a[i, :k], v_b[i]])
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
            assert not v_a[i, k:].any()

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_member_alone_is_bit_identical(self, p):
        score = _bordered_stack(_BANDED_SIZES, p, seed=1)
        n_alpha, ridge = np.array(_BANDED_SIZES), np.full(len(_BANDED_SIZES), 0.25)
        block = _banded_steps(score, n_alpha, ridge)
        for i, k in enumerate(_BANDED_SIZES):
            alone = _banded_steps([None] + [s[[i]] for s in score[1:]], n_alpha[[i]], ridge[[i]])
            assert alone[0].tobytes() == block[0][[i]].tobytes()
            assert alone[1].tobytes() == block[1][[i]].tobytes()
            assert alone[2][0] and block[2][i]

    def test_failed_members_leave_neighbours_alone(self):
        sizes = [40, 700, 999, 700, 1500, 2, 600]
        score = _bordered_stack(sizes, 3, seed=2)
        n_alpha, ridge = np.array(sizes), np.zeros(7)
        ref = _banded_steps(score, n_alpha, ridge)
        score[3][1, 1] = 0.0  # a zero pivot
        score[3][2, 500] = np.nan  # non-finite pivots
        score[3][3, 301] = -np.inf
        score[5][4], score[6][4] = 0.0, 0.0  # a singular Schur complement
        score[5][5], score[6][5] = 0.0, 0.0  # and one of a small member
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v_a, v_b, solved = _banded_steps(score, n_alpha, ridge)
        assert solved.tolist() == [True, False, False, False, False, False, True]
        for i in (0, 6):
            assert v_a[i].tobytes() == ref[0][i].tobytes()
            assert v_b[i].tobytes() == ref[1][i].tobytes()


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------


class TestEmpirical:
    def test_matches_hand_ecdf(self):
        y = Column.continuous("y", [3.0, 1.0, 3.0, 2.0, 1.0])
        fit = fit_empirical(y)
        assert np.array_equal(fit.support, [1.0, 2.0, 3.0])
        assert np.allclose(fit.support_cum_probs, [0.4, 0.6, 1.0])
        d = predict_distribution(fit, None)
        assert isinstance(d, DiscreteSupport)
        assert d.cdf(2.0) == pytest.approx(0.6)
        assert d.cdf_left(3.0) == pytest.approx(0.6)


class TestLinearNormal:
    def test_matches_lstsq(self):
        rng = np.random.default_rng(9)
        n = 60
        X = rng.normal(0, 1, (n, 2))
        y = 1.0 + X @ np.array([2.0, -1.0]) + rng.normal(0, 0.5, n)
        fit = fit_linear_normal(
            Column.continuous("y", y), DesignMatrix(X, ("a", "b"))
        )
        full = np.column_stack([np.ones(n), X])
        coef, *_ = np.linalg.lstsq(full, y, rcond=None)
        assert fit.alpha[0] == pytest.approx(coef[0], abs=1e-10)
        assert np.allclose(fit.beta, coef[1:], atol=1e-10)
        rss = float(np.sum((y - full @ coef) ** 2))
        assert fit.scale == pytest.approx(np.sqrt(rss / n), abs=1e-12)
        # loglik at the MLE has the closed normal form
        ll = -0.5 * n * (np.log(2 * np.pi * rss / n) + 1.0)
        assert fit.loglik == pytest.approx(ll, abs=1e-9)
        d = predict_distribution(fit, X[0])
        assert isinstance(d, NormalDist)
        assert d.mu == pytest.approx(coef[0] + X[0] @ coef[1:])

    def test_degenerate_outcome(self):
        with pytest.raises(DegenerateFitError):
            fit_linear_normal(Column.continuous("y", np.full(20, 3.0)))


class TestPoisson:
    def test_intercept_only_closed_form(self):
        y = Column.count("k", [0, 1, 2, 3, 10])
        fit = fit_poisson(y)
        assert np.exp(fit.alpha[0]) == pytest.approx(3.2, abs=1e-12)

    def test_matches_irls_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            n = int(rng.integers(50, 150))
            x = rng.normal(0, 1, n)
            y = rng.poisson(np.exp(0.4 + 0.6 * x))
            fit = fit_poisson(
                Column.count("k", y), DesignMatrix(x[:, None], ("x",))
            )
            oracle = irls_poisson(np.column_stack([np.ones(n), x]), y.astype(float))
            assert abs(fit.alpha[0] - oracle[0]) < 1e-8
            assert abs(fit.beta[0] - oracle[1]) < 1e-8

    def test_kind_enforced(self):
        with pytest.raises(InputError):
            fit_poisson(Column.continuous("y", [0.5, 1.5]))

    def test_iteration_cap_raises(self):
        rng = np.random.default_rng(22)
        x = rng.normal(0, 1, 80)
        y = Column.count("k", rng.poisson(np.exp(0.4 + 0.6 * x)))
        with pytest.raises(
            ConvergenceError, match=r"poisson fit of 'k' did not converge: .* after 1 iterations"
        ):
            fit_poisson(y, DesignMatrix(x[:, None], ("x",)), max_iter=1)


class TestExponentialSurvival:
    def test_intercept_only_closed_form(self):
        col = Column.right_censored("t", [2.0, 3.0, 5.0], [1, 0, 1])
        fit = fit_exponential_survival(col)
        assert np.exp(fit.alpha[0]) == pytest.approx(2.0 / 10.0, abs=1e-12)

    def test_score_zero_at_fit(self):
        rng = np.random.default_rng(8)
        n = 400
        x = rng.normal(0, 1, n)
        rate = np.exp(-0.5 + 0.4 * x)
        t_event = rng.exponential(1.0 / rate)
        c = rng.exponential(2.0, n)
        t = np.minimum(t_event, c)
        delta = (t_event <= c).astype(float)
        fit = fit_exponential_survival(
            Column.right_censored("t", t, delta),
            DesignMatrix(x[:, None], ("x",)),
        )
        # score of the exponential likelihood: sum (delta - rate*t) * [1, x]
        r_hat = np.exp(fit.alpha[0] + fit.beta[0] * x)
        score = np.array(
            [np.sum(delta - r_hat * t), np.sum((delta - r_hat * t) * x)]
        )
        assert np.max(np.abs(score)) < 1e-6
        d = predict_distribution(fit, np.array([0.0]))
        assert isinstance(d, ExponentialDist)
        assert d.rate == pytest.approx(np.exp(fit.alpha[0]))

    def test_kind_enforced(self):
        with pytest.raises(InputError):
            fit_exponential_survival(Column.continuous("t", [1.0, 2.0]))

    @pytest.mark.parametrize("p", [0, 2])
    def test_unit_times_are_poisson_of_events(self, p):
        # with every follow-up time 1 the exposure is 1, and log(0!) = log(1!)
        # = 0, so the fit is the Poisson fit of the event indicators, bit for bit
        for seed in range(10):
            rng = np.random.default_rng([seed, p])
            n = 60
            x = rng.normal(0, 1, (n, p))
            X = DesignMatrix(x, ("x1", "x2")[:p]) if p else None
            delta = (rng.uniform(size=n) < 0.5).astype(float)
            surv = fit_exponential_survival(Column.right_censored("t", np.ones(n), delta), X)
            pois = fit_poisson(Column.binary("t", delta), X)
            assert np.array_equal(surv.alpha, pois.alpha)
            assert np.array_equal(surv.beta, pois.beta)
            assert surv.loglik == pois.loglik
            assert surv.iterations == pois.iterations
            assert surv.grad_max_norm == pois.grad_max_norm

    def test_design_collinear_with_intercept_rejected(self):
        rng = np.random.default_rng(10)
        a = (np.arange(200) % 2).astype(float)
        col = Column.right_censored("t", rng.exponential(1.0, 200), np.ones(200))
        with pytest.raises(InputError, match="rank deficient"):
            fit_exponential_survival(col, DesignMatrix(np.column_stack([a, 1.0 - a]), ("a", "b")))


class TestInputChecks:
    @pytest.mark.parametrize(
        "fitter, make",
        [
            (fit_cumulative_link, Column.continuous),
            (fit_linear_normal, Column.continuous),
            (fit_poisson, Column.count),
            (fit_empirical, Column.continuous),
        ],
        ids=["cumulative-link", "linear-normal", "poisson", "empirical"],
    )
    def test_outcome_with_missing_cells_rejected(self, fitter, make):
        y = make("y", [1.0, 2.0, 0.0, 3.0, 1.0], missing=[False, False, True, False, False])
        with pytest.raises(
            InputError, match=r"^outcome 'y' has missing values; run complete_cases first$"
        ):
            fitter(y)

    @pytest.mark.parametrize(
        "times, events, error, message",
        [
            ([2.0, 0.0, 5.0], [1, 0, 1], InputError,
             "column 't': follow-up times must be strictly positive"),
            ([2.0, 3.0, 5.0], [0, 0, 0], DegenerateFitError,
             "column 't': needs at least one event"),
        ],
        ids=["zero-time", "no-event"],
    )
    def test_exponential_survival_rejects(self, times, events, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            fit_exponential_survival(Column.right_censored("t", times, events))

    @pytest.mark.parametrize("row", [None, [0.5, 1.0]], ids=["none", "too-long"])
    def test_predict_distribution_rejects_row_of_wrong_length(self, row):
        rng = np.random.default_rng(30)
        x = rng.normal(0, 1, 30)
        fit = fit_linear_normal(
            Column.continuous("y", x + rng.normal(0, 1, 30)), DesignMatrix(x[:, None], ("x",))
        )
        n = 0 if row is None else len(row)
        with pytest.raises(InputError, match=f"^design row has {n} entries, fit expects 1$"):
            predict_distribution(fit, row)


# ---------------------------------------------------------------------------
# model comparison
# ---------------------------------------------------------------------------


class TestModelComparison:
    def _fit_like(self, loglik, n_beta):
        return ModelFit(
            link="identity-normal",
            outcome="y",
            beta=np.zeros(n_beta),
            alpha=np.array([0.0]),
            term_names=tuple(f"b{i}" for i in range(n_beta)),
            loglik=loglik,
            converged=True,
            iterations=1,
            n_obs=50,
            grad_max_norm=0.0,
            scale=1.0,
        )

    def test_statistic_df_and_p(self):
        # 2*(delta ll) at the chi-square(1) 95th percentile gives p = 0.05
        crit = 3.841458820694124
        res = lr_test(self._fit_like(-100.0, 0), self._fit_like(-100.0 + crit / 2, 1))
        assert res.statistic == pytest.approx(crit, abs=1e-12)
        assert res.df == 1
        assert res.p_value == pytest.approx(0.05, abs=1e-12)

    def test_requires_nested(self):
        with pytest.raises(InputError):
            lr_test(self._fit_like(-100.0, 1), self._fit_like(-90.0, 1))

    def test_aic(self):
        fit = self._fit_like(-100.0, 2)
        assert fit.aic == pytest.approx(2 * 100.0 + 2 * 3)  # 2 betas + 1 alpha
