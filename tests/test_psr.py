"""Residual core: worked values, pair-count oracle, exact identities."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psrkit.data_model import Column, DesignMatrix
from psrkit.estimators import (
    CUMULATIVE_LINKS,
    LINKS,
    fit_cumulative_link,
    fit_empirical,
    fit_exponential_survival,
    fit_linear_normal,
    fit_poisson,
    predict_distribution,
)
from psrkit.exceptions import InputError
from psrkit.fitted_dist import DiscreteSupport, ExponentialDist
from psrkit.psr import (
    PsrVector,
    normal_transform,
    psr,
    psr_all,
    psr_censored,
    psr_from_omers,
)


def _discrete(probs):
    probs = np.asarray(probs, dtype=float)
    return DiscreteSupport(np.arange(1.0, probs.size + 1), np.cumsum(probs))


class TestWorkedValues:
    def test_five_category_example(self):
        # category 2 of (0.10, 0.25, 0.27, 0.27, 0.11):
        # P(lower) - P(higher) = 0.10 - 0.65 = -0.55
        d = _discrete([0.10, 0.25, 0.27, 0.27, 0.11])
        assert psr(2.0, d) == pytest.approx(-0.55, abs=1e-12)

    def test_refit_example(self):
        # category 2 of (0.26, 0.38, 0.21, 0.12, 0.03):
        # P(lower) - P(higher) = 0.26 - 0.36 = -0.10
        d = _discrete([0.26, 0.38, 0.21, 0.12, 0.03])
        assert psr(2.0, d) == pytest.approx(-0.10, abs=1e-12)

    def test_extremes(self):
        d = _discrete([0.5, 0.5])
        assert psr(1.0, d) == pytest.approx(-0.5)
        assert psr(2.0, d) == pytest.approx(0.5)
        assert psr(0.0, d) == -1.0  # below the support
        assert psr(3.0, d) == 1.0  # above the support


class TestZeroExpectation:
    @given(st.integers(0, 10_000), st.integers(2, 12))
    @settings(max_examples=120, deadline=None)
    def test_discrete_expectation_is_zero(self, seed, k):
        # E[r(Y, F)] = sum_v p_v (F(v-) + F(v) - 1) = 0 for any discrete F
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(k))
        d = _discrete(probs)
        expectation = sum(
            p * psr(float(v + 1), d) for v, p in enumerate(probs)
        )
        assert abs(expectation) < 1e-12

    def test_censored_expectation_zero_exponential(self):
        # analytic: E[F(T) - delta(1 - F(T-))] = 0 when T ~ F with
        # censoring at fixed c; verified by numerical integration
        from scipy import integrate

        dist = ExponentialDist(rate=1.3)
        c = 0.9
        event_part, _ = integrate.quad(
            lambda t: (2 * dist.cdf(t) - 1) * 1.3 * np.exp(-1.3 * t), 0, c
        )
        censored_part = np.exp(-1.3 * c) * dist.cdf(c)
        assert abs(event_part + censored_part) < 1e-10


class TestCensored:
    def test_hand_values_exponential(self):
        dist = ExponentialDist(rate=1.0)
        assert psr_censored(1.0, 1, dist) == pytest.approx(
            1.0 - 2.0 * np.exp(-1.0), abs=1e-15
        )
        assert psr_censored(1.0, 0, dist) == pytest.approx(
            1.0 - np.exp(-1.0), abs=1e-15
        )

    def test_censored_never_below_event(self):
        dist = ExponentialDist(rate=0.7)
        for t in (0.1, 1.0, 4.0):
            assert psr_censored(t, 0, dist) >= psr_censored(t, 1, dist)

    def test_event_flag_validated(self):
        with pytest.raises(InputError):
            psr_censored(1.0, 2, ExponentialDist(rate=1.0))


class TestFromOmers:
    def test_hand_pair_counts(self):
        r = psr_from_omers([-1.0, 0.0, 2.0])
        assert np.allclose(r.values, [-2 / 3, 0.0, 2 / 3])

    def test_hand_pair_counts_with_ties(self):
        r = psr_from_omers([1.0, 1.0, 2.0])
        assert np.allclose(r.values, [-1 / 3, -1 / 3, 2 / 3])

    @given(
        st.lists(
            st.floats(-100, 100, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_pair_counts(self, vals):
        res = np.asarray(vals)
        got = psr_from_omers(res).values
        n = res.size
        want = np.array(
            [(np.sum(res < e) - np.sum(res > e)) / n for e in res]
        )
        assert np.allclose(got, want, atol=1e-12)
        assert abs(got.sum()) < 1e-9  # empirical residuals sum to zero

    @given(
        st.lists(st.integers(-4, 4) | st.floats(-1e3, 1e3), min_size=1, max_size=300),
        st.integers(0, 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_sorted_queries_match_unsorted_search(self, vals, decimals):
        # heavy ties: small integers, and floats rounded to few decimals
        res = np.round(np.asarray(vals, dtype=float), decimals)
        n = res.size
        sorted_res = np.sort(res)
        n_less = np.searchsorted(sorted_res, res, side="left")
        n_greater = n - np.searchsorted(sorted_res, res, side="right")
        got = psr_from_omers(res).values
        assert got.tobytes() == ((n_less - n_greater) / n).tobytes()

    @given(
        st.lists(st.integers(0, 6), min_size=2, max_size=300),
        st.lists(st.integers(-1, 7), min_size=1, max_size=300),
    )
    @settings(max_examples=100, deadline=None)
    def test_empirical_bounds_match_unsorted_search(self, support_vals, queries):
        from psrkit.estimators import _empirical_bounds

        fit = fit_empirical(Column.continuous("y", np.asarray(support_vals, dtype=float)))
        y = np.asarray(queries, dtype=float)  # with values off the support
        cum = np.concatenate([[0.0], fit.support_cum_probs[:-1], [1.0]])
        want_lo = cum[np.searchsorted(fit.support, y, side="left")]
        want_hi = cum[np.searchsorted(fit.support, y, side="right")]
        lo, hi = _empirical_bounds(fit, y, None)
        assert lo.tobytes() == want_lo.tobytes()
        assert hi.tobytes() == want_hi.tobytes()

    def test_midrank_identity_no_ties(self):
        rng = np.random.default_rng(4)
        res = rng.normal(0, 1, 31)
        got = psr_from_omers(res).values
        ranks = np.argsort(np.argsort(res)) + 1.0
        assert np.allclose(got, (2 * ranks - res.size - 1) / res.size, atol=1e-12)


class TestPsrAll:
    def _slow(self, fit, ycol, X):
        out = np.empty(ycol.n)
        for i in range(ycol.n):
            row = X.matrix[i] if X is not None else None
            dist = predict_distribution(fit, row)
            if ycol.events is not None:
                out[i] = psr_censored(ycol.values[i], int(ycol.events[i]), dist)
            else:
                out[i] = psr(ycol.values[i], dist)
        return out

    def _fits_by_link(self):
        """One fit of every link in LINKS, each with its outcome and design."""
        rng = np.random.default_rng(12)
        n = 120
        x = rng.normal(0, 1, n)
        X = DesignMatrix(x[:, None], ("x",))

        y_cont = Column.continuous("y", np.round(x + rng.normal(0, 1, n), 1))
        y_count = Column.count("k", rng.poisson(np.exp(0.2 + 0.5 * x)))
        t_ev = rng.exponential(np.exp(0.3 - 0.4 * x))
        cc = rng.exponential(1.5, n)
        y_surv = Column.right_censored(
            "t", np.minimum(t_ev, cc), (t_ev <= cc).astype(float)
        )
        cases = {
            link: (fit_cumulative_link(y_cont, X, link), y_cont, X)
            for link in CUMULATIVE_LINKS
        }
        cases["empirical"] = (fit_empirical(y_cont), y_cont, None)
        cases["identity-normal"] = (fit_linear_normal(y_cont, X), y_cont, X)
        cases["log-poisson"] = (fit_poisson(y_count, X), y_count, X)
        cases["log-exponential"] = (fit_exponential_survival(y_surv, X), y_surv, X)
        return [(link, *cases[link]) for link in LINKS]

    def test_fast_paths_match_generic_loop(self):
        for link, fit, ycol, Xd in self._fits_by_link():
            assert fit.link == link
            r = psr_all(fit, ycol, Xd)
            slow = self._slow(fit, ycol, Xd)
            assert np.allclose(r.values, slow, atol=1e-12), link
            assert r.discrete == (link not in ("identity-normal", "log-exponential")), link

    def test_every_link_matches_an_independent_cdf(self):
        # F written out from scipy.stats, not read from the estimators' table
        from scipy import stats

        links = {
            "logit": stats.logistic.cdf,
            "probit": stats.norm.cdf,
            "cloglog": stats.gumbel_l.cdf,
            "loglog": stats.gumbel_r.cdf,
        }
        for link, fit, ycol, Xd in self._fits_by_link():
            y = ycol.values
            xb = Xd.matrix @ fit.beta if Xd is not None else np.zeros(ycol.n)
            if link in links:
                cuts = np.concatenate([[-np.inf], fit.alpha, [np.inf]])
                k = np.searchsorted(fit.support, y)
                lo, hi = links[link](cuts[k] - xb), links[link](cuts[k + 1] - xb)
            elif link == "empirical":
                lo, hi = np.mean(y[:, None] > y, axis=1), np.mean(y[:, None] >= y, axis=1)
            elif link == "identity-normal":
                lo = hi = stats.norm.cdf(y, fit.alpha[0] + xb, fit.scale)
            elif link == "log-poisson":
                mu = np.exp(fit.alpha[0] + xb)
                lo, hi = stats.poisson.cdf(y - 1, mu), stats.poisson.cdf(y, mu)
            else:
                lo = hi = stats.expon.cdf(y, scale=np.exp(-(fit.alpha[0] + xb)))
            want = hi - ycol.events * (1 - lo) if ycol.events is not None else lo + hi - 1
            assert np.allclose(psr_all(fit, ycol, Xd).values, want, atol=1e-12), link

    def test_censored_outcome_needs_exponential_fit(self):
        for link, fit, ycol, Xd in self._fits_by_link():
            if link == "log-exponential":
                continue
            t = np.abs(ycol.values) + 0.5
            censored = Column.right_censored(ycol.name, t, np.ones(ycol.n))
            with pytest.raises(InputError, match="exponential"):
                psr_all(fit, censored, Xd)

    def test_exponential_fit_needs_censored_outcome(self):
        t = np.random.default_rng(16).exponential(1.0, 30)
        fit = fit_exponential_survival(Column.right_censored("t", t, np.ones(30)))
        with pytest.raises(InputError, match="censored"):
            psr_all(fit, Column.continuous("t", t))

    def test_bounds_always_hold(self):
        rng = np.random.default_rng(13)
        y = Column.continuous("y", rng.integers(0, 3, 40).astype(float))
        r = psr_all(fit_empirical(y), y)
        assert np.all(r.values >= -1.0) and np.all(r.values <= 1.0)
        assert r.discrete

    def test_continuous_flag(self):
        rng = np.random.default_rng(14)
        y = Column.continuous("y", rng.normal(0, 1, 50))
        X = None
        fit = fit_linear_normal(y, X)
        r = psr_all(fit, y, X)
        assert not r.discrete


class TestPsrVector:
    def test_validation(self):
        with pytest.raises(InputError):
            PsrVector(values=np.array([1.5]), source="x")
        with pytest.raises(InputError):
            PsrVector(values=np.array([np.nan]), source="x")

    def test_tiny_overshoot_clipped(self):
        v = PsrVector(values=np.array([1.0 + 1e-12]), source="x")
        assert v.values[0] == 1.0


class TestNormalTransform:
    def test_hand_values(self):
        got = normal_transform(np.array([0.0, 0.5]))
        assert got[0] == pytest.approx(0.0, abs=1e-15)
        assert got[1] == pytest.approx(0.6744897501960817, abs=1e-12)

    def test_exact_ones_warn_and_map_to_inf(self):
        with pytest.warns(UserWarning, match="infinite"):
            got = normal_transform(np.array([1.0, -1.0]))
        assert got[0] == np.inf and got[1] == -np.inf

    def test_monotone(self):
        r = np.linspace(-0.999, 0.999, 41)
        z = normal_transform(r)
        assert np.all(np.diff(z) > 0)
