"""Distribution objects: hand-checked CDF values, validation, properties."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psrkit.fitted_dist import (
    DiscreteSupport,
    ExponentialDist,
    NormalDist,
    ShiftedEmpirical,
)


class TestDiscreteSupport:
    def setup_method(self):
        self.d = DiscreteSupport(
            points=np.array([1.0, 2.0, 5.0]),
            cum_probs=np.array([0.2, 0.7, 1.0]),
        )

    def test_cdf_hand_values(self):
        d = self.d
        assert d.cdf(0.0) == 0.0
        assert d.cdf(1.0) == 0.2
        assert d.cdf(1.5) == 0.2
        assert d.cdf(2.0) == 0.7
        assert d.cdf(4.9) == 0.7
        assert d.cdf(5.0) == 1.0
        assert d.cdf(6.0) == 1.0

    def test_cdf_left_hand_values(self):
        d = self.d
        assert d.cdf_left(1.0) == 0.0
        assert d.cdf_left(2.0) == 0.2
        assert d.cdf_left(5.0) == 0.7
        assert d.cdf_left(7.0) == 1.0
        assert d.cdf_left(0.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteSupport(np.array([2.0, 1.0]), np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            DiscreteSupport(np.array([1.0, 2.0]), np.array([0.5, 0.9]))
        with pytest.raises(ValueError):
            DiscreteSupport(np.array([1.0, 2.0]), np.array([0.7, 0.5]))

    def test_total_mass_stored_as_one(self):
        d = DiscreteSupport([1, 2, 3], [0.3, 0.7, np.nextafter(1, 2)])
        assert d.cdf(8.0) == 1.0

    def test_debug_dict(self):
        dd = self.d.to_debug_dict()
        assert dd["kind"] == "discrete"
        assert dd["points"] == [1.0, 2.0, 5.0]
        assert dd["cum_probs"] == [0.2, 0.7, 1.0]

    @given(
        st.lists(
            st.floats(-50, 50, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=12,
            unique=True,
        ),
        st.integers(0, 10_000),
        st.floats(-60, 60, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_cdf_properties(self, pts, seed, query):
        pts = np.sort(np.asarray(pts))
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(pts.size))
        d = DiscreteSupport(pts, np.cumsum(w) / np.sum(w))
        lo, hi = d.cdf_left(query), d.cdf(query)
        assert 0.0 <= lo <= hi <= 1.0
        # monotone in the query point
        assert d.cdf(query) <= d.cdf(query + 1.0) + 1e-15


class TestNormalDist:
    def test_hand_values(self):
        d = NormalDist(mu=2.0, sigma=3.0)
        assert d.cdf(2.0) == pytest.approx(0.5, abs=1e-15)
        assert d.cdf(2.0 + 1.96 * 3.0) == pytest.approx(0.9750021048517795, abs=1e-15)
        assert d.cdf(2.0 - 3.0) == pytest.approx(0.15865525393145707, abs=1e-15)
        # continuous: no atom anywhere
        assert d.cdf_left(2.0) == d.cdf(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NormalDist(mu=0.0, sigma=0.0)
        with pytest.raises(ValueError):
            NormalDist(mu=0.0, sigma=-1.0)

    def test_debug_dict(self):
        dd = NormalDist(mu=1.0, sigma=2.0).to_debug_dict()
        assert dd == {"kind": "normal", "mu": 1.0, "sigma": 2.0}


class TestExponentialDist:
    def test_hand_values(self):
        d = ExponentialDist(rate=2.0)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(-1.0) == 0.0
        assert d.cdf(0.5) == pytest.approx(0.6321205588285577, abs=1e-15)
        assert d.cdf_left(0.5) == d.cdf(0.5)

    def test_tiny_probabilities_precise(self):
        # -expm1 keeps precision where 1 - exp(-x) would cancel
        d = ExponentialDist(rate=1.0)
        assert d.cdf(1e-12) == pytest.approx(1e-12, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialDist(rate=0.0)


class TestShiftedEmpirical:
    def test_hand_values(self):
        d = ShiftedEmpirical(center=10.0, pooled_residuals=np.array([2.0, -1.0, 0.0]))
        assert d.cdf(9.0) == pytest.approx(1 / 3)
        assert d.cdf_left(9.0) == 0.0
        assert d.cdf(10.0) == pytest.approx(2 / 3)
        assert d.cdf(11.9) == pytest.approx(2 / 3)
        assert d.cdf(12.0) == 1.0
        assert d.cdf(8.0) == 0.0

    def test_sorted_storage(self):
        d = ShiftedEmpirical(center=0.0, pooled_residuals=np.array([3.0, 1.0, 2.0]))
        assert np.all(np.diff(d.pooled_residuals) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShiftedEmpirical(center=0.0, pooled_residuals=np.array([]))
        with pytest.raises(ValueError):
            ShiftedEmpirical(center=np.inf, pooled_residuals=np.array([1.0]))

    @given(
        st.lists(st.floats(-20, 20, allow_nan=False), min_size=1, max_size=30),
        st.floats(-5, 5, allow_nan=False),
        st.floats(-30, 30, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_cdf_left_never_exceeds_cdf(self, resid, center, q):
        d = ShiftedEmpirical(center=center, pooled_residuals=np.asarray(resid))
        assert 0.0 <= d.cdf_left(q) <= d.cdf(q) <= 1.0
