"""Invariances the covariate-adjusted Spearman guarantees by its definition.

The estimate is a correlation of probability-scale residuals from fitted
conditional CDFs (Liu, Li, Wanga & Shepherd, Biometrics 2018), so it
depends on an orderable column only through the order of its values, and
the correlation is symmetric in its two residual vectors.  Each property
compares two runs of psrkit on drawn data; where the first run raises, the
second must raise the same error.
"""
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from psrkit.data_model import Column, DesignMatrix
from psrkit.estimators import CUMULATIVE_LINKS
from psrkit.exceptions import PsrKitError
from psrkit.rank_association import (
    ScanConfig,
    batch_partial_spearman,
    partial_spearman,
    spearman,
)

ORDER_MARGINS = ["empirical"] + [f"orm-{link}" for link in CUMULATIVE_LINKS]


def _levels(rng, latent, k):
    """``latent`` cut into about ``k`` ordered levels (every value its own
    level when ``k`` is None), with at least two levels present."""
    if k is None:
        return latent.copy()
    values = np.clip(np.round(latent * k / 4.0 + k / 2.0), 0, k - 1)
    values[:2] = 0, k - 1
    return values


@st.composite
def panels(draw, max_n=300):
    """Columns x and y, a design Z (None for no covariates) and a seed: n in
    [30, ``max_n``] rows, each column with drawn ties."""
    n = draw(st.integers(30, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = st.one_of(st.none(), st.integers(2, 12))
    p = draw(st.integers(0, 2))
    Zm = rng.normal(size=(n, p))
    if p == 2:
        Zm[:, 1] = rng.random(n) < 0.5
        Zm[:2, 1] = 0.0, 1.0
    shared = Zm.sum(axis=1)
    x = _levels(rng, shared + rng.normal(size=n), draw(ties))
    y = _levels(rng, shared + 0.5 * x + rng.normal(size=n), draw(ties))
    Z = DesignMatrix(Zm, ("z", "s")[:p]) if p else None
    return Column.continuous("x", x), Column.continuous("y", y), Z, draw(st.integers(0, 2**31))


def _increasing_map(rng, col):
    """A strictly increasing function of ``col`` built from its ranks, so
    that no two values merge and no tie splits."""
    codes = np.unique(col.values, return_inverse=True)[1]
    steps = rng.uniform(0.01, 100.0, codes.max() + 1)
    return Column.continuous(col.name, np.cumsum(steps)[codes] - rng.uniform(0, 1e3))


def _outcome(estimator, *args, **kw):
    """The estimator's result, or the type and text of the error it raised."""
    try:
        return estimator(*args, **kw)
    except PsrKitError as exc:
        return type(exc), str(exc)


_draws = st.fixed_dictionaries(
    {"n_boot": st.sampled_from([0, 2, 10, 20]), "n_perm": st.integers(0, 19)}
)


@given(panel=panels(), x_model=st.sampled_from(ORDER_MARGINS),
       y_model=st.sampled_from(ORDER_MARGINS), draws=_draws, map_seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_increasing_maps_change_nothing(panel, x_model, y_model, draws, map_seed):
    # estimate, interval, p-value and notes in bits
    x, y, Z, seed = panel
    rng = np.random.default_rng(map_seed)
    kw = dict(x_model=x_model, y_model=y_model, seed=seed, **draws)
    before = _outcome(partial_spearman, x, y, Z, **kw)
    after = _outcome(partial_spearman, _increasing_map(rng, x), _increasing_map(rng, y), Z, **kw)
    assert before == after


@given(panel=panels(), x_model=st.sampled_from(ORDER_MARGINS),
       y_model=st.sampled_from(ORDER_MARGINS), draws=_draws)
@settings(max_examples=30, deadline=None)
def test_swapping_x_and_y_keeps_estimate_and_interval(panel, x_model, y_model, draws):
    # not the p-value: the permutations act on the second residual vector
    x, y, Z, seed = panel
    xy = _outcome(partial_spearman, x, y, Z, x_model=x_model, y_model=y_model, seed=seed, **draws)
    yx = _outcome(partial_spearman, y, x, Z, x_model=y_model, y_model=x_model, seed=seed, **draws)
    if isinstance(xy, tuple):
        assert xy == yx
    else:
        assert (xy.estimate, xy.ci_low, xy.ci_high) == (yx.estimate, yx.ci_low, yx.ci_high)
        assert xy.notes == yx.notes


@given(panel=panels(), draws=_draws)
@settings(max_examples=40, deadline=None)
def test_partial_spearman_without_z_is_spearman(panel, draws):
    x, y, _, seed = panel
    partial = _outcome(partial_spearman, x, y, None, seed=seed, **draws)
    plain = _outcome(spearman, x, y, seed=seed, **draws)
    if isinstance(plain, tuple):
        assert partial == plain
    else:
        assert replace(partial, method="spearman") == plain


@given(panel=panels(), width=st.sampled_from([1, 5]), link=st.sampled_from(list(CUMULATIVE_LINKS)))
@settings(max_examples=30, deadline=None)
def test_scan_estimate_is_partial_spearman(panel, width, link):
    # one predictor is a stack of one, as partial_spearman's fit is: the same
    # bits.  Wider stacks sum in another order (gemm, not gemv): within 1e-15.
    x, y, Z, _ = panel
    preds = [x] + [Column.continuous(f"x{k}", np.roll(x.values, k)) for k in range(1, width)]
    rows = batch_partial_spearman(
        y, Z, preds, ScanConfig(x_model=f"orm-{link}", n_perm=0)
    )
    by_name = {row.name: row for row in rows}
    for col in preds:
        row = by_name[col.name]
        res = _outcome(
            partial_spearman, col, y, Z,
            x_model=f"orm-{link}", y_model="linear-empirical", n_boot=0, n_perm=0,
        )
        if isinstance(res, tuple):
            assert row.status != "ok" and row.detail == res[1]
        elif row.status != "ok":
            # the scan's own rule, which partial_spearman does not apply
            assert row.detail == "predictor residuals have (near) zero variance given Z"
        elif width == 1:
            assert row.estimate == res.estimate
        else:
            assert abs(row.estimate - res.estimate) <= 1e-15
