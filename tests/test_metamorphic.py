"""Invariances the covariate-adjusted Spearman guarantees by its definition.

The estimate is a correlation of probability-scale residuals from fitted
conditional CDFs (Liu, Li, Wanga & Shepherd, Biometrics 2018), so it
depends on an orderable column only through the order of its values, and
the correlation is symmetric in its two residual vectors.  Each property
compares two runs of psrkit on drawn data; where the first run raises, the
second must raise the same error.  Fitted margins are also invariant, up to
rounding, to how Z is written and to the order of the rows.  A scan row
depends only on the seed, the outcome, Z and its own predictor, and no
output depends on the number of worker processes.
"""
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psrkit.data_model import Column, DesignMatrix
from psrkit.estimators import CUMULATIVE_LINKS
from psrkit import rank_association
from psrkit.exceptions import PsrKitError
from psrkit.rank_association import (
    ScanConfig,
    batch_partial_spearman,
    margin_psr,
    partial_spearman,
    spearman,
)

ORDER_MARGINS = ["empirical"] + [f"orm-{link}" for link in CUMULATIVE_LINKS]
FITTED_MARGINS = [f"orm-{link}" for link in CUMULATIVE_LINKS] + ["linear", "linear-empirical"]


def _levels(rng, latent, k):
    """``latent`` cut into about ``k`` ordered levels (every value its own
    level when ``k`` is None), with at least two levels present."""
    if k is None:
        return latent.copy()
    values = np.clip(np.round(latent * k / 4.0 + k / 2.0), 0, k - 1)
    values[:2] = 0, k - 1
    return values


@st.composite
def panels(draw, max_n=300, min_p=0):
    """Columns x and y, a design Z (None for no covariates) and a seed: n in
    [30, ``max_n``] rows, each column with drawn ties, and ``min_p`` to 2
    covariates."""
    n = draw(st.integers(30, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = st.one_of(st.none(), st.integers(2, 12))
    p = draw(st.integers(min_p, 2))
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
    # bits.  Wider stacks sum in another order (gemm, not gemv), and a member
    # is then its fit alone within 1e-12 in alpha and beta (TestStackedFit).
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
            assert abs(row.estimate - res.estimate) <= _stack_rounding(col, Z, f"orm-{link}")


def _stack_rounding(col, Z, model):
    """How far the estimate of an ``orm-*`` member of one stack may be from
    its estimate in another: each member is its fit alone within 1e-12 in
    alpha and beta (TestStackedFit).  A link density is below 1/2, so a
    residual F(y-) + F(y) - 1 moves by at most 1e-12 (1 + |z_i|_1) and the
    correlation by at most that over std(u); n eps covers the correlation's
    own rounding."""
    rows = np.flatnonzero(~col.missing)
    Z = Z.take(rows) if Z is not None else None
    u = margin_psr(col.take(rows), Z, model).values
    z1 = 0.0 if Z is None else np.abs(Z.matrix).sum(axis=1).max()
    return 1e-12 * (1 + z1) / np.std(u) + u.size * np.finfo(float).eps


@st.composite
def scan_panels(draw):
    """An outcome, Z and a seed from :func:`panels`, with one to six
    predictors: the panel's x and shifted copies of it, each copy with a
    drawn share of missing cells."""
    x, y, Z, seed = draw(panels(max_n=150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    preds = []
    for k in range(draw(st.integers(1, 6))):
        miss = rng.random(x.n) < (draw(st.sampled_from([0.0, 0.05, 0.3])) if k else 0.0)
        values = np.where(miss, 0.0, np.roll(x.values, k))
        preds.append(Column.continuous(f"x{k}", values, missing=miss))
    return y, Z, preds, seed


def _scan_rows(y, Z, preds, x_model, n_perm, seed):
    """The scan's rows by predictor name, without their ranks, which depend
    on the other predictors."""
    config = ScanConfig(x_model=x_model, n_perm=n_perm, seed=seed)
    return {r.name: replace(r, rank=None) for r in batch_partial_spearman(y, Z, preds, config)}


@given(panel=scan_panels(), x_model=st.sampled_from(["orm-logit", "linear", "linear-empirical"]),
       n_perm=st.integers(0, 39))
@settings(max_examples=25, deadline=None)
def test_scan_row_depends_on_its_own_predictor_only(panel, x_model, n_perm):
    # in bits: the predictor's position, its block, the block size and the
    # other predictors change nothing, the p-value included, because every
    # block scores its predictors against the same draws.  An orm-* member's
    # fit sums in another order in another stack (gemm, not gemv), so its
    # estimate is compared within that rounding.
    y, Z, preds, seed = panel
    base = _scan_rows(y, Z, preds, x_model, n_perm, seed)
    variants = [_scan_rows(y, Z, preds[::-1], x_model, n_perm, seed)]
    for width in (1, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rank_association, "_SCAN_BLOCK", width)
            variants.append(_scan_rows(y, Z, preds, x_model, n_perm, seed))
    alone = {}
    for col in preds:
        alone.update(_scan_rows(y, Z, [col], x_model, n_perm, seed))
    variants.append(alone)
    for other in variants:
        for col in preds:
            a, b = base[col.name], other[col.name]
            if x_model.startswith("orm-") and a.status == b.status == "ok":
                assert abs(a.estimate - b.estimate) <= _stack_rounding(col, Z, x_model)
                a, b = replace(a, estimate=0.0), replace(b, estimate=0.0)
            assert repr(a) == repr(b)


@given(panel=scan_panels(), n_boot=st.sampled_from([0, 12]), n_perm=st.integers(0, 19))
@settings(max_examples=6, deadline=None)
def test_outputs_do_not_depend_on_workers(panel, n_boot, n_perm):
    # blocks of 2 predictors and of 4 bootstrap replicates, so that 2 and 3
    # workers share out several blocks; compared by repr, which is bits
    y, Z, preds, seed = panel
    scans, pairs = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rank_association, "_SCAN_BLOCK", 2)
        mp.setattr(rank_association, "_BOOT_BLOCK_CELLS", 4 * y.n)
        for workers in (1, 2, 3):
            scans.append(repr(batch_partial_spearman(
                y, Z, preds, ScanConfig(n_perm=n_perm, seed=seed, workers=workers)
            )))
            pairs.append(repr(_outcome(
                partial_spearman, preds[0], y, Z,
                n_boot=n_boot, n_perm=n_perm, seed=seed, workers=workers,
            )))
    assert scans[0] == scans[1] == scans[2]
    assert pairs[0] == pairs[1] == pairs[2]


def _fitted_estimate(x, y, Z, margins):
    """``partial_spearman``'s estimate with no draws, the type of the error
    it raised, or None where a margin separated: a capped fit stops at a
    point that depends on how Z is written."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        res = _outcome(partial_spearman, x, y, Z, x_model=margins[0], y_model=margins[1],
                       n_boot=0, n_perm=0)
    if any("complete separation" in str(w.message) for w in caught):
        return None
    return res[0] if isinstance(res, tuple) else res.estimate


def _assert_same_estimate(before, after):
    if before is None or after is None:
        return
    if isinstance(before, float) and isinstance(after, float):
        assert abs(before - after) <= 1e-12
    else:
        assert before == after


_fitted_margins = st.tuples(st.sampled_from(FITTED_MARGINS), st.sampled_from(FITTED_MARGINS))


@given(panel=panels(min_p=1), margins=_fitted_margins, map_seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_affine_change_of_z_keeps_estimate(panel, margins, map_seed):
    # Z -> ZA + c with A = Q diag(s), Q orthogonal and s in [0.5, 2]: the
    # fitted conditional CDFs, and so the residuals, do not change
    x, y, Z, _ = panel
    rng = np.random.default_rng(map_seed)
    q = np.linalg.qr(rng.normal(size=(Z.p, Z.p)))[0]
    A = q * rng.uniform(0.5, 2.0, Z.p)
    moved = DesignMatrix(Z.matrix @ A + rng.uniform(-5.0, 5.0, Z.p), Z.names)
    before = _fitted_estimate(x, y, Z, margins)
    _assert_same_estimate(before, _fitted_estimate(x, y, moved, margins))


@given(panel=panels(), margins=_fitted_margins, perm_seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_row_permutation_keeps_estimate(panel, margins, perm_seed):
    x, y, Z, _ = panel
    perm = np.random.default_rng(perm_seed).permutation(x.n)
    before = _fitted_estimate(x, y, Z, margins)
    moved = Z.take(perm) if Z is not None else None
    after = _fitted_estimate(x.take(perm), y.take(perm), moved, margins)
    _assert_same_estimate(before, after)
