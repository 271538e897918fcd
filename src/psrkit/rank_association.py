"""Rank association through correlations of probability-scale residuals.

The Spearman rank correlation of two orderable columns equals the Pearson
correlation of their residuals against intercept-only (empirical CDF) fits.
Replacing those marginal fits with conditional models on shared covariates
Z gives a covariate-adjusted rank correlation: the partial Spearman.  A
conditional variant reports the correlation within strata of a categorical
Z, or along a kernel-weighted grid for continuous Z.

Inference is resampling based: percentile confidence intervals come from a
pairs bootstrap that refits both marginal models on each resample, and
p-values from permuting one residual vector against the other with the
fitted models held fixed.  All randomness derives from a caller-supplied
seed through counter-based (Philox) substreams keyed by task, so results
do not depend on evaluation order or worker scheduling.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .data_model import Column, ColumnKind, DesignMatrix
from .estimators import (
    CUMULATIVE_LINKS,
    ModelFit,
    fit_cumulative_link,
    fit_cumulative_link_batch,
    fit_empirical,
    fit_exponential_survival,
    fit_linear_normal,
    fit_poisson,
    predict_distribution,
)
from .exceptions import DegenerateFitError, InputError, NumericError, PsrKitError
from .fitted_dist import FittedDistribution, ShiftedEmpirical
from .psr import PsrVector, psr_all, psr_from_omers

__all__ = [
    "MARGIN_MODELS",
    "ResamplingInfo",
    "AssocResult",
    "margin_psr",
    "spearman",
    "partial_spearman",
    "conditional_spearman",
    "psr_covariance",
    "psr_variance_discrete",
    "ScanConfig",
    "ScanRow",
    "batch_partial_spearman",
    "default_margin_model",
    "correlation_matrix",
]

#: substream tags: every resampling task draws from Philox(key=(seed, tag-mix))
_TAG_BOOT = 1
_TAG_PERM = 2
_TAG_SCAN = 3
_TAG_STRATUM = 4
_TAG_GRID = 5
_TAG_PAIR = 6

_MASK64 = (1 << 64) - 1


def _fold_seed(seed: int, *tags: int) -> int:
    """Mix tags into a 64-bit value, starting from ``seed``."""
    acc = int(seed) & _MASK64
    for t in tags:
        acc = (acc * 1000003 + int(t)) & _MASK64
    return acc


def _substream(seed: int, *tags: int) -> np.random.Generator:
    """Counter-based generator for one resampling task.

    Independent tasks get independent streams from (seed, tag mix), so a
    batch scan produces identical numbers no matter how many workers run it.
    """
    key = np.array([int(seed) & _MASK64, _fold_seed(0, *tags)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class ResamplingInfo:
    kind: str
    n_draws: int
    seed: int


@dataclass(frozen=True)
class AssocResult:
    """A rank-association estimate with resampling-based inference.

    ``ci_low``/``ci_high`` bracket the estimate when a bootstrap was run;
    ``p_value`` comes from a permutation test when requested; each is
    ``None`` when its resampling was not performed.  ``x_model`` and
    ``y_model`` name the margin families that were fitted.
    """

    estimate: float
    ci_low: float | None
    ci_high: float | None
    p_value: float | None
    method: str
    n_used: int
    resampling: tuple[ResamplingInfo, ...] = ()
    notes: tuple[str, ...] = ()
    x_model: str | None = None
    y_model: str | None = None


# ---------------------------------------------------------------------------
# marginal residual vectors
# ---------------------------------------------------------------------------


def _model_psr(fit: ModelFit, col: Column, Z: DesignMatrix | None) -> PsrVector:
    return psr_all(fit, col, Z)


def _model_row(fit: ModelFit, col: Column, Z: DesignMatrix | None, i: int):
    return predict_distribution(fit, Z.matrix[i] if Z is not None else None)


def _least_squares_fitted(fit: ModelFit, col: Column, Z: DesignMatrix | None) -> np.ndarray:
    return fit.alpha[0] + (Z.matrix @ fit.beta if Z is not None else np.zeros(col.n))


def _rank_psr(fit: ModelFit, col: Column, Z: DesignMatrix | None) -> PsrVector:
    """Rank the least-squares residuals against their own empirical distribution."""
    resid = col.values - _least_squares_fitted(fit, col, Z)
    return psr_from_omers(resid, source=f"linear-empirical:{col.name}")


def _rank_row(fit: ModelFit, col: Column, Z: DesignMatrix | None, i: int):
    fitted = _least_squares_fitted(fit, col, Z)
    return ShiftedEmpirical(center=float(fitted[i]), pooled_residuals=col.values - fitted)


@dataclass(frozen=True)
class _MarginModel:
    """How one margin family fits a column, refits it on subsets of its rows
    (a scan predictor's observed rows, a bootstrap resample), scores every
    row of a column, and describes one row's fitted distribution.

    Entries call the fitters, ``psr_all`` and ``predict_distribution`` by
    their module-level names at call time, so replacing one of those names
    (to trace or count calls) reaches every use.
    """

    fit: Callable[[Column, DesignMatrix | None], ModelFit]
    residuals: Callable[[ModelFit, Column, DesignMatrix | None], PsrVector] = _model_psr
    row_distribution: Callable[
        [ModelFit, Column, DesignMatrix | None, int], FittedDistribution
    ] = _model_row
    #: ``fit_stack(cols, Z, weights)`` fits a stack of columns at once with
    #: ``fit_cumulative_link_batch``'s contract; None fits each column alone
    fit_stack: Callable[..., list] | None = None

    def fit_rows(self, cols: Sequence[Column], Z: DesignMatrix | None, rows) -> list:
        """The fit of ``cols[k].take(rows[k])`` for each k, or the
        :class:`PsrKitError` that fit raised.

        A stacked fit takes member k as the original rows with frequency
        weights ``bincount(rows[k])`` (for a scan predictor's observed rows,
        0 at its missing cells and 1 elsewhere), which is the same fit up to
        rounding.  A subset whose design a fit alone rejects (it lost a
        level of a binary term, say) is a failed fit: its
        :class:`InputError` becomes numeric.
        """
        if not rows:
            return []
        if self.fit_stack is not None:
            weights = np.array([np.bincount(r, minlength=c.n) for c, r in zip(cols, rows)])
            return self.fit_stack(cols, Z, weights)
        out = []
        for col, r in zip(cols, rows):
            try:
                out.append(self.fit(col.take(r), Z.take(r) if Z is not None else None))
            except InputError as exc:
                out.append(DegenerateFitError(str(exc)))
            except PsrKitError as exc:
                out.append(exc)
        return out

    def rows_psr(self, fit, col: Column, Z: DesignMatrix | None, rows) -> PsrVector:
        """Residuals of ``col.take(rows)`` under its :meth:`fit_rows` fit;
        raises the error of a failed fit."""
        if isinstance(fit, PsrKitError):
            raise fit
        return self.residuals(fit, col.take(rows), Z.take(rows) if Z is not None else None)


#: the margin families: ``empirical`` ignores Z entirely; ``linear`` uses
#: normal-theory residuals from least squares; ``linear-empirical`` ranks
#: the least-squares residuals against their own empirical distribution;
#: ``orm-*`` are cumulative-link fits, whose :meth:`_MarginModel.fit_rows`
#: is one stacked fit; ``poisson`` and ``exp-surv`` are the log-link count
#: and censored exponential models.
_MARGINS: dict[str, _MarginModel] = {
    "empirical": _MarginModel(
        lambda col, Z: fit_empirical(col),
        lambda fit, col, Z: psr_all(fit, col),
        lambda fit, col, Z, i: predict_distribution(fit, None),
    ),
    "linear": _MarginModel(lambda col, Z: fit_linear_normal(col, Z)),
    "linear-empirical": _MarginModel(
        lambda col, Z: fit_linear_normal(col, Z), _rank_psr, _rank_row
    ),
    **{
        f"orm-{link}": _MarginModel(
            lambda col, Z, link=link: fit_cumulative_link(col, Z, link),
            fit_stack=lambda cols, Z, weights, link=link: fit_cumulative_link_batch(
                cols, Z, link, weights=weights
            ),
        )
        for link in CUMULATIVE_LINKS
    },
    "poisson": _MarginModel(lambda col, Z: fit_poisson(col, Z)),
    "exp-surv": _MarginModel(lambda col, Z: fit_exponential_survival(col, Z)),
}

MARGIN_MODELS = tuple(_MARGINS)


def _margin(model: str) -> _MarginModel:
    """The margin family named ``model``."""
    margin = _MARGINS.get(model)
    if margin is None:
        raise InputError(f"unknown margin model {model!r}; choose from {', '.join(MARGIN_MODELS)}")
    return margin


def _margin_fit(col: Column, Z: DesignMatrix | None, model: str) -> tuple[ModelFit, PsrVector]:
    """The fit of one column's margin and the residuals it gives."""
    margin = _margin(model)
    if Z is not None and Z.p == 0:
        Z = None
    fit = margin.fit(col, Z)
    return fit, margin.residuals(fit, col, Z)


def margin_psr(col: Column, Z: DesignMatrix | None, model: str) -> PsrVector:
    """Residuals of one column against a conditional (or marginal) model.

    ``model`` names one of :data:`MARGIN_MODELS`.
    """
    return _margin_fit(col, Z, model)[1]


def default_margin_model(col: Column, Z: DesignMatrix | None) -> str:
    if col.kind is ColumnKind.RIGHT_CENSORED:
        return "exp-surv"
    if Z is None or Z.p == 0:
        return "empirical"
    return "orm-logit"


def _check_columns(*cols: Column, Z: DesignMatrix | None = None) -> DesignMatrix | None:
    """Check that the columns and Z have one length and the columns no
    missing value; returns Z, or None when Z has no columns."""
    if any(c.n != cols[0].n for c in cols):
        raise InputError("columns have different lengths")
    for c in cols:
        if c.missing.any():
            raise InputError(f"column {c.name!r} has missing values; run complete_cases first")
    if Z is not None and Z.n != cols[0].n:
        raise InputError("Z does not align with the columns")
    return Z if Z is not None and Z.p else None


def _check_orderable(*cols: Column) -> None:
    for c in cols:
        if not c.is_orderable:
            raise InputError(f"column {c.name!r} is not orderable")


def _pearson(u: np.ndarray, v: np.ndarray, rows=None):
    """Pearson correlation of u with v, or with each row of a (b, n) stack.

    The rows of a stack must be permutations of one vector, as the
    permutation draws are: their mean m and centred norm sv are taken once,
    from the first row, and row b scores ``(v_b @ uc - m * sum(uc)) / (su *
    sv)`` with one product.  That differs from centring each row by about
    1e-16, far inside ``_TIE_EPS``.
    """
    uc = u - u.mean()
    su = float(np.sqrt(uc @ uc))
    if v.ndim == 2:
        m = v[0].mean()
        vc = v[0] - m
        sv = float(np.sqrt(vc @ vc))
        return (v @ uc - m * uc.sum()) / (su * sv)
    # tested before centring: equal values can centre to rounding noise, not 0
    if np.ptp(u) == 0.0 or np.ptp(v) == 0.0:
        raise DegenerateFitError("residual vector has zero variance (constant column?)")
    vc = v - v.mean()
    return float((uc @ vc) / (su * float(np.sqrt(vc @ vc))))


def _mean_product(u: np.ndarray, v: np.ndarray, rows=None):
    return np.mean(u * v, axis=-1)


# A statistic maps residual vectors ``(u, v, rows)`` to one float, or to an
# array with one value per output.  ``rows`` is None for the data as given
# and a bootstrap replicate's row indices otherwise, for statistics that
# depend on more than u and v.  For permutations ``v`` is a (b, n) stack of
# permuted copies and the statistic returns one value per copy (and output).

#: cells (draws x rows) in one block of permutation draws
_PERM_BLOCK_CELLS = 1 << 16

#: a permuted statistic within this of |observed| counts as a tie.  With
#: discrete margins distinct statistics differ by at least n**-3, so up to
#: n = 10**4 rows this counts exact ties and nothing else; beyond that a
#: draw up to 1e-12 below |observed| may also count (conservative).
_TIE_EPS = 1e-12


def _perm_pvalue(u, v, observed, n_perm, rng, stat):
    """(1 + b) / (B + 1) per output, b counting draws with |T_b| >= |T_obs| - eps.

    Each block of draws is one ``rng.permuted`` call that shuffles stacked
    copies of v in place.  The shuffle's draws depend only on the shape, so
    row k holds ``v[rng.permutation(n)]`` for the k-th draw, bit for bit.
    """
    n = v.size
    block = max(1, _PERM_BLOCK_CELLS // n)
    target = np.abs(observed) - _TIE_EPS
    hits = 0
    for start in range(0, n_perm, block):
        stack = np.tile(v, (min(block, n_perm - start), 1))
        stats = stat(u, rng.permuted(stack, axis=1, out=stack), None)
        hits = hits + np.count_nonzero(np.abs(stats) >= target, axis=0)
    # an output with no observed value (NaN) has no p-value either
    return np.where(np.isnan(observed), np.nan, (1 + hits) / (n_perm + 1))


def _pool_map(task, items, n_items: int, workers: int) -> list:
    """``[task(item) for item in items]``, the ``n_items`` items taken in order.

    Serial for one worker or one item.  Otherwise ``min(workers, n_items)``
    worker processes take the items, with at most 2 x that many submitted
    and not yet collected, so a lazy ``items`` is drawn no faster than the
    pool works through it.  Results are collected in item order, so the
    results, and the first error in item order, are the serial ones.
    """
    if workers <= 1 or n_items <= 1:
        return list(map(task, items))
    from concurrent.futures import ProcessPoolExecutor

    workers = min(workers, n_items)
    out: list = []
    pending: deque = deque()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            for item in items:
                if len(pending) == 2 * workers:
                    out.append(pending.popleft().result())
                pending.append(pool.submit(task, item))
            while pending:
                out.append(pending.popleft().result())
        finally:
            for future in pending:
                future.cancel()
    return out


#: replicate x row cells in one block of bootstrap replicates, whose margins
#: are refitted together (16 replicates at n = 2000)
_BOOT_BLOCK_CELLS = 1 << 15

_CAPPED = "coefficients capped"


def _boot_block(idxs, x, y, Z, x_model, y_model, stat) -> list[tuple[object, bool]]:
    """``(statistic or None, capped)`` for each bootstrap replicate of a
    block, replicate k taking rows ``idxs[k]``.

    The block's replicates are refitted together, one margin at a time, and
    then taken in order: a replicate whose refit or residuals raise a
    :class:`NumericError` gets None, any other error propagates, and a
    replicate counts as capped when either of its refits capped, so that
    the count does not depend on which margin is x.
    """
    x_margin, y_margin = _margin(x_model), _margin(y_model)
    x_fits = x_margin.fit_rows([x] * len(idxs), Z, idxs)
    y_fits = y_margin.fit_rows([y] * len(idxs), Z, idxs)
    out = []
    for idx, x_fit, y_fit in zip(idxs, x_fits, y_fits):
        margins = ((x_margin, x, x_fit), (y_margin, y, y_fit))
        was_capped = any(
            isinstance(fit, ModelFit) and any(_CAPPED in note for note in fit.notes)
            for _, _, fit in margins
        )
        draw = None
        try:
            u, v = (margin.rows_psr(fit, col, Z, idx).values for margin, col, fit in margins)
            draw = stat(u, v, idx)
        except NumericError:
            pass
        out.append((draw, was_capped))
    return out


def _bootstrap_ci(x, y, Z, x_model, y_model, n_boot, rng, stat, workers):
    """Percentile interval per output from a pairs bootstrap that refits both
    margins, the number of replicates that failed and the number whose
    refits capped coefficients for separation.

    Replicate b draws its rows from ``rng`` in turn, in this process, and
    the replicates are refitted in fixed blocks (:func:`_boot_block`), which
    ``workers`` processes share out.  Failures and caps are tallied in
    replicate order, so the result does not depend on ``workers``.
    """
    n = x.n
    block = max(1, _BOOT_BLOCK_CELLS // n)
    starts = range(0, n_boot, block)
    blocks = (
        [rng.integers(0, n, size=n) for _ in range(min(block, n_boot - start))]
        for start in starts
    )
    task = partial(_boot_block, x=x, y=y, Z=Z, x_model=x_model, y_model=y_model, stat=stat)
    replicates = [r for rows in _pool_map(task, blocks, len(starts), workers) for r in rows]
    draws = [draw for draw, _ in replicates if draw is not None]
    capped = sum(was_capped for _, was_capped in replicates)
    if len(draws) < max(2, n_boot // 2):
        raise NumericError(f"bootstrap failed: only {len(draws)} of {n_boot} replicates usable")
    draws = np.array(draws).reshape(len(draws), -1)
    # an output that is NaN in every replicate gets NaN bounds, not a warning
    empty = np.isnan(draws).all(axis=0)
    lo, hi = np.nanpercentile(np.where(empty, 0.0, draws), [2.5, 97.5], axis=0)
    lo[empty] = hi[empty] = np.nan
    return lo.tolist(), hi.tolist(), n_boot - len(draws), capped


def _check_draws(
    n_boot: int = 0, n_perm: int = 0, workers: int = 1, seed: int | None = None, flags=None
) -> None:
    """Reject draw counts that give no p-value or interval (a negative count,
    or one bootstrap replicate, which can never leave 2 usable), a worker
    count below 1, and resampling without a seed.  Callers check before
    fitting anything, so a bad request is an input error, not a failed fit.
    ``flags`` maps each parameter name to the command-line flag that set it,
    which the message then names."""
    def flag(name: str) -> str:
        return f" ({flags[name]})" if flags else ""

    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}{flag('workers')}")
    if n_perm < 0:
        raise InputError(f"n_perm must be >= 0, got {n_perm}{flag('n_perm')}")
    if n_boot < 0 or n_boot == 1:
        raise InputError(f"n_boot must be 0 or at least 2, got {n_boot}{flag('n_boot')}")
    if (n_boot or n_perm) and seed is None:
        raise InputError(f"a seed{flag('seed')} is required whenever resampling is requested")


def _score(u, v, stat, n_perm, seed, *tags):
    """``stat`` of the residual pair and its permutation p-value (NaN without
    draws), drawn from the substream ``(seed, *tags)``."""
    observed = stat(u, v, None)
    if not n_perm:
        return observed, np.nan
    return observed, _perm_pvalue(u, v, observed, n_perm, _substream(seed, *tags), stat)


def _resampled_results(
    x, y, Z, x_model, y_model, *, stat, method, n_boot, n_perm, seed, tags=(), workers=1
) -> list[AssocResult]:
    """One result per output of ``stat``, checking the columns, Z and then
    the draws before any fit; a model of None is the default one, ``tags``
    prefix the substream tags, and ``workers`` share out the bootstrap."""
    Z = _check_columns(x, y, Z=Z)
    _check_draws(n_boot, n_perm, workers, seed)
    x_model = x_model or default_margin_model(x, Z)
    y_model = y_model or default_margin_model(y, Z)
    u = margin_psr(x, Z, x_model).values
    v = margin_psr(y, Z, y_model).values
    observed, p = _score(u, v, stat, n_perm, seed, *tags, _TAG_PERM)
    estimates = np.atleast_1d(observed).tolist()
    ci_low = ci_high = p_values = [None] * len(estimates)
    info: list[ResamplingInfo] = []
    notes: list[str] = []
    if n_boot:
        rng = _substream(seed, *tags, _TAG_BOOT)
        ci_low, ci_high, failures, capped = _bootstrap_ci(
            x, y, Z, x_model, y_model, n_boot, rng, stat, workers
        )
        info.append(ResamplingInfo("bootstrap", n_boot, seed))
        if failures:
            notes.append(f"{failures} of {n_boot} bootstrap replicates failed and were dropped")
        if capped:
            notes.append(f"{capped} of {n_boot} bootstrap replicates capped coefficients")
    if n_perm:
        p_values = np.atleast_1d(p).tolist()
        info.append(ResamplingInfo("permutation", n_perm, seed))
    return [
        AssocResult(
            estimate=e,
            ci_low=lo,
            ci_high=hi,
            p_value=p,
            method=method,
            n_used=x.n,
            resampling=tuple(info),
            notes=tuple(notes),
            x_model=x_model,
            y_model=y_model,
        )
        for e, lo, hi, p in zip(estimates, ci_low, ci_high, p_values)
    ]


# ---------------------------------------------------------------------------
# public estimators
# ---------------------------------------------------------------------------


def spearman(
    x: Column,
    y: Column,
    *,
    n_boot: int = 0,
    n_perm: int = 0,
    seed: int | None = None,
) -> AssocResult:
    """Spearman rank correlation as a correlation of empirical-CDF residuals.

    With ties this equals the mid-rank Spearman coefficient exactly.
    """
    _check_orderable(x, y)
    return _resampled_results(
        x, y, None, "empirical", "empirical",
        stat=_pearson, method="spearman", n_boot=n_boot, n_perm=n_perm, seed=seed,
    )[0]


def partial_spearman(
    x: Column,
    y: Column,
    Z: DesignMatrix | None,
    *,
    x_model: str | None = None,
    y_model: str | None = None,
    n_boot: int = 1000,
    n_perm: int = 1000,
    seed: int | None = None,
    workers: int = 1,
) -> AssocResult:
    """Covariate-adjusted Spearman: correlation of residuals from x|Z and y|Z.

    Margins default to cumulative-link (logit) fits, or to the marginal
    empirical CDF when Z is empty, in which case the estimate coincides with
    :func:`spearman`.  ``workers`` processes share out the bootstrap's
    blocks of replicates; the result is the same at every worker count.
    """
    return _resampled_results(
        x, y, Z, x_model, y_model, stat=_pearson, method="partial_spearman",
        n_boot=n_boot, n_perm=n_perm, seed=seed, workers=workers,
    )[0]


def psr_covariance(
    x: Column,
    y: Column,
    Z: DesignMatrix | None = None,
    *,
    x_model: str | None = None,
    y_model: str | None = None,
    n_boot: int = 0,
    n_perm: int = 0,
    seed: int | None = None,
) -> AssocResult:
    """Mean product of the two residual vectors (an unscaled association).

    Shares the sign and the zero of the correlation-based estimate but keeps
    the raw probability-scale units.
    """
    return _resampled_results(
        x, y, Z, x_model, y_model, stat=_mean_product, method="psr_covariance",
        n_boot=n_boot, n_perm=n_perm, seed=seed,
    )[0]


def psr_variance_discrete(probs) -> float:
    """Variance of the residual of a draw from a discrete distribution
    against that same distribution: (1 - sum f^3) / 3.

    Approaches the continuous-outcome value 1/3 as atoms shrink.
    """
    f = np.asarray(probs, dtype=float)
    if f.ndim != 1 or f.size == 0:
        raise InputError("probs must be a nonempty 1-d array")
    if np.any(f < 0) or abs(f.sum() - 1.0) > 1e-12:
        raise InputError("probs must be nonnegative and sum to 1")
    return float((1.0 - np.sum(f**3)) / 3.0)


def conditional_spearman(
    x: Column,
    y: Column,
    z: Column,
    *,
    x_model: str | None = None,
    y_model: str | None = None,
    n_grid: int = 50,
    bandwidth: float | None = None,
    n_boot: int = 0,
    n_perm: int = 0,
    seed: int | None = None,
) -> list[tuple[object, AssocResult]]:
    """Rank correlation of x and y as a function of a single covariate z.

    Categorical z: one spearman estimate per level (each level needs >= 5
    rows).  Continuous z (>= 30 rows): residuals from x|z and y|z fits are
    correlated with Gaussian kernel weights on an evenly spaced grid of
    ``n_grid`` z values; the bandwidth defaults to Silverman's rule.
    """
    _check_columns(x, y, z)
    if z.kind in (ColumnKind.ORDINAL, ColumnKind.BINARY):
        return _conditional_categorical(x, y, z, x_model, y_model, n_boot, n_perm, seed)
    if z.kind is ColumnKind.CONTINUOUS:
        return _conditional_continuous(
            x, y, z, x_model, y_model, n_grid, bandwidth, n_boot, n_perm, seed
        )
    raise InputError(f"column {z.name!r}: conditioning needs a categorical or continuous column")


def _conditional_categorical(x, y, z, x_model, y_model, n_boot, n_perm, seed):
    codes, counts = np.unique(z.values, return_counts=True)
    thin = [z.label_of(c) for c in codes[counts < 5]]
    if thin:
        raise InputError(f"column {z.name!r}: levels with fewer than 5 rows: {', '.join(thin)}")
    out = []
    for code in codes:
        rows = np.flatnonzero(z.values == code)
        xs, ys = x.take(rows), y.take(rows)
        sub_seed = _fold_seed(seed, _TAG_STRATUM, int(code)) if seed is not None else None
        (res,) = _resampled_results(
            xs, ys, None, x_model, y_model, stat=_pearson, method="conditional_spearman",
            n_boot=n_boot, n_perm=n_perm, seed=sub_seed,
        )
        label = z.levels[int(code)] if z.levels is not None else int(code)
        out.append((label, res))
    return out


def _silverman_bandwidth(zv: np.ndarray) -> float:
    sd = float(np.std(zv, ddof=1))
    q75, q25 = np.percentile(zv, [75, 25])
    spread = min(sd, (q75 - q25) / 1.34)
    return 0.9 * spread * zv.size ** (-0.2)


def _weighted_corr(u, v, w):
    """Weighted correlation of u with v, or with each row of a (b, n) stack."""
    sw = w.sum()
    if sw <= 0:
        return np.full(v.shape[:-1], np.nan)
    mu = (w @ u) / sw
    mv = (v @ w) / sw
    cu = u - mu
    cv = v - mv[..., None]
    vu = w @ np.square(cu)
    vv = np.square(cv) @ w
    with np.errstate(divide="ignore", invalid="ignore"):
        r = ((cu * cv) @ w) / np.sqrt(vu * vv)
    return np.where((vu > 0) & (vv > 0), r, np.nan)


def _conditional_continuous(x, y, z, x_model, y_model, n_grid, bandwidth, n_boot, n_perm, seed):
    if x.n < 30:
        raise InputError("conditional estimation over a continuous z needs >= 30 rows")
    zv = z.values
    h = bandwidth if bandwidth is not None else _silverman_bandwidth(zv)
    if h <= 0:
        raise InputError("kernel bandwidth must be positive; supply bandwidth explicitly")
    Zd = DesignMatrix(zv[:, None], (z.name,))
    grid = np.linspace(zv.min(), zv.max(), n_grid)

    weights = np.exp(-0.5 * np.square((zv[None, :] - grid[:, None]) / h))

    def curve(u, v, rows) -> np.ndarray:
        w = weights if rows is None else weights.take(rows, axis=1)
        return np.stack([_weighted_corr(u, v, w[g]) for g in range(n_grid)], axis=-1)

    results = _resampled_results(
        x, y, Zd, x_model, y_model, stat=curve, method="conditional_spearman",
        n_boot=n_boot, n_perm=n_perm, seed=seed, tags=(_TAG_GRID,),
    )
    return list(zip(grid.tolist(), results))


# ---------------------------------------------------------------------------
# batch scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanConfig:
    """Settings for a many-predictors scan against a single outcome."""

    x_model: str = "orm-logit"
    y_model: str = "linear-empirical"
    n_perm: int = 1000
    workers: int = 1
    seed: int | None = None


@dataclass(frozen=True)
class ScanRow:
    name: str
    estimate: float
    p_value: float
    n_used: int
    status: str
    detail: str = ""
    rank: int | None = None


#: predictors per block of a scan.  Each block's x-margins are fitted as one
#: batch, and ``workers`` only splits the list of blocks between processes,
#: so the blocks, and with them every output byte, are the same at every
#: worker count.
_SCAN_BLOCK = 64


def _scan_block(block, ypsr, Z, x_model, n_perm, seed) -> list[ScanRow]:
    """The scan rows of one block ``(start, predictors)``; predictor k of the
    block draws its permutations from the substream (seed, scan, start + k)."""
    start, cols = block
    margin = _margin(x_model)
    observed = [np.flatnonzero(~col.missing) for col in cols]
    rows: list[ScanRow | None] = [None] * len(cols)
    fitted = []
    for k, col in enumerate(cols):
        n_used = observed[k].size
        if n_used < 3:
            rows[k] = ScanRow(
                col.name, np.nan, np.nan, n_used, "failed", "fewer than 3 observations"
            )
        elif float(np.std(col.values[observed[k]])) == 0.0:
            rows[k] = ScanRow(
                col.name, np.nan, np.nan, n_used, "degenerate",
                "predictor is constant on its observed rows",
            )
        else:
            fitted.append(k)
    fits = margin.fit_rows([cols[k] for k in fitted], Z, [observed[k] for k in fitted])
    for k, fit in zip(fitted, fits):
        rows[k] = _scan_row(cols[k], observed[k], start + k, fit, margin, ypsr, Z, n_perm, seed)
    return rows


def _scan_row(col, observed, idx, fit, margin, ypsr, Z, n_perm, seed) -> ScanRow:
    """Residuals, estimate and p-value of one predictor from its x-margin
    fit on its ``observed`` rows."""
    n_used = observed.size
    try:
        u = margin.rows_psr(fit, col, Z, observed).values
    except PsrKitError as exc:
        return ScanRow(col.name, np.nan, np.nan, n_used, "failed", str(exc))
    if float(np.std(u)) < 1e-6:
        return ScanRow(
            col.name, np.nan, np.nan, n_used, "degenerate",
            "predictor residuals have (near) zero variance given Z",
        )
    try:
        est, p = _score(u, ypsr[observed], _pearson, n_perm, seed, _TAG_SCAN, idx)
    except DegenerateFitError as exc:
        return ScanRow(col.name, np.nan, np.nan, n_used, "degenerate", str(exc))
    return ScanRow(col.name, est, float(p), n_used, "ok", "; ".join(fit.notes))


def batch_partial_spearman(
    y: Column,
    Z: DesignMatrix | None,
    predictors: Sequence[Column],
    config: ScanConfig,
) -> list[ScanRow]:
    """Partial rank correlation of one outcome against many predictors.

    The outcome's residual vector is computed once (by default through the
    least-squares-then-rank device, ``linear-empirical``); each predictor is
    then residualized on Z, correlated, and assigned a permutation p-value
    from its own seed-derived substream.  Predictors are taken in fixed
    blocks of ``_SCAN_BLOCK``, whose x-margins are fitted as one batch (one
    stacked Newton loop for ``orm-*``); ``workers`` processes share out the
    blocks.  Rows with missing predictor cells use the remaining rows.  A
    failed or degenerate predictor is reported and the scan continues; a
    failed outcome fit aborts.  Output is ranked by p-value with |estimate|
    breaking ties; with ``n_perm`` = 0 no draw is made, every p-value is NaN
    and the ranking is by |estimate|.
    """
    _check_draws(n_perm=config.n_perm, workers=config.workers, seed=config.seed)
    _margin(config.x_model)  # an unknown x-model fails before the outcome is fitted
    Z = _check_columns(y, Z=Z)
    for col in predictors:
        if col.n != y.n:
            raise InputError(f"predictor {col.name!r} does not align with the outcome")
    ypsr = margin_psr(y, Z, config.y_model).values

    task = partial(
        _scan_block, ypsr=ypsr, Z=Z,
        x_model=config.x_model, n_perm=config.n_perm, seed=config.seed,
    )
    blocks = [
        (start, list(predictors[start : start + _SCAN_BLOCK]))
        for start in range(0, len(predictors), _SCAN_BLOCK)
    ]
    results = [
        row for rows in _pool_map(task, blocks, len(blocks), config.workers) for row in rows
    ]

    ok = [r for r in results if r.status == "ok"]
    rest = [r for r in results if r.status != "ok"]
    ok.sort(key=lambda r: (r.p_value if config.n_perm else 0.0, -abs(r.estimate), r.name))
    ranked = [replace(r, rank=i + 1) for i, r in enumerate(ok)]
    return ranked + rest


# ---------------------------------------------------------------------------
# correlation matrices
# ---------------------------------------------------------------------------


def correlation_matrix(
    d,
    biomarkers: Sequence[str],
    Z: DesignMatrix | None,
    *,
    n_perm: int = 1000,
    seed: int | None = None,
):
    """Pairwise rank correlations among named columns of a dataset.

    Returns ``(names, estimates, p_values, notes)`` where the upper triangle
    of ``estimates`` holds unadjusted spearman values, the lower triangle
    the Z-adjusted partial values, and the diagonal is 1.  Pairs are reduced
    to their complete cases; failed pairs leave NaN cells and a note, and
    the rest of the matrix still fills in.  A pair is scored as
    :func:`spearman` and :func:`partial_spearman` score its complete rows,
    from one margin fit per column and set of complete rows.
    """
    names = list(biomarkers)
    k = len(names)
    if k < 2:
        raise InputError("a correlation matrix needs at least 2 columns")
    _check_draws(n_perm=n_perm, seed=seed)
    cols = [d[name] for name in names]
    if Z is not None and Z.n != d.n:
        raise InputError("Z does not align with the columns")

    last = {}  # (column, adjusted) -> (rows, residuals) of its last fit; memory stays O(k n)

    def residuals(c: int, rows: np.ndarray, adjusted: bool) -> np.ndarray:
        hit = last.get((c, adjusted))
        if hit is None or not np.array_equal(hit[0], rows):
            col = cols[c].take(rows)
            if not adjusted:
                _check_orderable(col)
            Zs = _check_columns(col, Z=Z.take(rows) if adjusted and Z is not None else None)
            model = default_margin_model(col, Zs) if adjusted else "empirical"
            last[c, adjusted] = hit = (rows, margin_psr(col, Zs, model).values)
        return hit[1]

    est, pval, notes = np.eye(k), np.full((k, k), np.nan), []
    for i in range(k):
        for j in range(i + 1, k):
            rows = np.flatnonzero(~cols[i].missing & ~cols[j].missing)
            if rows.size < 3:
                notes.append(f"{names[i]}/{names[j]}: fewer than 3 complete rows")
                est[i, j] = est[j, i] = np.nan
                continue
            pair_seed = _fold_seed(seed, _TAG_PAIR, i, j) if n_perm else None
            for cell, adjusted in (((i, j), False), ((j, i), True)):
                try:
                    u, v = residuals(i, rows, adjusted), residuals(j, rows, adjusted)
                    est[cell], pval[cell] = _score(u, v, _pearson, n_perm, pair_seed, _TAG_PERM)
                except PsrKitError as exc:
                    label = "adjusted" if adjusted else "unadjusted"
                    notes.append(f"{names[i]}/{names[j]} {label}: {exc}")
                    est[cell] = np.nan
    return names, est, pval, notes
