"""Probability-scale residuals.

For an observed value ``y`` and a fitted distribution ``F`` the residual is

    r(y, F) = P(Y* < y) - P(Y* > y) = F(y-) + F(y) - 1,

which lies in [-1, 1], has expectation zero under a correctly specified
model, and is uniform on (-1, 1) for continuous outcomes.  For a
right-censored observation (time y, event indicator delta) the residual is

    r(y, F, delta) = F(y) - delta * (1 - F(y-)),

which reduces to the uncensored form when delta = 1 and to F(y) in [0, 1]
when delta = 0; its expectation is again zero under a correct model.
:func:`psr_all` takes F(y-) and F(y) for every row at once from the entry
of the fit's link in the estimators' table of fitted CDFs.

:func:`psr_from_omers` converts observed-minus-expected residuals from a
fitted mean model into empirical-CDF residuals, the device used to feed
continuous outcomes into rank-correlation scans without distributional
assumptions.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import Column, ColumnKind, DesignMatrix
from .estimators import _FITTED_CDFS, ModelFit, _check_fit_inputs, _ndtri
from .exceptions import InputError
from .fitted_dist import FittedDistribution

__all__ = [
    "PsrVector",
    "psr",
    "psr_censored",
    "psr_from_omers",
    "psr_all",
    "normal_transform",
]

# tolerated floating-point excursion beyond the mathematical [-1, 1] bounds
_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class PsrVector:
    """Residuals in [-1, 1] plus provenance metadata.

    ``discrete`` records whether the generating fit had a discrete outcome
    distribution, which downstream uniformity checks use to warn that exact
    uniformity cannot hold.
    """

    values: np.ndarray
    source: str
    discrete: bool | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise InputError("residual vector must be a nonempty 1-d array")
        if not np.all(np.isfinite(vals)):
            raise InputError("residuals must be finite")
        if np.max(np.abs(vals)) > 1.0 + _BOUND_SLACK:
            raise InputError("residuals must lie in [-1, 1]")
        object.__setattr__(self, "values", np.clip(vals, -1.0, 1.0))

    @property
    def n(self) -> int:
        return self.values.size


def psr(y: float, dist: FittedDistribution) -> float:
    """r(y, F) = F(y-) + F(y) - 1."""
    return dist.cdf_left(y) + dist.cdf(y) - 1.0


def psr_censored(y: float, delta: float, dist: FittedDistribution) -> float:
    """r(y, F, delta) = F(y) - delta * (1 - F(y-)) for right-censored data."""
    if delta not in (0, 1):
        raise InputError(f"event indicator must be 0 or 1, got {delta!r}")
    return dist.cdf(y) - delta * (1.0 - dist.cdf_left(y))


def psr_from_omers(residuals, source: str = "omer") -> PsrVector:
    """Empirical-CDF residuals from observed-minus-expected residuals.

    Each entry is (#{e_j < e_i} - #{e_j > e_i}) / n, i.e. the probability
    scale residual of e_i against the empirical distribution of all e_j.
    Under no ties this equals (2 * rank_i - n - 1) / n.
    """
    res = np.asarray(residuals, dtype=float)
    if res.ndim != 1 or res.size == 0:
        raise InputError("residuals must be a nonempty 1-d array")
    if not np.all(np.isfinite(res)):
        raise InputError("residuals must be finite")
    n = res.size
    # the sorted residuals searched for themselves, in order (numpy searches
    # sorted queries faster), and the counts scattered back
    order = np.argsort(res)
    sorted_res = res[order]
    n_less = np.searchsorted(sorted_res, sorted_res, side="left")
    n_greater = n - np.searchsorted(sorted_res, sorted_res, side="right")
    diff = np.empty(n, dtype=np.intp)
    diff[order] = n_less - n_greater
    return PsrVector(diff / n, source=source, discrete=True)


def psr_all(fit: ModelFit, col: Column, X: DesignMatrix | None = None) -> PsrVector:
    """Probability-scale residuals for every row of an outcome column under a fit.

    Equivalent to evaluating :func:`psr` (or :func:`psr_censored` for
    right-censored outcomes) against :func:`predict_distribution` row by
    row, but over all rows at once from the (F(y-), F(y)) entry of the
    fit's link.  A right-censored outcome needs an exponential-survival
    fit, and that fit a right-censored outcome.
    """
    if col.name != fit.outcome:
        raise InputError(f"column {col.name!r} does not match fit outcome {fit.outcome!r}")
    _, Xm, _ = _check_fit_inputs(col, X, kinds=ColumnKind)
    if Xm.shape[1] != fit.beta.size:
        raise InputError(f"design has {Xm.shape[1]} columns, fit expects {fit.beta.size}")
    xb = Xm @ fit.beta
    cdf = _FITTED_CDFS[fit.link]
    if (col.kind is ColumnKind.RIGHT_CENSORED) != cdf.censored:
        raise InputError(
            f"an exponential-survival fit goes with a censored column: column {col.name!r} "
            f"has kind {col.kind.value}, fit has link {fit.link!r}"
        )
    lo, hi = cdf.bounds(fit, col.values, xb)
    vals = hi - col.events * (1.0 - lo) if cdf.censored else lo + hi - 1.0
    return PsrVector(vals, source=f"{fit.link}:{fit.outcome}", discrete=cdf.discrete)


def normal_transform(residuals: PsrVector | np.ndarray) -> np.ndarray:
    """Map residuals r to the normal scale, the standard normal quantile of
    (r + 1) / 2.

    The quantile is Wichura's AS241 algorithm (PPND16) in numpy, accurate
    to about 1e-16 relative error (within 1.1e-15 of scipy's ``ndtri``
    for probabilities down to 1e-300).  Residuals of exactly +-1 map to
    +-inf; a warning is emitted so callers know to treat those entries as
    sentinels rather than numbers.
    """
    r = residuals.values if isinstance(residuals, PsrVector) else np.asarray(residuals, float)
    if np.any(np.abs(r) > 1.0):
        raise InputError("residuals must lie in [-1, 1]")
    n_exact = int(np.sum(np.abs(r) == 1.0))
    if n_exact:
        warnings.warn(
            f"{n_exact} residual(s) of exactly +-1 map to infinite normal scores",
            stacklevel=2,
        )
    return _ndtri((r + 1.0) / 2.0)
