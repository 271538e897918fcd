"""Per-observation fitted outcome distributions.

Every fitted model in this package can hand back, for each observation, the
conditional distribution of the outcome given that observation's covariates.
Residuals on the probability scale need exactly two functionals of that
distribution: the CDF at a point, ``cdf(y) = P(Y* <= y)``, and its left
limit, ``cdf_left(y) = P(Y* < y)``.  Three concrete shapes cover all the
model families supported here:

* :class:`DiscreteSupport` — atoms on a strictly increasing finite support
  (ordinal/multinomial fits, empirical CDFs, truncated count fits);
* :class:`NormalDist` / :class:`ExponentialDist` — parametric continuous
  families, where the left limit coincides with the CDF;
* :class:`ShiftedEmpirical` — the empirical distribution of pooled model
  residuals shifted by a per-observation fitted value.

Atom membership for discrete supports is decided by exact floating-point
equality; callers that need tie-robust behaviour should canonicalize values
(for instance to integer category codes) before building distributions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteSupport",
    "NormalDist",
    "ExponentialDist",
    "ShiftedEmpirical",
    "FittedDistribution",
]

# cum_probs must terminate at 1 up to this absolute slack
_TOTAL_MASS_TOL = 1e-12


def _ndtr(x):
    """The standard normal CDF, the one import of scipy's ``ndtr``."""
    from scipy.special import ndtr

    return ndtr(x)


@dataclass(frozen=True)
class DiscreteSupport:
    """Distribution placing probability mass on a finite, sorted support.

    Parameters
    ----------
    points:
        Strictly increasing support values.
    cum_probs:
        Cumulative probabilities at each support point; nondecreasing,
        within ``[0, 1]``, and ending at 1 (up to 1e-12, stored as exactly 1).
    """

    points: np.ndarray
    cum_probs: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        cp = np.array(self.cum_probs, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "cum_probs", cp)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("support must be a nonempty 1-d array")
        if cp.shape != pts.shape:
            raise ValueError(
                f"cum_probs shape {cp.shape} does not match support shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise ValueError("support points must be finite")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("support points must be strictly increasing")
        if not np.all(np.isfinite(cp)):
            raise ValueError("cum_probs must be finite")
        if cp[0] < 0 or np.any(np.diff(cp) < 0):
            raise ValueError("cum_probs must be nondecreasing and nonnegative")
        if abs(cp[-1] - 1.0) > _TOTAL_MASS_TOL:
            raise ValueError(f"cum_probs must end at 1, got {cp[-1]!r}")
        # within the slack the total mass is 1: store it exactly, so no
        # cdf() value exceeds 1
        np.minimum(cp, 1.0, out=cp)
        cp[-1] = 1.0

    def cdf(self, y: float) -> float:
        """P(Y* <= y)."""
        idx = int(np.searchsorted(self.points, y, side="right"))
        return 0.0 if idx == 0 else float(self.cum_probs[idx - 1])

    def cdf_left(self, y: float) -> float:
        """P(Y* < y): mass strictly below y."""
        idx = int(np.searchsorted(self.points, y, side="left"))
        return 0.0 if idx == 0 else float(self.cum_probs[idx - 1])

    def to_debug_dict(self) -> dict:
        return {
            "kind": "discrete",
            "points": self.points.tolist(),
            "cum_probs": self.cum_probs.tolist(),
        }


@dataclass(frozen=True)
class NormalDist:
    """Normal(mu, sigma) with sigma > 0.

    The CDF is evaluated through the complementary error function
    (``scipy.special.ndtr``, which loads scipy at the first call), accurate
    to well below 1e-12 absolute error over the entire real line.
    """

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("normal parameters must be finite")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")

    def cdf(self, y: float) -> float:
        return float(_ndtr((y - self.mu) / self.sigma))

    def cdf_left(self, y: float) -> float:
        # continuous distribution: no atoms, the left limit equals the CDF
        return self.cdf(y)

    def to_debug_dict(self) -> dict:
        return {"kind": "normal", "mu": self.mu, "sigma": self.sigma}


@dataclass(frozen=True)
class ExponentialDist:
    """Exponential with rate > 0; CDF 1 - exp(-rate * y) for y >= 0."""

    rate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate) or self.rate <= 0:
            raise ValueError(f"rate must be positive and finite, got {self.rate!r}")

    def cdf(self, y: float) -> float:
        if y <= 0:
            return 0.0
        return float(-np.expm1(-self.rate * y))

    def cdf_left(self, y: float) -> float:
        return self.cdf(y)

    def to_debug_dict(self) -> dict:
        return {"kind": "exponential", "rate": self.rate}


@dataclass(frozen=True)
class ShiftedEmpirical:
    """Empirical distribution of pooled residuals shifted by a fitted center.

    ``cdf(y)`` is the proportion of stored residuals at or below
    ``y - center``; ``cdf_left`` counts strictly below.  Residuals are kept
    sorted so both lookups are a binary search.
    """

    center: float
    pooled_residuals: np.ndarray

    def __post_init__(self) -> None:
        res = np.sort(np.asarray(self.pooled_residuals, dtype=float))
        object.__setattr__(self, "pooled_residuals", res)
        if res.ndim != 1 or res.size == 0:
            raise ValueError("pooled_residuals must be a nonempty 1-d array")
        if not np.all(np.isfinite(res)):
            raise ValueError("pooled_residuals must be finite")
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")

    def cdf(self, y: float) -> float:
        cnt = int(np.searchsorted(self.pooled_residuals, y - self.center, side="right"))
        return cnt / self.pooled_residuals.size

    def cdf_left(self, y: float) -> float:
        cnt = int(np.searchsorted(self.pooled_residuals, y - self.center, side="left"))
        return cnt / self.pooled_residuals.size

    def to_debug_dict(self) -> dict:
        return {
            "kind": "shifted_empirical",
            "center": self.center,
            "pooled_residuals": self.pooled_residuals.tolist(),
        }


FittedDistribution = DiscreteSupport | NormalDist | ExponentialDist | ShiftedEmpirical
