"""Model diagnostics on the probability scale.

Residuals from a correctly specified continuous-outcome model are uniform
on [-1, 1], so model checking reduces to checking uniformity: a
quantile-quantile plot against Uniform(-1, 1), a Kolmogorov-Smirnov test,
and residual-versus-predictor scatter plots with a robust local-linear
(lowess) smooth that should hover near zero.

Plots are rendered to SVG by hand with fixed coordinate formatting, so the
same inputs always produce byte-identical files.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import Column, ColumnKind
from .exceptions import InputError
from .psr import PsrVector

__all__ = [
    "QQData",
    "KsResult",
    "SmoothCurve",
    "ResidualPlot",
    "qq_uniform",
    "ks_uniform",
    "lowess",
    "residual_by_predictor",
    "render_qq",
    "render_residual",
]


def _residual_values(residuals) -> tuple[np.ndarray, bool]:
    if not isinstance(residuals, PsrVector):
        residuals = PsrVector(residuals, source="array", discrete=False)
    return residuals.values, residuals.discrete


@dataclass(frozen=True)
class QQData:
    """Sorted residuals paired with Uniform(-1, 1) plotting positions."""

    theoretical: np.ndarray
    sample: np.ndarray

    @property
    def n(self) -> int:
        return self.sample.size


def qq_uniform(residuals) -> QQData:
    """Quantile-quantile data against the Uniform(-1, 1) reference.

    Theoretical positions are -1 + 2(i - 0.5)/n for i = 1..n, matched to
    the sorted residuals; points near the identity line indicate a
    well-calibrated fit.
    """
    vals, _ = _residual_values(residuals)
    n = vals.size
    i = np.arange(1, n + 1, dtype=float)
    return QQData(theoretical=-1.0 + 2.0 * (i - 0.5) / n, sample=np.sort(vals))


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n: int


def ks_uniform(residuals) -> KsResult:
    """One-sample Kolmogorov-Smirnov test of Uniform(-1, 1) residuals.

    Uses the asymptotic Kolmogorov distribution for the p-value, so at
    least 8 residuals are required.  The p-value P(K > sqrt(n) D) is summed
    in plain Python from the two series scipy's ``kolmogorov`` uses (see
    ``_kolmogorov_sf``), within 1e-14 of it absolutely.  Residuals of a
    discrete outcome are not exactly uniform even under a correct model; a
    warning is issued and the test should be read as approximate.
    """
    vals, discrete = _residual_values(residuals)
    n = vals.size
    if n < 8:
        raise InputError("the uniformity test needs at least 8 residuals")
    if discrete:
        warnings.warn(
            "residuals of a discrete outcome are not exactly uniform; "
            "the uniformity test is approximate",
            stacklevel=2,
        )
    u = np.sort((vals + 1.0) / 2.0)
    i = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(i / n - u))
    d_minus = float(np.max(u - (i - 1.0) / n))
    d = max(d_plus, d_minus, 0.0)
    p = _kolmogorov_sf(math.sqrt(n) * d)
    return KsResult(statistic=d, p_value=p, n=n)


def _kolmogorov_sf(x: float) -> float:
    """P(K > x) for the Kolmogorov distribution K, the limit of sqrt(n) D_n.

    Above x = 0.82 this is the alternating series
    2 sum_k (-1)^(k-1) exp(-2 k^2 x^2) to k = 6; at or below it, the
    theta-function form 1 - sqrt(2 pi) / x sum_k exp(-(2k - 1)^2 pi^2 / (8 x^2))
    to k = 3.  At x = 0.82, the worst case of both, the first omitted term
    adds less than 1e-28.  1 at x <= 0; clipped to [0, 1].
    """
    if x <= 0.0:
        return 1.0
    if x > 0.82:
        total = 0.0
        for k in range(6, 0, -1):
            total = math.exp(-2.0 * k * k * x * x) - total
        p = 2.0 * total
    else:
        w = math.pi / x
        t = w * w / 8.0
        s = sum(math.exp(-(2 * k - 1) ** 2 * t) for k in (1, 2, 3))
        # s / x first: s underflows to 0 long before sqrt(2 pi) / x overflows
        p = 1.0 - s / x * math.sqrt(2.0 * math.pi)
    return min(max(p, 0.0), 1.0)


@dataclass(frozen=True)
class SmoothCurve:
    """A lowess curve at the sorted distinct x values.

    ``passes`` counts the local-line passes that ran: the first fit plus
    each robustness pass, at most ``robust_iters + 1``.
    """

    grid: np.ndarray
    fitted: np.ndarray
    passes: int


# Cells of one (rows x n) block of tricube weights: about 0.8 MB of doubles.
_LOWESS_BLOCK_CELLS = 100_000


def lowess(x, y, *, span: float = 2.0 / 3.0, robust_iters: int = 3) -> SmoothCurve:
    """Robust locally weighted linear regression (lowess).

    Each point is fit by weighted least squares over its ceil(span * n)
    nearest neighbors with tricube distance weights, then refit up to
    ``robust_iters`` times with bisquare weights on the residuals to damp
    outliers.  The refits stop early once the residuals' median absolute
    value s has 6 s <= 1e-10 max|y|: the local lines then pass through
    their points up to rounding, and bisquare weights built from that
    noise would only add noise.  Returns fitted values at the sorted
    distinct x values.

    The smooth is exact (no interpolation between fitted points).  It
    costs O(n^2) time and O(n) extra memory: the cut-offs are found once,
    and each pass builds the weights of a block of rows at a time, over the
    columns inside those rows' cut-offs, and sums them with small matrix
    products.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1 or xa.size == 0:
        raise InputError("x and y must be nonempty 1-d arrays of equal length")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise InputError("x and y must be finite")
    if not 0.0 < span <= 1.0:
        raise InputError("span must be in (0, 1]")
    if not isinstance(robust_iters, (int, np.integer)) or robust_iters < 0:
        raise InputError("robust_iters must be an integer >= 0")
    n = xa.size
    r = int(np.ceil(span * n))
    if r < 2:
        raise InputError("smoothing window has fewer than 2 points; increase span")

    order = np.argsort(xa, kind="stable")
    xs, ys = xa[order], ya[order]
    height = max(1, _LOWESS_BLOCK_CELLS // n)
    row_blocks = [slice(i, min(i + height, n)) for i in range(0, n, height)]
    # the distance to the r-th nearest x depends only on x: once per call
    cutoff = _lowess_cutoffs(xs, r)
    # row i weighs only the points within its cut-off, a range of the sorted
    # x; a block of rows takes the union of its rows' ranges
    lo = np.searchsorted(xs, xs - cutoff, side="left")
    hi = np.searchsorted(xs, xs + cutoff, side="right")
    blocks = [(b, slice(lo[b].min(), hi[b].max())) for b in row_blocks]
    # the edges of each row's open window (x_i - c_i, x_i + c_i) and of its
    # points at x_i itself, as indices into the sorted x
    sides = np.stack([
        np.searchsorted(xs, xs - cutoff, side="right"),
        np.searchsorted(xs, xs, side="left"),
        np.searchsorted(xs, xs, side="right"),
        np.searchsorted(xs, xs + cutoff, side="left"),
    ])
    y_scale = float(np.max(np.abs(ys)))
    robust = np.ones(n)
    for passes in range(1, robust_iters + 2):
        fitted = _lowess_pass(xs, ys, robust, cutoff, blocks, sides)
        if passes > robust_iters:
            break
        resid = ys - fitted
        s = float(np.median(np.abs(resid)))
        if 6.0 * s <= 1e-10 * y_scale:
            break
        robust = np.clip(1.0 - np.square(resid / (6.0 * s)), 0.0, None) ** 2

    grid, first = np.unique(xs, return_index=True)
    return SmoothCurve(grid=grid, fitted=fitted[first], passes=passes)


def _lowess_cutoffs(xs: np.ndarray, r: int) -> np.ndarray:
    """The distance from each sorted x to its r-th nearest x (itself first).

    Row i's r nearest points form a window [s, s + r) of the sorted x, with
    s in [max(0, i - r + 1), min(i, n - r)], and the cut-off is the least
    over s of max(x_i - x_s, x_(s+r-1) - x_i).  The first term falls and
    the second rises with s, so the least is at the first s where the
    second reaches the first, or at s - 1.  A binary search finds that s
    for every row at once, in about log2(r) passes; both terms are
    differences of sorted x, so the cut-offs are the exact order
    statistics of |x_j - x_i|.
    """
    n = xs.size
    i = np.arange(n)
    first = np.maximum(i - (r - 1), 0)
    last = np.minimum(i, n - r)
    lo, hi = first, last + 1
    while (search := lo < hi).any():
        mid = (lo + hi) // 2
        s = np.minimum(mid, n - r)  # a finished row's mid may be last + 1
        rises = xs[s + (r - 1)] - xs >= xs - xs[s]
        hi = np.where(search & rises, mid, hi)
        lo = np.where(search & ~rises, mid + 1, lo)
    right = np.where(lo <= last, xs[np.minimum(lo, n - r) + (r - 1)] - xs, np.inf)
    left = np.where(lo > first, xs - xs[np.maximum(lo - 1, 0)], np.inf)
    # abs: a tie of -0.0 and 0.0 differs by -0.0, whose |.| is the 0.0 that
    # the order statistic of |x_j - x_i| has
    return np.abs(np.minimum(left, right))


def _lowess_pass(xs, ys, robust, cutoff, blocks, sides) -> np.ndarray:
    """One lowess pass: each row's weighted local line, evaluated at its own x.

    Row i weighs point j by tricube(|x_j - x_i| / cutoff_i) * robust_j.
    ``blocks`` pairs each slice of rows with the slice of columns that can
    carry weight for them.  The sums of the local line are moments about
    x_i itself, sum w (x_j - x_i)^k and sum w (x_j - x_i)^k y_j for
    k = 0, 1, 2, from three matrix products per block against
    [robust, robust * y].  When every weighted point of a row sits on one
    side of x_i, far compared with their spread, the variance
    s2 - s1^2 / s0 of those moments cancels; such rows (``sides`` gives each
    row's window edges) take their sums again about the weighted mean.
    """
    n = xs.size
    tied = cutoff <= 0.0
    scale = np.where(tied, 1.0, cutoff)[:, None]
    rhs = np.column_stack([robust, robust * ys])
    m0, m1 = np.empty((n, 2)), np.empty((n, 2))
    s2 = np.empty(n)
    buf = np.empty(3 * max((b.stop - b.start) * (c.stop - c.start) for b, c in blocks))
    for b, c in blocks:
        shape = (b.stop - b.start, c.stop - c.start)
        size = shape[0] * shape[1]
        d, w, t = (buf[k * size : (k + 1) * size].reshape(shape) for k in range(3))
        np.subtract(xs[c], xs[b, None], out=d)
        np.abs(d, out=w)
        w /= scale[b]
        np.minimum(w, 1.0, out=w)
        np.multiply(w, w, out=t)
        t *= w
        np.subtract(1.0, t, out=t)
        np.multiply(t, t, out=w)
        w *= t
        np.matmul(w, rhs[c], out=m0[b])
        w *= d
        np.matmul(w, rhs[c], out=m1[b])
        w *= d
        np.matmul(w, robust[c], out=s2[b])
    (s0, sy0), (s1, sy1) = m0.T, m1.T

    fitted = np.empty(n)
    line = ~tied & (s0 > 0.0)
    xbar = s1[line] / s0[line]  # mean of x_j - x_i
    mean_y = sy0[line] / s0[line]
    vxx = s2[line] - s1[line] * xbar
    sxy = sy1[line] - s1[line] * mean_y
    xi = xs[line]
    sum_wxx = s2[line] + 2.0 * xi * s1[line] + xi * xi * s0[line]  # sum w x_j^2
    flat = vxx <= 1e-12 * np.maximum(1.0, sum_wxx)
    vxx[flat] = 1.0  # a flat window's fit is mean_y; keep its slope finite
    fitted[line] = np.where(flat, mean_y, mean_y - sxy / vxx * xbar)
    weighted = np.concatenate([[0], np.cumsum(robust > 0.0)])
    left, at, right = np.diff(weighted[sides], axis=0)
    for i in np.flatnonzero(line & (at == 0) & ((left == 0) | (right == 0))):
        c = slice(sides[0, i], sides[3, i])
        d = xs[c] - xs[i]
        t = 1.0 - np.minimum(np.abs(d) / cutoff[i], 1.0) ** 3
        w = t * t * t * robust[c]
        sw = w.sum()
        dbar = (w @ d) / sw
        dd = d - dbar
        vxx = w @ np.square(dd)
        mean_y = (w @ ys[c]) / sw
        if vxx <= 1e-12 * max(1.0, w @ np.square(xs[c])):
            fitted[i] = mean_y
        else:
            fitted[i] = mean_y - (w @ (dd * ys[c])) / vxx * dbar
    for i in np.flatnonzero(~line):
        d = np.abs(xs - xs[i])
        if tied[i]:
            sel = d == 0.0
            w = robust[sel]
            fitted[i] = float(w @ ys[sel] / w.sum()) if w.sum() > 0 else float(ys[sel].mean())
        else:
            fitted[i] = float(ys[d <= cutoff[i]].mean())
    return fitted


@dataclass(frozen=True)
class ResidualPlot:
    x: np.ndarray
    residuals: np.ndarray
    smooth: SmoothCurve
    x_label: str


def residual_by_predictor(
    x,
    residuals,
    *,
    span: float = 2.0 / 3.0,
    robust_iters: int = 3,
    label: str | None = None,
) -> ResidualPlot:
    """Residuals against one continuous predictor, with a robust smooth.

    Under a correct model the smooth stays near the zero line; curvature
    suggests a missed nonlinear effect of this predictor.
    """
    if isinstance(x, Column):
        if x.kind is not ColumnKind.CONTINUOUS:
            raise InputError(f"column {x.name!r}: residual plots need a continuous predictor")
        if x.missing.any():
            raise InputError(f"column {x.name!r} has missing values; run complete_cases first")
        xa = x.values
        name = label or x.name
    else:
        xa = np.asarray(x, dtype=float)
        name = label or "x"
    vals, _ = _residual_values(residuals)
    if xa.shape != vals.shape:
        raise InputError("predictor and residual vectors have different lengths")
    smooth = lowess(xa, vals, span=span, robust_iters=robust_iters)
    return ResidualPlot(x=xa, residuals=vals, smooth=smooth, x_label=name)


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_WIDTH, _HEIGHT = 640.0, 480.0
_PAD_L, _PAD_R, _PAD_T, _PAD_B = 64.0, 24.0, 40.0, 48.0


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Frame:
    """Maps data coordinates into the fixed SVG plot rectangle."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        if x_hi <= x_lo:
            x_lo, x_hi = x_lo - 0.5, x_lo + 0.5
        if y_hi <= y_lo:
            y_lo, y_hi = y_lo - 0.5, y_lo + 0.5
        self.x_lo, self.x_hi = float(x_lo), float(x_hi)
        self.y_lo, self.y_hi = float(y_lo), float(y_hi)

    def sx(self, v: float) -> float:
        frac = (v - self.x_lo) / (self.x_hi - self.x_lo)
        return _PAD_L + frac * (_WIDTH - _PAD_L - _PAD_R)

    def sy(self, v: float) -> float:
        frac = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return _HEIGHT - _PAD_B - frac * (_HEIGHT - _PAD_T - _PAD_B)


def _svg_document(frame, title, x_label, y_label, body: list[str]) -> str:
    x0, y0 = _PAD_L, _HEIGHT - _PAD_B
    x1, y1 = _WIDTH - _PAD_R, _PAD_T
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}"'
        f' height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        f'<path d="M {_fmt(x0)} {_fmt(y1)} L {_fmt(x0)} {_fmt(y0)} L {_fmt(x1)} {_fmt(y0)}"'
        ' fill="none" stroke="#000000" stroke-width="1"/>',
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(_PAD_T / 2 + 6)}" text-anchor="middle"'
        f' font-family="monospace" font-size="14">{title}</text>',
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(_HEIGHT - 10)}" text-anchor="middle"'
        f' font-family="monospace" font-size="12">{x_label}</text>',
        f'<text x="16" y="{_fmt((y0 + y1) / 2)}" text-anchor="middle"'
        f' font-family="monospace" font-size="12"'
        f' transform="rotate(-90 16 {_fmt((y0 + y1) / 2)})">{y_label}</text>',
        f'<text x="{_fmt(x0)}" y="{_fmt(y0 + 16)}" text-anchor="middle"'
        f' font-family="monospace" font-size="10">{_fmt(frame.x_lo)}</text>',
        f'<text x="{_fmt(x1)}" y="{_fmt(y0 + 16)}" text-anchor="middle"'
        f' font-family="monospace" font-size="10">{_fmt(frame.x_hi)}</text>',
        f'<text x="{_fmt(x0 - 6)}" y="{_fmt(y0 + 4)}" text-anchor="end"'
        f' font-family="monospace" font-size="10">{_fmt(frame.y_lo)}</text>',
        f'<text x="{_fmt(x0 - 6)}" y="{_fmt(y1 + 4)}" text-anchor="end"'
        f' font-family="monospace" font-size="10">{_fmt(frame.y_hi)}</text>',
    ]
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _circles(frame, xs, ys) -> list[str]:
    return [
        f'<circle cx="{_fmt(frame.sx(float(xv)))}" cy="{_fmt(frame.sy(float(yv)))}"'
        ' r="2.50" fill="#1f77b4" fill-opacity="0.70"/>'
        for xv, yv in zip(xs, ys)
    ]


def _reference_line(frame, p0, p1) -> str:
    return (
        f'<line x1="{_fmt(frame.sx(p0[0]))}" y1="{_fmt(frame.sy(p0[1]))}"'
        f' x2="{_fmt(frame.sx(p1[0]))}" y2="{_fmt(frame.sy(p1[1]))}"'
        ' stroke="#888888" stroke-width="1" stroke-dasharray="4 4"/>'
    )


def _polyline(frame, xs, ys) -> str:
    pts = " ".join(
        f"{_fmt(frame.sx(float(xv)))},{_fmt(frame.sy(float(yv)))}" for xv, yv in zip(xs, ys)
    )
    return f'<polyline points="{pts}" fill="none" stroke="#d62728" stroke-width="2"/>'


def render_qq(qq: QQData, *, title: str = "Residual uniformity (QQ)") -> str:
    """SVG of the uniform QQ plot with the identity reference line."""
    if qq.n == 0:
        raise InputError("cannot render an empty QQ plot")
    frame = _Frame(-1.0, 1.0, -1.0, 1.0)
    body = [_reference_line(frame, (-1.0, -1.0), (1.0, 1.0))]
    body.extend(_circles(frame, qq.theoretical, qq.sample))
    return _svg_document(frame, title, "uniform quantiles", "sorted residuals", body)


def render_residual(plot: ResidualPlot, *, title: str | None = None) -> str:
    """SVG scatter of residuals vs a predictor, zero line, and lowess curve."""
    if plot.x.size == 0:
        raise InputError("cannot render an empty residual plot")
    frame = _Frame(float(plot.x.min()), float(plot.x.max()), -1.0, 1.0)
    body = [_reference_line(frame, (frame.x_lo, 0.0), (frame.x_hi, 0.0))]
    body.extend(_circles(frame, plot.x, plot.residuals))
    body.append(_polyline(frame, plot.smooth.grid, plot.smooth.fitted))
    return _svg_document(
        frame,
        title if title is not None else f"Residuals vs {plot.x_label}",
        plot.x_label,
        "residual",
        body,
    )
