"""Maximum-likelihood fitters whose predictions are per-row fitted distributions.

The central engine fits cumulative-link models

    g[P(Y <= v_j | x)] = alpha_j - x' beta,   j = 1..J-1,

over the J distinct observed outcome values.  This covers ordinal outcomes
directly, binary outcomes as the J = 2 special case (logit link gives
ordinary logistic regression), and continuous outcomes by treating every
distinct value as its own category, which makes the fit a semiparametric
linear transformation model.

Newton steps are taken on (alpha, beta) directly.  For the log-concave links
offered here (logit, probit, cloglog, loglog) the log-likelihood is concave
in (alpha, beta) (Pratt, JASA 1981), so the Newton direction is an ascent
direction; step-halving shortens each step until every observed category
keeps a positive probability and the log-likelihood rises.  A positive
probability for every category forces the cut points to stay strictly
increasing, so no reparameterization is needed.  A category probability is
F(hi) - F(lo), or S(lo) - S(hi) from the link's closed-form survival
function where F(lo) > 0.5, so that it keeps its digits in the upper tail.

The engine fits a stack of m outcomes against one shared design Z in one
Newton loop: arrays carry a leading member axis, and outcome codes and row
weights are (m, n).  A row of integer weight w counts as w copies of itself
in every sum of its member (the log-likelihood, the score, the Hessian, the
start values and the line search's likelihood test), and a row of weight 0,
such as a missing cell, enters none.  With weights of 1 every product is
exact, so a 0/1 weight is the same as leaving the row out.  A bootstrap
replicate of rows ``idx`` is the member with weights ``bincount(idx)``.  Each
member keeps its own step length, ridge, stopping rule and separation cap,
so a member's fit is, up to rounding, the fit of its rows alone (each
repeated by its weight); :func:`fit_cumulative_link` is the stack of one and
:func:`fit_cumulative_link_batch` fits many outcomes or weightings at once.
A member's separation cap is recorded in its notes; only
:func:`fit_cumulative_link` also warns of it.  The alpha block of each
member's Hessian is tridiagonal because each observation couples only its
own two adjacent cut points, and every member's Newton system, whatever its
size, is solved through that structure, all members together, in numpy: one
odd-even cyclic reduction over the stack carries the right-hand sides
[g_alpha, h_alpha_beta] along, and each member then solves its p x p Schur
complement, so one iteration costs O(J p + n p + p^3) even when every
outcome value is distinct.  Cyclic reduction is Gaussian elimination on the
odd-even permutation of the alpha block and takes its pivots from the
diagonal without row exchanges.  That is stable because every link offered
has a log-concave density, which makes the alpha block less its ridge
negative definite, and elimination without pivoting is stable for a definite
matrix.  A zero or non-finite pivot marks the member's step as failed, and
the member retries with a ridge.

Every Newton fit stops on the Newton decrement |g' M^{-1} g| (M the Hessian
or information matrix), not on the size of the score: once it is at most
``DECREMENT_TOL`` the full Newton step is taken without the likelihood test
and the fit stops as converged.  The decrement is twice the gain the step
predicts in log-likelihood, so the rule holds at any n, whereas the score's
rounding noise grows with the number of cut points.

The parametric families (normal linear, log-link Poisson, log-link
exponential survival) each fit one intercept, stored in ``alpha``, and share
one design check that rejects ``n <= p`` and a design collinear with that
intercept; a cumulative-link fit rejects a design collinear with its cut
points by the same rank test.  Poisson and exponential survival share one
log-rate Newton fit: the exponential log-likelihood of times t and event
indicators delta is the Poisson log-likelihood of delta with exposure t
(Holford, Biometrics 1980; Laird & Olivier, JASA 1981).

What a fit predicts comes from one table keyed by ``ModelFit.link``, in the
order of ``LINKS``: per link, (F(y-), F(y)) over arrays of outcomes and linear
predictors, one row's :class:`FittedDistribution` (a discrete one built from
the same F), and whether the outcome is discrete or right-censored.  The
same entry gives the Newton engine each cumulative link's h, its survival
function S, (h', h'') and its quantile; ``CUMULATIVE_LINKS`` is the view of
those entries.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .data_model import Column, ColumnKind, DesignMatrix, ORDERABLE_KINDS, _check_intercept_rank
from .exceptions import ConvergenceError, DegenerateFitError, InputError, PsrKitError
from .fitted_dist import (
    DiscreteSupport,
    ExponentialDist,
    FittedDistribution,
    NormalDist,
    _ndtr,
)

__all__ = [
    "LINKS",
    "CUMULATIVE_LINKS",
    "ModelFit",
    "fit_empirical",
    "fit_cumulative_link",
    "fit_cumulative_link_batch",
    "fit_linear_normal",
    "fit_poisson",
    "fit_exponential_survival",
    "predict_distribution",
    "LikelihoodRatioTest",
    "lr_test",
]

#: Newton decrement at which the last full step is taken and the fit stops
DECREMENT_TOL = 1e-10
MAX_ITERATIONS = 100
#: coefficients beyond this magnitude are treated as complete separation
SEPARATION_CAP = 30.0

_SQRT_2PI = np.sqrt(2.0 * np.pi)


# scipy is imported inside each function that calls it, so that importing
# psrkit loads only numpy; the logit link, the one a genotype scan uses,
# needs no scipy at all


def _expit(x):
    """The logistic CDF 1 / (1 + exp(-x)); exp overflows to inf below
    x = -709, which gives the exact limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _logit(p):
    """log(p / (1 - p)): -inf at 0 and +inf at 1.  Near p = 1/2 that ratio
    loses the low bits of its logarithm, so there (as scipy's logit does)
    it is log1p(s) - log1p(-s) with s = 2p - 1."""
    p = np.asarray(p, dtype=float)
    s = 2.0 * (p - 0.5)
    with np.errstate(divide="ignore"):
        return np.where(
            (p < 0.3) | (p > 0.65), np.log(p / (1.0 - p)), np.log1p(s) - np.log1p(-s)
        )


# Wichura's AS241 (PPND16), Appl. Statist. 37:477-484 (1988): numerators and
# denominators of three rational approximations, lowest power first
_NDTRI_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3),
)
_NDTRI_INTERMEDIATE = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_NDTRI_TAIL = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)


def _rational(coefs, x):
    """num(x) / den(x) by Horner's rule, for ``coefs = (num, den)``."""
    num, den = coefs
    top, bottom = num[-1], den[-1]
    for a, b in zip(num[-2::-1], den[-2::-1]):
        top = top * x + a
        bottom = bottom * x + b
    return top / bottom


def _ndtri(p):
    """The standard normal quantile, by Wichura's AS241 (PPND16): about
    1e-16 relative error for p in (0, 1).  -inf at 0, +inf at 1, and NaN
    for NaN or p outside [0, 1]."""
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        # r = sqrt(-log(tail probability)): inf at p = 0 or 1, NaN outside [0, 1]
        r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
        tail = np.where(
            r <= 5.0,
            _rational(_NDTRI_INTERMEDIATE, r - 1.6),
            _rational(_NDTRI_TAIL, r - 5.0),
        )
        z = np.where(
            np.abs(q) <= 0.425,
            q * _rational(_NDTRI_CENTRAL, 0.180625 - q * q),
            np.copysign(tail, q),
        )
    return np.where(r == np.inf, np.copysign(np.inf, q), z)


def _logit_pdf_dpdf(eta):
    p = _expit(eta)
    pdf = p * (1.0 - p)
    return pdf, pdf * (1.0 - 2.0 * p)


def _probit_pdf_dpdf(eta):
    pdf = np.exp(-0.5 * np.square(eta)) / _SQRT_2PI
    return pdf, -eta * pdf


def _cloglog_cdf(eta):
    return -np.expm1(-np.exp(eta))


def _cloglog_pdf_dpdf(eta):
    e = np.exp(eta)
    pdf = np.exp(eta - e)
    return pdf, pdf * (1.0 - e)


def _loglog_cdf(eta):
    return np.exp(-np.exp(-eta))


def _loglog_pdf_dpdf(eta):
    e = np.exp(-eta)
    pdf = np.exp(-eta - e)
    return pdf, pdf * (e - 1.0)


class _FittedCdf(NamedTuple):
    """A link's fitted CDF: ``bounds(fit, y, xb)`` gives (F(y-), F(y)) over
    arrays of outcomes and linear predictors, ``row(fit, xb)`` one row's
    distribution; ``censored`` marks right-censored outcomes.

    A cumulative link's entry also gives the Newton engine its inverse-link
    CDF h (``cdf``), 1 - h in closed form, exact in the upper tail (``sf``),
    (h', h'') sharing their work (``pdf_dpdf``) and h's inverse
    (``quantile``); they are None for the other links.  h must be a strictly
    increasing distribution function, so that the cumulative probabilities
    inherit monotonicity from the intercepts.
    """

    bounds: Callable
    row: Callable
    discrete: bool
    censored: bool = False
    cdf: Callable | None = None
    sf: Callable | None = None
    pdf_dpdf: Callable | None = None
    quantile: Callable | None = None


def _empirical_bounds(fit, y, xb):
    cum = np.concatenate([[0.0], fit.support_cum_probs[:-1], [1.0]])
    # numpy searches sorted queries faster: search y in order, scatter back
    order = np.argsort(y)
    ys = y[order]
    lo, hi = np.empty((2, y.size), dtype=np.intp)
    lo[order] = np.searchsorted(fit.support, ys, side="left")  # the atoms below y
    hi[order] = np.searchsorted(fit.support, ys, side="right")  # the atoms at or below y
    return cum[lo], cum[hi]


def _cumulative_bounds(fit, y, xb):
    # F just after atom k (1-based) is h(alpha_k - xb); the cut points -inf
    # and +inf added at the ends give every link's h exactly 0 and 1
    cdf = _FITTED_CDFS[fit.link].cdf
    cuts = np.concatenate([[-np.inf], fit.alpha, [np.inf]])
    lo = np.searchsorted(fit.support, y, side="left")
    hi = np.searchsorted(fit.support, y, side="right")
    return np.clip(cdf(cuts[lo] - xb), 0.0, 1.0), np.clip(cdf(cuts[hi] - xb), 0.0, 1.0)


def _normal_bounds(fit, y, xb):
    cdf = _ndtr((y - (fit.alpha[0] + xb)) / fit.scale)
    return cdf, cdf


def _poisson_bounds(fit, y, xb):
    from scipy.special import pdtr

    mu = np.exp(fit.alpha[0] + xb)
    # F(y-) is pdtr(y - 1), which is NaN rather than 0 at y = 0
    return np.where(y >= 1.0, pdtr(y - 1.0, mu), 0.0), pdtr(y, mu)


def _exponential_bounds(fit, y, xb):
    rate = np.exp(fit.alpha[0] + xb)
    cdf = np.where(y > 0, -np.expm1(-rate * y), 0.0)
    return cdf, cdf


def _atoms_row(fit, xb, points=None) -> DiscreteSupport:
    """The atoms ``points`` (default ``fit.support``) at the link's F."""
    points = fit.support if points is None else points
    _, cp = _FITTED_CDFS[fit.link].bounds(fit, points, xb)
    # guard the monotone construction against rounding at the tails
    np.maximum.accumulate(cp, out=cp)
    np.clip(cp, 0.0, 1.0, out=cp)
    return DiscreteSupport(points, cp)


def _poisson_row(fit, xb) -> DiscreteSupport:
    """The counts up to the first one from the mean on whose F reaches 1 - 1e-12."""
    top = int(np.exp(fit.alpha[0] + xb))
    while _poisson_bounds(fit, top, xb)[1] < 1.0 - 1e-12:
        top += 1
    return _atoms_row(fit, xb, np.arange(top + 1, dtype=float))


def _link(cdf, sf, pdf_dpdf, quantile) -> _FittedCdf:
    """The entry of a cumulative link with inverse-link CDF ``cdf``."""
    return _FittedCdf(_cumulative_bounds, _atoms_row, True, False, cdf, sf, pdf_dpdf, quantile)


_FITTED_CDFS: dict[str, _FittedCdf] = {
    "logit": _link(_expit, lambda eta: _expit(-eta), _logit_pdf_dpdf, _logit),
    "probit": _link(_ndtr, lambda eta: _ndtr(-eta), _probit_pdf_dpdf, _ndtri),
    "cloglog": _link(
        _cloglog_cdf, lambda eta: np.exp(-np.exp(eta)), _cloglog_pdf_dpdf,
        lambda p: np.log(-np.log1p(-np.asarray(p, dtype=float))),
    ),
    "loglog": _link(
        _loglog_cdf, lambda eta: -np.expm1(-np.exp(-eta)), _loglog_pdf_dpdf,
        lambda p: -np.log(-np.log(np.asarray(p, dtype=float))),
    ),
    "empirical": _FittedCdf(_empirical_bounds, _atoms_row, True),
    "identity-normal": _FittedCdf(
        _normal_bounds, lambda fit, xb: NormalDist(fit.alpha[0] + xb, fit.scale), False
    ),
    "log-poisson": _FittedCdf(_poisson_bounds, _poisson_row, True),
    "log-exponential": _FittedCdf(
        _exponential_bounds,
        lambda fit, xb: ExponentialDist(float(np.exp(fit.alpha[0] + xb))),
        False,
        censored=True,
    ),
}

#: every accepted value of ``ModelFit.link``
LINKS = tuple(_FITTED_CDFS)
#: the cumulative links, whose entries the Newton engine fits with
CUMULATIVE_LINKS = {link: e for link, e in _FITTED_CDFS.items() if e.cdf is not None}


@dataclass(frozen=True)
class ModelFit:
    """A fitted model: the coefficients behind its per-row distributions.

    ``alpha`` holds the intercepts: length J-1 (strictly increasing) for
    cumulative-link and empirical fits on J distinct outcome values, length
    one for the parametric families.  ``beta`` covers the design columns.
    ``support`` stores the distinct outcome values for discrete fits;
    ``scale`` is sigma for the normal family.
    """

    link: str
    outcome: str
    beta: np.ndarray
    alpha: np.ndarray
    term_names: tuple[str, ...]
    loglik: float
    converged: bool
    iterations: int
    n_obs: int
    grad_max_norm: float
    support: np.ndarray | None = None
    support_cum_probs: np.ndarray | None = None
    scale: float | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.link not in LINKS:
            raise InputError(f"unknown link {self.link!r}")
        beta = np.asarray(self.beta, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)
        if alpha.size > 1 and not np.all(np.diff(alpha) > 0):
            raise InputError("intercepts must be strictly increasing")
        if len(self.term_names) != beta.size:
            raise InputError("term_names must match beta length")

    @property
    def n_params(self) -> int:
        return int(self.beta.size + self.alpha.size)

    @property
    def aic(self) -> float:
        return -2.0 * self.loglik + 2.0 * self.n_params


# ---------------------------------------------------------------------------
# cumulative-link engine
# ---------------------------------------------------------------------------


class _ClmStack:
    """The fixed part of a stack of cumulative-link fits that share one design.

    Member i fits outcome codes ``codes[i]`` (0..J_i - 1) with row weights
    ``weights[i]``; a row of weight 0 enters no sum.  Intercepts are held as
    an (m, width) array, member i using its first J_i - 1 columns.
    Row-level sums over cut points are ``np.bincount`` sums over the flat
    bins ``member * width + cut``.
    """

    def __init__(self, codes, weights, Z, fam, width=None, zz=None):
        m, n = codes.shape
        weights = np.asarray(weights, dtype=float)
        observed = weights > 0.0
        self.codes, self.weights, self.Z, self.fam = codes, weights, Z, fam
        #: the products Z_ik Z_il of each row, flattened over (k, l)
        self.zz = (Z[:, :, None] * Z[:, None, :]).reshape(n, -1) if zz is None else zz
        self.n_alpha = np.max(np.where(observed, codes, 0), axis=1)
        self.width = int(self.n_alpha.max()) if width is None else width
        bins = (np.arange(m) * self.width)[:, None] + codes
        #: flat (member, row) indices of the rows with an upper / lower cut point
        self.hi = np.flatnonzero(observed & (codes < self.n_alpha[:, None]))
        self.lo = np.flatnonzero(observed & (codes > 0))
        self.bin_hi = bins.ravel()[self.hi]
        self.bin_lo = bins.ravel()[self.lo] - 1
        # position in ``hi`` of each ``lo`` row; ``hi.size`` for a row of the
        # top category, which has no upper cut point
        pos = np.full(m * n, self.hi.size)
        pos[self.hi] = np.arange(self.hi.size)
        self.hi_of_lo = pos[self.lo]
        self.both = np.flatnonzero(self.hi_of_lo < self.hi.size)
        #: the intercept differences past each member's own cut points
        self.padded = np.arange(1, self.width) >= self.n_alpha[:, None]
        self.bin_ab = np.concatenate([self.bin_hi, self.bin_lo])
        #: the design row of each hi row then each lo row, one design column per row
        self.z_ab = np.ascontiguousarray(Z[np.concatenate([self.hi, self.lo]) % n].T)

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape

    def take(self, members: np.ndarray) -> "_ClmStack":
        """The stack of the given members (increasing member indices)."""
        if members.size == self.codes.shape[0]:
            return self
        return _ClmStack(
            self.codes[members], self.weights[members], self.Z, self.fam, self.width, self.zz
        )


def _clm_eta(alpha, beta, st):
    """Linear predictors at the upper and lower cut point of every row."""
    m, n = st.shape
    xb = (beta @ st.Z.T).ravel() if st.Z.shape[1] else np.zeros(m * n)
    a = alpha.ravel()
    return a[st.bin_hi] - xb[st.hi], a[st.bin_lo] - xb[st.lo]


def _clm_probs(eta_hi, eta_lo, st) -> np.ndarray:
    """Flat per-row category probabilities, 1 on rows of weight 0.

    ``F(hi) - F(lo)`` keeps only the digits of a small probability above
    1e-16 once F(lo) is close to 1, so rows with F(lo) > 0.5 take
    ``S(lo) - S(hi)`` from the link's closed-form survival function instead.
    """
    fam = st.fam
    pi = np.ones(st.codes.size)
    pi[st.hi] = fam.cdf(eta_hi)
    f_lo = fam.cdf(eta_lo)
    pi[st.lo] -= f_lo
    upper = np.flatnonzero(f_lo > 0.5)
    if upper.size:
        # S(+inf) = 0 stands in for a top-category row's upper cut point
        s_hi = fam.sf(np.append(eta_hi, np.inf)[st.hi_of_lo[upper]])
        pi[st.lo[upper]] = fam.sf(eta_lo[upper]) - s_hi
    return pi


# an infeasible member's log(0), 1/0 and inf - inf are discarded with it
@np.errstate(all="ignore")
def _clm_score(alpha, beta, st):
    """Log-likelihood, gradient, Hessian blocks in (alpha, beta) space, and
    category probabilities, each with a leading member axis.

    Returns ``(ll, g_alpha, g_beta, h_diag, h_off, h_ab, h_bb, pi, feasible)``.
    Every sum weights each row's term by its row weight.  Member i's
    alpha-alpha Hessian block is tridiagonal with diagonal ``h_diag[i]`` and
    first off-diagonal ``h_off[i]``; entries past its own J_i - 1 cut points
    are zero.  ``pi`` holds the (m, n) category probabilities, 1 on rows of
    weight 0.  A member is feasible when its intercepts are finite and every
    row's probability is positive; the other values of an infeasible member
    mean nothing.
    """
    fam = st.fam
    m, n = st.shape
    width = st.width
    p = st.Z.shape[1]
    eta_hi, eta_lo = _clm_eta(alpha, beta, st)
    pi = _clm_probs(eta_hi, eta_lo, st)
    s_hi, d_hi = fam.pdf_dpdf(eta_hi)
    s_lo, d_lo = fam.pdf_dpdf(eta_lo)
    pi_rows = pi.reshape(m, n)
    feasible = np.all(np.isfinite(pi_rows) & (pi_rows > 0.0), axis=1)
    feasible &= np.all(np.isfinite(alpha), axis=1)
    ll = (np.log(pi_rows) * st.weights).sum(axis=1)

    inv_pi = 1.0 / pi
    # each row's weight enters its terms through w / pi, which is 1 / pi
    # exactly when w = 1
    w_inv = inv_pi * st.weights.ravel()
    inv_hi, inv_lo = inv_pi[st.hi], inv_pi[st.lo]
    w_inv_hi, w_inv_lo = w_inv[st.hi], w_inv[st.lo]
    q_hi, q_lo = s_hi * inv_hi, s_lo * inv_lo
    wq_hi, wq_lo = s_hi * w_inv_hi, s_lo * w_inv_lo
    bins = m * width
    g_alpha = np.bincount(st.bin_hi, weights=wq_hi, minlength=bins)
    g_alpha -= np.bincount(st.bin_lo, weights=wq_lo, minlength=bins)
    u = np.zeros(m * n)
    u[st.hi] = s_hi
    u[st.lo] -= s_lo
    u *= w_inv
    g_beta = -(u.reshape(m, n) @ st.Z)

    # per-row second-derivative pieces wrt (eta_hi, eta_lo), and their cross
    # term on rows with both cut points, each times its row weight
    a_ii = d_hi * w_inv_hi - q_hi * wq_hi
    b_ii = -d_lo * w_inv_lo - q_lo * wq_lo
    both, k = st.both, st.hi_of_lo[st.both]
    c_ij = s_hi[k] * s_lo[both] * inv_lo[both] * w_inv_lo[both]

    h_diag = np.bincount(st.bin_hi, weights=a_ii, minlength=bins)
    h_diag += np.bincount(st.bin_lo, weights=b_ii, minlength=bins)
    h_off = np.bincount(st.bin_lo[both], weights=c_ij, minlength=bins)
    h_off = h_off.reshape(m, width)[:, : width - 1]

    if p:
        c_hi = np.zeros(st.hi.size)
        c_hi[k] = c_ij
        c_lo = np.zeros(st.lo.size)
        c_lo[both] = c_ij
        # the hi rows then the lo rows, each summed in row order
        coef = np.concatenate([-(a_ii + c_hi), -(b_ii + c_lo)])
        h_ab = np.stack(
            [np.bincount(st.bin_ab, weights=coef * z, minlength=bins) for z in st.z_ab],
            axis=-1,
        ).reshape(m, width, p)
        w = np.zeros(m * n)
        w[st.hi] = a_ii
        w[st.lo] += b_ii
        w[st.lo[both]] += 2.0 * c_ij
        h_bb = (w.reshape(m, n) @ st.zz).reshape(m, p, p)
    else:
        h_ab = np.zeros((m, width, 0))
        h_bb = np.zeros((m, 0, 0))
    return (
        ll, g_alpha.reshape(m, width), g_beta, h_diag.reshape(m, width), h_off, h_ab, h_bb,
        pi_rows, feasible,
    )


def _reduce(D, O, R):
    """Odd-even cyclic reduction, in place, of a stack of symmetric
    tridiagonal systems: diagonals ``D`` (m, w), couplings ``O`` (m, w) of
    each row to the next (0 for the last row) and right-hand sides ``R``
    (m, r, w).

    Each level eliminates the odd rows of the system left by the level
    before (the rows at odd multiples of its stride s) from the even rows,
    which form the next level's system.  Afterwards every row holds the
    pivot and the right-hand side it had when it was eliminated (row 0
    last, alone); :func:`_substitute` solves back from there.  A row past
    a member's own rows, with diagonal -1 and coupling 0, takes part as
    ``-x = 0``, so a member's rows take the same operations, bit for bit,
    however wide the stack is.  Returns the levels that
    :func:`_substitute` needs.
    """
    w = D.shape[1]
    levels = []
    s = 1
    while s < w:
        piv, d_even = D[:, s :: 2 * s], D[:, :: 2 * s]
        r_even, r_odd = R[..., :: 2 * s], R[..., s :: 2 * s]
        # k odd rows, the first e of them followed by an even row
        k, e = piv.shape[1], d_even.shape[1] - 1
        o_lo = O[:, :: 2 * s][:, :k].copy()
        o_hi = O[:, s :: 2 * s][:, :e]
        # even row 2i sheds odd row 2i + 1 times lo[i], and row 2i - 1 times hi[i - 1]
        lo, hi = o_lo / piv, o_hi / piv[:, :e]
        d_even[:, :k] -= lo * o_lo
        d_even[:, 1 : e + 1] -= hi * o_hi
        r_even[..., :k] -= lo[:, None] * r_odd
        r_even[..., 1 : e + 1] -= hi[:, None] * r_odd[..., :e]
        O[:, :: 2 * s][:, :e] = -lo[:, :e] * o_hi
        levels.append((s, k, e, o_lo, o_hi))
        s *= 2
    return levels


def _substitute(D, x, levels):
    """Back substitution, in place, after :func:`_reduce`: ``x`` (m, w)
    holds a right-hand side as reduced there, and ends as the solution."""
    x[:, 0] /= D[:, 0]
    for s, k, e, o_lo, o_hi in reversed(levels):
        x_even, x_odd = x[:, :: 2 * s], x[:, s :: 2 * s]
        x_odd -= o_lo * x_even[:, :k]
        x_odd[:, :e] -= o_hi * x_even[:, 1 : e + 1]
        x_odd /= D[:, s :: 2 * s]


def _banded_steps(score, n_alpha, ridge):
    """Each member's Newton step (v_alpha, v_beta), as one batched solve of
    the bordered systems [[M, h_ab], [h_ab', h_bb]] v = g less each
    member's ridge, M tridiagonal.

    Cyclic reduction of M carries the right-hand sides [g_a, h_ab] along.
    Each member's p x p Schur complement h_bb - h_ab' M^{-1} h_ab and
    right-hand side g_b - h_ab' M^{-1} g_a are then sums over its rows of
    the reduced right-hand sides over their pivots, v_beta solves that
    system, and one back substitution of g_a - h_ab v_beta gives v_alpha.

    No pivoting is needed.  Every link offered has a log-concave density, so
    M less its ridge is negative definite, and so is the odd-even permutation
    of M on which cyclic reduction is Gaussian elimination; elimination
    without pivoting is stable for a definite matrix.  A zero or non-finite
    pivot, a singular Schur complement or a non-finite step marks that
    member unsolved.
    """
    _, g_a, g_b, h_d, h_o, h_ab, h_bb = score[:7]
    m, p = g_b.shape
    w = int(n_alpha.max())
    own = np.arange(w) < n_alpha[:, None]
    # past a member's own cut points: diagonal -1, coupling 0, right-hand side 0
    D = np.where(own, h_d[:, :w] - ridge[:, None], -1.0)
    O = np.zeros((m, w))
    O[:, : w - 1] = np.where(own[:, 1:], h_o[:, : w - 1], 0.0)
    R = np.empty((m, 1 + p, w))
    R[:, 0] = g_a[:, :w]
    R[:, 1:] = h_ab[:, :w].transpose(0, 2, 1)
    R *= own[:, None]
    # a failed member's inf and nan are caught by the checks on its result
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        levels = _reduce(D, O, R)
        solved = np.all(np.isfinite(D) & (D != 0.0), axis=1)
        solved &= np.all(np.isfinite(R), axis=(1, 2))
        v_b = np.zeros((m, p))
        tried = np.flatnonzero(solved)
        if p and tried.size:
            schur = h_bb[tried] - ridge[tried, None, None] * np.eye(p)
            rhs = g_b[tried, :, None].copy()
            for j, i in enumerate(tried):
                # over the member's own rows only, so that its sums do not
                # depend on the width of the stack
                k = n_alpha[i]
                sums = (R[i, 1:, :k] / D[i, :k]) @ R[i, :, :k].T
                schur[j] -= sums[:, 1:]
                rhs[j, :, 0] -= sums[:, 0]
            try:
                v_b[tried] = np.linalg.solve(schur, rhs)[..., 0]
            except np.linalg.LinAlgError:
                # one singular block fails the stacked call: solve one at a time
                for j, i in enumerate(tried):
                    try:
                        v_b[i] = np.linalg.solve(schur[j : j + 1], rhs[j : j + 1])[0, :, 0]
                    except np.linalg.LinAlgError:
                        solved[i] = False
        x = R[:, 0] - np.sum(R[:, 1:] * v_b[..., None], axis=1)
        _substitute(D, x, levels)
        solved &= np.all(np.isfinite(x), axis=1) & np.all(np.isfinite(v_b), axis=1)
    v_a = np.zeros_like(g_a)
    v_a[:, :w] = np.where(own, x, 0.0)
    return v_a, v_b, solved


def _ridged_steps(score, n_alpha):
    """Newton steps with the smallest ridge (0, then 1e-8 times the largest
    |h_diag| + 1, growing tenfold, 12 tries) that gives each member a finite
    step; returns ``(v_alpha, v_beta, ridge, solved)``."""
    ridge = np.zeros(n_alpha.size)
    v_a, v_b, solved = _banded_steps(score, n_alpha, ridge)
    if solved.all():
        return v_a, v_b, ridge, solved
    scale = np.max(np.abs(score[3]), axis=1) + 1.0
    for _ in range(11):
        need = ~solved
        ridge[need] = np.maximum(ridge[need] * 10.0, 1e-8 * scale[need])
        tried = np.flatnonzero(need)
        va, vb, ok = _banded_steps([s[tried] for s in score], n_alpha[tried], ridge[tried])
        v_a[tried[ok]], v_b[tried[ok]] = va[ok], vb[ok]
        solved[tried[ok]] = True
        if solved.all():
            break
    return v_a, v_b, ridge, solved


def _clm_newton(codes, weights, Z, fam, max_iter) -> SimpleNamespace:
    """Newton's method on (alpha, beta) for a stack of row-weighted
    cumulative-link fits.

    Every member keeps its own step: its ridge, its step-halving, its final
    full step, its separation cap and its iteration count, exactly as a fit
    of that member alone.  A member leaves the stack when it converges, caps
    or fails, and the rest go on.  Every member needs J_i >= 2 levels among
    its rows of positive weight.
    Returns per member (a leading member axis) ``alpha``, ``beta``,
    ``loglik``, ``converged``, ``separated``, ``iterations``,
    ``grad_max_norm``, ``decrement`` and ``notes``.
    """
    st = _ClmStack(codes, weights, Z, fam)
    m, width, p = codes.shape[0], st.width, Z.shape[1]
    own = np.arange(width) < st.n_alpha[:, None]
    # the weighted empirical CDF of each member's codes
    counts = np.bincount(
        ((np.arange(m) * (width + 1))[:, None] + codes).ravel(),
        weights=st.weights.ravel(),
        minlength=m * (width + 1),
    ).reshape(m, width + 1)
    cum = np.cumsum(counts, axis=1)[:, :width] / st.weights.sum(axis=1)[:, None]
    alpha = np.where(own, fam.quantile(np.where(own, cum, 0.5)), 0.0)
    beta = np.zeros((m, p))
    res = SimpleNamespace(
        alpha=np.zeros((m, width)), beta=np.zeros((m, p)), loglik=np.zeros(m),
        converged=np.zeros(m, dtype=bool), separated=np.zeros(m, dtype=bool),
        iterations=np.zeros(m, dtype=int), grad_max_norm=np.zeros(m),
        decrement=np.full(m, np.nan), notes=[[] for _ in range(m)],
    )

    # state of the members still in the stack, which are members ``ids``;
    # ``score`` is the output of _clm_score at (alpha, beta)
    ids = np.arange(m)
    score = list(_clm_score(alpha, beta, st))
    iterations = np.zeros(m, dtype=int)
    decrement = np.full(m, np.nan)
    separated = np.zeros(m, dtype=bool)

    def leave(keep, converged=None):
        """Record the members outside ``keep`` and drop them from the stack."""
        nonlocal ids, st, alpha, beta, score, iterations, decrement, separated
        if keep.all():
            return
        out = ~keep
        i = ids[out]
        res.alpha[i], res.beta[i], res.loglik[i] = alpha[out], beta[out], score[0][out]
        res.iterations[i], res.decrement[i] = iterations[out], decrement[out]
        res.separated[i] = separated[out]
        if converged is not None:
            res.converged[i] = converged[out]
        res.grad_max_norm[i] = np.max(
            np.abs(np.concatenate([score[1][out], score[2][out]], axis=1)), axis=1
        )
        k = np.flatnonzero(keep)
        if not k.size:
            ids = k
            return
        ids, st, alpha, beta = ids[k], st.take(k), alpha[k], beta[k]
        score = [s[k] for s in score]
        iterations, decrement, separated = iterations[k], decrement[k], separated[k]

    def note(mask, text):
        for i in ids[mask]:
            res.notes[i].append(text)

    while ids.size:
        v_a, v_b, ridge, solved = _ridged_steps(score, st.n_alpha)
        decrement = np.where(
            solved,
            np.abs(np.einsum("ij,ij->i", score[1], v_a) + np.einsum("ij,ij->i", score[2], v_b)),
            decrement,
        )
        go = solved & (iterations < max_iter)
        if not go.all():
            note(~solved, "newton step could not be computed")
            note(solved & ~go, "did not converge")
        iterations += go

        # within DECREMENT_TOL of the optimum without a ridge: take the full
        # step if it keeps the cut points increasing, and stop
        final = go & (ridge == 0.0) & (decrement <= DECREMENT_TOL)
        if final.any():
            alpha_full = alpha - v_a
            final &= np.all((np.diff(alpha_full, axis=1) > 0.0) | st.padded, axis=1)
            alpha[final], beta[final] = alpha_full[final], beta[final] - v_b[final]

        # step-halving: accept the first feasible step that improves the
        # likelihood.  The improvement is measured as sum(log(pi_new / pi_old))
        # so that late-stage gains far below the floating-point resolution of
        # the total log-likelihood are still visible.  The members still
        # searching all have the step length 0.5 ** halvings, and a trial
        # point is scored in full, so an accepted step needs no second pass.
        pending = go & ~final
        for halvings in range(40):
            if not pending.any():
                break
            tried = np.flatnonzero(pending)
            t = 0.5**halvings
            alpha_new = alpha[tried] - t * v_a[tried]
            beta_new = beta[tried] - t * v_b[tried]
            trial = _clm_score(alpha_new, beta_new, st.take(tried))
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = np.sum(np.log(trial[7] / score[7][tried]) * st.weights[tried], axis=1)
            took = trial[8] & (gain > 0.0)
            if not took.all():
                tried, alpha_new, beta_new = tried[took], alpha_new[took], beta_new[took]
                trial = [x[took] for x in trial]
                if not tried.size:
                    continue
            pending[tried] = False
            if p and np.max(np.abs(beta_new)) > SEPARATION_CAP:
                # shorten the accepted step to end where max|beta| reaches the
                # cap; by concavity that point is no worse than the current one
                for j in np.flatnonzero(np.max(np.abs(beta_new), axis=1) > SEPARATION_CAP):
                    i, b0, b1 = tried[j], beta[tried[j]], beta_new[j]
                    over = np.abs(b1) > SEPARATION_CAP
                    cap = np.copysign(SEPARATION_CAP, b1[over])
                    frac = float(np.min((cap - b0[over]) / (b1[over] - b0[over])))
                    alpha_new[j] = alpha[i] + frac * (alpha_new[j] - alpha[i])
                    beta_new[j] = np.clip(b0 + frac * (b1 - b0), -SEPARATION_CAP, SEPARATION_CAP)
                    separated[i] = True
                    res.notes[ids[i]].append(
                        f"complete separation suspected: coefficients capped at |{SEPARATION_CAP}|"
                    )
            if tried.size == ids.size:
                alpha, beta, score = alpha_new, beta_new, list(trial)
            else:
                alpha[tried], beta[tried] = alpha_new, beta_new
                for kept, new in zip(score, trial):
                    kept[tried] = new
        note(pending, "line search stalled")

        # members that did not move stop; a full or capped step's end point
        # still needs its score, and then those members stop too
        moved = final | (go & ~pending)
        leave(moved)
        if not ids.size:
            break
        final = final[moved]
        rescore = np.flatnonzero(final | separated)
        if rescore.size:
            for kept, new in zip(score, _clm_score(alpha[rescore], beta[rescore], st.take(rescore))):
                kept[rescore] = new
        leave(~final & ~separated, converged=final)

    return res


def _clm_fits(cols, X: DesignMatrix | None, link: str, max_iter: int, weights=None) -> list:
    """One stacked fit of every column on its observed rows, each row counted
    ``weights`` times (once when ``weights`` is None): per column its
    :class:`ModelFit`, or the :class:`PsrKitError` its fit raised.  A design
    collinear with the cut points raises :class:`InputError`."""
    if link not in CUMULATIVE_LINKS:
        raise InputError(f"unknown cumulative link {link!r}; choose from {sorted(CUMULATIVE_LINKS)}")
    fam = CUMULATIVE_LINKS[link]
    n = cols[0].n if cols else 0
    Xm, names = (np.zeros((n, 0)), ()) if X is None else (X.matrix, tuple(X.names))
    _check_intercept_rank(Xm)
    out: list = [None] * len(cols)
    supports, fitted = [], []
    codes = np.zeros((len(cols), n), dtype=np.intp)
    missing = np.array([col.missing for col in cols], dtype=bool).reshape(len(cols), n)
    weights = np.where(missing, 0.0, 1.0 if weights is None else weights)
    observed = weights > 0.0
    for i, col in enumerate(cols):
        support, codes[i, observed[i]] = np.unique(col.values[observed[i]], return_inverse=True)
        if support.size < 2:
            out[i] = DegenerateFitError(f"outcome {col.name!r} is constant; no cut points to fit")
        else:
            supports.append(support)
            fitted.append(i)
    if not fitted:
        return out
    res = _clm_newton(codes[fitted], weights[fitted], Xm, fam, max_iter)
    for j, i in enumerate(fitted):
        name = cols[i].name
        if not res.converged[j] and not res.separated[j]:
            out[i] = ConvergenceError(
                f"cumulative-link fit of {name!r} failed ({res.notes[j][-1]}): score max-norm "
                f"{res.grad_max_norm[j]:.3e}, Newton decrement {res.decrement[j]:.3e} "
                f"after {res.iterations[j]} iterations"
            )
            continue
        out[i] = ModelFit(
            link=link,
            outcome=name,
            beta=res.beta[j],
            alpha=res.alpha[j, : supports[j].size - 1],
            term_names=names,
            loglik=float(res.loglik[j]),
            converged=bool(res.converged[j]),
            iterations=int(res.iterations[j]),
            n_obs=int(weights[i].sum()),
            grad_max_norm=float(res.grad_max_norm[j]),
            support=supports[j],
            notes=tuple(res.notes[j]),
        )
    return out


def fit_cumulative_link(
    y: Column,
    X: DesignMatrix | None = None,
    link: str = "logit",
    *,
    max_iter: int = MAX_ITERATIONS,
) -> ModelFit:
    """Fit g[P(Y <= v_j | x)] = alpha_j - x'beta over distinct outcome values.

    Starting values are the link-transformed empirical CDF for alpha and
    zero for beta.  When no ridge was needed and the Newton decrement is at
    most ``DECREMENT_TOL``, the full step is taken if it keeps the cut points
    increasing, and the fit stops as converged.  Non-convergence raises
    :class:`ConvergenceError`, except for complete separation (a coefficient
    beyond +-30 on the link scale): the last step is then shortened to end
    where the largest coefficient is exactly 30, and the fit warns and
    returns that capped point so batch scans can continue.  A design
    collinear with the cut points raises :class:`InputError`.
    """
    _check_fit_inputs(y, X, kinds=ORDERABLE_KINDS)
    (fit,) = _clm_fits([y], X, link, max_iter)
    if isinstance(fit, PsrKitError):
        raise fit
    if any(note.startswith("complete separation suspected") for note in fit.notes):
        warnings.warn(
            f"fit of {y.name!r}: complete separation suspected; "
            f"coefficients capped at +-{SEPARATION_CAP}",
            stacklevel=2,
        )
    return fit


def fit_cumulative_link_batch(
    columns: Sequence[Column],
    X: DesignMatrix | None = None,
    link: str = "logit",
    *,
    max_iter: int = MAX_ITERATIONS,
    weights: np.ndarray | None = None,
) -> list:
    """:func:`fit_cumulative_link` of each column on the rows where it is
    observed, as one stacked Newton loop.

    ``weights``, one row of nonnegative integer frequency weights per
    column, makes column i's fit that of its observed rows each repeated
    ``weights[i]`` times (a bootstrap replicate of rows ``idx`` has weights
    ``bincount(idx)``); ``n_obs`` is then the sum of the weights.  Returns
    one entry per column: its :class:`ModelFit`, or the :class:`PsrKitError`
    that fitting it alone would raise (a constant column, a fit that does
    not converge).  A member's separation shows only in its ``notes``, which
    carry the cap that :func:`fit_cumulative_link` would warn of; the batch
    itself never warns.  Malformed input (a column kind that is not
    orderable, a design of another length or collinear with the cut points,
    weights of another shape or not nonnegative integers) raises
    :class:`InputError`.
    """
    cols = list(columns)
    for col in cols:
        _check_fit_inputs(col, X, kinds=ORDERABLE_KINDS, missing_ok=True)
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(cols), cols[0].n if cols else 0):
            raise InputError("weights need one row per column and one entry per row")
        if not np.all((weights >= 0.0) & (weights == np.floor(weights)) & np.isfinite(weights)):
            raise InputError("weights must be nonnegative integers")
    return _clm_fits(cols, X, link, max_iter, weights)


def _check_fit_inputs(y: Column, X: DesignMatrix | None, kinds, missing_ok=False) -> tuple:
    if y.kind not in kinds:
        raise InputError(f"outcome {y.name!r} has kind {y.kind.value}, expected one of "
                         f"{sorted(k.value for k in kinds)}")
    if not missing_ok and y.missing.any():
        raise InputError(f"outcome {y.name!r} has missing values; run complete_cases first")
    if X is None:
        return y.values, np.zeros((y.n, 0)), ()
    if X.n != y.n:
        raise InputError("design matrix and outcome have different lengths")
    return y.values, X.matrix, tuple(X.names)


# ---------------------------------------------------------------------------
# empirical and parametric fitters
# ---------------------------------------------------------------------------


def fit_empirical(y: Column) -> ModelFit:
    """Intercept-only fit whose predictions are the empirical CDF of y."""
    yv, _, _ = _check_fit_inputs(y, None, kinds=ORDERABLE_KINDS)
    support, counts = np.unique(yv, return_counts=True)
    n = y.n
    cum = np.cumsum(counts) / n  # ends at n / n, exactly 1
    # metadata intercepts on the logit scale; predictions use the exact ECDF
    alpha = _logit(cum[:-1]) if support.size > 1 else np.zeros(0)
    loglik = float(np.sum(counts * np.log(counts / n)))
    return ModelFit(
        link="empirical",
        outcome=y.name,
        beta=np.zeros(0),
        alpha=alpha,
        term_names=(),
        loglik=loglik,
        converged=True,
        iterations=0,
        n_obs=n,
        grad_max_norm=0.0,
        support=support,
        support_cum_probs=cum,
    )


def _design(y: Column, X: DesignMatrix | None, kinds) -> tuple:
    """The input checks of a one-intercept family: the outcome values, the
    design ``[1, X]`` and the term names.  Rejects ``n <= p`` and a design
    collinear with the intercept."""
    yv, Xm, names = _check_fit_inputs(y, X, kinds)
    n, p = Xm.shape
    if n <= p:
        raise InputError(f"need more than {p} observations to fit {p} slopes")
    _check_intercept_rank(Xm)
    return yv, np.column_stack([np.ones(n), Xm]), names


def _intercept_fit(link, y, names, coef, loglik, iterations, grad_max_norm, scale=None):
    """The converged :class:`ModelFit` of a one-intercept family, coef = (alpha, beta)."""
    return ModelFit(
        link=link, outcome=y.name, beta=coef[1:], alpha=coef[:1], term_names=names,
        loglik=loglik, converged=True, iterations=iterations, n_obs=y.n,
        grad_max_norm=grad_max_norm, scale=scale,
    )


def fit_linear_normal(y: Column, X: DesignMatrix | None = None) -> ModelFit:
    """Ordinary least squares with maximum-likelihood (divide-by-n) sigma."""
    yv, full, names = _design(
        y, X, kinds={ColumnKind.CONTINUOUS, ColumnKind.COUNT, ColumnKind.BINARY}
    )
    n = y.n
    coef, _, _, _ = np.linalg.lstsq(full, yv, rcond=None)
    resid = yv - full @ coef
    sigma2 = float(resid @ resid) / n
    if sigma2 <= 1e-20 * (float(np.mean(np.square(yv))) + 1.0):
        raise DegenerateFitError(
            f"fit of {y.name!r} is degenerate: residual variance is zero"
        )
    loglik = -0.5 * n * (np.log(2.0 * np.pi * sigma2) + 1.0)
    return _intercept_fit(
        "identity-normal", y, names, coef, float(loglik), 0, 0.0, float(np.sqrt(sigma2))
    )


def _fit_log_rate(link, y, full, names, counts, exposure, const, max_iter) -> ModelFit:
    """The fit of counts_i ~ Poisson(exposure_i exp(eta_i)), eta = full @ coef,
    with log-likelihood counts' eta - sum(mu) - const, mu the fitted means.

    Newton steps use the score full'(counts - mu) and the information
    full' diag(mu) full, from the intercept-only solution
    log(sum counts / sum exposure).  Step-halving keeps the likelihood
    rising until the Newton decrement is at most ``DECREMENT_TOL``; that
    full step is then taken without the likelihood test and ends the fit.
    """
    label = f"{link.split('-')[1]} fit of {y.name!r}"

    def loglik(coef):
        eta = full @ coef
        if np.max(eta) > 500:
            return -np.inf, None
        mu = exposure * np.exp(eta)
        return float(counts @ eta - mu.sum() - const), mu

    coef = np.zeros(full.shape[1])
    coef[0] = np.log(counts.sum() / exposure.sum())
    ll, mu = loglik(coef)
    iterations = 0
    while True:
        grad = full.T @ (counts - mu)
        try:
            direction = np.linalg.solve(full.T @ (full * mu[:, None]), grad)
        except np.linalg.LinAlgError:
            raise ConvergenceError(f"{label}: singular information matrix") from None
        decrement = float(grad @ direction)
        if iterations >= max_iter:
            raise ConvergenceError(
                f"{label} did not converge: score max-norm {np.max(np.abs(grad)):.3e}, "
                f"Newton decrement {decrement:.3e} after {iterations} iterations"
            )
        iterations += 1
        if decrement <= DECREMENT_TOL:
            coef = coef + direction
            ll, mu = loglik(coef)
            break
        step = 1.0
        for _ in range(40):
            ll_new, mu_new = loglik(coef + step * direction)
            if ll_new > ll:
                break
            step *= 0.5
        else:
            raise ConvergenceError(f"{label}: line search stalled")
        coef = coef + step * direction
        ll, mu = ll_new, mu_new
    gmax = float(np.max(np.abs(full.T @ (counts - mu))))
    return _intercept_fit(link, y, names, coef, ll, iterations, gmax)


def fit_poisson(
    y: Column,
    X: DesignMatrix | None = None,
    *,
    max_iter: int = MAX_ITERATIONS,
) -> ModelFit:
    """Log-link Poisson regression, mean_i = exp(alpha + x_i' beta), by
    Newton's method on the log-likelihood, which for the canonical log link
    is iteratively reweighted least squares: the log-rate fit with exposure
    1 that :func:`fit_exponential_survival` shares."""
    yv, full, names = _design(y, X, kinds={ColumnKind.COUNT, ColumnKind.BINARY})
    if yv.mean() <= 0:
        raise DegenerateFitError(f"column {y.name!r}: all counts are zero")
    from scipy.special import gammaln

    const = float(np.sum(gammaln(yv + 1.0)))
    return _fit_log_rate("log-poisson", y, full, names, yv, np.ones(y.n), const, max_iter)


def fit_exponential_survival(
    y: Column,
    X: DesignMatrix | None = None,
    *,
    max_iter: int = MAX_ITERATIONS,
) -> ModelFit:
    """Exponential survival regression, rate_i = exp(alpha + x_i' beta).

    Censored maximum likelihood with a log link.  Its log-likelihood
    sum(delta_i eta_i - t_i rate_i) is the Poisson log-likelihood of the
    event indicators delta with the follow-up times t as exposure, so this
    is :func:`fit_poisson`'s fit with counts delta, exposure t and constant
    0.  The intercept-only solution is the classical (number of events) /
    (total follow-up time).
    """
    times, full, names = _design(y, X, kinds={ColumnKind.RIGHT_CENSORED})
    if np.any(times <= 0):
        raise InputError(f"column {y.name!r}: follow-up times must be strictly positive")
    if y.events.sum() < 1:
        raise DegenerateFitError(f"column {y.name!r}: needs at least one event")
    return _fit_log_rate("log-exponential", y, full, names, y.events, times, 0.0, max_iter)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def predict_distribution(fit: ModelFit, row) -> FittedDistribution:
    """The fitted conditional outcome distribution at one design row.

    ``row`` may be ``None`` for intercept-only fits.
    """
    row = np.zeros(0) if row is None else np.atleast_1d(np.asarray(row, dtype=float))
    if row.shape != (fit.beta.size,):
        raise InputError(
            f"design row has {row.size} entries, fit expects {fit.beta.size}"
        )
    xb = float(row @ fit.beta) if fit.beta.size else 0.0
    return _FITTED_CDFS[fit.link].row(fit, xb)


@dataclass(frozen=True)
class LikelihoodRatioTest:
    statistic: float
    df: int
    p_value: float


def lr_test(reduced: ModelFit, full: ModelFit) -> LikelihoodRatioTest:
    """Likelihood-ratio comparison of two nested fits of the same outcome."""
    if reduced.outcome != full.outcome or reduced.link != full.link:
        raise InputError("lr_test compares nested fits of the same outcome and link")
    if reduced.n_obs != full.n_obs:
        raise InputError("lr_test needs fits on the same rows")
    df = full.n_params - reduced.n_params
    if df <= 0:
        raise InputError("the second fit must have more parameters than the first")
    stat = 2.0 * (full.loglik - reduced.loglik)
    stat = max(stat, 0.0)
    from scipy.special import chdtrc

    return LikelihoodRatioTest(stat, df, float(chdtrc(df, stat)))
