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
increasing, so no reparameterization is needed.  The alpha block of the
Hessian is tridiagonal because each observation couples only its own two
adjacent cut points; steps are solved through that structure plus a p x p
Schur complement, so one iteration costs O(J + n p + p^3) even when every
outcome value is distinct.

Every Newton fit stops on the Newton decrement |g' M^{-1} g| (M the Hessian
or information matrix), not on the size of the score: once it is at most
``DECREMENT_TOL`` the full Newton step is taken without the likelihood test
and the fit stops as converged.  The decrement is twice the gain the step
predicts in log-likelihood, so the rule holds at any n, whereas the score's
rounding noise grows with the number of cut points.

Parametric families (normal linear, log-link Poisson, log-link exponential
survival) share the :class:`ModelFit` container, storing their single
intercept in ``alpha``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special
from scipy.linalg import solve_banded

from .data_model import Column, ColumnKind, DesignMatrix, ORDERABLE_KINDS
from .exceptions import ConvergenceError, DegenerateFitError, InputError
from .fitted_dist import (
    DiscreteSupport,
    ExponentialDist,
    FittedDistribution,
    NormalDist,
)

__all__ = [
    "LinkFamily",
    "LINKS",
    "CUMULATIVE_LINKS",
    "ModelFit",
    "fit_empirical",
    "fit_cumulative_link",
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


@dataclass(frozen=True)
class LinkFamily:
    """An inverse-link CDF ``h`` with its first two derivatives and inverse.

    ``h`` must be a strictly increasing distribution function so the
    cumulative probabilities inherit monotonicity from the intercepts.
    """

    name: str
    cdf: Callable[[np.ndarray], np.ndarray]
    pdf: Callable[[np.ndarray], np.ndarray]
    dpdf: Callable[[np.ndarray], np.ndarray]
    quantile: Callable[[np.ndarray], np.ndarray]


def _logit_pdf(eta):
    p = special.expit(eta)
    return p * (1.0 - p)


def _logit_dpdf(eta):
    p = special.expit(eta)
    return p * (1.0 - p) * (1.0 - 2.0 * p)


def _probit_pdf(eta):
    return np.exp(-0.5 * np.square(eta)) / _SQRT_2PI


def _cloglog_cdf(eta):
    return -np.expm1(-np.exp(eta))


def _cloglog_pdf(eta):
    return np.exp(eta - np.exp(eta))


def _loglog_cdf(eta):
    return np.exp(-np.exp(-eta))


def _loglog_pdf(eta):
    return np.exp(-eta - np.exp(-eta))


CUMULATIVE_LINKS: dict[str, LinkFamily] = {
    "logit": LinkFamily(
        "logit",
        cdf=special.expit,
        pdf=_logit_pdf,
        dpdf=_logit_dpdf,
        quantile=special.logit,
    ),
    "probit": LinkFamily(
        "probit",
        cdf=special.ndtr,
        pdf=_probit_pdf,
        dpdf=lambda eta: -eta * _probit_pdf(eta),
        quantile=special.ndtri,
    ),
    "cloglog": LinkFamily(
        "cloglog",
        cdf=_cloglog_cdf,
        pdf=_cloglog_pdf,
        dpdf=lambda eta: _cloglog_pdf(eta) * (1.0 - np.exp(eta)),
        quantile=lambda p: np.log(-np.log1p(-np.asarray(p, dtype=float))),
    ),
    "loglog": LinkFamily(
        "loglog",
        cdf=_loglog_cdf,
        pdf=_loglog_pdf,
        dpdf=lambda eta: _loglog_pdf(eta) * (np.exp(-eta) - 1.0),
        quantile=lambda p: -np.log(-np.log(np.asarray(p, dtype=float))),
    ),
}

#: every accepted value of ``ModelFit.link``
LINKS = tuple(CUMULATIVE_LINKS) + (
    "empirical",
    "identity-normal",
    "log-poisson",
    "log-exponential",
)


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

    @property
    def is_discrete(self) -> bool:
        return self.link in CUMULATIVE_LINKS or self.link in ("empirical", "log-poisson")


# ---------------------------------------------------------------------------
# cumulative-link engine
# ---------------------------------------------------------------------------


def _clm_pi(alpha, beta, codes, Xm, fam) -> np.ndarray | None:
    """Per-observation category probabilities; None at infeasible points."""
    if not np.all(np.isfinite(alpha)):
        return None
    n = codes.size
    n_alpha = alpha.size
    xb = Xm @ beta if beta.size else np.zeros(n)
    hi = codes < n_alpha
    lo = codes > 0
    gam_hi = np.ones(n)
    gam_lo = np.zeros(n)
    with np.errstate(over="ignore", under="ignore"):
        gam_hi[hi] = fam.cdf(alpha[codes[hi]] - xb[hi])
        gam_lo[lo] = fam.cdf(alpha[codes[lo] - 1] - xb[lo])
    pi = gam_hi - gam_lo
    if not np.all(np.isfinite(pi)) or np.any(pi <= 0.0):
        return None
    return pi


def _clm_score(alpha, beta, codes, Xm, fam):
    """Log-likelihood, gradient, and Hessian blocks in (alpha, beta) space.

    Returns ``(ll, g_alpha, g_beta, h_diag, h_off, h_ab, h_bb)`` where the
    alpha-alpha Hessian block is tridiagonal with diagonal ``h_diag`` and
    first off-diagonal ``h_off``.
    """
    n = codes.size
    n_alpha = alpha.size
    p = Xm.shape[1]
    xb = Xm @ beta if p else np.zeros(n)
    hi = codes < n_alpha
    lo = codes > 0
    both = hi & lo

    gam_hi = np.ones(n)
    gam_lo = np.zeros(n)
    s_hi = np.zeros(n)
    s_lo = np.zeros(n)
    d_hi = np.zeros(n)
    d_lo = np.zeros(n)
    with np.errstate(over="ignore", under="ignore"):
        eta_hi = alpha[codes[hi]] - xb[hi]
        eta_lo = alpha[codes[lo] - 1] - xb[lo]
        gam_hi[hi] = fam.cdf(eta_hi)
        s_hi[hi] = fam.pdf(eta_hi)
        d_hi[hi] = fam.dpdf(eta_hi)
        gam_lo[lo] = fam.cdf(eta_lo)
        s_lo[lo] = fam.pdf(eta_lo)
        d_lo[lo] = fam.dpdf(eta_lo)

    pi = gam_hi - gam_lo
    ll = float(np.log(pi).sum())

    inv_pi = 1.0 / pi
    g_alpha = np.bincount(codes[hi], weights=(s_hi * inv_pi)[hi], minlength=n_alpha)
    g_alpha -= np.bincount(codes[lo] - 1, weights=(s_lo * inv_pi)[lo], minlength=n_alpha)
    u = (s_hi - s_lo) * inv_pi
    g_beta = -(Xm.T @ u) if p else np.zeros(0)

    # per-observation second-derivative pieces wrt (eta_hi, eta_lo)
    a_ii = np.where(hi, d_hi * inv_pi - np.square(s_hi * inv_pi), 0.0)
    b_ii = np.where(lo, -d_lo * inv_pi - np.square(s_lo * inv_pi), 0.0)
    c_ij = np.where(both, s_hi * s_lo * inv_pi * inv_pi, 0.0)

    h_diag = np.bincount(codes[hi], weights=a_ii[hi], minlength=n_alpha)
    h_diag += np.bincount(codes[lo] - 1, weights=b_ii[lo], minlength=n_alpha)
    if n_alpha > 1:
        h_off = np.bincount(codes[both] - 1, weights=c_ij[both], minlength=n_alpha - 1)
        h_off = h_off[: n_alpha - 1]
    else:
        h_off = np.zeros(0)

    if p:
        # the hi rows then the lo rows, each summed in row order
        at = np.concatenate([codes[hi], codes[lo] - 1])
        terms = np.concatenate(
            [-(a_ii + c_ij)[hi, None] * Xm[hi], -(b_ii + c_ij)[lo, None] * Xm[lo]]
        )
        h_ab = np.column_stack(
            [np.bincount(at, weights=terms[:, k], minlength=n_alpha) for k in range(p)]
        )
        w = a_ii + b_ii + 2.0 * c_ij
        h_bb = Xm.T @ (Xm * w[:, None])
    else:
        h_ab = np.zeros((n_alpha, 0))
        h_bb = np.zeros((0, 0))
    return ll, g_alpha, g_beta, h_diag, h_off, h_ab, h_bb


def _solve_bordered(h_diag, h_off, h_ab, h_bb, g_alpha, g_beta, ridge):
    """Solve [[M, h_ab], [h_ab', h_bb]] v = g with M tridiagonal, minus a ridge."""
    n_alpha = h_diag.size
    p = h_bb.shape[0]
    ab = np.zeros((3, n_alpha))
    ab[1] = h_diag - ridge
    if n_alpha > 1:
        ab[0, 1:] = h_off
        ab[2, :-1] = h_off
    rhs = np.column_stack([g_alpha, h_ab]) if p else g_alpha[:, None]
    sol = solve_banded((1, 1), ab, rhs, check_finite=False)
    y_a = sol[:, 0]
    if not p:
        return y_a, np.zeros(0)
    y_ab = sol[:, 1:]
    schur = (h_bb - ridge * np.eye(p)) - h_ab.T @ y_ab
    v_b = np.linalg.solve(schur, g_beta - h_ab.T @ y_a)
    v_a = y_a - y_ab @ v_b
    return v_a, v_b


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
    returns that capped point so batch scans can continue.
    """
    if link not in CUMULATIVE_LINKS:
        raise InputError(f"unknown cumulative link {link!r}; choose from {sorted(CUMULATIVE_LINKS)}")
    fam = CUMULATIVE_LINKS[link]
    yv, Xm, names = _check_fit_inputs(y, X, kinds=ORDERABLE_KINDS)
    n, p = Xm.shape

    support, codes = np.unique(yv, return_inverse=True)
    n_levels = support.size
    if n_levels < 2:
        raise DegenerateFitError(f"outcome {y.name!r} is constant; no cut points to fit")
    n_alpha = n_levels - 1
    counts = np.bincount(codes, minlength=n_levels)
    alpha = fam.quantile(np.cumsum(counts)[:-1] / n)
    beta = np.zeros(p)

    pi_cur = _clm_pi(alpha, beta, codes, Xm, fam)
    ll, g_a, g_b, h_d, h_o, h_ab, h_bb = _clm_score(alpha, beta, codes, Xm, fam)
    notes: list[str] = []
    iterations = 0
    converged = separated = False
    decrement = np.nan

    while not separated:
        ridge = 0.0
        scale = float(np.max(np.abs(h_d))) + 1.0
        for _ in range(12):
            try:
                v_a, v_b = _solve_bordered(h_d, h_o, h_ab, h_bb, g_a, g_b, ridge)
                if np.all(np.isfinite(v_a)) and np.all(np.isfinite(v_b)):
                    break
            except np.linalg.LinAlgError:
                pass
            ridge = max(ridge * 10.0, 1e-8 * scale)
        else:
            notes.append("newton step could not be computed")
            break
        decrement = abs(float(g_a @ v_a + g_b @ v_b))
        if iterations >= max_iter:
            notes.append("did not converge")
            break
        iterations += 1

        if ridge == 0.0 and decrement <= DECREMENT_TOL:
            alpha_new = alpha - v_a
            if n_alpha == 1 or np.all(np.diff(alpha_new) > 0.0):
                alpha, beta = alpha_new, beta - v_b
                ll, g_a, g_b = _clm_score(alpha, beta, codes, Xm, fam)[:3]
                converged = True
                break

        # step-halving: accept the first feasible step that improves the
        # likelihood.  The improvement is measured as sum(log(pi_new / pi_old))
        # so that late-stage gains far below the floating-point resolution of
        # the total log-likelihood are still visible.
        step = 1.0
        for _ in range(40):
            alpha_new, beta_new = alpha - step * v_a, beta - step * v_b
            pi_new = _clm_pi(alpha_new, beta_new, codes, Xm, fam)
            if pi_new is not None and float(np.sum(np.log(pi_new / pi_cur))) > 0.0:
                break
            step *= 0.5
        else:
            notes.append("line search stalled")
            break

        if p and np.max(np.abs(beta_new)) > SEPARATION_CAP:
            # shorten the accepted step to end where max|beta| reaches the cap;
            # by concavity that point is no worse than the current iterate
            over = np.abs(beta_new) > SEPARATION_CAP
            cap = np.copysign(SEPARATION_CAP, beta_new[over])
            t = float(np.min((cap - beta[over]) / (beta_new[over] - beta[over])))
            alpha_new = alpha + t * (alpha_new - alpha)
            beta_new = np.clip(beta + t * (beta_new - beta), -SEPARATION_CAP, SEPARATION_CAP)
            separated = True
            notes.append(
                f"complete separation suspected: coefficients capped at |{SEPARATION_CAP}|"
            )
            warnings.warn(
                f"fit of {y.name!r}: complete separation suspected; "
                f"coefficients capped at +-{SEPARATION_CAP}",
                stacklevel=2,
            )
        alpha, beta, pi_cur = alpha_new, beta_new, pi_new
        ll, g_a, g_b, h_d, h_o, h_ab, h_bb = _clm_score(alpha, beta, codes, Xm, fam)

    gmax = float(np.max(np.abs(np.concatenate([g_a, g_b]))))
    if not converged and not separated:
        raise ConvergenceError(
            f"cumulative-link fit of {y.name!r} failed ({notes[-1]}): score max-norm "
            f"{gmax:.3e}, Newton decrement {decrement:.3e} after {iterations} iterations"
        )
    return ModelFit(
        link=link,
        outcome=y.name,
        beta=beta,
        alpha=alpha,
        term_names=names,
        loglik=ll,
        converged=converged,
        iterations=iterations,
        n_obs=n,
        grad_max_norm=gmax,
        support=support,
        notes=tuple(notes),
    )


def _check_fit_inputs(y: Column, X: DesignMatrix | None, kinds) -> tuple:
    if y.kind not in kinds:
        raise InputError(f"outcome {y.name!r} has kind {y.kind.value}, expected one of "
                         f"{sorted(k.value for k in kinds)}")
    if y.missing.any():
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
    cum = np.cumsum(counts) / n
    cum[-1] = 1.0
    # metadata intercepts on the logit scale; predictions use the exact ECDF
    alpha = special.logit(cum[:-1]) if support.size > 1 else np.zeros(0)
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


def fit_linear_normal(y: Column, X: DesignMatrix | None = None) -> ModelFit:
    """Ordinary least squares with maximum-likelihood (divide-by-n) sigma."""
    yv, Xm, names = _check_fit_inputs(
        y, X, kinds={ColumnKind.CONTINUOUS, ColumnKind.COUNT, ColumnKind.BINARY}
    )
    n, p = Xm.shape
    full = np.column_stack([np.ones(n), Xm])
    if n <= p:
        raise InputError(f"need more than {p} observations to fit {p} slopes")
    if np.linalg.matrix_rank(full) < p + 1:
        raise InputError("design matrix is rank deficient once an intercept is added")
    coef, _, _, _ = np.linalg.lstsq(full, yv, rcond=None)
    resid = yv - full @ coef
    sigma2 = float(resid @ resid) / n
    if sigma2 <= 1e-20 * (float(np.mean(np.square(yv))) + 1.0):
        raise DegenerateFitError(
            f"fit of {y.name!r} is degenerate: residual variance is zero"
        )
    loglik = -0.5 * n * (np.log(2.0 * np.pi * sigma2) + 1.0)
    return ModelFit(
        link="identity-normal",
        outcome=y.name,
        beta=coef[1:],
        alpha=coef[:1],
        term_names=names,
        loglik=float(loglik),
        converged=True,
        iterations=0,
        n_obs=n,
        grad_max_norm=0.0,
        scale=float(np.sqrt(sigma2)),
    )


def _newton_loglinear(full, yvec, coef, loglik_at, max_iter, label):
    """Shared Newton driver for log-link GLMs with score full'(yvec - aux).

    ``loglik_at`` maps coefficients to (loglik, aux) where ``aux`` is the
    per-observation fitted mean entering both the score and the information
    matrix full' diag(aux) full.  Step-halving keeps the likelihood
    nondecreasing until the Newton decrement is at most ``DECREMENT_TOL``;
    that full step is then taken without the likelihood test and ends the fit.
    """
    ll, aux = loglik_at(coef)
    iterations = 0
    while True:
        grad = full.T @ (yvec - aux)
        try:
            direction = np.linalg.solve(full.T @ (full * aux[:, None]), grad)
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
            ll, aux = loglik_at(coef)
            return coef, ll, iterations, float(np.max(np.abs(full.T @ (yvec - aux))))
        step = 1.0
        for _ in range(40):
            ll_new, aux_new = loglik_at(coef + step * direction)
            if ll_new > ll:
                break
            step *= 0.5
        else:
            raise ConvergenceError(f"{label}: line search stalled")
        coef = coef + step * direction
        ll, aux = ll_new, aux_new


def fit_poisson(
    y: Column,
    X: DesignMatrix | None = None,
    *,
    max_iter: int = MAX_ITERATIONS,
) -> ModelFit:
    """Log-link Poisson regression by iteratively reweighted least squares."""
    yv, Xm, names = _check_fit_inputs(y, X, kinds={ColumnKind.COUNT, ColumnKind.BINARY})
    n, p = Xm.shape
    ybar = float(yv.mean())
    if ybar <= 0:
        raise DegenerateFitError(f"column {y.name!r}: all counts are zero")
    full = np.column_stack([np.ones(n), Xm])
    if np.linalg.matrix_rank(full) < p + 1:
        raise InputError("design matrix is rank deficient once an intercept is added")
    const = float(np.sum(special.gammaln(yv + 1.0)))

    def loglik_at(coef):
        eta = full @ coef
        if np.max(eta) > 500:
            return -np.inf, None
        mu = np.exp(eta)
        return float(yv @ eta - mu.sum() - const), mu

    start = np.zeros(p + 1)
    start[0] = np.log(ybar)
    coef, ll, iterations, gmax = _newton_loglinear(
        full, yv, start, loglik_at, max_iter, f"poisson fit of {y.name!r}"
    )
    return ModelFit(
        link="log-poisson",
        outcome=y.name,
        beta=coef[1:],
        alpha=coef[:1],
        term_names=names,
        loglik=ll,
        converged=True,
        iterations=iterations,
        n_obs=n,
        grad_max_norm=gmax,
    )


def fit_exponential_survival(
    y: Column,
    X: DesignMatrix | None = None,
    *,
    max_iter: int = MAX_ITERATIONS,
) -> ModelFit:
    """Exponential survival regression, rate_i = exp(alpha + x_i' beta).

    Censored maximum likelihood with a log link; the intercept-only solution
    is the classical (number of events) / (total follow-up time).
    """
    times, Xm, names = _check_fit_inputs(y, X, kinds={ColumnKind.RIGHT_CENSORED})
    delta = y.events
    if np.any(times <= 0):
        raise InputError(f"column {y.name!r}: follow-up times must be strictly positive")
    if delta.sum() < 1:
        raise DegenerateFitError(f"column {y.name!r}: needs at least one event")
    n, p = Xm.shape
    full = np.column_stack([np.ones(n), Xm])

    def loglik_at(coef):
        eta = full @ coef
        if np.max(eta) > 500:
            return -np.inf, None
        rate_t = times * np.exp(eta)
        return float(delta @ eta - rate_t.sum()), rate_t

    start = np.zeros(p + 1)
    start[0] = np.log(delta.sum() / times.sum())
    coef, ll, iterations, gmax = _newton_loglinear(
        full, delta, start, loglik_at, max_iter, f"exponential fit of {y.name!r}"
    )
    return ModelFit(
        link="log-exponential",
        outcome=y.name,
        beta=coef[1:],
        alpha=coef[:1],
        term_names=names,
        loglik=ll,
        converged=True,
        iterations=iterations,
        n_obs=n,
        grad_max_norm=gmax,
    )


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

#: Poisson supports are truncated at the smallest count whose CDF reaches this
_POISSON_TAIL = 1.0 - 1e-12


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
    if fit.link == "empirical":
        return DiscreteSupport(fit.support, fit.support_cum_probs)
    if fit.link in CUMULATIVE_LINKS:
        fam = CUMULATIVE_LINKS[fit.link]
        cp = np.empty(fit.support.size)
        cp[:-1] = fam.cdf(fit.alpha - xb)
        cp[-1] = 1.0
        # guard the monotone construction against rounding at the tails
        np.maximum.accumulate(cp, out=cp)
        np.clip(cp, 0.0, 1.0, out=cp)
        return DiscreteSupport(fit.support, cp)
    if fit.link == "identity-normal":
        return NormalDist(fit.alpha[0] + xb, fit.scale)
    if fit.link == "log-exponential":
        return ExponentialDist(float(np.exp(fit.alpha[0] + xb)))
    if fit.link == "log-poisson":
        mu = float(np.exp(fit.alpha[0] + xb))
        top = int(mu)
        while special.pdtr(top, mu) < _POISSON_TAIL:
            top += 1
        points = np.arange(top + 1, dtype=float)
        cp = special.pdtr(points, mu)
        np.clip(cp, 0.0, 1.0, out=cp)
        return DiscreteSupport(points, cp)
    raise InputError(f"unknown link {fit.link!r}")


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
    return LikelihoodRatioTest(stat, df, float(special.chdtrc(df, stat)))
