"""Compact text form for model specifications.

A spec reads ``family(outcome ~ term + term + ...)``, for example::

    orm-logit(chol ~ age + rcs(bmi,4) + log(artdur))
    exp-surv(time_to_event ~ cd4)
    empirical(il6 ~ 1)

Families are the margin-model names; terms are bare column names,
``log(name)``, or ``rcs(name,k)`` restricted cubic splines with k knots
(3-7).  ``1`` denotes an intercept-only model and cannot be mixed with
other terms.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .data_model import (
    Column,
    Dataset,
    DesignMatrix,
    Term,
    _split_outside_parens,
    build_design,
)
from .estimators import ModelFit
from .exceptions import ModelSpecError
from .rank_association import MARGIN_MODELS, _margin

__all__ = [
    "ModelSpec",
    "parse_model_spec",
    "parse_term_list",
    "design_for_spec",
    "fit_spec",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")
_RCS_RE = re.compile(r"rcs\(\s*([^,()]+?)\s*,\s*(\d+)\s*\)\Z")
_LOG_RE = re.compile(r"log\(\s*([^,()]+?)\s*\)\Z")


@dataclass(frozen=True)
class ModelSpec:
    """A parsed model specification: family, outcome, and design terms."""

    family: str
    outcome: str
    terms: tuple[Term, ...]

    def describe(self) -> str:
        rhs = " + ".join(t.describe() for t in self.terms) if self.terms else "1"
        return f"{self.family}({self.outcome} ~ {rhs})"


def _parse_name(text: str, what: str) -> str:
    name = text.strip()
    if not _NAME_RE.match(name):
        raise ModelSpecError(f"invalid {what} {name!r}")
    return name


def _parse_term(text: str) -> Term | None:
    t = text.strip()
    if not t:
        raise ModelSpecError("empty term (stray '+'?)")
    if t == "1":
        return None
    m = _RCS_RE.match(t)
    if m:
        k = int(m.group(2))
        if not 3 <= k <= 7:
            raise ModelSpecError(f"rcs knot count must be 3-7, got {k} in {t!r}")
        return Term(_parse_name(m.group(1), "column name"), "rcs", k)
    m = _LOG_RE.match(t)
    if m:
        return Term(_parse_name(m.group(1), "column name"), "log")
    if "(" in t or ")" in t:
        raise ModelSpecError(
            f"unrecognized term {t!r}; terms are a column name, log(name), or rcs(name,k)"
        )
    return Term(_parse_name(t, "column name"))


def _parse_terms(text: str, sep: str) -> tuple[Term, ...]:
    """The terms of a ``sep``-separated list.  ``1`` alone means no terms and
    cannot be combined with another term; no term may repeat."""
    parsed = [_parse_term(p) for p in _split_outside_parens(text, sep, ModelSpecError)]
    terms = tuple(t for t in parsed if t is not None)
    if terms and len(terms) < len(parsed):
        raise ModelSpecError("'1' (intercept only) cannot be combined with other terms")
    seen = set()
    for term in terms:
        key = term.describe()
        if key in seen:
            raise ModelSpecError(f"duplicate term {key!r}")
        seen.add(key)
    return terms


def parse_model_spec(text: str) -> ModelSpec:
    """Parse ``family(outcome ~ terms)`` into a :class:`ModelSpec`."""
    s = text.strip()
    open_idx = s.find("(")
    if open_idx <= 0 or not s.endswith(")"):
        raise ModelSpecError(
            f"model spec must look like family(outcome ~ terms), got {text!r}"
        )
    family = s[:open_idx].strip()
    if family not in MARGIN_MODELS:
        raise ModelSpecError(
            f"unknown model family {family!r}; choose from {', '.join(MARGIN_MODELS)}"
        )
    inner = s[open_idx + 1 : -1]
    if inner.count("~") != 1:
        raise ModelSpecError(f"model spec needs exactly one '~', got {text!r}")
    lhs, rhs = inner.split("~")
    outcome = _parse_name(lhs, "outcome name")

    terms = _parse_terms(rhs, "+")
    if family == "empirical" and terms:
        raise ModelSpecError("the empirical family ignores covariates; write empirical(y ~ 1)")
    return ModelSpec(family=family, outcome=outcome, terms=terms)


def parse_term_list(text: str) -> tuple[Term, ...]:
    """Parse a comma-separated covariate list like ``age,rcs(bmi,4),log(cd4)``.

    An empty string (or the literal ``1``) means no covariates.
    """
    if text is None or not text.strip():
        return ()
    return _parse_terms(text, ",")


def design_for_spec(spec: ModelSpec, d: Dataset) -> tuple[Column, DesignMatrix | None]:
    """Resolve the outcome column and build the design matrix, if any."""
    outcome = d[spec.outcome]
    X = build_design(d, spec.terms) if spec.terms else None
    return outcome, X


def fit_spec(spec: ModelSpec, d: Dataset) -> tuple[ModelFit, DesignMatrix | None]:
    """Fit the model a spec describes against a dataset.

    The ``linear-empirical`` family fits ordinary least squares here; its
    rank-based residual step applies only when residuals are computed.
    """
    y, X = design_for_spec(spec, d)
    return _margin(spec.family).fit(y, X), X
