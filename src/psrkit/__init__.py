"""Probability-scale residuals for ordinal, continuous, count, and censored
outcomes: model fitting, residual extraction, uniformity diagnostics, and
covariate-adjusted rank association.

The residual of an observation y against a fitted distribution F is
``F(y-) + F(y) - 1``: the probability of a lower outcome minus the
probability of a higher one.  It lives on [-1, 1] for every outcome type,
has mean zero under a correctly specified model, and turns rank methods
(Spearman-style correlation, partial and conditional variants) into simple
moments of residuals.
"""

from .data_model import (
    Column,
    ColumnKind,
    Dataset,
    DesignMatrix,
    Term,
    build_design,
    complete_cases,
    load_csv,
    parse_schema,
    rcs_basis,
    rcs_knots,
    write_csv,
)
from .diagnostics import (
    KsResult,
    QQData,
    ResidualPlot,
    SmoothCurve,
    ks_uniform,
    lowess,
    qq_uniform,
    render_qq,
    render_residual,
    residual_by_predictor,
)
from .estimators import (
    LikelihoodRatioTest,
    ModelFit,
    fit_cumulative_link,
    fit_cumulative_link_batch,
    fit_empirical,
    fit_exponential_survival,
    fit_linear_normal,
    fit_poisson,
    lr_test,
    predict_distribution,
)
from .exceptions import (
    ConvergenceError,
    DegenerateFitError,
    InputError,
    ModelSpecError,
    NumericError,
    PsrKitError,
    SchemaError,
)
from .fitted_dist import (
    DiscreteSupport,
    ExponentialDist,
    FittedDistribution,
    NormalDist,
    ShiftedEmpirical,
)
from .formula import ModelSpec, design_for_spec, fit_spec, parse_model_spec, parse_term_list
from .psr import (
    PsrVector,
    normal_transform,
    psr,
    psr_all,
    psr_censored,
    psr_from_omers,
)
from .rank_association import (
    AssocResult,
    MARGIN_MODELS,
    ResamplingInfo,
    ScanConfig,
    ScanRow,
    batch_partial_spearman,
    conditional_spearman,
    correlation_matrix,
    default_margin_model,
    margin_psr,
    partial_spearman,
    psr_covariance,
    psr_variance_discrete,
    spearman,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # data model
    "Column", "ColumnKind", "Dataset", "DesignMatrix", "Term",
    "build_design", "complete_cases", "load_csv", "parse_schema",
    "rcs_basis", "rcs_knots", "write_csv",
    # fitted distributions
    "DiscreteSupport", "ExponentialDist", "FittedDistribution",
    "NormalDist", "ShiftedEmpirical",
    # estimators
    "LikelihoodRatioTest", "ModelFit", "fit_cumulative_link",
    "fit_cumulative_link_batch", "fit_empirical", "fit_exponential_survival",
    "fit_linear_normal",
    "fit_poisson", "lr_test", "predict_distribution",
    # residuals
    "PsrVector", "normal_transform", "psr", "psr_all", "psr_censored",
    "psr_from_omers",
    # rank association
    "AssocResult", "MARGIN_MODELS", "ResamplingInfo", "ScanConfig",
    "ScanRow", "batch_partial_spearman", "conditional_spearman",
    "correlation_matrix", "default_margin_model", "margin_psr",
    "partial_spearman", "psr_covariance", "psr_variance_discrete",
    "spearman",
    # diagnostics
    "KsResult", "QQData", "ResidualPlot", "SmoothCurve", "ks_uniform",
    "lowess", "qq_uniform", "render_qq", "render_residual",
    "residual_by_predictor",
    # model specs
    "ModelSpec", "design_for_spec", "fit_spec", "parse_model_spec",
    "parse_term_list",
    # errors
    "ConvergenceError", "DegenerateFitError", "InputError",
    "ModelSpecError", "NumericError", "PsrKitError", "SchemaError",
]
