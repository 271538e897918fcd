"""Probability-scale residuals for ordinal, continuous, count, and censored
outcomes: model fitting, residual extraction, uniformity diagnostics, and
covariate-adjusted rank association.

The residual of an observation y against a fitted distribution F is
``F(y-) + F(y) - 1``: the probability of a lower outcome minus the
probability of a higher one.  It lives on [-1, 1] for every outcome type,
has mean zero under a correctly specified model, and turns rank methods
(Spearman-style correlation, partial and conditional variants) into simple
moments of residuals.

Importing the package loads none of its modules (nor numpy): each public
name is looked up in its defining module when it is used (PEP 562), so the
``psr-kit`` command can configure numpy's BLAS before numpy loads.
"""
import importlib
import sys
import types

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in {
        "data_model": "Column ColumnKind Dataset DesignMatrix Term build_design "
        "complete_cases load_csv parse_schema rcs_basis rcs_knots write_csv",
        "fitted_dist": "DiscreteSupport ExponentialDist FittedDistribution "
        "NormalDist ShiftedEmpirical",
        "estimators": "LikelihoodRatioTest ModelFit fit_cumulative_link "
        "fit_cumulative_link_batch fit_empirical fit_exponential_survival "
        "fit_linear_normal fit_poisson lr_test predict_distribution",
        "psr": "PsrVector normal_transform psr psr_all psr_censored psr_from_omers",
        "rank_association": "AssocResult MARGIN_MODELS ResamplingInfo ScanConfig "
        "ScanRow batch_partial_spearman conditional_spearman correlation_matrix "
        "default_margin_model margin_psr partial_spearman psr_covariance "
        "psr_variance_discrete spearman",
        "diagnostics": "KsResult QQData ResidualPlot SmoothCurve ks_uniform lowess "
        "qq_uniform render_qq render_residual residual_by_predictor",
        "formula": "ModelSpec design_for_spec fit_spec parse_model_spec parse_term_list",
        "exceptions": "ConvergenceError DegenerateFitError InputError "
        "ModelSpecError NumericError PsrKitError SchemaError",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    # Not cached here, so a name rebound in its module is seen at once.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    # ``psr`` is the name of a function and of the module defining it.
    # Importing ``psrkit.psr`` binds the module here, which would hide the
    # function from ``__getattr__``; the binding is dropped instead.
    psr = property(lambda self: __getattr__("psr"), lambda self, value: None)


sys.modules[__name__].__class__ = _Package
