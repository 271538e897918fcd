"""Model-spec text grammar: parsing, rendering, and fit dispatch."""
import numpy as np
import pytest

from psrkit.data_model import Column, Dataset, Term
from psrkit.estimators import fit_linear_normal
from psrkit.exceptions import InputError, ModelSpecError
from psrkit.formula import (
    ModelSpec,
    design_for_spec,
    fit_spec,
    parse_model_spec,
    parse_term_list,
)


class TestParse:
    def test_simple(self):
        spec = parse_model_spec("orm-logit(chol ~ age + bmi)")
        assert spec.family == "orm-logit"
        assert spec.outcome == "chol"
        assert spec.terms == (Term("age"), Term("bmi"))

    def test_transforms(self):
        spec = parse_model_spec("orm-probit(y ~ rcs(age,4) + log(dur))")
        assert spec.terms == (Term("age", "rcs", 4), Term("dur", "log"))

    def test_intercept_only(self):
        spec = parse_model_spec("empirical(y ~ 1)")
        assert spec.terms == ()

    def test_whitespace_tolerated(self):
        a = parse_model_spec("  linear( y ~ a +  log( b ) ) ")
        b = parse_model_spec("linear(y ~ a + log(b))")
        assert a == b

    def test_describe_round_trip(self):
        for text in [
            "orm-logit(chol ~ age + rcs(bmi,4) + log(artdur))",
            "exp-surv(time ~ cd4)",
            "empirical(il6 ~ 1)",
            "poisson(n_events ~ stage)",
        ]:
            spec = parse_model_spec(text)
            assert parse_model_spec(spec.describe()) == spec

    def test_all_families_accepted(self):
        from psrkit.rank_association import MARGIN_MODELS

        for fam in MARGIN_MODELS:
            rhs = "1" if fam == "empirical" else "x"
            assert parse_model_spec(f"{fam}(y ~ {rhs})").family == fam

    @pytest.mark.parametrize(
        "bad",
        [
            "quantile(y ~ x)",  # unknown family
            "orm-logit(y ~ x",  # missing close paren
            "orm-logit y ~ x)",  # missing open paren
            "orm-logit(y ~ x ~ z)",  # two tildes
            "orm-logit(y)",  # no tilde
            "orm-logit(y ~ x + x)",  # duplicate term
            "orm-logit(y ~ 1 + x)",  # intercept mixed with terms
            "orm-logit(y ~ rcs(x,2))",  # too few knots
            "orm-logit(y ~ rcs(x,8))",  # too many knots
            "orm-logit(y ~ sqrt(x))",  # unknown transform
            "orm-logit(y ~ )",  # empty term
            "orm-logit(y ~)",  # empty term
            "orm-logit(y ~ + )",  # empty terms
            "orm-logit( ~ x)",  # empty outcome
            "orm-logit(2y ~ x)",  # invalid name
            "empirical(y ~ x)",  # empirical takes no terms
            "orm-logit(y ~ rcs(x,3)",  # unbalanced parentheses in a term
            "",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ModelSpecError):
            parse_model_spec(bad)

    def test_error_mentions_intercept_form(self):
        with pytest.raises(ModelSpecError, match=r"empirical\(y ~ 1\)"):
            parse_model_spec("empirical(y ~ x)")


class TestParseTermList:
    def test_comma_list(self):
        assert parse_term_list("age,bmi") == (Term("age"), Term("bmi"))

    def test_transforms_with_inner_commas(self):
        assert parse_term_list("rcs(age,3),log(dur)") == (
            Term("age", "rcs", 3),
            Term("dur", "log"),
        )

    def test_empty_and_one(self):
        assert parse_term_list("") == ()
        assert parse_term_list("1") == ()

    def test_duplicates_rejected(self):
        with pytest.raises(ModelSpecError, match="duplicate"):
            parse_term_list("a,a")

    @pytest.mark.parametrize("text", ["1,age", "age,1"])
    def test_intercept_with_terms_rejected_as_in_a_model_spec(self, text):
        with pytest.raises(ModelSpecError) as in_list:
            parse_term_list(text)
        with pytest.raises(ModelSpecError) as in_spec:
            parse_model_spec("linear(y ~ 1 + age)")
        assert str(in_list.value) == str(in_spec.value)
        assert "'1' (intercept only)" in str(in_list.value)

    def test_unbalanced_parentheses_rejected(self):
        with pytest.raises(ModelSpecError, match="unbalanced"):
            parse_term_list("age,rcs(bmi,4")


class TestFitDispatch:
    def _dataset(self):
        rng = np.random.default_rng(30)
        n = 120
        age = rng.uniform(20, 70, n)
        y = 0.05 * age + rng.normal(0, 1, n)
        counts = rng.poisson(2.0, n).astype(float)
        t = rng.exponential(2.0, n)
        event = (rng.uniform(0, 1, n) < 0.7).astype(float)
        return Dataset(
            (
                Column.continuous("age", age),
                Column.continuous("y", y),
                Column.count("n_ev", counts),
                Column.right_censored("t", t, event),
            )
        )

    def test_design_for_spec(self):
        d = self._dataset()
        outcome, X = design_for_spec(parse_model_spec("orm-logit(y ~ age)"), d)
        assert outcome.name == "y"
        assert X.names == ("age",)
        _, none_X = design_for_spec(parse_model_spec("empirical(y ~ 1)"), d)
        assert none_X is None

    def test_unknown_column(self):
        d = self._dataset()
        with pytest.raises(Exception, match="nope"):
            design_for_spec(parse_model_spec("orm-logit(nope ~ age)"), d)

    @pytest.mark.parametrize(
        "text,link",
        [
            ("empirical(y ~ 1)", "empirical"),
            ("linear(y ~ age)", "identity-normal"),
            ("linear-empirical(y ~ age)", "identity-normal"),
            ("orm-logit(y ~ age)", "logit"),
            ("orm-cloglog(y ~ age)", "cloglog"),
            ("poisson(n_ev ~ age)", "log-poisson"),
            ("exp-surv(t ~ age)", "log-exponential"),
        ],
    )
    def test_families_dispatch(self, text, link):
        d = self._dataset()
        fit, X = fit_spec(parse_model_spec(text), d)
        assert fit.link == link

    def test_unknown_family_of_a_hand_built_spec(self):
        spec = ModelSpec("quantile", "y", (Term("age"),))
        with pytest.raises(InputError, match="unknown margin model 'quantile'"):
            fit_spec(spec, self._dataset())

    def test_unknown_family_has_one_text(self):
        # the parser and the fit look the family up in one place
        with pytest.raises(ModelSpecError) as parsed:
            parse_model_spec("quantile(y ~ x)")
        with pytest.raises(InputError) as fitted:
            fit_spec(ModelSpec("quantile", "y", (Term("age"),)), self._dataset())
        assert str(parsed.value) == str(fitted.value)
        assert str(parsed.value) == (
            "unknown margin model 'quantile'; choose from empirical, linear, "
            "linear-empirical, orm-logit, orm-probit, orm-cloglog, orm-loglog, "
            "poisson, exp-surv"
        )

    def test_linear_empirical_same_coefficients_as_linear(self):
        d = self._dataset()
        fit_le, X = fit_spec(parse_model_spec("linear-empirical(y ~ age)"), d)
        direct = fit_linear_normal(d["y"], X)
        assert fit_le.beta.tolist() == direct.beta.tolist()
