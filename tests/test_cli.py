"""Command line front end: subcommands, file outputs, exit codes."""
import csv
import importlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import psrkit
from psrkit import rank_association as ra
from psrkit.cli import build_parser, run
from psrkit.exceptions import InputError
from psrkit.data_model import load_csv, parse_schema
from psrkit.fitted_dist import (
    DiscreteSupport,
    ExponentialDist,
    NormalDist,
    ShiftedEmpirical,
)
from psrkit.formula import parse_model_spec
from psrkit.psr import psr, psr_censored
from psrkit.rank_association import MARGIN_MODELS

SCHEMA = (
    "y:continuous,age:continuous,sex:binary,"
    "stage:ordinal(I<II<III),t:surv(t_time,t_event)"
)


def _write_table(path, n=40, missing_y_row=5, missing_age_row=3):
    """A small mixed-kind table; 1-based rows 3 and 5 carry missing cells."""
    rng = np.random.default_rng(123)
    stages = ["I", "II", "III"]
    rows = []
    for i in range(1, n + 1):
        age = rng.uniform(25, 70)
        y = 0.08 * age + rng.normal(0, 1.0)
        sex = int(rng.integers(0, 2))
        stage = stages[int(rng.integers(0, 3))]
        t_time = rng.exponential(2.0)
        t_event = int(rng.uniform() < 0.7)
        age_tok = "" if i == missing_age_row else repr(float(age))
        y_tok = "NA" if i == missing_y_row else repr(float(y))
        rows.append([y_tok, age_tok, str(sex), stage, repr(float(t_time)), str(t_event)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["y", "age", "sex", "stage", "t_time", "t_event"])
        w.writerows(rows)
    return path


@pytest.fixture
def table(tmp_path):
    return str(_write_table(tmp_path / "d.csv"))


def _parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def _python_stdout(code, blas_threads=None):
    """Standard output of ``python -c code`` with this psrkit on the path and
    ``OPENBLAS_NUM_THREADS`` set to ``blas_threads`` (unset for None)."""
    src = os.path.dirname(os.path.dirname(psrkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


class TestTopLevel:
    def test_no_args_usage_exit_1(self, capsys):
        assert run([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_version(self, capsys):
        assert run(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "psr-kit 0.1.0"

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag(self, table, capsys):
        code = run(
            ["fit", "--data", table, "--schema", SCHEMA,
             "--model", "linear(y ~ age)", "--bogus"]
        )
        assert code == 1

    def test_missing_required_flag(self, capsys):
        assert run(["fit", "--data", "x.csv"]) == 1

    def test_missing_file(self, capsys):
        code = run(
            ["fit", "--data", "/nonexistent/q.csv", "--schema", SCHEMA,
             "--model", "linear(y ~ age)"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    @staticmethod
    def _input_error(code, capsys):
        """The stderr of a run that must end in a plain input error."""
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("psr-kit: error:")
        assert "Traceback" not in err
        return err

    def test_data_is_a_directory(self, tmp_path, capsys):
        code = run(
            ["fit", "--data", str(tmp_path), "--schema", "y:continuous",
             "--model", "empirical(y ~ 1)"]
        )
        self._input_error(code, capsys)

    def test_out_is_a_directory(self, table, tmp_path, capsys):
        code = run(
            ["fit", "--data", table, "--schema", SCHEMA,
             "--model", "linear(y ~ age)", "--out", str(tmp_path)]
        )
        self._input_error(code, capsys)

    def test_data_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"y,age\n1.0,2.0\ncaf\xe9,3.0\n")
        code = run(
            ["fit", "--data", str(bad), "--schema", "y:continuous",
             "--model", "empirical(y ~ 1)"]
        )
        err = self._input_error(code, capsys)
        assert f"{bad}: byte 17 " in err

    def test_predictors_not_utf8(self, table, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"p\xe9\n" + b"1.0\n" * 40)
        code = run(
            ["scan", "--data", table, "--schema", SCHEMA, "--y", "y",
             "--predictors", str(bad), "--perm", "9", "--seed", "1"]
        )
        err = self._input_error(code, capsys)
        assert f"{bad}: byte 1 " in err

    def test_import_leaves_out_scipy(self):
        code = "import sys, psrkit.cli; print('scipy' in sys.modules)"
        assert _python_stdout(code).strip() == "False"

    def test_all_distinct_fit_leaves_out_scipy(self):
        # 3000 cut points: the banded Newton solve, in numpy
        code = (
            "import sys; import numpy as np; "
            "from psrkit.data_model import Column, DesignMatrix; "
            "from psrkit.estimators import fit_cumulative_link; "
            "rng = np.random.default_rng(3); X = rng.normal(size=(3000, 2)); "
            "y = X @ [1.0, -0.5] + rng.logistic(size=3000); "
            "fit = fit_cumulative_link(Column.continuous('y', y), DesignMatrix(X, ('a', 'b'))); "
            "print(fit.alpha.size, fit.converged, 'scipy' in sys.modules)"
        )
        assert _python_stdout(code).split() == ["2999", "True", "False"]


class TestLazyPackage:
    def test_import_loads_no_numpy(self):
        code = (
            "import os, sys, psrkit; "
            "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))"
        )
        assert _python_stdout(code).split() == ["False", "None"]

    def test_names_are_their_modules_objects(self):
        # psrkit.cli loads psrkit.psr, the module named like its function psr
        code = """
import sys, types, psrkit.cli, psrkit.diagnostics
from psrkit import *
wrong = []
for name in psrkit.__all__:
    obj = getattr(psrkit, name)
    defined = isinstance(obj, (type, types.FunctionType))
    homes = [key for key, m in sys.modules.items() if key.startswith("psrkit.")
             and vars(m).get(name) is obj and (not defined or obj.__module__ == key)]
    if (name != "__version__" and not homes) or globals()[name] is not obj:
        wrong.append(name)
try:
    psrkit.no_such_name
    wrong.append("no_such_name")
except AttributeError:
    pass
print(wrong)
"""
        assert _python_stdout(code).strip() == "[]"

    def test_lookup_follows_a_rebound_name(self, monkeypatch):
        # perfbench's tracer rebinds each module's public functions
        for module, name in (("data_model", "load_csv"), ("psr", "psr")):
            sentinel = object()
            monkeypatch.setattr(importlib.import_module(f"psrkit.{module}"), name, sentinel)
            assert getattr(psrkit, name) is sentinel

    def test_cli_sets_one_blas_thread_unless_set(self):
        code = "import os, psrkit.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert _python_stdout(code).strip() == "1"
        assert _python_stdout(code, blas_threads=3).strip() == "3"

    def test_commands_load_only_what_they_use(self, table, tmp_path):
        model = ["--data", table, "--schema", SCHEMA]
        fit = ["fit", *model, "--model", "orm-logit(y ~ age)", "--out", str(tmp_path / "f.json")]
        diag = ["diag", *model, "--fit-spec", "orm-logit(y ~ age)"]
        loaded = "'psrkit.diagnostics' in sys.modules, 'concurrent.futures.process' in sys.modules"
        for args, expected in ((fit, ["0", "False", "False"]), (diag, ["0", "True", "False"])):
            code = f"import sys; from psrkit.cli import run; print(run({args!r}), {loaded})"
            assert _python_stdout(code).splitlines()[-1].split() == expected

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # big enough for OpenBLAS to split: the fit's 10^4 x 3 matrix-vector
        # products and the bootstrap's (16, 2000) @ (2000, 25) products
        rng = np.random.default_rng(29)
        big = rng.normal(size=(10_000, 3))
        y = big @ [1.0, -0.5, 0.25] + rng.logistic(size=10_000)
        np.savetxt(tmp_path / "big.csv", np.column_stack([y, big]), delimiter=",",
                   header="y,a,b,c", comments="", fmt="%.17g")
        age, bmi = rng.normal(50, 10, 2000), rng.normal(27, 4, 2000)
        sex = rng.integers(0, 2, 2000)
        x = 0.05 * age + sex + rng.normal(size=2000)
        yy = 0.3 * x + 0.1 * bmi + rng.normal(size=2000)
        np.savetxt(tmp_path / "pcor.csv", np.column_stack([x, yy, age, bmi, sex]),
                   delimiter=",", header="x,y,age,bmi,sex", comments="", fmt="%.17g")
        outputs = []
        for threads in (2, None):
            fit_out, pcor_out = tmp_path / f"fit{threads}.json", tmp_path / f"pcor{threads}.csv"
            fit = ["fit", "--data", str(tmp_path / "big.csv"),
                   "--schema", "y:continuous,a:continuous,b:continuous,c:continuous",
                   "--model", "orm-logit(y ~ a + b + c)", "--out", str(fit_out)]
            pcor = ["pcor", "--data", str(tmp_path / "pcor.csv"),
                    "--schema", "x:continuous,y:continuous,age:continuous,bmi:continuous,sex:binary",
                    "--x", "x", "--y", "y", "--z", "age,rcs(bmi,4),sex",
                    "--x-model", "orm-logit", "--y-model", "orm-logit",
                    "--boot", "32", "--perm", "99", "--threads", "2", "--seed", "3",
                    "--out", str(pcor_out)]
            code = f"from psrkit.cli import run; print(run({fit!r}), run({pcor!r}))"
            assert _python_stdout(code, threads).split() == ["0", "0"]
            outputs.append((fit_out.read_bytes(), pcor_out.read_bytes()))
        assert outputs[0] == outputs[1]


class TestFit:
    def test_json_summary(self, table, capsys):
        code = run(
            ["fit", "--data", table, "--schema", SCHEMA,
             "--model", "linear(y ~ age + sex)"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "linear(y ~ age + sex)"
        assert doc["link"] == "identity-normal"
        assert doc["outcome"] == "y"
        assert doc["n_obs"] == 38  # two rows carry missing cells
        assert doc["rows_removed"] == 2
        assert set(doc["coefficients"]) == {"age", "sex"}
        assert doc["converged"] is True
        n_par = len(doc["coefficients"]) + len(doc["intercepts"])
        assert doc["aic"] == pytest.approx(-2 * doc["loglik"] + 2 * n_par)
        assert "scale" in doc

    def test_out_file_and_ordinal_outcome(self, table, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = run(
            ["fit", "--data", table, "--schema", SCHEMA,
             "--model", "orm-logit(stage ~ age)", "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert len(doc["intercepts"]) == 2  # three levels -> two cut points
        assert doc["intercepts"][0] < doc["intercepts"][1]
        assert doc["gradient_max_norm"] < 1e-8

    def test_large_support_summarizes_intercepts(self, tmp_path, capsys):
        big = str(_write_table(tmp_path / "big.csv", n=80))
        code = run(
            ["fit", "--data", big, "--schema", SCHEMA,
             "--model", "orm-logit(y ~ age)"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # 78 complete rows of a continuous outcome: 77 cut points, summarized
        assert set(doc["intercepts"]) == {"count", "first", "last"}
        assert doc["intercepts"]["count"] == 77
        assert doc["intercepts"]["first"] < doc["intercepts"]["last"]

    def test_constant_outcome_is_numerical_failure(self, tmp_path, capsys):
        p = tmp_path / "c.csv"
        p.write_text("y,age\n" + "".join(f"1.0,{i}.0\n" for i in range(10)))
        code = run(
            ["fit", "--data", str(p), "--schema", "y:continuous,age:continuous",
             "--model", "linear(y ~ age)"]
        )
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_terms_collinear_with_intercept_exit_1(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        p = tmp_path / "ab.csv"
        rows = [(int(rng.integers(1, 4)), i % 2) for i in range(120)]
        p.write_text("y,a,b\n" + "".join(f"{y},{a},{1 - a}\n" for y, a in rows))
        code = run(
            ["fit", "--data", str(p), "--schema", "y:ordinal(1<2<3),a:binary,b:binary",
             "--model", "orm-logit(y ~ a + b)"]
        )
        assert code == 1
        assert "rank deficient" in capsys.readouterr().err


class TestPsr:
    def test_row_ids_skip_removed_rows(self, table, capsys):
        code = run(
            ["psr", "--data", table, "--schema", SCHEMA,
             "--model", "empirical(y ~ 1)"]
        )
        assert code == 0
        rows = _parse_csv(capsys.readouterr().out)
        assert rows[0] == ["row_id", "observed", "psr"]
        ids = [int(r[0]) for r in rows[1:]]
        assert len(ids) == 39  # only the missing-y row is dropped
        assert 5 not in ids
        assert ids == sorted(ids)
        vals = [float(r[2]) for r in rows[1:]]
        assert max(vals) <= 1 and min(vals) >= -1
        assert abs(sum(vals)) < 1e-9

    def test_model_columns_affect_kept_rows(self, table, capsys):
        run(["psr", "--data", table, "--schema", SCHEMA,
             "--model", "orm-logit(y ~ age)"])
        rows = _parse_csv(capsys.readouterr().out)
        ids = [int(r[0]) for r in rows[1:]]
        assert len(ids) == 38
        assert 3 not in ids and 5 not in ids

    def test_normal_column(self, table, capsys):
        run(["psr", "--data", table, "--schema", SCHEMA,
             "--model", "empirical(y ~ 1)", "--normal"])
        rows = _parse_csv(capsys.readouterr().out)
        assert rows[0] == ["row_id", "observed", "psr", "psr_normal"]
        pairs = sorted((float(r[2]), float(r[3])) for r in rows[1:])
        z = [p[1] for p in pairs]
        assert z == sorted(z)  # same ordering as the residuals

    def test_normal_leaves_out_scipy(self, table, tmp_path):
        args = ["psr", "--data", table, "--schema", SCHEMA,
                "--model", "orm-logit(y ~ age)", "--normal", "--out", str(tmp_path / "p.csv")]
        code = (
            "import sys; from psrkit.cli import run; "
            f"print(run({args!r}), 'scipy' in sys.modules)"
        )
        assert _python_stdout(code).split() == ["0", "False"]

    def test_censored_observed_rendering(self, table, capsys):
        run(["psr", "--data", table, "--schema", SCHEMA,
             "--model", "exp-surv(t ~ 1)"])
        rows = _parse_csv(capsys.readouterr().out)
        observed = [r[1] for r in rows[1:]]
        assert any(tok.endswith("+") for tok in observed)  # censored rows
        assert any(not tok.endswith("+") for tok in observed)

    def test_dump_dist(self, table, tmp_path, capsys):
        dump = tmp_path / "row1.json"
        code = run(
            ["psr", "--data", table, "--schema", SCHEMA,
             "--model", "linear(y ~ age)", "--out", str(tmp_path / "p.csv"),
             "--dump-dist", f"1={dump}"]
        )
        assert code == 0
        doc = json.loads(dump.read_text())
        assert doc["kind"] == "normal"
        assert doc["sigma"] > 0

    # one model per margin family, on an outcome column of a kind it accepts
    FAMILY_MODELS = {
        "empirical": "empirical(y ~ 1)",
        "linear": "linear(y ~ age + sex)",
        "linear-empirical": "linear-empirical(y ~ age + sex)",
        "poisson": "poisson(sex ~ age)",
        "exp-surv": "exp-surv(t ~ age)",
    }
    DISTRIBUTIONS = {
        "discrete": lambda doc: DiscreteSupport(doc["points"], doc["cum_probs"]),
        "normal": lambda doc: NormalDist(doc["mu"], doc["sigma"]),
        "exponential": lambda doc: ExponentialDist(doc["rate"]),
        "shifted_empirical": lambda doc: ShiftedEmpirical(
            doc["center"], np.asarray(doc["pooled_residuals"])
        ),
    }

    @pytest.mark.parametrize("family", MARGIN_MODELS)
    def test_dump_dist_scores_to_row_residual(self, family, table, tmp_path, capsys):
        model = self.FAMILY_MODELS.get(family, f"{family}(stage ~ age)")
        out, dump = tmp_path / "p.csv", tmp_path / "row1.json"
        code = run(
            ["psr", "--data", table, "--schema", SCHEMA, "--model", model,
             "--out", str(out), "--dump-dist", f"1={dump}"]
        )
        assert code == 0
        doc = json.loads(dump.read_text())
        dist = self.DISTRIBUTIONS[doc["kind"]](doc)
        rows = _parse_csv(out.read_text())
        (want,) = [float(r[2]) for r in rows[1:] if r[0] == "1"]
        col = load_csv(table, SCHEMA)[parse_model_spec(model).outcome]
        if family == "exp-surv":
            got = psr_censored(col.values[0], col.events[0], dist)
        else:
            got = psr(col.values[0], dist)
        assert got == pytest.approx(want, abs=1e-12)

    def test_dump_dist_removed_row_rejected(self, table, tmp_path, capsys):
        code = run(
            ["psr", "--data", table, "--schema", SCHEMA,
             "--model", "linear(y ~ age)", "--out", str(tmp_path / "p.csv"),
             "--dump-dist", f"3={tmp_path / 'r3.json'}"]
        )
        assert code == 1
        assert "complete rows" in capsys.readouterr().err


class TestDiag:
    def test_summary_and_artifacts(self, table, tmp_path, capsys):
        qq, rbp = tmp_path / "qq.svg", tmp_path / "age.svg"
        code = run(
            ["diag", "--data", table, "--schema", SCHEMA,
             "--fit-spec", "linear(y ~ age)",
             "--qq", str(qq), "--rbp", f"age={rbp}"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "linear(y ~ age)"
        assert 0 <= doc["ks_statistic"] <= 1
        assert 0 <= doc["ks_p_value"] <= 1
        assert list(doc["smooths"]) == ["age"]
        assert 1 <= doc["smooths"]["age"]["passes"] <= 4
        for f in (qq, rbp):
            text = f.read_text()
            assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_ks_and_smooth_leave_out_scipy(self, table, tmp_path):
        args = ["diag", "--data", table, "--schema", SCHEMA,
                "--fit-spec", "orm-logit(y ~ age)",
                "--qq", str(tmp_path / "qq.svg"), "--rbp", f"age={tmp_path / 'age.svg'}"]
        code = (
            "import sys; from psrkit.cli import run; "
            f"print(run({args!r}), 'scipy' in sys.modules)"
        )
        # the JSON summary comes first
        assert _python_stdout(code).splitlines()[-1].split() == ["0", "False"]

    def test_csv_artifacts(self, table, tmp_path, capsys):
        qq, rbp = tmp_path / "qq.csv", tmp_path / "age.csv"
        code = run(
            ["diag", "--data", table, "--schema", SCHEMA,
             "--fit-spec", "linear(y ~ age)",
             "--qq", str(qq), "--rbp", f"age={rbp}", "--csv"]
        )
        assert code == 0
        qq_rows = _parse_csv(qq.read_text())
        assert qq_rows[0] == ["kind", "x", "y"]
        assert {r[0] for r in qq_rows[1:]} == {"point"}
        rbp_rows = _parse_csv(rbp.read_text())
        assert {r[0] for r in rbp_rows[1:]} == {"point", "smooth"}
        smooth = json.loads(capsys.readouterr().out)["smooths"]["age"]
        assert smooth["n_grid"] == sum(r[0] == "smooth" for r in rbp_rows[1:])

    def test_rbp_predictor_outside_model_loads(self, table, tmp_path, capsys):
        rbp = tmp_path / "t.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                ["diag", "--data", table, "--schema", SCHEMA,
                 "--fit-spec", "empirical(y ~ 1)", "--rbp", f"age={rbp}"]
            )
        assert code == 0
        assert rbp.exists()
        # the discrete outcome's caveat is a note, not a Python warning
        assert capsys.readouterr().err == (
            "psr-kit: note: residuals of a discrete outcome are not exactly uniform; "
            "the uniformity test is approximate\n"
        )

    def test_bad_rbp_spec(self, table, capsys):
        code = run(
            ["diag", "--data", table, "--schema", SCHEMA,
             "--fit-spec", "empirical(y ~ 1)", "--rbp", "age"]
        )
        assert code == 1


class TestPcor:
    def test_pair_csv_and_determinism(self, table, tmp_path, capsys):
        args = ["pcor", "--data", table, "--schema", SCHEMA,
                "--x", "age", "--y", "y", "--z", "sex",
                "--boot", "60", "--perm", "60", "--seed", "7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = _parse_csv(a.read_text())
        assert rows[0][:5] == ["method", "x", "y", "x_model", "y_model"]
        rec = dict(zip(rows[0], rows[1]))
        assert rec["method"] == "partial_spearman"
        assert rec["x_model"] == "orm-logit" and rec["y_model"] == "orm-logit"
        assert float(rec["ci_low"]) < float(rec["estimate"]) < float(rec["ci_high"])
        assert 0 < float(rec["p_value"]) <= 1
        assert rec["n_used"] == "38"

    def test_continuous_margins_leave_out_scipy(self, table, tmp_path):
        # y and age take 38 distinct values: banded solves in the margin fits
        # and in the stacked bootstrap refits
        args = ["pcor", "--data", table, "--schema", SCHEMA, "--x", "age", "--y", "y",
                "--z", "sex", "--x-model", "orm-logit", "--y-model", "orm-logit",
                "--boot", "20", "--perm", "20", "--seed", "7",
                "--out", str(tmp_path / "p.csv")]
        code = (
            "import sys; from psrkit.cli import run; "
            f"print(run({args!r}), 'scipy' in sys.modules)"
        )
        assert _python_stdout(code).split() == ["0", "False"]

    def test_unadjusted_without_z(self, table, capsys):
        code = run(
            ["pcor", "--data", table, "--schema", SCHEMA,
             "--x", "age", "--y", "y", "--boot", "0", "--perm", "0"]
        )
        assert code == 0
        rec = dict(zip(*_parse_csv(capsys.readouterr().out)))
        assert rec["x_model"] == "empirical"
        assert rec["ci_low"] == "NA" and rec["p_value"] == "NA"

    def test_seed_required_when_resampling(self, table, capsys):
        code = run(
            ["pcor", "--data", table, "--schema", SCHEMA,
             "--x", "age", "--y", "y", "--boot", "50", "--perm", "0"]
        )
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_bad_column_name(self, table, capsys):
        code = run(
            ["pcor", "--data", table, "--schema", SCHEMA,
             "--x", "nope", "--y", "y", "--boot", "0", "--perm", "0"]
        )
        assert code == 1

    def test_matrix_mode(self, table, tmp_path, capsys):
        est, pv = tmp_path / "est.csv", tmp_path / "p.csv"
        code = run(
            ["pcor", "--data", table, "--schema", SCHEMA,
             "--matrix", "--cols", "y,age,stage", "--z", "sex",
             "--perm", "40", "--seed", "11",
             "--out", str(est), "--pout", str(pv)]
        )
        assert code == 0
        rows = _parse_csv(est.read_text())
        assert rows[0] == ["", "y", "age", "stage"]
        assert [r[0] for r in rows[1:]] == ["y", "age", "stage"]
        for i in range(3):
            assert float(rows[i + 1][i + 1]) == 1.0
        # upper (unadjusted) and lower (adjusted) triangles both filled
        assert rows[1][2] != "NA" and rows[2][1] != "NA"
        assert rows[1][2] != rows[2][1]
        p_rows = _parse_csv(pv.read_text())
        assert p_rows[0] == rows[0]
        off_diag_p = float(p_rows[1][2])
        assert 0 < off_diag_p <= 1

    def test_matrix_seed_required_when_permuting(self, table, capsys):
        code = run(
            ["pcor", "--data", table, "--schema", SCHEMA,
             "--matrix", "--cols", "a,b", "--perm", "9"]
        )
        assert code == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--perm", "-5"], "n_perm must be >= 0, got -5 (--perm)"),
         (["--boot", "-1"], "n_boot must be 0 or at least 2, got -1 (--boot)"),
         (["--boot", "1"], "n_boot must be 0 or at least 2, got 1 (--boot)"),
         (["--threads", "0"], "workers must be >= 1, got 0 (--threads)"),
         (["--matrix", "--cols", "a,b", "--perm", "-5"], "n_perm must be >= 0, got -5 (--perm)"),
         (["--matrix", "--cols", "a,b", "--threads", "0"],
          "workers must be >= 1, got 0 (--threads)")],
        ids=["perm-negative", "boot-negative", "boot-one", "threads-zero",
             "matrix-perm-negative", "matrix-threads-zero"],
    )
    def test_bad_draw_counts_rejected_before_reading(self, tmp_path, capsys, flags, message):
        absent = str(tmp_path / "absent.csv")
        code = run(
            ["pcor", "--data", absent, "--schema", SCHEMA, "--x", "age", "--y", "y",
             "--boot", "0", "--perm", "0", "--seed", "3"] + flags
        )
        assert code == 1
        assert capsys.readouterr().err == f"psr-kit: error: {message}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [(["--matrix", "--x", "nope"], "--x cannot be used with --matrix"),
         (["--matrix", "--y", "nope"], "--y cannot be used with --matrix"),
         (["--matrix", "--x-model", "linear"], "--x-model cannot be used with --matrix"),
         (["--matrix", "--y-model", "poisson"], "--y-model cannot be used with --matrix"),
         (["--x", "age", "--y", "y", "--z", "1,age"],
          "'1' (intercept only) cannot be combined with other terms"),
         (["--x", "age", "--y", "y", "--perm", "9"],
          "a seed (--seed) is required whenever resampling is requested"),
         (["--x", "age", "--y", "y", "--pout", "p.csv"],
          "--pout can be used only with --matrix"),
         (["--x", "age", "--y", "y", "--cols", "a,b"],
          "--cols can be used only with --matrix")],
        ids=["matrix-x", "matrix-y", "matrix-x-model", "matrix-y-model", "z-one-and-term",
             "seed-missing", "pair-pout", "pair-cols"],
    )
    def test_bad_request_rejected_before_reading(self, tmp_path, capsys, flags, message):
        absent = str(tmp_path / "absent.csv")
        code = run(
            ["pcor", "--data", absent, "--schema", SCHEMA, "--z", "age",
             "--boot", "0", "--perm", "0"] + flags
        )
        assert code == 1
        assert capsys.readouterr().err == f"psr-kit: error: {message}\n"

    def test_matrix_draws_no_bootstrap_and_needs_no_seed_without_perm(self, table, capsys):
        # --boot is ignored with --matrix, so --boot 1 is no error there
        for boot in ([], ["--boot", "1"]):
            code = run(
                ["pcor", "--data", table, "--schema", SCHEMA,
                 "--matrix", "--cols", "y,age", "--perm", "0"] + boot
            )
            assert code == 0
            rows = _parse_csv(capsys.readouterr().out)
            assert rows[0] == ["", "y", "age"] and rows[1][2] != "NA"

    @pytest.mark.parametrize("sub", ["pcor", "scan"])
    def test_threads_default_is_the_usable_cpus(self, sub):
        args = build_parser().parse_args(
            [sub, "--data", "d.csv", "--schema", SCHEMA, "--y", "y", "--predictors", "p.csv"]
            if sub == "scan" else [sub, "--data", "d.csv", "--schema", SCHEMA]
        )
        assert args.threads == len(os.sched_getaffinity(0))

    def _pcor_blocks(self, table, monkeypatch, tmp_path, threads):
        """Exit code and output bytes (None if not written) of a 20-replicate
        pcor bootstrap in blocks of at most 7 replicates; no flag for None."""
        monkeypatch.setattr(ra, "_BOOT_BLOCK_CELLS", 7 * 38)
        out = tmp_path / f"p{threads}.csv"
        flags = [] if threads is None else ["--threads", str(threads)]
        code = run(
            ["pcor", "--data", table, "--schema", SCHEMA, "--x", "age", "--y", "y",
             "--z", "sex", "--boot", "20", "--perm", "20", "--seed", "7",
             "--out", str(out)] + flags
        )
        return code, out.read_bytes() if out.exists() else None

    def test_output_bytes_do_not_depend_on_threads(self, table, monkeypatch, tmp_path):
        outputs = {t: self._pcor_blocks(table, monkeypatch, tmp_path, t) for t in (1, 2, None)}
        assert outputs[1][0] == 0 and outputs[1][1]
        assert outputs[2] == outputs[1] and outputs[None] == outputs[1]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_worker_input_error_exits_1(self, table, monkeypatch, tmp_path, capsys, threads):
        real = ra._MarginModel.fit_rows

        def flaky(self, cols, Z, rows):
            # fails by replicate content, so every worker count fails the same ones
            fits = real(self, cols, Z, rows)
            return [InputError("injected") if idx.sum() % 5 == 0 else f
                    for idx, f in zip(rows, fits)]

        monkeypatch.setattr(ra._MarginModel, "fit_rows", flaky)
        assert self._pcor_blocks(table, monkeypatch, tmp_path, threads) == (1, None)
        assert capsys.readouterr().err == "psr-kit: error: injected\n"

    def test_matrix_needs_cols(self, table, capsys):
        code = run(
            ["pcor", "--data", table, "--schema", SCHEMA, "--matrix",
             "--perm", "0"]
        )
        assert code == 1


class TestScan:
    def _predictors(self, path, n=40, k=5):
        rng = np.random.default_rng(77)
        names = [f"p{j}" for j in range(k)] + ["flat"]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(names)
            for i in range(n):
                row = [repr(float(v)) for v in rng.normal(0, 1, k)] + ["1.0"]
                if i == 7:
                    row[0] = "NA"
                w.writerow(row)
        return str(path)

    def test_scan_output_and_thread_parity(self, table, tmp_path, capsys):
        preds = self._predictors(tmp_path / "preds.csv")
        base = ["scan", "--data", table, "--schema", SCHEMA,
                "--y", "y", "--z", "sex", "--predictors", preds,
                "--perm", "49", "--seed", "13"]
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert run(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert run(base + ["--threads", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = _parse_csv(out1.read_text())
        assert rows[0] == ["rank", "name", "estimate", "p_value",
                           "n_used", "status", "detail"]
        assert len(rows) == 7  # five predictors + flat
        by_name = {r[1]: r for r in rows[1:]}
        assert by_name["flat"][5] == "degenerate"
        assert by_name["flat"][0] == ""
        ok = [r for r in rows[1:] if r[5] == "ok"]
        assert [r[0] for r in ok] == [str(i + 1) for i in range(len(ok))]
        ps = [float(r[3]) for r in ok]
        assert ps == sorted(ps)
        # 39 kept rows (missing y dropped) minus p0's own missing cell
        assert by_name["p0"][4] == "38"

    @staticmethod
    def _write_columns(path, columns):
        """A predictor file from {name: 40 cells}, None marking a missing cell."""
        names = list(columns)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(names)
            for i in range(40):
                w.writerow(
                    ["NA" if columns[k][i] is None else repr(float(columns[k][i])) for k in names]
                )
        return str(path)

    def test_panel_of_several_blocks_is_thread_independent(self, table, tmp_path, capsys):
        # 150 genotype columns with missing cells: three blocks of predictors
        rng = np.random.default_rng(78)
        cols = {}
        for j in range(150):
            g = rng.binomial(2, rng.uniform(0.05, 0.5), 40).astype(float)
            cols[f"g{j:03d}"] = [None if rng.random() < 0.03 else v for v in g]
        preds = self._write_columns(tmp_path / "g.csv", cols)
        base = ["scan", "--data", table, "--schema", SCHEMA, "--y", "y",
                "--z", "age,sex", "--predictors", preds, "--perm", "19", "--seed", "3"]
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert run(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert run(base + ["--threads", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = _parse_csv(out1.read_text())[1:]
        assert len(rows) == 150
        assert sum(r[5] == "ok" for r in rows) > 100

    def test_genotype_scan_leaves_out_scipy(self, table, tmp_path):
        # a scan of genotype predictors (few levels, logit link) and a
        # linear-empirical outcome needs nothing from scipy
        rng = np.random.default_rng(80)
        cols = {f"g{j}": rng.binomial(2, 0.4, 40).astype(float).tolist() for j in range(4)}
        cols["g0"][2] = None
        preds = self._write_columns(tmp_path / "g.csv", cols)
        args = ["scan", "--data", table, "--schema", SCHEMA, "--y", "y", "--z", "age,sex",
                "--predictors", preds, "--x-model", "orm-logit",
                "--y-model", "linear-empirical", "--perm", "19", "--seed", "3",
                "--threads", "1", "--out", str(tmp_path / "s.csv")]
        code = (
            "import sys; from psrkit.cli import run; "
            f"print(run({args!r}), 'scipy' in sys.modules)"
        )
        assert _python_stdout(code).split() == ["0", "False"]

    def test_block_statuses_and_details(self, table, tmp_path, capsys):
        # one block mixing ok, degenerate, capped and failed predictors; the
        # details are those of the per-predictor fits they replace.  split
        # is 2 exactly where sex is 1, so its sex coefficient runs to the cap
        d = load_csv(table, parse_schema(SCHEMA))
        sex = d["sex"].values
        rng = np.random.default_rng(79)
        cols = {
            "ok": rng.binomial(2, 0.3, 40).astype(float).tolist(),
            "flat": [1.0] * 40,
            "split": np.where(sex == 1, 2.0, rng.binomial(1, 0.5, 40)).tolist(),
            "sparse": [0.0, 1.0] + [None] * 38,
            "sex0": [None if s == 1 else v for s, v in zip(sex, rng.binomial(2, 0.4, 40))],
        }
        preds = self._write_columns(tmp_path / "m.csv", cols)
        out = tmp_path / "s.csv"
        code = run(["scan", "--data", table, "--schema", SCHEMA, "--y", "y",
                    "--z", "age,sex", "--predictors", preds, "--perm", "19",
                    "--seed", "3", "--out", str(out)])
        assert code == 0
        by_name = {r[1]: r for r in _parse_csv(out.read_text())[1:]}
        assert by_name["ok"][5:] == ["ok", ""]
        assert by_name["flat"][5:] == ["degenerate", "predictor is constant on its observed rows"]
        assert by_name["split"][5:] == [
            "ok", "complete separation suspected: coefficients capped at |30.0|"
        ]
        assert by_name["sparse"][5:] == ["failed", "fewer than 3 observations"]
        # sex is 0 on every row where sex0 is observed: its Newton system is
        # singular, and its fit fails alone as in the block
        assert by_name["sex0"][5] == "failed"
        assert by_name["sex0"][6].startswith("cumulative-link fit of 'sex0' failed (")

    def test_perm_zero_needs_no_seed_and_reports_na(self, table, tmp_path, capsys):
        preds = self._predictors(tmp_path / "preds.csv")
        out = tmp_path / "s.csv"
        code = run(
            ["scan", "--data", table, "--schema", SCHEMA, "--y", "y", "--z", "sex",
             "--predictors", preds, "--perm", "0", "--out", str(out)]
        )
        assert code == 0
        ok = [r for r in _parse_csv(out.read_text())[1:] if r[5] == "ok"]
        assert len(ok) == 5
        assert [r[3] for r in ok] == ["NA"] * 5
        assert [r[0] for r in ok] == ["1", "2", "3", "4", "5"]
        sizes = [abs(float(r[2])) for r in ok]
        assert sizes == sorted(sizes, reverse=True)

    def test_row_count_mismatch(self, table, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a\n1.0\n2.0\n")
        code = run(
            ["scan", "--data", table, "--schema", SCHEMA, "--y", "y",
             "--predictors", str(bad), "--perm", "9", "--seed", "1"]
        )
        assert code == 1
        assert "rows" in capsys.readouterr().err

    def test_seed_required(self, table, tmp_path, capsys):
        preds = self._predictors(tmp_path / "p.csv")
        code = run(
            ["scan", "--data", table, "--schema", SCHEMA, "--y", "y",
             "--predictors", preds, "--perm", "9"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "psr-kit: error: a seed (--seed) is required whenever resampling is requested\n"
        )

    def test_threads_below_one_rejected(self, table, tmp_path, capsys):
        preds = self._predictors(tmp_path / "p.csv")
        code = run(
            ["scan", "--data", table, "--schema", SCHEMA, "--y", "y",
             "--predictors", preds, "--perm", "9", "--seed", "1", "--threads", "0"]
        )
        assert code == 1
        assert "--threads" in capsys.readouterr().err

    def test_negative_perm_rejected_before_reading(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.csv")
        code = run(
            ["scan", "--data", absent, "--schema", SCHEMA, "--y", "y",
             "--predictors", absent, "--perm", "-3", "--seed", "1"]
        )
        assert code == 1
        assert capsys.readouterr().err == "psr-kit: error: n_perm must be >= 0, got -3 (--perm)\n"

    def test_non_numeric_predictor_cell(self, table, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a\n" + "\n".join(["1.0"] * 39 + ["oops"]) + "\n")
        code = run(
            ["scan", "--data", table, "--schema", SCHEMA, "--y", "y",
             "--predictors", str(bad), "--perm", "9", "--seed", "1"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "text",
        [
            "a,a\n" + "1.0,2.0\n" * 40,  # duplicate names
            "a,b\n" + "1.0,2.0\n" * 39 + "1.0\n",  # short row
            "",  # empty file
            "a\n" + "1.0\n" * 39 + "oops\n",  # not a number
            "a\n" + "1.0\n" * 39 + "inf\n",  # not finite
        ],
        ids=["duplicate-names", "short-row", "empty", "non-number", "inf"],
    )
    def test_malformed_predictor_file(self, table, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code = run(
            ["scan", "--data", table, "--schema", SCHEMA, "--y", "y",
             "--predictors", str(bad), "--perm", "9", "--seed", "1"]
        )
        assert code == 1
        assert str(bad) in capsys.readouterr().err

    def test_padded_na_predictor_cell_is_missing(self, table, tmp_path, capsys):
        path = tmp_path / "p.csv"
        self._predictors(path)
        rows = _parse_csv(path.read_text())
        rows[11][1] = " NA"  # p1 at data row 11; row 5, whose y is missing, is dropped
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        out = tmp_path / "s.csv"
        code = run(
            ["scan", "--data", table, "--schema", SCHEMA, "--y", "y",
             "--predictors", str(path), "--perm", "0", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        by_name = {r[1]: r for r in _parse_csv(out.read_text())[1:]}
        assert by_name["p1"][4] == "38"
        assert by_name["p2"][4] == "39"


class TestInputRows:
    """Every command keeps the rows complete in the columns it reads.  In the
    ``table`` fixture y is missing at row 5 and age at row 3."""

    @staticmethod
    def _predictors(path):
        """A predictor file with two fully observed columns, rows aligned with ``table``."""
        rng = np.random.default_rng(79)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["p0", "p1"])
            w.writerows([repr(float(v)) for v in rng.normal(0, 1, 2)] for _ in range(40))
        return str(path)

    @pytest.mark.parametrize(
        "argv, dropped",
        [
            (["fit", "--model", "linear(y ~ age)"], (3, 5)),
            (["fit", "--model", "orm-logit(stage ~ sex)"], ()),
            (["diag", "--fit-spec", "linear(y ~ age)"], (3, 5)),
            pytest.param(
                ["diag", "--fit-spec", "empirical(y ~ 1)", "--rbp", "age={tmp}/age.csv", "--csv"],
                (3, 5),
                id="diag-rbp-only-column",
            ),
            (["psr", "--model", "empirical(y ~ 1)"], (5,)),
            (["psr", "--model", "linear(y ~ age)"], (3, 5)),
            (["pcor", "--x", "age", "--y", "y"], (3, 5)),
            (["pcor", "--x", "sex", "--y", "stage", "--z", "age"], (3,)),
            (["scan", "--y", "y", "--z", "sex"], (5,)),
            (["scan", "--y", "sex", "--z", "age"], (3,)),
        ],
    )
    def test_rows_kept(self, table, tmp_path, capsys, argv, dropped):
        extra = {
            "pcor": ["--boot", "0", "--perm", "0"],
            "scan": ["--predictors", self._predictors(tmp_path / "p.csv"), "--perm", "0",
                     "--threads", "1"],
        }
        cmd = argv[0]
        args = [a.format(tmp=tmp_path) for a in argv[1:]]
        assert run([cmd, "--data", table, "--schema", SCHEMA, *args, *extra.get(cmd, [])]) == 0
        out = capsys.readouterr().out
        if cmd in ("fit", "diag"):
            assert json.loads(out)["rows_removed"] == len(dropped)
        elif cmd == "psr":
            ids = [int(r[0]) for r in _parse_csv(out)[1:]]
            assert ids == [i for i in range(1, 41) if i not in dropped]
        else:
            rows = _parse_csv(out)
            col = rows[0].index("n_used")
            assert {r[col] for r in rows[1:]} == {str(40 - len(dropped))}

    def test_matrix_without_z_keeps_each_pairs_rows(self, table, capsys):
        # y/sex is scored on the 39 rows where both are present, age's missing
        # row 3 included, and gives what spearman gives on those rows
        code = run(
            ["pcor", "--data", table, "--schema", SCHEMA,
             "--matrix", "--cols", "y,sex", "--perm", "0"]
        )
        assert code == 0
        rows = _parse_csv(capsys.readouterr().out)
        d = load_csv(table, SCHEMA)
        kept = np.flatnonzero(~d["y"].missing)
        assert kept.size == 39 and 2 in kept
        want = ra.spearman(d["y"].take(kept), d["sex"].take(kept)).estimate
        assert rows[1][2] == rows[2][1] == repr(want)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["fit", "--model", "linear(zz ~ age + qq)"], "zz"),
            (["psr", "--model", "linear(y ~ qq + zz)"], "qq"),
            (["diag", "--fit-spec", "linear(y ~ zz)", "--rbp", "qq=q.svg"], "zz"),
            (["pcor", "--x", "zz", "--y", "qq", "--boot", "0", "--perm", "0"], "zz"),
            (["pcor", "--x", "y", "--y", "zz", "--z", "qq", "--boot", "0", "--perm", "0"], "zz"),
            (["pcor", "--matrix", "--cols", "y,zz", "--z", "qq", "--perm", "0"], "qq"),
            (["scan", "--y", "zz", "--z", "qq", "--predictors", "p.csv", "--perm", "0"], "zz"),
        ],
        ids=["fit", "psr", "diag", "pcor", "pcor-z", "pcor-matrix", "scan"],
    )
    def test_first_absent_column_named(self, table, capsys, argv, named):
        code = run([argv[0], "--data", table, "--schema", SCHEMA, *argv[1:]])
        assert code == 1
        assert capsys.readouterr().err == f"psr-kit: error: no column named {named!r}\n"


class TestAbsentOrdinalLevel:
    """A declared ordinal level that no row holds is left out of the design."""

    SCHEMA = "y:continuous,w:continuous,stage:ordinal(I<II<III)"

    @staticmethod
    def _stage_table(path):
        ys = [1.5, 2.5, 0.5, 3.0, 4.5, 1.0, 2.0, 3.5]
        ws = [0.2, 1.1, 0.7, 0.4, 1.9, 0.3, 1.5, 0.9]
        stages = ["I", "II", "II", "I", "II", "I", "II", "I"]
        path.write_text(
            "y,w,stage\n" + "".join(f"{y},{w},{s}\n" for y, w, s in zip(ys, ws, stages))
        )
        return str(path)

    def test_fit_codes_observed_levels(self, tmp_path, capsys):
        code = run(
            ["fit", "--data", self._stage_table(tmp_path / "s.csv"), "--schema", self.SCHEMA,
             "--model", "orm-logit(y ~ stage)"]
        )
        assert code == 0
        assert list(json.loads(capsys.readouterr().out)["coefficients"]) == ["stage==II"]

    def test_pcor_adjusts_for_observed_levels(self, tmp_path, capsys):
        code = run(
            ["pcor", "--data", self._stage_table(tmp_path / "s.csv"), "--schema", self.SCHEMA,
             "--x", "y", "--y", "w", "--z", "stage", "--boot", "0", "--perm", "0"]
        )
        assert code == 0
        rec = dict(zip(*_parse_csv(capsys.readouterr().out)))
        assert rec["x_model"] == rec["y_model"] == "orm-logit"
        assert rec["n_used"] == "8" and rec["estimate"] != "NA"
