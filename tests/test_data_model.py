"""Columns, schemas, CSV round-trips, design matrices, spline bases."""
import csv
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psrkit.data_model import (
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
from psrkit.exceptions import InputError, SchemaError


class TestColumn:
    def test_kinds_and_missing(self):
        c = Column.continuous("x", [1.0, 2.0, 3.0], missing=[False, True, False])
        assert c.kind is ColumnKind.CONTINUOUS
        assert c.n == 3
        assert list(c.values[~c.missing]) == [1.0, 3.0]

    def test_binary_validation(self):
        Column.binary("b", [0, 1, 1, 0])
        with pytest.raises(InputError):
            Column.binary("b", [0, 2])

    def test_count_validation(self):
        Column.count("k", [0, 3, 7])
        with pytest.raises(InputError):
            Column.count("k", [-1, 2])
        with pytest.raises(InputError):
            Column.count("k", [1.5, 2])

    def test_ordinal_validation(self):
        c = Column.ordinal("s", [0, 2, 1], ("lo", "mid", "hi"))
        assert c.label_of(c.values[1]) == "hi"
        with pytest.raises(InputError):
            Column.ordinal("s", [0, 3], ("lo", "hi"))
        with pytest.raises(InputError):
            Column.ordinal("s", [0], ("only",))

    def test_censored_validation(self):
        c = Column.right_censored("t", [1.0, 2.0], [1, 0])
        assert c.kind is ColumnKind.RIGHT_CENSORED
        assert not c.is_orderable
        with pytest.raises(InputError):
            Column.right_censored("t", [1.0], [2])
        with pytest.raises(InputError):
            Column.right_censored("t", [-1.0], [1])

    def test_take_bootstrap_indexing(self):
        c = Column.continuous("x", [10.0, 20.0, 30.0])
        sub = c.take(np.array([2, 2, 0]))
        assert list(sub.values) == [30.0, 30.0, 10.0]

    @pytest.mark.parametrize(
        "idx", [np.array([3, 3, 0, 1]), np.array([True, False, True, True])], ids=["rows", "mask"]
    )
    def test_take_equals_checked_replace(self, idx):
        miss = [False, True, False, False]
        columns = [
            Column.continuous("x", [1.5, 0.0, -2.0, 4.0], missing=miss),
            Column.ordinal("s", [0, 0, 2, 1], ("a", "b", "c"), missing=miss),
            Column.binary("b", [1, 0, 0, 1], missing=miss),
            Column.count("k", [3, 0, 7, 1], missing=miss),
            Column.right_censored(
                "t", [1.0, 0.0, 2.5, 3.0], [1, 0, 0, 1], missing=miss,
                source_fields=("fu", "died"),
            ),
        ]
        for c in columns:
            sub = c.take(idx)
            ev = None if c.events is None else c.events[idx]
            checked = replace(c, values=c.values[idx], missing=c.missing[idx], events=ev)
            assert type(sub) is Column
            for field in ("name", "kind", "levels", "source_fields"):
                assert getattr(sub, field) == getattr(checked, field)
            for field in ("values", "missing", "events"):
                got, want = getattr(sub, field), getattr(checked, field)
                if want is None:
                    assert got is None
                    continue
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert not np.shares_memory(got, getattr(c, field))
        assert sub.source_fields == ("fu", "died")
        assert list(sub.events) == list(np.array([1.0, 0.0, 0.0, 1.0])[idx])

    def test_design_take_copies_rows(self):
        Z = DesignMatrix(np.arange(8.0).reshape(4, 2), ("a", "b"))
        sub = Z.take(np.array([3, 0, 3]))
        assert type(sub) is DesignMatrix and sub.names == ("a", "b")
        assert sub.matrix.tolist() == [[6.0, 7.0], [0.0, 1.0], [6.0, 7.0]]
        assert not np.shares_memory(sub.matrix, Z.matrix)


class TestSchema:
    def test_parse_all_kinds(self):
        specs = parse_schema(
            "y:continuous,sex:binary,stage:ordinal(I<II<III),t:surv(time,event),n:count"
        )
        kinds = [s.kind for s in specs]
        assert kinds == [
            ColumnKind.CONTINUOUS,
            ColumnKind.BINARY,
            ColumnKind.ORDINAL,
            ColumnKind.RIGHT_CENSORED,
            ColumnKind.COUNT,
        ]
        assert specs[2].levels == ("I", "II", "III")

    def test_parse_errors(self):
        with pytest.raises(SchemaError):
            parse_schema("y:widget")
        with pytest.raises(SchemaError):
            parse_schema("y:continuous,y:count")
        with pytest.raises(SchemaError):
            parse_schema("s:ordinal(only)")
        with pytest.raises(SchemaError):
            parse_schema("t:surv(time)")
        with pytest.raises(SchemaError):
            parse_schema("nocolon")
        with pytest.raises(SchemaError):
            parse_schema("s:ordinal(a<b")


class TestCsvIO:
    def _write(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_text(text)
        return p

    def test_load_with_missing_tokens(self, tmp_path):
        p = self._write(tmp_path, "y,sex\n1.5,0\nNA,1\n,0\n2.5,NA\n")
        d = load_csv(p, "y:continuous,sex:binary")
        assert list(d["y"].missing) == [False, True, True, False]
        assert list(d["sex"].missing) == [False, False, False, True]
        assert d["y"].values[3] == 2.5

    def test_padded_missing_token(self, tmp_path):
        p = self._write(tmp_path, "y,stage\n1.5, NA\n NA ,I\n")
        d = load_csv(p, "y:continuous,stage:ordinal(I<II)")
        assert list(d["y"].missing) == [False, True]
        assert list(d["stage"].missing) == [True, False]

    def test_malformed_cell_reports_row(self, tmp_path):
        p = self._write(tmp_path, "y\n1.0\noops\n")
        with pytest.raises(SchemaError, match="row 2"):
            load_csv(p, "y:continuous")

    @pytest.mark.parametrize(
        "text, schema, tail",
        [
            ("y\n1\ninf\noops\n", "y:continuous", "column 'y' row 2: non-finite value 'inf'"),
            ("y\n1\noops\ninf\n", "y:continuous", "column 'y' row 2: cannot parse 'oops'"),
            ("a,b\n1,x\ny,2\n", "a:continuous,b:continuous", "column 'a' row 2: cannot parse 'y'"),
            ("a,b\n1,x\ny,2\n", "b:continuous,a:continuous", "column 'b' row 1: cannot parse 'x'"),
            ("y\n1\nNA\n1e400\n", "y:continuous", "column 'y' row 3: non-finite value '1e400'"),
            ("y\n nan \n", "y:continuous", "column 'y' row 1: non-finite value ' nan '"),
            ("y\n-inf\n", "y:continuous", "column 'y' row 1: non-finite value '-inf'"),
            ("b\n1\n0\ntrue\n", "b:binary", "column 'b' row 3: cannot parse 'true'"),
            ("k\n2\nNA\ninf\n", "k:count", "column 'k' row 3: non-finite value 'inf'"),
        ],
    )
    def test_first_bad_cell_reported(self, tmp_path, text, schema, tail):
        p = self._write(tmp_path, text)
        with pytest.raises(SchemaError, match=re.escape(f"{p}: {tail}") + "$"):
            load_csv(p, schema)

    def test_numeric_cells_accepted(self, tmp_path):
        p = self._write(tmp_path, "y,b,k\n 1.5 , 1 ,3\n NA ,0, NA\n,NA,\n-2e3,0,0\n")
        d = load_csv(p, "y:continuous,b:binary,k:count")
        assert d["y"].values.tolist() == [1.5, 0.0, 0.0, -2000.0]
        assert d["y"].missing.tolist() == [False, True, True, False]
        assert d["b"].values.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert d["b"].missing.tolist() == [False, False, True, False]
        assert d["k"].values.tolist() == [3.0, 0.0, 0.0, 0.0]
        assert d["k"].missing.tolist() == [False, True, True, False]
        assert [d[c].kind for c in d.names] == [
            ColumnKind.CONTINUOUS, ColumnKind.BINARY, ColumnKind.COUNT
        ]

    def test_numeric_kind_checks_still_run(self, tmp_path):
        p = self._write(tmp_path, "b,k\n2,1\n0,-1\n")
        with pytest.raises(InputError, match="binary values must be 0 or 1"):
            load_csv(p, "b:binary")
        with pytest.raises(InputError, match="counts must be nonnegative integers"):
            load_csv(p, "k:count")

    def test_malformed_cell_reported_before_kind_checks(self, tmp_path):
        p = self._write(tmp_path, "b,y,s\n2,1,I\n0,x,V\n")
        with pytest.raises(SchemaError, match="column 'y' row 2: cannot parse 'x'"):
            load_csv(p, "b:binary,y:continuous")
        with pytest.raises(SchemaError, match="column 's' row 2: 'V' is not a declared level"):
            load_csv(p, "b:binary,s:ordinal(I<II)")
        with pytest.raises(InputError, match="column 'b': binary values must be 0 or 1"):
            load_csv(p, "b:binary,s:ordinal(I<II<V)")

    @pytest.mark.parametrize(
        "text, schema",
        [
            ("y\n1.0\noops\n", "y:continuous"),
            ("y\ninf\n", "y:continuous"),
            ("time,event\n1.0,x\n", "t:surv(time,event)"),
            ("stage\nIV\n", "stage:ordinal(I<II<III)"),
        ],
    )
    def test_cell_errors_name_the_file(self, tmp_path, text, schema):
        p = self._write(tmp_path, text)
        with pytest.raises(SchemaError) as err:
            load_csv(p, schema)
        assert str(err.value).startswith(f"{p}: ")

    def test_repeated_header_field_rejected(self, tmp_path):
        p = self._write(tmp_path, "y,y,age\n1,10,5\n2,20,6\n3,30,7\n")
        with pytest.raises(SchemaError, match="'y' appears more than once") as err:
            load_csv(p, "y:continuous,age:continuous")
        assert str(p) in str(err.value)
        # a repeated field the schema does not read is ignored like any other
        assert load_csv(p, "age:continuous")["age"].n == 3

    def test_missing_header_field(self, tmp_path):
        p = self._write(tmp_path, "x\n1.0\n")
        with pytest.raises(SchemaError, match="'y'"):
            load_csv(p, "y:continuous")

    def test_extra_columns_ignored(self, tmp_path):
        p = self._write(tmp_path, "y,junk\n1.0,zzz\n")
        d = load_csv(p, "y:continuous")
        assert d.names == ("y",)

    def test_ordinal_labels_and_censored_fields(self, tmp_path):
        p = self._write(
            tmp_path, "stage,time,event\nII,1.5,1\nI,2.0,0\nIII,NA,1\n"
        )
        d = load_csv(p, "stage:ordinal(I<II<III),t:surv(time,event)")
        assert list(d["stage"].values) == [1.0, 0.0, 2.0]
        assert list(d["t"].missing) == [False, False, True]
        assert list(d["t"].events[:2]) == [1.0, 0.0]

    def test_undeclared_ordinal_level(self, tmp_path):
        p = self._write(tmp_path, "stage\nIV\n")
        with pytest.raises(SchemaError, match="'IV'"):
            load_csv(p, "stage:ordinal(I<II<III)")

    def test_round_trip_hand_data(self, tmp_path):
        d = Dataset(
            (
                Column.continuous("y", [1.25, -3.5, 0.1], missing=[False, False, True]),
                Column.ordinal("s", [0, 2, 1], ("a", "b", "c")),
                Column.right_censored("t", [1.0, 2.5, 3.0], [1, 0, 1]),
            )
        )
        p = tmp_path / "rt.csv"
        write_csv(d, p)
        d2 = load_csv(p, "y:continuous,s:ordinal(a<b<c),t:surv(t_time,t_event)")
        for name in d.names:
            a, b = d[name], d2[name]
            assert np.array_equal(a.missing, b.missing)
            assert np.array_equal(a.values[~a.missing], b.values[~b.missing])

    @given(
        st.lists(
            st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_floats_bit_exact(self, vals):
        import tempfile

        d = Dataset((Column.continuous("y", vals),))
        with tempfile.TemporaryDirectory() as tmp:
            p = f"{tmp}/x.csv"
            write_csv(d, p)
            d2 = load_csv(p, "y:continuous")
        assert np.array_equal(d["y"].values, d2["y"].values)


class TestCompleteCases:
    def test_counts_and_filtering(self):
        d = Dataset(
            (
                Column.continuous("a", [1, 2, 3, 4], missing=[True, False, False, False]),
                Column.continuous("b", [1, 2, 3, 4], missing=[False, False, True, False]),
            )
        )
        d2, kept = complete_cases(d, ["a", "b"])
        assert list(kept) == [1, 3]
        assert d.n - kept.size == 2
        assert list(d2["a"].values) == [2.0, 4.0]

    def test_all_rows_removed(self):
        d = Dataset((Column.continuous("a", [1.0], missing=[True]),))
        with pytest.raises(InputError):
            complete_cases(d, ["a"])


class TestRcsBasis:
    def test_frozen_hand_values(self):
        # knots (2, 5, 8): normalizer (8-2)^2 = 36
        # col2(x) = [(x-2)+^3 - 2 (x-5)+^3 + (x-8)+^3] / 36
        x = np.array([1.0, 6.0, 9.0])
        b = rcs_basis(x, knots=np.array([2.0, 5.0, 8.0]))
        assert b.shape == (3, 2)
        assert np.array_equal(b[:, 0], x)
        assert b[0, 1] == 0.0
        assert b[1, 1] == pytest.approx(62.0 / 36.0, abs=1e-15)
        assert b[2, 1] == pytest.approx(216.0 / 36.0, abs=1e-14)

    def test_linear_beyond_boundary_knots(self):
        knots = np.array([0.0, 1.0, 2.0, 3.0])
        for lo, hi in ((-5.0, -0.5), (3.5, 8.0)):
            x = np.linspace(lo, hi, 40)
            b = rcs_basis(x, knots=knots)
            for j in range(b.shape[1]):
                second = np.diff(b[:, j], 2)
                assert np.max(np.abs(second)) < 1e-9

    def test_second_derivative_continuous_at_knots(self):
        knots = np.array([0.0, 1.0, 2.5, 4.0])
        h = 1e-4
        for t in knots:
            x = np.array([t - 2 * h, t - h, t, t + h, t + 2 * h])
            b = rcs_basis(x, knots=knots)
            for j in range(1, b.shape[1]):
                col = b[:, j]
                left = (col[0] - 2 * col[1] + col[2]) / h**2
                right = (col[2] - 2 * col[3] + col[4]) / h**2
                assert abs(left - right) < 1e-2  # second derivative has no jump

    def test_default_knot_quantiles(self):
        x = np.linspace(0.0, 1.0, 10001)
        k3 = rcs_knots(x, 3)
        assert np.allclose(k3, [0.10, 0.50, 0.90], atol=1e-6)
        k4 = rcs_knots(x, 4)
        assert np.allclose(k4, [0.05, 0.35, 0.65, 0.95], atol=1e-6)
        with pytest.raises(InputError):
            rcs_knots(x, 2)


class TestBuildDesign:
    def _dataset(self):
        rng = np.random.default_rng(0)
        return Dataset(
            (
                Column.continuous("age", rng.uniform(20, 60, 50)),
                Column.continuous("bmi", rng.uniform(18, 35, 50)),
                Column.continuous("dur", rng.uniform(0.5, 9.0, 50)),
                Column.ordinal("stage", rng.integers(0, 3, 50), ("I", "II", "III")),
                Column.continuous("flat", np.full(50, 7.0)),
                Column.continuous("neg", rng.uniform(-3, -1, 50)),
            )
        )

    def test_transforms_and_names(self):
        d = self._dataset()
        X = build_design(
            d, [Term("age"), Term("bmi", "rcs", 3), Term("dur", "log"), Term("stage")]
        )
        assert X.names == ("age", "bmi", "bmi'", "log(dur)", "stage==II", "stage==III")
        assert np.array_equal(X.matrix[:, 0], d["age"].values)
        assert np.allclose(X.matrix[:, 3], np.log(d["dur"].values))
        stage = d["stage"].values
        assert np.array_equal(X.matrix[:, 4], (stage == 1).astype(float))
        assert np.array_equal(X.matrix[:, 5], (stage == 2).astype(float))

    def test_log_requires_positive(self):
        with pytest.raises(InputError, match="log"):
            build_design(self._dataset(), [Term("neg", "log")])

    def test_constant_column_rejected(self):
        with pytest.raises(InputError):
            build_design(self._dataset(), [Term("flat")])

    def test_collinearity_rejected(self):
        d = self._dataset()
        d2 = Dataset(
            d.columns + (Column.continuous("age2", 2.0 * d["age"].values),)
        )
        with pytest.raises(InputError, match="collinear|rank"):
            build_design(d2, [Term("age"), Term("age2")])

    def test_collinearity_with_intercept_rejected(self):
        # a and 1 - a are independent columns, but with the intercept (or the
        # cut points of an orm-* fit) only a - b is identified
        a = (np.arange(120) % 2).astype(float)
        d = Dataset((Column.binary("a", a), Column.binary("b", 1.0 - a)))
        with pytest.raises(InputError, match="rank deficient once an intercept is added"):
            build_design(d, [Term("a"), Term("b")])

    def test_missing_rejected(self):
        d = Dataset((Column.continuous("x", [1.0, 2.0], missing=[True, False]),))
        with pytest.raises(InputError):
            build_design(d, [Term("x")])


class TestDataset:
    def test_unique_names_required(self):
        with pytest.raises(InputError):
            Dataset((Column.continuous("x", [1.0]), Column.continuous("x", [2.0])))

    def test_unknown_column(self):
        d = Dataset((Column.continuous("x", [1.0]),))
        with pytest.raises(InputError):
            d["nope"]

