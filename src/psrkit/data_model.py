"""Typed columns, datasets, CSV ingestion, and design-matrix construction.

A :class:`Dataset` is a small column store with explicit column kinds
(continuous, ordinal, binary, count, right-censored) and per-cell
missingness.  Values are held as float64 arrays; ordinal columns store
integer level codes (0..L-1) alongside their ordered labels, and
right-censored columns carry a parallel 0/1 event array.

CSV files follow the usual quoting conventions; a missing cell is one whose
text, stripped of surrounding blanks, is empty or the literal ``NA``.  A
textual schema declares each column's kind, for example::

    age:continuous,stage:ordinal(normal<ASCUS<low<high<cancer),os:surv(time,event)

Design matrices are built from term lists: continuous/count columns enter
as-is or through ``log`` or a restricted cubic spline expansion, binary
columns enter as a single 0/1 column, and ordinal columns expand to
reference-cell dummies over their observed levels (the lowest observed
level is the reference).  Design construction requires complete cases;
run :func:`complete_cases` first.
"""
from __future__ import annotations

import csv
import enum
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial, reduce
from itertools import compress

import numpy as np

from .exceptions import InputError, SchemaError

__all__ = [
    "ColumnKind",
    "Column",
    "Dataset",
    "DesignMatrix",
    "Term",
    "ColumnSpec",
    "parse_schema",
    "load_csv",
    "write_csv",
    "complete_cases",
    "build_design",
    "rcs_knots",
    "rcs_basis",
]

MISSING_TOKEN = "NA"
_MISSING_CELLS = frozenset({"", MISSING_TOKEN})


class ColumnKind(enum.Enum):
    CONTINUOUS = "continuous"
    ORDINAL = "ordinal"
    BINARY = "binary"
    COUNT = "count"
    RIGHT_CENSORED = "right_censored"


#: kinds whose values admit a total order usable by rank statistics
ORDERABLE_KINDS = frozenset(
    {ColumnKind.CONTINUOUS, ColumnKind.ORDINAL, ColumnKind.BINARY, ColumnKind.COUNT}
)


@dataclass(frozen=True)
class Column:
    """One named, typed column with per-cell missingness.

    ``values`` is always float64.  For ordinal columns it holds level codes
    0..L-1; ``levels`` gives the ordered labels.  For right-censored columns
    ``values`` holds follow-up times and ``events`` the 0/1 event indicator;
    ``source_fields`` remembers the two CSV field names so a round trip
    through :func:`write_csv` / :func:`load_csv` preserves the layout.
    Missing cells are flagged in ``missing`` and zeroed out in ``values``.
    """

    name: str
    kind: ColumnKind
    values: np.ndarray
    missing: np.ndarray
    levels: tuple[str, ...] | None = None
    events: np.ndarray | None = None
    source_fields: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float).copy()
        miss = np.asarray(self.missing, dtype=bool).copy()
        if vals.ndim != 1 or miss.shape != vals.shape:
            raise InputError(f"column {self.name!r}: values/missing must be aligned 1-d arrays")
        vals[miss] = 0.0
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "missing", miss)
        ok = ~miss
        obs = vals[ok]
        if obs.size and not np.all(np.isfinite(obs)):
            raise InputError(f"column {self.name!r}: non-finite observed value")
        if self.kind is ColumnKind.ORDINAL:
            if not self.levels or len(self.levels) < 2:
                raise InputError(f"column {self.name!r}: ordinal columns need >= 2 levels")
            if obs.size and (
                np.any(obs != np.round(obs)) or obs.min() < 0 or obs.max() > len(self.levels) - 1
            ):
                raise InputError(f"column {self.name!r}: ordinal codes out of range")
        elif self.kind is ColumnKind.BINARY:
            if obs.size and not np.all(np.isin(obs, (0.0, 1.0))):
                raise InputError(f"column {self.name!r}: binary values must be 0 or 1")
        elif self.kind is ColumnKind.COUNT:
            if obs.size and (np.any(obs != np.round(obs)) or obs.min() < 0):
                raise InputError(f"column {self.name!r}: counts must be nonnegative integers")
        elif self.kind is ColumnKind.RIGHT_CENSORED:
            if self.events is None:
                raise InputError(f"column {self.name!r}: right-censored columns need events")
            ev = np.asarray(self.events, dtype=float).copy()
            if ev.shape != vals.shape:
                raise InputError(f"column {self.name!r}: events must align with times")
            ev[miss] = 0.0
            if not np.all(np.isin(ev[ok], (0.0, 1.0))):
                raise InputError(f"column {self.name!r}: event indicator must be 0 or 1")
            if obs.size and obs.min() < 0:
                raise InputError(f"column {self.name!r}: times must be nonnegative")
            object.__setattr__(self, "events", ev)
            if self.source_fields is None:
                object.__setattr__(
                    self, "source_fields", (f"{self.name}_time", f"{self.name}_event")
                )

    # -- constructors -------------------------------------------------

    @staticmethod
    def continuous(name: str, values, missing=None) -> "Column":
        return Column(name, ColumnKind.CONTINUOUS, *_vals_missing(values, missing))

    @staticmethod
    def ordinal(name: str, codes, levels: tuple[str, ...], missing=None) -> "Column":
        v, m = _vals_missing(codes, missing)
        return Column(name, ColumnKind.ORDINAL, v, m, levels=tuple(levels))

    @staticmethod
    def binary(name: str, values, missing=None) -> "Column":
        return Column(name, ColumnKind.BINARY, *_vals_missing(values, missing))

    @staticmethod
    def count(name: str, values, missing=None) -> "Column":
        return Column(name, ColumnKind.COUNT, *_vals_missing(values, missing))

    @staticmethod
    def right_censored(name: str, times, events, missing=None, source_fields=None) -> "Column":
        v, m = _vals_missing(times, missing)
        return Column(
            name,
            ColumnKind.RIGHT_CENSORED,
            v,
            m,
            events=np.asarray(events, dtype=float),
            source_fields=source_fields,
        )

    # -- accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def is_orderable(self) -> bool:
        return self.kind in ORDERABLE_KINDS

    def take(self, idx: np.ndarray) -> "Column":
        """Row subset / resample at an integer or boolean index array
        (bootstrap-style repeats allowed).

        The rows of a checked column are checked already, so the result is
        built without running the checks again; fancy indexing gives it
        arrays of its own.
        """
        ev = None if self.events is None else self.events[idx]
        return _taken(self, values=self.values[idx], missing=self.missing[idx], events=ev)

    def label_of(self, code: float) -> str:
        """Human-readable rendering of one cell value."""
        if self.kind is ColumnKind.ORDINAL and self.levels is not None:
            return self.levels[int(code)]
        if float(code).is_integer() and self.kind in (ColumnKind.BINARY, ColumnKind.COUNT):
            return str(int(code))
        return repr(float(code))


def _taken(obj, **rows):
    """``dataclasses.replace(obj, **rows)`` without ``__post_init__``, for
    the rows ``take`` copied out of an object that passed its checks."""
    out = object.__new__(type(obj))
    out.__dict__.update(obj.__dict__, **rows)
    return out


def _vals_missing(values, missing) -> tuple[np.ndarray, np.ndarray]:
    vals = np.asarray(values, dtype=float)
    if missing is None:
        miss = ~np.isfinite(vals)
    else:
        miss = np.asarray(missing, dtype=bool)
    return vals, miss


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of equal-length columns with unique names."""

    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise InputError("a dataset needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise InputError("duplicate column names")
        n = self.columns[0].n
        if any(c.n != n for c in self.columns):
            raise InputError("columns have unequal lengths")

    @property
    def n(self) -> int:
        return self.columns[0].n

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def __getitem__(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise InputError(f"no column named {name!r}")

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(tuple(c.take(idx) for c in self.columns))


# ---------------------------------------------------------------------------
# schema parsing and CSV I/O
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnSpec:
    """Parsed schema entry for one output column."""

    name: str
    kind: ColumnKind
    levels: tuple[str, ...] | None = None
    time_field: str | None = None
    event_field: str | None = None


def parse_schema(text: str) -> tuple[ColumnSpec, ...]:
    """Parse a comma-separated schema declaration.

    Grammar per entry: ``name:kind`` where kind is one of ``continuous``,
    ``binary``, ``count``, ``ordinal(l1<l2<...)``, ``surv(time_field,event_field)``.
    Commas inside parentheses do not split entries.
    """
    specs: list[ColumnSpec] = []
    for chunk in _split_outside_parens(text, ","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise SchemaError(f"schema entry {chunk!r} lacks a ':kind' declaration")
        name, kind_txt = chunk.split(":", 1)
        name, kind_txt = name.strip(), kind_txt.strip()
        if not name:
            raise SchemaError(f"schema entry {chunk!r} has an empty column name")
        if kind_txt in ("continuous", "binary", "count"):
            specs.append(ColumnSpec(name, ColumnKind(kind_txt)))
        elif kind_txt.startswith("ordinal(") and kind_txt.endswith(")"):
            levels = tuple(s.strip() for s in kind_txt[len("ordinal(") : -1].split("<"))
            if len(levels) < 2 or any(not s for s in levels):
                raise SchemaError(f"ordinal declaration {kind_txt!r} needs >= 2 '<'-ordered levels")
            if len(set(levels)) != len(levels):
                raise SchemaError(f"ordinal declaration {kind_txt!r} has duplicate levels")
            specs.append(ColumnSpec(name, ColumnKind.ORDINAL, levels=levels))
        elif kind_txt.startswith("surv(") and kind_txt.endswith(")"):
            inner = [s.strip() for s in kind_txt[len("surv(") : -1].split(",")]
            if len(inner) != 2 or not all(inner):
                raise SchemaError(f"surv declaration {kind_txt!r} needs (time_field,event_field)")
            specs.append(
                ColumnSpec(
                    name, ColumnKind.RIGHT_CENSORED, time_field=inner[0], event_field=inner[1]
                )
            )
        else:
            raise SchemaError(f"unknown kind {kind_txt!r} for column {name!r}")
    if not specs:
        raise SchemaError("empty schema")
    if len({s.name for s in specs}) != len(specs):
        raise SchemaError("duplicate column names in schema")
    return tuple(specs)


def _split_outside_parens(
    text: str, sep: str, error: type[InputError] = SchemaError
) -> list[str]:
    """Split ``text`` at each ``sep`` outside parentheses; unbalanced
    parentheses raise ``error``."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise error(f"unbalanced parentheses in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise error(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return parts


@contextmanager
def _open_csv(path):
    """``path`` opened as UTF-8 text for :mod:`csv`.  A byte that does not
    decode raises :class:`SchemaError` naming the path and its offset."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # the decoder's input is the bytes read so far that it has not
            # yet decoded, so it ends at the file's read position
            offset = fh.buffer.tell() - len(exc.object) + exc.start
            raise SchemaError(f"{path}: byte {offset} is not UTF-8 text") from None


def load_csv(path, schema: str | tuple[ColumnSpec, ...]) -> Dataset:
    """Read a CSV file into a :class:`Dataset` following a schema.

    Header fields not named by the schema are ignored; a field the schema
    reads must appear in the header exactly once.  Cells that are empty or
    ``NA`` (after stripping blanks) are recorded as missing.  Malformed cells
    raise :class:`SchemaError` with the path and the row number (1-based,
    excluding header), and a file that is not UTF-8 with the offset of its
    first bad byte.  Every cell is parsed before any column is checked, so a
    malformed cell is reported ahead of a column that fails its kind's
    checks (:class:`InputError`).
    """
    if isinstance(schema, str):
        schema = parse_schema(schema)
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        rows = list(reader)
    index = {name: i for i, name in enumerate(header)}
    repeated = {name for i, name in enumerate(header) if index[name] != i}

    def field_idx(name: str) -> int:
        if name not in index:
            raise SchemaError(f"{path}: schema field {name!r} not in header {header}")
        if name in repeated:
            raise SchemaError(f"{path}: field {name!r} appears more than once in the header")
        return index[name]

    for rn, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {rn} has {len(row)} fields, expected {len(header)}")

    columns: list[partial] = []
    for spec in schema:
        where = f"{path}: column {spec.name!r}"
        censored = spec.kind is ColumnKind.RIGHT_CENSORED
        fields = (spec.time_field, spec.event_field) if censored else (spec.name,)
        toks = [[row[i] for row in rows] for i in map(field_idx, fields)]
        # a censored row is missing when either of its fields is
        miss = reduce(np.logical_or, map(_missing, toks))
        parsed = [_parse_cells(t, miss, where, spec.levels) for t in toks]
        # freed before the next entry's cells are taken, as the numeric parse
        # always did: the order sets the heap a scan's forked workers inherit
        del toks
        events, source_fields = (parsed[1], fields) if censored else (None, None)
        columns.append(
            partial(
                Column, spec.name, spec.kind, parsed[0], miss, spec.levels, events, source_fields
            )
        )
    # built after the parse, the columns' checked copies are allocated
    # together, not between the parse's temporaries: spread among those,
    # they made the heap that a scan's forked workers inherit fault more
    return Dataset(tuple(make() for make in columns))


def _missing(toks: list[str]) -> np.ndarray:
    """The one missing-cell rule: stripped of blanks, the cell is empty or ``NA``."""
    return np.fromiter(
        map(_MISSING_CELLS.__contains__, map(str.strip, toks)), dtype=bool, count=len(toks)
    )


def _parse_cells(toks: list[str], miss: np.ndarray, where: str, levels=None) -> np.ndarray:
    """Values of one field's cells, parsed whole: numbers, or the codes of the
    declared ``levels``; missing cells hold 0.

    A malformed or non-finite cell sends the field through
    :func:`_parse_cell` row by row, which raises for the first bad row.
    """
    parse = float if levels is None else {lbl: float(i) for i, lbl in enumerate(levels)}.__getitem__
    vals = np.zeros(len(toks))
    present = ~miss
    try:
        vals[present] = list(map(parse, compress(toks, present)))
    except (ValueError, KeyError):
        pass
    else:
        if np.isfinite(vals).all():
            return vals
    rows = np.flatnonzero(present)
    vals[rows] = [_parse_cell(toks[r], where, r + 1, levels) for r in rows]
    return vals


def _parse_cell(tok: str, where: str, rownum: int, levels=None) -> float:
    """One present cell: a finite number, or the code of one of the declared
    ``levels``; a bad cell raises :class:`SchemaError` naming its row."""
    if levels is not None:
        if tok not in levels:
            raise SchemaError(f"{where} row {rownum}: {tok!r} is not a declared level")
        return float(levels.index(tok))
    try:
        v = float(tok)
    except ValueError:
        raise SchemaError(f"{where} row {rownum}: cannot parse {tok!r}") from None
    if not math.isfinite(v):
        raise SchemaError(f"{where} row {rownum}: non-finite value {tok!r}")
    return v


def _format_number(v) -> str:
    """A number's cell text: its digits when whole, else its shortest
    round-trip ``repr``."""
    v = float(v)
    return str(int(v)) if v.is_integer() else repr(v)


def _format_cell(col: Column, i: int) -> str:
    if col.missing[i]:
        return MISSING_TOKEN
    v = col.values[i]
    if col.kind is ColumnKind.ORDINAL:
        return col.levels[int(v)]
    return _format_number(v)


def write_csv(d: Dataset, path) -> None:
    """Write a dataset back to CSV.

    Floats are rendered with shortest round-trip ``repr``, so reloading with
    the same schema reproduces the stored values bit for bit; missing cells
    are written as ``NA``.
    """
    header: list[str] = []
    for c in d.columns:
        if c.kind is ColumnKind.RIGHT_CENSORED:
            header.extend(c.source_fields)
        else:
            header.append(c.name)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(d.n):
            row: list[str] = []
            for c in d.columns:
                if c.kind is ColumnKind.RIGHT_CENSORED:
                    if c.missing[i]:
                        row.extend([MISSING_TOKEN, MISSING_TOKEN])
                    else:
                        row.append(_format_number(c.values[i]))
                        row.append(str(int(c.events[i])))
                else:
                    row.append(_format_cell(c, i))
            w.writerow(row)


def complete_cases(
    d: Dataset, cols: tuple[str, ...] | list[str]
) -> tuple[Dataset, np.ndarray]:
    """Drop rows with a missing value in any of ``cols``.

    Returns the filtered dataset and the original indices of the rows kept
    (``d.n - kept.size`` rows were removed).  Raises :class:`InputError`
    when nothing survives.
    """
    mask = np.ones(d.n, dtype=bool)
    for name in cols:
        mask &= ~d[name].missing
    kept = np.flatnonzero(mask)
    if kept.size == 0:
        raise InputError("no rows are complete in the required columns")
    if kept.size == d.n:
        return d, kept
    return d.take(kept), kept


# ---------------------------------------------------------------------------
# design matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """One model term: a column name plus an optional transform.

    ``transform`` is ``None`` (enter as-is / dummy-code), ``"log"``, or
    ``"rcs"`` with ``knots`` giving the knot count.
    """

    name: str
    transform: str | None = None
    knots: int | None = None

    def describe(self) -> str:
        if self.transform == "log":
            return f"log({self.name})"
        if self.transform == "rcs":
            return f"rcs({self.name},{self.knots})"
        return self.name


@dataclass(frozen=True)
class DesignMatrix:
    """A dense design matrix with named columns (no intercept column).

    Intercepts belong to the fitters: cumulative-link models carry one per
    outcome cut point and the parametric families add their own.
    """

    matrix: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2:
            raise InputError("design matrix must be 2-d")
        if len(self.names) != m.shape[1]:
            raise InputError("design column names do not match matrix width")
        if not np.all(np.isfinite(m)):
            raise InputError("design matrix has non-finite entries; run complete_cases first")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]

    def take(self, idx: np.ndarray) -> "DesignMatrix":
        """Row subset / resample, unchecked as :meth:`Column.take` is."""
        return _taken(self, matrix=self.matrix[idx])


def _check_intercept_rank(m: np.ndarray) -> None:
    """Reject design columns ``m`` collinear with the intercept (for orm-*, the
    cut points) every family fits: rank [1, m] < p + 1, as rank of m centred < p."""
    if m.shape[1] and np.linalg.matrix_rank(m - m.mean(axis=0)) < m.shape[1]:
        raise InputError("design matrix is rank deficient once an intercept is added")


def build_design(d: Dataset, terms: list[Term] | tuple[Term, ...]) -> DesignMatrix:
    """Assemble a design matrix from dataset columns.

    Raises on missing values among the referenced columns, on categorical
    terms with fewer than two observed levels, on constant columns, and on
    exact collinearity of the columns and an intercept (rank deficiency).
    """
    blocks: list[np.ndarray] = []
    names: list[str] = []
    for term in terms:
        col = d[term.name]
        if col.missing.any():
            raise InputError(
                f"term {term.describe()!r}: column has missing values; run complete_cases first"
            )
        if col.kind is ColumnKind.RIGHT_CENSORED:
            raise InputError(f"term {term.describe()!r}: censored columns cannot be predictors")
        x = col.values
        if term.transform == "log":
            if np.any(x <= 0):
                raise InputError(f"term {term.describe()!r}: log needs strictly positive values")
            blocks.append(np.log(x)[:, None])
            names.append(term.describe())
        elif term.transform == "rcs":
            if col.kind is ColumnKind.ORDINAL:
                raise InputError(f"term {term.describe()!r}: rcs needs a numeric column")
            basis = rcs_basis(x, term.knots)
            blocks.append(basis)
            names.append(term.name)
            names.extend(term.name + "'" * j for j in range(1, basis.shape[1]))
        elif col.kind is ColumnKind.ORDINAL:
            observed = np.unique(x)
            if observed.size < 2:
                raise InputError(f"term {term.describe()!r}: fewer than 2 observed levels")
            # reference-cell coding over the observed levels: the lowest is the reference
            blocks.append(np.equal.outer(x, observed[1:]).astype(float))
            names.extend(f"{term.name}=={col.levels[int(j)]}" for j in observed[1:])
        else:
            blocks.append(x[:, None])
            names.append(term.name)
    if not blocks:
        raise InputError("no terms supplied")
    m = np.hstack(blocks)
    ptp = m.max(axis=0) - m.min(axis=0)
    flat = np.flatnonzero(ptp == 0)
    if flat.size:
        raise InputError(f"design column {names[flat[0]]!r} is constant")
    _check_intercept_rank(m)
    return DesignMatrix(m, tuple(names))


# default knot placement quantiles, indexed by knot count; the 3- and
# 4-knot rows are the workhorse defaults, the rest follow the same
# conventional table
_DEFAULT_KNOT_QUANTILES = {
    3: (0.10, 0.50, 0.90),
    4: (0.05, 0.35, 0.65, 0.95),
    5: (0.05, 0.275, 0.50, 0.725, 0.95),
    6: (0.05, 0.23, 0.41, 0.59, 0.77, 0.95),
    7: (0.025, 0.1833, 0.3417, 0.50, 0.6583, 0.8167, 0.975),
}


def rcs_knots(x: np.ndarray, k: int) -> np.ndarray:
    """Default knot locations: quantiles of ``x`` at conventional positions."""
    if k not in _DEFAULT_KNOT_QUANTILES:
        raise InputError(f"no default knot placement for k={k}; supply knots explicitly")
    knots = np.quantile(np.asarray(x, dtype=float), _DEFAULT_KNOT_QUANTILES[k])
    if np.any(np.diff(knots) <= 0):
        raise InputError("default knots are not distinct; supply knots explicitly")
    return knots


def rcs_basis(x, k: int | None = None, knots=None) -> np.ndarray:
    """Restricted cubic spline basis: k-1 columns, linear beyond the boundary knots.

    The first column is ``x`` itself; the j-th nonlinear column (j = 1..k-2) is

        [(x - t_j)+^3 - (x - t_{k-1})+^3 (t_k - t_j)/(t_k - t_{k-1})
                     + (x - t_k)+^3 (t_{k-1} - t_j)/(t_k - t_{k-1})] / (t_k - t_1)^2

    which vanishes below the first knot and has zero second derivative beyond
    the boundary knots.  Knots default to conventional quantiles of ``x``.
    """
    x = np.asarray(x, dtype=float)
    if knots is None:
        if k is None or k < 3:
            raise InputError("rcs needs a knot count >= 3")
        if np.unique(x).size < k:
            raise InputError(f"rcs with k={k} needs at least {k} distinct values")
        knots = rcs_knots(x, k)
    else:
        knots = np.asarray(knots, dtype=float)
        if k is not None and knots.size != k:
            raise InputError("explicit knots disagree with knot count")
        if knots.size < 3:
            raise InputError("rcs needs at least 3 knots")
        if np.any(np.diff(knots) <= 0):
            raise InputError("knots must be strictly increasing")
    t = knots
    k = t.size
    norm = (t[-1] - t[0]) ** 2
    cols = [x]
    for j in range(k - 2):
        term = (
            np.clip(x - t[j], 0, None) ** 3
            - np.clip(x - t[-2], 0, None) ** 3 * (t[-1] - t[j]) / (t[-1] - t[-2])
            + np.clip(x - t[-1], 0, None) ** 3 * (t[-2] - t[j]) / (t[-1] - t[-2])
        )
        cols.append(term / norm)
    return np.column_stack(cols)
