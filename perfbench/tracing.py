"""The traced run: spans around calls into each psrkit module, and the
per-layer metrics derived from them.

Tracing is done from outside the program.  ``Patches`` replaces every
public function of each psrkit module (its ``__all__``), and the ``take``
methods of the data-model containers, with a wrapper that records a span:
an identifier, the span that caused it, the operation it belongs to, its
name, its layer (module), its start and end, and a few attributes of the
result (Newton iterations, capped coefficients, errors).  Spans stay in
memory and are written to one JSON file when the run ends.

A traced run first runs the named workload's round in-process once to
warm up, then twice without spans and twice with spans, alternating; the
difference of the mean wall times is the tracing overhead.  It then runs the layer probes
of every workload, so that each run reports every per-layer metric.
Spans made inside the worker processes of a multi-worker scan are not
collected.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field

import checks as C
import conditional
import workloads as W

LAYERS = (
    "cli",
    "data_model",
    "formula",
    "estimators",
    "fitted_dist",
    "psr",
    "rank_association",
    "diagnostics",
)
IMPORT_REPEATS = 3
OVERHEAD_PAIRS = 2
_ITERATIONS = re.compile(r"after (\d+) iterations")


@dataclass
class Span:
    id: int
    parent: int | None
    op: str | None
    name: str
    layer: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``operation`` tags every span opened inside it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._next_id = 1

    @contextlib.contextmanager
    def operation(self, op_id: str):
        self.op = op_id
        try:
            yield
        finally:
            self.op = None

    def wrap(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(self._next_id, self._stack[-1] if self._stack else None,
                        self.op, name, layer, 0.0, 0.0)
            self._next_id += 1
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                m = _ITERATIONS.search(str(exc))
                if m:
                    span.attrs["iterations"] = int(m.group(1))
                raise
            else:
                if hasattr(result, "iterations") and hasattr(result, "notes"):
                    span.attrs["iterations"] = int(result.iterations)
                    span.attrs["capped"] = any("capped" in n for n in result.notes)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)

        return traced


class Patches:
    """The wrapped public functions, which can be switched on and off."""

    def __init__(self, tracer: Tracer) -> None:
        self.items: list[tuple[object, str, object, object]] = []
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"psrkit.{layer}")
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = tracer.wrap(obj, layer, f"{layer}.{name}")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "psrkit" or mod_name.startswith("psrkit."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in wrapped:
                        self.items.append((mod, attr, val, wrapped[id(val)]))
        dm = importlib.import_module("psrkit.data_model")
        for cls in (dm.Column, dm.Dataset, dm.DesignMatrix):
            wrapper = tracer.wrap(cls.take, "data_model", f"data_model.{cls.__name__}.take")
            self.items.append((cls, "take", cls.take, wrapper))

    def on(self) -> None:
        for target, attr, _, wrapper in self.items:
            setattr(target, attr, wrapper)

    def off(self) -> None:
        for target, attr, original, _ in self.items:
            setattr(target, attr, original)


# ---------------------------------------------------------------------------
# running operations in-process
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _in_dir(path: str):
    prev = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(prev)


def run_cli(work: str, args, stdout: str | None = None) -> int:
    from psrkit import cli

    with _in_dir(work):
        sink = open(stdout, "w", encoding="utf-8") if stdout else io.StringIO()
        with sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            return cli.run(list(args))


def run_op(work: str, op: W.Op) -> int:
    if op.program == "cli":
        return run_cli(work, op.args, op.stdout)
    with _in_dir(work):
        return conditional.main(list(op.args))


def _round(work: str, ops, tracer: Tracer, label: str) -> tuple[float, dict]:
    exits = {}
    start = time.perf_counter()
    for op in ops:
        with tracer.operation(f"{label}.{op.name}"):
            exits[op.name] = run_op(work, op)
    return time.perf_counter() - start, exits


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


class Spans:
    def __init__(self, spans: list[Span]) -> None:
        self.by_id = {s.id: s for s in spans}
        self.by_op: dict[str, list[Span]] = {}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            self.by_op.setdefault(s.op, []).append(s)
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, op: str, name: str) -> list[Span]:
        return [s for s in self.by_op.get(op, []) if s.name == name]

    def total(self, op: str, name: str) -> float:
        return sum(s.duration for s in self.named(op, name))

    def one(self, op: str, name: str) -> Span:
        found = self.named(op, name)
        if len(found) != 1:
            raise RuntimeError(f"expected one {name} span in {op}, found {len(found)}")
        return found[0]

    def layer_time(self, op: str, layer: str) -> float:
        """Time inside a layer, counting nested calls within the layer once."""
        return sum(
            s.duration
            for s in self.by_op.get(op, [])
            if s.layer == layer
            and (s.parent is None or self.by_id[s.parent].layer != layer)
        )

    def self_time(self, span: Span) -> float:
        return span.duration - sum(c.duration for c in self.children.get(span.id, []))

    def sum_attr(self, op: str, name: str, key: str) -> int:
        return sum(int(s.attrs.get(key, 0)) for s in self.named(op, name))


# ---------------------------------------------------------------------------
# layer probes
# ---------------------------------------------------------------------------

FIT = "estimators.fit_cumulative_link"


def _import_tree(stderr: str) -> list[tuple[int, str, float]]:
    """(depth, module, cumulative seconds) per ``-X importtime`` line."""
    out = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1]) * 1e-6
        except ValueError:
            continue  # the header line
        name = parts[2].rstrip()
        out.append((len(name) - len(name.lstrip()), name.strip(), cumulative))
    return out


def probe_imports(env: dict) -> dict:
    """Import time of psrkit.cli, and the part of it spent in scipy.stats.

    ``-X importtime`` prints a module after the modules it imports, so a
    line's parent is the next line with a smaller depth.  The scipy.stats
    share sums the scipy.stats modules whose parent is outside scipy.stats
    (scipy's lazy loader leaves no line for the package itself).
    """
    totals, stats_times = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import psrkit.cli"],
            env=env, capture_output=True, text=True, check=True,
        )
        tree = _import_tree(proc.stderr)
        top = min(depth for depth, _, _ in tree)
        total = sum(c for depth, name, c in tree if depth == top and name.startswith("psrkit"))
        in_stats = 0.0
        ancestors: list[tuple[int, str]] = []
        for depth, name, c in reversed(tree):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            parent = ancestors[-1][1] if ancestors else ""
            if name.startswith("scipy.stats") and not parent.startswith("scipy.stats"):
                in_stats += c
            ancestors.append((depth, name))
        totals.append(total)
        stats_times.append(in_stats)
    return {
        "cli.import_s": statistics.median(totals),
        "cli.import_scipy_stats_s": statistics.median(stats_times),
    }


def probe_scan(tr: Tracer, work: str, info: dict, seed: int, errs: list[str]) -> dict:
    runs = {
        "scan.1w": (W.SCAN_PERM, 1, {}),
        "scan.perm0": (0, 1, {}),
        "scan.2w": (W.SCAN_PERM, 2, {}),
        "scan.io": (0, 1, {"x_model": "empirical", "y_model": "empirical"}),
    }
    for op, (n_perm, threads, models) in runs.items():
        with tr.operation(op):
            rc = run_cli(work, W.scan_args(info, seed, n_perm, threads, f"trace_{op}.csv", **models))
        if rc != 0:
            errs.append(f"trace {op}: exit code {rc}")
    with open(os.path.join(work, "trace_scan.1w.csv"), "rb") as a, \
            open(os.path.join(work, "trace_scan.2w.csv"), "rb") as b:
        if a.read() != b.read():
            errs.append("trace: the 1-worker scan differs from the 2-worker scan")
    rows = C.read_csv(os.path.join(work, "trace_scan.1w.csv"))
    status = [r["status"] for r in rows]
    s = Spans(tr.spans)
    batch = "rank_association.batch_partial_spearman"
    scan_s = s.one("scan.1w", batch).duration
    pool_s = s.one("scan.2w", batch).duration
    return {
        "cli.scan_io_s": s.one("scan.io", "cli.run").duration,
        "estimators.scan_fit_s": s.layer_time("scan.1w", "estimators"),
        "estimators.scan_fits": len(s.named("scan.1w", FIT)),
        "estimators.scan_newton_iterations": s.sum_attr("scan.1w", FIT, "iterations"),
        "estimators.scan_capped": s.sum_attr("scan.1w", FIT, "capped"),
        "psr.scan_psr_s": s.layer_time("scan.1w", "psr"),
        "rank_association.scan_s": scan_s,
        "rank_association.scan_perm_s": scan_s - s.one("scan.perm0", batch).duration,
        "rank_association.perm_draws": W.SCAN_PERM * status.count("ok"),
        "rank_association.scan_pool_s": pool_s,
        "rank_association.pool_speedup": scan_s / pool_s,
        "rank_association.scan_ok": status.count("ok"),
        "rank_association.scan_degenerate": status.count("degenerate"),
        "rank_association.scan_failed": status.count("failed"),
    }


def probe_assoc(tr: Tracer, work: str, info: dict, seed: int, errs: list[str]) -> dict:
    from psrkit import data_model, formula, rank_association as ra

    with tr.operation("pcor.base"):
        d = data_model.load_csv(os.path.join(work, info["pcor"]), info["pcor_schema"])
        Z = data_model.build_design(d, formula.parse_term_list(info["pcor_z"]))
    margins = {"x_model": "orm-logit", "y_model": "orm-logit"}
    pcor = {
        "pcor.base": {"n_boot": 0, "n_perm": 0},
        "pcor.boot": {"n_boot": W.PCOR_BOOT, "n_perm": 0, "seed": seed},
        "pcor.perm": {"n_boot": 0, "n_perm": W.PCOR_PERM, "seed": seed},
    }
    results = {}
    for op, kw in pcor.items():
        with tr.operation(op):
            results[op] = ra.partial_spearman(d["x"], d["y"], Z, **margins, **kw)
    notes = results["pcor.boot"].notes
    boot_failed = int(notes[0].split()[0]) if notes else 0
    if boot_failed:
        errs.append(f"trace pcor: {notes[0]}")

    matrix = W.assoc_ops(info, seed)[1]
    with tr.operation("matrix"):
        rc = run_cli(work, matrix.args)
    if rc != 0:
        errs.append(f"trace matrix: exit code {rc}")

    with tr.operation("cond.load"):
        c = data_model.load_csv(os.path.join(work, info["cond"]), info["cond_schema"])
    cond = {
        "cond.base": {},
        "cond.perm": {"n_perm": conditional.N_PERM, "seed": seed},
        "cond.boot": {"n_boot": conditional.N_BOOT, "seed": seed},
    }
    for op, kw in cond.items():
        with tr.operation(op):
            ra.conditional_spearman(c["x"], c["y"], c["z"], n_grid=conditional.N_GRID, **kw)

    s = Spans(tr.spans)
    ps = "rank_association.partial_spearman"
    cs = "rank_association.conditional_spearman"

    def extra(op: str, base: str, name: str) -> float:
        return s.total(op, name) - s.total(base, name)

    def ok_margins(op: str) -> int:
        return sum("error" not in sp.attrs for sp in s.named(op, "rank_association.margin_psr"))

    def extra_layer(layer: str) -> float:
        return s.layer_time("pcor.boot", layer) - s.layer_time("pcor.base", layer)

    return {
        "data_model.build_design_s": s.total("pcor.base", "data_model.build_design"),
        "data_model.boot_take_s": s.layer_time("pcor.boot", "data_model"),
        "estimators.boot_fit_s": extra_layer("estimators"),
        "estimators.boot_newton_iterations": s.sum_attr("pcor.boot", FIT, "iterations")
        - s.sum_attr("pcor.base", FIT, "iterations"),
        "psr.boot_psr_s": extra_layer("psr"),
        "rank_association.pcor_boot_s": extra("pcor.boot", "pcor.base", ps),
        "rank_association.pcor_perm_s": extra("pcor.perm", "pcor.base", ps),
        # each replicate that is kept refits both margins
        "rank_association.boot_replicates": (ok_margins("pcor.boot") - ok_margins("pcor.base"))
        // 2,
        "rank_association.boot_failed": boot_failed,
        "rank_association.matrix_s": s.total("matrix", "rank_association.correlation_matrix"),
        "rank_association.matrix_pairs": len(s.named("matrix", "rank_association.spearman")),
        "rank_association.cond_perm_s": extra("cond.perm", "cond.base", cs),
        "rank_association.cond_boot_s": extra("cond.boot", "cond.base", cs),
    }


def probe_modelcheck(tr: Tracer, work: str, info: dict, seed: int, errs: list[str]) -> dict:
    exits = {}
    ops = W.modelcheck_ops(info, seed)
    for op in ops:
        with tr.operation(f"modelcheck.{op.name}"):
            exits[op.name] = run_op(work, op)
    errs += [f"trace modelcheck.{e}" for e in W.exit_errors(ops, exits)]
    s = Spans(tr.spans)
    large = s.named("modelcheck.fit_large", FIT)
    cmds = ("modelcheck.fit", "modelcheck.psr", "modelcheck.diag")
    diag = "modelcheck.diag"
    return {
        "cli.psr_self_s": s.self_time(s.one("modelcheck.psr", "cli.run")),
        "data_model.load_csv_s": sum(s.total(op, "data_model.load_csv") for op in cmds),
        "estimators.fit_s": s.total("modelcheck.fit", FIT),
        "estimators.newton_iterations": s.sum_attr("modelcheck.fit", FIT, "iterations"),
        "estimators.fit_large_s": sum(sp.duration for sp in large),
        "estimators.fit_large_iterations": sum(sp.attrs.get("iterations", 0) for sp in large),
        "estimators.fit_large_failed": int(exits["fit_large"] != 0),
        "psr.psr_all_s": sum(s.total(op, "psr.psr_all") for op in cmds[1:]),
        "diagnostics.lowess_s": s.total(diag, "diagnostics.lowess"),
        "diagnostics.lowess_calls": len(s.named(diag, "diagnostics.lowess")),
        "diagnostics.ks_s": s.total(diag, "diagnostics.ks_uniform"),
        "diagnostics.qq_s": s.total(diag, "diagnostics.qq_uniform"),
        "diagnostics.render_s": s.total(diag, "diagnostics.render_qq")
        + s.total(diag, "diagnostics.render_residual"),
        "diagnostics.svg_bytes": sum(
            os.path.getsize(os.path.join(work, f)) for f in ("qq.svg", "age.svg", "bmi.svg")
        ),
    }


PROBES = {"scan": probe_scan, "assoc": probe_assoc, "modelcheck": probe_modelcheck}


def traced_run(workload: str, work: str, infos: dict, seed: int, env: dict):
    """Returns (metrics, errors, attempted, failed) and writes spans.json."""
    ops_of, check = W.WORKLOADS[workload]
    ops = ops_of(infos[workload], seed)
    errs: list[str] = []
    tracer = Tracer()
    patches = Patches(tracer)
    walls = {False: [], True: []}
    outcomes = []
    # the first, untraced round warms up lazy imports and caches and is not timed
    schedule = [False] + [False, True] * OVERHEAD_PAIRS
    for i, traced in enumerate(schedule):
        (patches.on if traced else patches.off)()
        wall, exits = _round(work, ops, tracer, f"round{i}")
        if i:
            walls[traced].append(wall)
        outcomes.append((exits, W.hash_outputs(work, ops)))
        errs += [f"round {i}: {e}" for e in W.exit_errors(ops, exits)]
    patches.off()  # the checks' own calls into psrkit are not traced
    if any(o != outcomes[0] for o in outcomes):
        errs.append("trace: traced and untraced rounds gave different outputs")
    if not errs:
        errs += check(work, infos[workload], outcomes[0][0])
    patches.on()
    attempted = len(outcomes) * len(ops)
    failed = sum(rc != 0 for exits, _ in outcomes for rc in exits.values())

    metrics = {
        "trace.overhead_s": statistics.mean(walls[True]) - statistics.mean(walls[False])
    }
    metrics.update(probe_imports(env))
    for name, probe in PROBES.items():
        metrics.update(probe(tracer, work, infos[name], seed, errs))
    with open(os.path.join(work, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "spans": [asdict(sp) for sp in tracer.spans]}, fh)
    return metrics, errs, attempted, failed
