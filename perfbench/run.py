#!/usr/bin/env python3
"""End-to-end benchmark of psrkit.

Usage, from the repository root:

    python3 perfbench/run.py --workload {scan,assoc,modelcheck} --seed N \\
        --seconds S --trace {0,1}

The inputs are made from ``--seed`` (see gen.py).  With ``--trace 0`` the
workload's operations run as ``python -m psrkit.cli`` commands against
``./src``, in whole rounds, until ``--seconds`` have passed; the set-up
time is sampled as ``psr-kit --version`` round trips before the first
round and before each round.  With
``--trace 1`` the operations run in-process with spans around every call
into a psrkit module (see tracing.py).  Either way the outputs are checked
(see checks.py) and the last line printed is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: set-up samples: a few before the first round, then one before each
#: round, so that the median spans the run
SETUP_FIRST = 2
SETUP_MIN = 5
#: every run must end within 180 s; an operation still running at this
#: point since the start is killed and counted as failed
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Sample:
    wall: float
    cpu: float
    maxrss_mb: float
    exit: int


def run_program(cmd, cwd: str, env: dict, stdout: str | None, stderr: str, deadline: float) -> Sample:
    """Run one program process and collect its wall time and resource use.

    ``os.wait4`` reports the user+sys time and peak resident set of the
    process together with the children it waited for (scan workers).
    """
    with open(stdout or os.devnull, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        lock = threading.Lock()
        done = False

        def kill() -> None:
            with lock:
                if not done:
                    proc.kill()

        timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            with lock:
                done = True
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def program(op) -> list[str]:
    if op.program == "cli":
        return [sys.executable, "-m", "psrkit.cli", *op.args]
    return [sys.executable, os.path.join(HERE, "conditional.py"), *op.args]


def measure(workload, ops, check, work, info, env, seconds, deadline):
    errs: list[str] = []
    setup: list[float] = []

    def time_setup() -> None:
        s = run_program(
            [sys.executable, "-m", "psrkit.cli", "--version"], work, env,
            os.path.join(work, "version.txt"), os.path.join(work, "version.err"), deadline,
        )
        with open(os.path.join(work, "version.txt"), encoding="utf-8") as fh:
            if s.exit != 0 or not fh.read().startswith("psr-kit "):
                errs.append("setup: psr-kit --version failed")
        setup.append(s.wall)

    for _ in range(SETUP_FIRST):
        time_setup()
    rounds: list[dict[str, Sample]] = []
    first_hashes = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        time_setup()
        samples = {}
        for op in ops:
            samples[op.name] = run_program(
                program(op), work, env,
                os.path.join(work, op.stdout) if op.stdout else None,
                os.path.join(work, f"{op.name}.err"), deadline,
            )
        rounds.append(samples)
        hashes = workloads.hash_outputs(work, ops)
        if first_hashes is None:
            first_hashes = hashes
        elif hashes != first_hashes:
            errs.append(f"round {len(rounds)}: outputs differ from round 1 with the same seed")
        exits = {name: s.exit for name, s in samples.items()}
        if exits != {name: s.exit for name, s in rounds[0].items()}:
            errs.append(f"round {len(rounds)}: exit codes differ from round 1")
        if time.monotonic() > deadline:
            break
    while len(setup) < SETUP_MIN:
        time_setup()
    exits = {name: s.exit for name, s in rounds[0].items()}
    errs += workloads.exit_errors(ops, exits)
    if not errs:
        errs += check(work, info, exits)

    for op in ops:
        walls = [r[op.name].wall for r in rounds]
        print(f"{workload}.{op.name}: median {statistics.median(walls):.3f} s over "
              f"{len(walls)} runs, exit {exits[op.name]}")
    if workload == "scan":
        scan_wall = statistics.median(r["scan"].wall for r in rounds)
        print(f"scan: {gen.SCAN_PREDICTORS / scan_wall:.1f} predictors/s")
        status = [r["status"] for r in checks.read_csv(os.path.join(work, "scan_out.csv"))]
        print(f"scan: {status.count('failed')} predictors reported failed")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(s.wall for s in r.values()) for r in rounds),
        "cpu_s": statistics.median(sum(s.cpu for s in r.values()) for r in rounds),
        "peak_rss_mb": max(s.maxrss_mb for r in rounds for s in r.values()),
    }
    attempted = len(ops) * len(rounds)
    failed = sum(s.exit != 0 for r in rounds for s in r.values())
    return metrics, errs, attempted, failed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "psrkit", "cli.py")):
        print("perfbench: ./src/psrkit not found; run from the repository root",
              file=sys.stderr)
        return 1
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ops_of, check = workloads.WORKLOADS[args.workload]
    if args.trace:
        infos = {w: gen.make_inputs(w, args.seed, work) for w in workloads.WORKLOADS}
        metrics, errs, attempted, failed = tracing.traced_run(
            args.workload, work, infos, args.seed, env
        )
    else:
        info = gen.make_inputs(args.workload, args.seed, work)
        metrics, errs, attempted, failed = measure(
            args.workload, ops_of(info, args.seed), check, work, info, env,
            args.seconds, deadline,
        )
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError("measured metrics differ from those BENCHMARK.json declares")
    for e in errs:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
