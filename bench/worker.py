"""One workload process: set up, run operations in a closed loop, report.

run.py starts this file in a fresh interpreter; it prints one JSON line.

  python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 [--tiny] [--setup-only]

Untraced, it runs whole rounds until --seconds have passed and reports
every operation's wall time and check result, the monotonic time at which
set-up ended and the peak resident memory.  Traced, it runs each
operation of round 0 once untraced and once traced (on a fresh copy of
the same inputs) and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

OP_TIMEOUT_S = 60.0
REF_EVERY_S = 0.25       # operation time between two reference-kernel samples
SETUP_REFS = 9           # reference-kernel samples right after set-up

# per-layer metric -> unit, in the order they are printed
PER_LAYER = {
    "fan.validate.calls": "count",
    "fan.validate.s": "s",
    "fan.is_general_position.calls": "count",
    "fan.is_general_position.s": "s",
    "fan.dual_complex.s": "s",
    "geometry.realize.calls": "count",
    "geometry.realize.s": "s",
    "geometry.reconstruct.calls": "count",
    "geometry.reconstruct.s": "s",
    "geometry.gauge_fix.calls": "count",
    "geometry.gauge_fix.s": "s",
    "solver.solve_minkowski.s": "s",
    "solver.self_s": "s",
    "solver.validate_target.s": "s",
    "solver.steps_accepted": "count",
    "solver.realize_per_step": "ratio",
    "solver.jacobian_analytic.s": "s",
    "solver.jacobian_fd.s": "s",
    "solver.area_map.s": "s",
    "congruence.congruent_and_parallel.s": "s",
    "congruence.self_s": "s",
    "congruence.linprog.calls": "count",
    "congruence.linprog.s": "s",
    "congruence.lp_per_verdict": "ratio",
    "congruence.can_translate_inside.calls": "count",
    "congruence.label_parallel_faces.calls": "count",
    "congruence.label_parallel_faces.s": "s",
    "congruence.face_polygon_2d.s": "s",
    "congruence.edge_labeling.calls": "count",
    "congruence.cauchy_verdict.calls": "count",
    "congruence.congruent.p50_s": "s",
    "congruence.not_congruent.p50_s": "s",
    "cli.import_s": "s",
    "cli.import.scipy_optimize_s": "s",
    "cli.main.s": "s",
    "io.load_fan.s": "s",
    "io.load_herisson.s": "s",
    "io.save.s": "s",
    "io.export_obj.s": "s",
    "io.export_svg.s": "s",
    "trace_overhead_frac": "ratio",
}


def run_op(op, tracer=None, index=-1):
    """Time one operation and check its result.

    Returns ((kind, seconds, error, start), result); start is
    perf_counter() at the call, to place the operation among the
    reference-kernel samples."""
    if tracer is not None:
        tracer.op = index
    start = time.perf_counter()
    try:
        result = op.call()
        error = None
    except Exception as exc:  # any escape is a failed operation, not a crash
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is None and elapsed > OP_TIMEOUT_S:
        error = f"timed out ({elapsed:.1f} s)"
    return (op.kind, elapsed, error, start), result


_REF_SMALL = np.eye(3) + 0.1
_REF_DENSE = np.random.default_rng(0).standard_normal((120, 120))


def reference_kernel() -> tuple[float, float]:
    """(end time, seconds) of fixed work shaped like the package's: small
    numpy calls from a Python loop, then dense least squares at m=120.
    It does not call the package; run.py scales times by it."""
    a = _REF_SMALL
    start = time.perf_counter()
    for _ in range(500):
        np.linalg.norm(np.cross(a[0], a[1])) + np.linalg.det(a)
    for _ in range(3):
        np.linalg.lstsq(_REF_DENSE, a[0].repeat(40), rcond=None)
    end = time.perf_counter()
    return end, end - start


def run_rounds(rounds, seconds: float):
    """Closed loop, one caller: whole rounds until the deadline has passed,
    with a reference-kernel sample between operations every REF_EVERY_S."""
    records, refs = [], []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for op in rounds[r % len(rounds)]:
            if not refs or time.perf_counter() - refs[-1][0] >= REF_EVERY_S:
                refs.append(reference_kernel())
            records.append(run_op(op)[0])
        r += 1
    refs.append(reference_kernel())
    return records, refs


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def import_probe() -> tuple[float, float]:
    """Fresh-interpreter `import herisson` (median of 3) and the cumulative
    time of scipy.optimize under -X importtime (0 when it is not imported)."""
    code = "import time; t = time.perf_counter(); import herisson; print(time.perf_counter() - t)"
    plain = [
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60).stdout)
        for _ in range(3)
    ]
    timed = subprocess.run([sys.executable, "-X", "importtime", "-c", "import herisson"],
                           capture_output=True, text=True, check=True, timeout=60).stderr
    scipy_us = 0
    for line in timed.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "scipy.optimize" and re.match(r"\s*\d", fields[1]):
            scipy_us = int(fields[1])
    return statistics.median(plain), scipy_us / 1e6


def direct_calls(ops) -> dict:
    """jacobian (both modes) and area_map on the round's solve fans at their
    seed supports, called directly; fd only on the fd-share fans."""
    from herisson import solver

    out = {"solver.jacobian_analytic.s": 0.0, "solver.jacobian_fd.s": 0.0, "solver.area_map.s": 0.0}
    for op in ops:
        if op.fan is None:
            continue
        calls = [("solver.jacobian_analytic.s", lambda: solver.jacobian(op.fan, op.h0, mode="analytic")),
                 ("solver.area_map.s", lambda: solver.area_map(op.fan, op.h0))]
        if op.kind.startswith("solve_fd"):
            calls.append(("solver.jacobian_fd.s", lambda: solver.jacobian(op.fan, op.h0, mode="fd")))
        for name, call in calls:
            start = time.perf_counter()
            call()
            out[name] += time.perf_counter() - start
    return out


def traced_metrics(name, seed, tiny, workdir):
    """Round 0 untraced and a fresh copy of it traced, operation by
    operation; per-layer metrics."""
    inproc = name == "cli_calls"
    plain = workloads.build(name, seed, tiny, workdir, inprocess=inproc, rounds=1)[0]
    tracer = Tracer()
    tracer.install()
    traced = workloads.build(name, seed, tiny, workdir, inprocess=inproc, rounds=1)[0]
    tracer.uninstall()
    for op in workloads.build(name, seed, True, workdir, inprocess=inproc, rounds=1)[0][:2]:
        run_op(op)
    plain_records, traced_records, results = [], [], []
    for i, (plain_op, traced_op) in enumerate(zip(plain, traced)):   # pairs share the machine's speed
        plain_records.append(run_op(plain_op)[0])
        tracer.install()
        record, result = run_op(traced_op, tracer, i)
        tracer.uninstall()
        traced_records.append(record)
        results.append(result)

    calls, total, self_s = tracer.totals()
    metrics = {}
    for key in PER_LAYER:
        stem, _, field = key.rpartition(".")
        metrics[key] = float(calls.get(stem, 0)) if field == "calls" else total.get(stem, 0.0)
    metrics["solver.self_s"] = self_s.get("solver.solve_minkowski", 0.0)
    metrics["congruence.self_s"] = self_s.get("congruence.congruent_and_parallel", 0.0)
    steps = sum(len(r.trace) - 1 for r in results if hasattr(r, "trace"))
    metrics["solver.steps_accepted"] = float(steps)
    metrics["solver.realize_per_step"] = calls.get("geometry.realize", 0) / steps if steps else 0.0
    verdicts = calls.get("congruence.congruent_and_parallel", 0)
    metrics["congruence.lp_per_verdict"] = calls.get("congruence.linprog", 0) / verdicts if verdicts else 0.0
    for verdict in ("congruent", "not_congruent"):    # op kinds start with the expected verdict
        times = [r[1] for r in plain_records if r[0].startswith(verdict)]
        metrics[f"congruence.{verdict}.p50_s"] = statistics.median(times) if times else 0.0
    metrics.update(direct_calls(plain))
    metrics["cli.import_s"], metrics["cli.import.scipy_optimize_s"] = import_probe()
    metrics["trace_overhead_frac"] = (
        sum(r[1] for r in traced_records) / sum(r[1] for r in plain_records) - 1.0
    )
    return plain_records + traced_records, metrics, tracer.missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path.cwd() / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            records, metrics, missing = traced_metrics(args.workload, args.seed, args.tiny, workdir)
            out = {"records": records, "metrics": metrics, "missing_sites": missing}
        else:
            rounds = workloads.build(args.workload, args.seed, args.tiny, workdir)
            warm = workloads.build(args.workload, args.seed, True, workdir, rounds=1)[0]
            for op in warm[:1] if args.workload == "cli_calls" else warm[:2]:
                run_op(op)
            setup_end = time.monotonic()
            out = {"setup_end": setup_end, "setup_refs": [reference_kernel()[1] for _ in range(SETUP_REFS)]}
            if args.setup_only:
                print(json.dumps(out))
                return 0
            out["records"], out["refs"] = run_rounds(rounds, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    import scipy

    out.update(peak_rss_mb=peak_rss_mb(), numpy=np.__version__, scipy=scipy.__version__)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
