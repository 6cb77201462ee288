"""Benchmark entry point: one workload, one seed, one result line.

Run from the root of a checkout:

  python3 bench/run.py --workload solve_polar --seed 1 --seconds 20 --trace 0

Untraced (--trace 0), it starts the workload process (bench/worker.py) once
to measure, plus SETUP_PROBES more times to set up only, and prints the
end-to-end metrics: ops_per_s, op_p50_s, setup_s (median of the set-ups)
and peak_rss_mb, with fail_frac in the table above the result.  Times are
scaled to reference speed: the worker times a fixed reference kernel
between operations, and each operation's time is multiplied by
REF_NOMINAL_S over the kernel's median time around it (set-up: right
after it, in the same process).  The table also shows raw values.  Traced
(--trace 1), it prints the per-layer metrics.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

The package is taken from ./src; the run fails without printing a result
when ./src/herisson is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import KNOWN_DEFECT, WORKLOADS  # noqa: E402

SETUP_PROBES = 2         # extra set-up-only processes; setup_s is the median of 1 + SETUP_PROBES
DEADLINE_S = 175.0       # whole run, probes included
BLAS_THREADS = 1         # one caller; never more BLAS threads than cores
REF_NOMINAL_S = 0.02     # reference-kernel time that defines reference speed (see NOTES.md)
REF_WINDOW_S = 1.0       # reference samples this close to an operation set its speed

END_TO_END = {"ops_per_s": "1/s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def git_head(root: Path) -> str:
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unknown (not a git checkout)"
    return lines[1]


def local_speed(refs, start: float, end: float) -> float:
    """REF_NOMINAL_S over the median reference-kernel time within
    REF_WINDOW_S of an operation.  The worker samples the kernel at most
    REF_EVERY_S before every operation, so the window is never empty."""
    return REF_NOMINAL_S / statistics.median(
        s for t, s in refs if start - REF_WINDOW_S <= t <= end + REF_WINDOW_S)


def start_worker(args, env, deadline: float, setup_only: bool = False) -> tuple[dict, float]:
    """Run bench/worker.py; returns its JSON line and the monotonic start time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--tiny"] if args.tiny else []
    cmd += ["--setup-only"] if setup_only else []
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}:\n{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the self-test")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "herisson" / "__init__.py").is_file():
        print(f"error: no package at {src / 'herisson'}; run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)

    try:
        setups = []        # (seconds from process start to the first timed op, reference samples)
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, started = start_worker(args, env, deadline, setup_only=True)
                setups.append((probe["setup_end"] - started, probe["setup_refs"]))
        result, started = start_worker(args, env, deadline)
    except (BenchError, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = result["records"]
    errors = [(kind, err) for kind, _s, err, _start in records if err is not None]
    unexpected = [(kind, err) for kind, err in errors if err != KNOWN_DEFECT]
    env_line = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": result["numpy"],
        "scipy": result["scipy"], "blas_threads": BLAS_THREADS, "git_head": git_head(root),
    }
    print("# env " + json.dumps(env_line))
    for kind, err in unexpected[:5]:
        print(f"# FAILED {kind}: {err}")

    if args.trace:
        from worker import PER_LAYER

        metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in PER_LAYER.items()}
        if result["missing_sites"]:
            print("# not traced (function not found): " + ", ".join(result["missing_sites"]))
    else:
        times = [s for _kind, s, _err, _start in records]
        setups.append((result["setup_end"] - started, result["setup_refs"]))
        scaled = [s * local_speed(result["refs"], start, start + s) for _kind, s, _err, start in records]
        raw = {
            "ops_per_s": len(records) / sum(times),
            "op_p50_s": statistics.median(times),
            "setup_s": statistics.median(s for s, _refs in setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        values = {
            "ops_per_s": len(scaled) / sum(scaled),
            "op_p50_s": statistics.median(scaled),
            "setup_s": statistics.median(s * REF_NOMINAL_S / statistics.median(refs) for s, refs in setups),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        notes = {
            "ops_per_s": f"{len(records)} ops in {sum(times):.2f} s, one caller, closed loop",
            "op_p50_s": f"n={len(records)}",
            "setup_s": f"median of {len(setups)} set-ups",
            "peak_rss_mb": "workload process and its children",
        }
        print(f"# machine speed {sum(scaled) / sum(times):.3f} of reference ({len(result['refs'])} reference "
              "samples); times below are scaled to reference speed, raw value last")
        for name, metric in metrics.items():
            print(f"{name:<12} {metric['value']:>12.6g} {metric['unit']:<4} ({notes[name]}; raw {raw[name]:.6g})")
        print(f"{'fail_frac':<12} {len(errors) / len(records):>12.6g} {'1':<4} "
              f"({len(errors)} of {len(records)} failed, {len(errors) - len(unexpected)} of them the known "
              "hemisphere defect)")

    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
