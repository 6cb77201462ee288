"""Self-test of the benchmark itself.

  python3 bench/selftest.py          (from the root of a checkout, about 2 minutes)

It runs every workload at the tiny size, untraced and traced, and asserts
that each metric named in BENCHMARK.json is printed with its unit.  It
feeds every checker a corrupted result (perturbed supports, wrong
translation or verdict, altered report, flipped exit code) and asserts
that the result counts as failed, and it asserts that the benchmark exits
non-zero without a result where ./src is missing.  Exits 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work" / "selftest"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from workloads import KNOWN_DEFECT  # noqa: E402


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, f"{BENCH.name}/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_tiny_runs(spec) -> None:
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out = run_bench(["--workload", workload["name"], "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--tiny"])
            assert out.returncode == 0, out.stderr
            lines = out.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
            assert last["correct"] is True and last["attempted"] >= 1, (workload, trace, lines[:-1])
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in last["metrics"].items()}
            assert got == want, (workload["name"], trace, got, want)
            assert all(isinstance(m["value"], float) for m in last["metrics"].values())
            if trace == 0:
                for name, unit in [*want.items(), ("fail_frac", "1")]:
                    assert any(line.split()[:1] == [name] and unit in line.split() for line in lines), name
            print(f"ok  tiny run {workload['name']} trace={trace}")


def expect_rejected(op, result, corrupt, what: str) -> None:
    assert op.check(result) is None, (op.kind, op.check(result))
    verdict = op.check(corrupt(result))
    assert verdict is not None and verdict != KNOWN_DEFECT, (op.kind, what)
    print(f"ok  {op.kind}: {what} is rejected")


def test_checkers() -> None:
    from herisson.congruence import CongruenceStatus
    from herisson.fan import ValidationReport
    from herisson.solver import SolveStatus

    solve = {op.kind: op for op in workloads.build("solve_polar", 1, True, WORK, rounds=1)[0]}
    for op in (solve["solve_m12"], solve["solve_fd_m8"]):
        expect_rejected(op, op.call(), lambda out: dataclasses.replace(out, h_final=out.h_final * (1 + 1e-6)),
                        "perturbed h")
        expect_rejected(op, op.call(), lambda out: dataclasses.replace(out, status=SolveStatus.DEGENERATED),
                        "non-converged status")
    waisted = solve["solve_waisted"]
    expect_rejected(waisted, waisted.call(),
                    lambda out: dataclasses.replace(out, status=SolveStatus.CONVERGED, t_reached=1.0),
                    "converged status")

    pairs = workloads.build("congruence_pairs", 1, True, WORK, rounds=1)[0]
    for op in pairs:
        if op.kind.startswith("congruent"):
            expect_rejected(op, op.call(),
                            lambda v: dataclasses.replace(v, translation=v.translation + 1e-6), "wrong translation")
        else:
            expect_rejected(op, op.call(), lambda v: dataclasses.replace(v, status=CongruenceStatus.CONGRUENT),
                            "congruent verdict")

    def with_entry(report):
        return ValidationReport(report.entries + [("crossing arcs", "arcs (0, 1) and (2, 3)")])

    def without(code):
        return lambda report: ValidationReport([e for e in report.entries if e[0] != code])

    known = 0
    for op in workloads.build("validate_polar", 1, True, WORK, rounds=1)[0]:
        report = op.call()
        if "reversed" in op.kind:
            corrupt, what = (lambda r: ValidationReport(r.entries[1:])), "one entry missing"
        elif "dropped" in op.kind:
            corrupt, what = without("Euler failure"), "missing Euler failure"
        else:
            corrupt, what = with_entry, "extra violation"
        if op.check(report) == KNOWN_DEFECT:      # the false positive stays a failure
            known += 1
            assert op.check(corrupt(report)) not in (None, KNOWN_DEFECT), (op.kind, what)
            print(f"ok  {op.kind} (known defect): {what} is rejected")
        else:
            expect_rejected(op, report, corrupt, what)
    print(f"ok  {known} tiny polar fans hit the known hemisphere defect")

    for op in workloads.build("cli_calls", 1, True, WORK, inprocess=True)[0]:
        expect_rejected(op, op.call(), lambda r: dataclasses.replace(r, code=1 if r.code == 0 else 0),
                        "flipped exit code")


def test_bare_directory() -> None:
    bare = WORK / "bare"
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = run_bench(["--workload", "solve_polar", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    assert out.returncode != 0 and "{" not in out.stdout, (out.returncode, out.stdout)
    print("ok  no result and a non-zero exit without ./src")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        test_checkers()
        test_bare_directory()
        test_tiny_runs(spec)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
