"""Every workload of the benchmark builds and passes its own checks.

The benchmark (bench/) calls the package through its public names and a few
private ones (the fd Jacobian mode among them); running one tiny round of
each workload here makes a change that breaks those calls fail the suite.
The cli_calls round runs twice: through cli.main in this process, and as
the benchmark runs it, one `python -m herisson.cli` subprocess per call.
bench/ is imported, never edited.
"""

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_workload_ops_pass_their_checks(name, tmp_path):
    (ops,) = workloads.build(name, 1, tiny=True, workdir=tmp_path, inprocess=True, rounds=1)
    assert ops
    for op in ops:
        assert op.check(op.call()) is None, op.kind


def test_cli_calls_pass_their_checks_as_subprocesses(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    (ops,) = workloads.build("cli_calls", 1, tiny=True, workdir=tmp_path, inprocess=False, rounds=1)
    assert len(ops) == 8
    for op in ops:
        assert op.check(op.call()) is None, op.kind
