import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import herisson
from helpers import double_tetrahedron_fan
from herisson import cli, io
from herisson.fan import Fan
from herisson.solver import SolveOptions, solve_minkowski
from test_fan import double_cover_pentagram


def _write(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("fixture", ["box123", "bowtie", "waisted", "tiling"])
    def test_bit_exact(self, fixture, request, tmp_path):
        body = request.getfixturevalue(fixture)
        path = str(tmp_path / "body.json")
        io.save(io.herisson_to_dict(body), path)
        back = io.load_herisson(path)
        assert np.array_equal(back.fan.equipment, body.fan.equipment)
        assert back.fan.cells == body.fan.cells
        assert np.array_equal(back.h, body.h)
        assert np.array_equal(back.vertices, body.vertices)
        assert np.array_equal(back.oriented_areas, body.oriented_areas)
        assert io.dumps(io.herisson_to_dict(back)) == io.dumps(io.herisson_to_dict(body))


class TestExports:
    @pytest.mark.parametrize("example", ["bowtie:0.5", "tiling"])
    def test_obj_and_svg_byte_stable(self, example, tmp_path, capsys):
        outputs = []
        for run in range(2):
            src = str(tmp_path / f"body{run}.json")
            obj, svg = tmp_path / f"body{run}.obj", tmp_path / f"body{run}.svg"
            assert cli.main(["example", example, "-o", src]) == 0
            assert cli.main(["export", src, "--obj", str(obj), "--svg", str(svg)]) == 0
            outputs.append((obj.read_bytes(), svg.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].startswith(b"# polyhedral hedgehog surface")
        assert outputs[0][1].startswith(b'<?xml version="1.0"')

    def test_obj_exit_codes(self, cube, tmp_path, capsys):
        # the herisson comes from the one parse of the input file
        src, obj = _write(tmp_path / "cube.json", io.herisson_to_dict(cube)), tmp_path / "cube.obj"
        assert cli.main(["export", src, "--obj", str(obj)]) == 0
        assert obj.read_text(encoding="utf-8") == io.export_obj(cube)
        short = io.herisson_to_dict(cube)
        short["h"] = short["h"][:-1]
        bad = _write(tmp_path / "short.json", short)
        assert cli.main(["export", bad, "--obj", str(tmp_path / "short.obj")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        flat = io.herisson_to_dict(cube)
        flat["h"][5] = -1.0     # a box of zero height
        assert cli.main(["export", _write(tmp_path / "flat.json", flat), "--obj", str(tmp_path / "flat.obj")]) == 1
        assert capsys.readouterr().err == "error: shortest edge 0.000e+00 below tolerance\n"

    def test_tetra_svg(self, tmp_path, capsys):
        # the fallback pole, opposite the first cell, is a face normal here
        src, svg = str(tmp_path / "tetra.json"), tmp_path / "tetra.svg"
        assert cli.main(["example", "tetra:1", "-o", src]) == 0
        assert cli.main(["export", src, "--svg", str(svg)]) == 0
        assert svg.read_text(encoding="utf-8").count("<title>arc ") == 6


class TestExitCodes:
    def test_validate(self, cube, tmp_path, capsys):
        good = io.fan_to_dict(cube.fan)
        assert cli.main(["validate", _write(tmp_path / "good.json", good)]) == 0
        bad = io.fan_to_dict(cube.fan)
        bad["equipment"][2] = [-x for x in bad["equipment"][0]]   # antipodal neighbors
        assert cli.main(["validate", _write(tmp_path / "bad.json", bad)]) == 1

    def test_json_validate_names_violations(self, cube, tmp_path, capsys):
        # the report bytes of the crossing scan and of the cell rules
        path = _write(tmp_path / "pentagram.json", io.fan_to_dict(double_cover_pentagram()))
        assert cli.main(["--json", "validate", path]) == 1
        crossings = ("(2, 3) and (4, 5)", "(2, 3) and (5, 6)", "(2, 6) and (3, 4)", "(2, 6) and (4, 5)", "(3, 4) and (5, 6)")
        violations = [["crossing arcs", f"arcs {pair}"] for pair in crossings]
        assert capsys.readouterr().out == json.dumps({"valid": False, "violations": violations}) + "\n"
        turned = Fan(equipment=cube.fan.equipment, cells=tuple(c[::-1] for c in cube.fan.cells))
        assert cli.main(["--json", "validate", _write(tmp_path / "turned.json", io.fan_to_dict(turned))]) == 1
        violations = [["non-convex cell", f"cell {ci} is not a CCW convex spherical polygon"] for ci in range(8)]
        assert capsys.readouterr().out == json.dumps({"valid": False, "violations": violations}) + "\n"

    def test_congruent(self, cube, box123, tmp_path, capsys):
        moved = cube.translated([0.3, -0.2, 0.1])
        a = _write(tmp_path / "a.json", io.herisson_to_dict(cube))
        b = _write(tmp_path / "b.json", io.herisson_to_dict(moved))
        c = _write(tmp_path / "c.json", io.herisson_to_dict(box123))
        assert cli.main(["--json", "congruent", a, b]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "congruent"
        assert cli.main(["--json", "congruent", a, c]) == 1
        assert json.loads(capsys.readouterr().out)["status"] != "congruent"

    def test_sum(self, cube, box123, tetra, tmp_path, capsys):
        a = _write(tmp_path / "a.json", io.herisson_to_dict(cube))
        b = _write(tmp_path / "b.json", io.herisson_to_dict(box123))
        c = _write(tmp_path / "c.json", io.herisson_to_dict(tetra))
        out = tmp_path / "sum.json"
        assert cli.main(["sum", a, b, "-o", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        total = io.load_herisson(str(out))
        assert np.allclose(total.oriented_areas, [20, 20, 15, 15, 12, 12], rtol=0.0, atol=1e-12)
        assert cli.main(["sum", a, c, "-o", str(tmp_path / "none.json")]) == 1
        assert capsys.readouterr().err == "error: equipments differ\n"
        assert not (tmp_path / "none.json").exists()

    def test_json_congruent_not_same_class(self, cube, tetra, tmp_path, capsys):
        a = _write(tmp_path / "a.json", io.herisson_to_dict(cube))
        c = _write(tmp_path / "c.json", io.herisson_to_dict(tetra))
        assert cli.main(["--json", "congruent", a, c]) == 1
        assert json.loads(capsys.readouterr().out) == {"status": "not_same_class", "detail": "equipments differ"}

    def test_json_congruent_payloads(self, cube, box123, tmp_path, capsys, monkeypatch):
        a = _write(tmp_path / "a.json", io.herisson_to_dict(cube))
        b = _write(tmp_path / "b.json", io.herisson_to_dict(cube.translated([0.5, 0.0, 0.0])))
        c = _write(tmp_path / "c.json", io.herisson_to_dict(box123))
        assert cli.main(["--json", "congruent", a, b]) == 0
        assert json.loads(capsys.readouterr().out) == {"status": "congruent", "detail": "", "translation": [0.5, 0.0, 0.0]}
        for first, second, direction, detail in ((a, c, 0, "face 0 of the first fits inside the second"),
                                                 (c, a, 1, "face 0 of the second fits inside the first")):
            assert cli.main(["--json", "congruent", first, second]) == 1
            assert json.loads(capsys.readouterr().out) == {
                "status": "hypothesis_failure", "detail": detail, "face": 0, "index": None, "direction": direction}
        monkeypatch.setattr(herisson.congruence, "_fits", lambda *_args: iter(()))
        assert cli.main(["--json", "congruent", a, c]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "status": "distinct", "detail": "face 0 pair has index 0", "face": 0, "index": 0, "direction": None}

    def test_json_areas(self, box123, tmp_path, capsys):
        assert cli.main(["--json", "areas", _write(tmp_path / "box.json", io.herisson_to_dict(box123))]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["areas"] == [float(x) for x in box123.oriented_areas]
        assert payload["signs"] == [1] * 6
        assert np.max(np.abs(payload["balance_residual"])) <= 1e-12

    def test_malformed_input(self, cube, tmp_path, capsys):
        missing = io.fan_to_dict(cube.fan)
        del missing["cells"]
        assert cli.main(["validate", _write(tmp_path / "missing.json", missing)]) == 2
        flat = io.fan_to_dict(cube.fan)
        flat["equipment"] = [row[:2] for row in flat["equipment"]]
        assert cli.main(["validate", _write(tmp_path / "flat.json", flat)]) == 2
        huge = io.fan_to_dict(cube.fan)
        huge["cells"][0][1] = 2**70     # no machine integer holds it
        assert cli.main(["validate", _write(tmp_path / "huge.json", huge)]) == 2
        bigon = io.herisson_to_dict(cube)
        bigon["cells"].append([0, 2])
        assert cli.main(["areas", _write(tmp_path / "bigon.json", bigon)]) == 2
        short = io.herisson_to_dict(cube)
        short["h"] = short["h"][:-1]
        assert cli.main(["areas", _write(tmp_path / "short.json", short)]) == 2
        dropped = io.herisson_to_dict(cube)
        del dropped["cells"][0]
        assert cli.main(["areas", _write(tmp_path / "dropped.json", dropped)]) == 2
        assert "open fan of faces" in capsys.readouterr().err
        nonfinite = io.herisson_to_dict(cube)
        nonfinite["h"][0] = float("nan")
        assert cli.main(["areas", _write(tmp_path / "nan.json", nonfinite)]) == 2
        assert "support numbers must be finite" in capsys.readouterr().err
        double = {**io.fan_to_dict(double_tetrahedron_fan()), "h": [1.0] * 7}
        assert cli.main(["areas", _write(tmp_path / "double.json", double)]) == 2
        assert "fan of faces around face 0 does not close" in capsys.readouterr().err
        seed = _write(tmp_path / "seed.json", {"h": [1.0] * 6})
        target = _write(tmp_path / "target.json", {"g": [4.0] * 6})
        bigon_fan = _write(tmp_path / "bigon_fan.json", {**io.fan_to_dict(cube.fan), "cells": bigon["cells"]})
        assert cli.main(["solve", bigon_fan, "--seed", seed, "--target", target]) == 2
        assert "cell 8 has fewer than 3 faces" in capsys.readouterr().err
        cube_fan = _write(tmp_path / "cube_fan.json", io.fan_to_dict(cube.fan))
        short_target = _write(tmp_path / "short_target.json", {"g": [4.0] * 5})
        assert cli.main(["solve", cube_fan, "--seed", seed, "--target", short_target]) == 1
        capsys.readouterr()
        bad_inputs = [
            ("seed", "short_seed.json", {"h": [1.0] * 5}),
            ("seed", "nan_seed.json", {"h": [float("nan")] + [1.0] * 5}),
            ("target", "scalar_target.json", 4.0),
            ("target", "word_target.json", {"g": ["four"] * 6}),
        ]
        for role, name, data in bad_inputs:
            path = _write(tmp_path / name, data)
            files = {"seed": seed, "target": target, role: path}
            assert cli.main(["solve", cube_fan, "--seed", files["seed"], "--target", files["target"]]) == 2
            assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("equipment", [[[1.0, 0.0, 0.0, 0.0]] * 6, [[1.0, 0.0]] * 6, []])
    def test_equipment_rows_must_be_three_vectors(self, cube, equipment, tmp_path, capsys):
        path = _write(tmp_path / "fan.json", {**io.fan_to_dict(cube.fan), "equipment": equipment})
        assert cli.main(["validate", path]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {path}: equipment must be a list of 3-vectors\n"

    @pytest.mark.parametrize("where, value, message", [
        ("cell", 0.9, "cells[0][0] = 0.9 is not an integer"),
        ("cell", 0.0, "cells[0][0] = 0.0 is not an integer"),
        ("cell", "0", "cells[0][0] = '0' is not an integer"),
        ("cell", False, "cells[0][0] = False is not an integer"),
        ("cells", {"0": [0, 2, 4]}, "cells must be a list"),
        ("row", 5, "equipment[0] = 5 is not a list"),
        ("equipment", "1", "equipment[0][0] = '1' is not a number"),
        ("equipment", True, "equipment[0][0] = True is not a number"),
        ("equipment", None, "equipment[0][0] = None is not a number"),
        pytest.param("equipment", 10**400, "int too large to convert to float", id="equipment-beyond-double"),
        ("h", "1", "h[0] = '1' is not a number"),
        ("seed", "1", "h[0] = '1' is not a number"),
        ("target", True, "g[0] = True is not a number"),
        ("target", [9.0], "g[0] = [9.0] is not a number"),
    ])
    def test_malformed_entry_types(self, cube, where, value, message, tmp_path, capsys):
        # only JSON integers are labels and only JSON numbers are vector entries
        body, seed, target = io.herisson_to_dict(cube), {"h": [1.0] * 6}, {"g": [9.0] * 6}
        if where == "cell":
            body["cells"][0][0] = value
        elif where == "cells":
            body["cells"] = value
        elif where == "row":
            body["equipment"][0] = value
        elif where == "equipment":
            body["equipment"][0][0] = value
        else:
            {"h": body["h"], "seed": seed["h"], "target": target["g"]}[where][0] = value
        path = _write(tmp_path / "body.json", body)
        if where in ("seed", "target"):
            files = {"seed": _write(tmp_path / "seed.json", seed), "target": _write(tmp_path / "target.json", target)}
            path = files[where]
            argv = ["solve", _write(tmp_path / "fan.json", io.fan_to_dict(cube.fan)),
                    "--seed", files["seed"], "--target", files["target"], "--allow-non-general"]
        else:
            argv = ["areas" if where == "h" else "validate", path]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("command", ["example", "sum", "obj", "svg", "trace"])
    def test_unwritable_output(self, cube, command, tmp_path, capsys):
        cube_file = _write(tmp_path / "cube.json", io.herisson_to_dict(cube))
        target = _write(tmp_path / "target.json", {"g": [9.0] * 6})
        out = str(tmp_path / "missing" / "out")
        argv = {
            "example": ["example", "cube", "-o", out],
            "sum": ["sum", cube_file, cube_file, "-o", out],
            "obj": ["export", cube_file, "--obj", out],
            "svg": ["export", cube_file, "--svg", out],
            "trace": ["solve", cube_file, "--seed", cube_file, "--target", target, "--allow-non-general",
                      "--trace", out],
        }[command]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: {out!r}\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_export_writes_both_outputs_or_neither(self, cube, json_flag, tmp_path, capsys):
        # the OBJ path is writable and the SVG path is not: nothing is written
        cube_file = _write(tmp_path / "cube.json", io.herisson_to_dict(cube))
        obj, svg = tmp_path / "cube.obj", str(tmp_path / "missing" / "cube.svg")
        assert cli.main(json_flag + ["export", cube_file, "--obj", str(obj), "--svg", svg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: {svg!r}\n"
        assert not obj.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_target(self, cube, value, tmp_path, capfd):
        fan = _write(tmp_path / "fan.json", io.fan_to_dict(cube.fan))
        seed = _write(tmp_path / "seed.json", {"h": [1.0] * 6})
        target = _write(tmp_path / "target.json", {"g": [9.0] * 5 + [value]})
        assert cli.main(["solve", fan, "--seed", seed, "--target", target, "--allow-non-general"]) == 1
        err = capfd.readouterr().err
        assert err == f"target rejected:\nfinite target: g[5] = {value!r} is not finite\n"

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
    def test_bad_tolerance(self, cube, tol, tmp_path, capsys):
        fan = _write(tmp_path / "fan.json", io.fan_to_dict(cube.fan))
        seed = _write(tmp_path / "seed.json", {"h": [1.0] * 6})
        target = _write(tmp_path / "target.json", {"g": [9.0] * 6})
        assert cli.main(["solve", fan, "--seed", seed, "--target", target, "--allow-non-general", "--tol", tol]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --tol: tol_area must be finite and positive, got {float(tol)!r}\n"

    def test_solve_trace_jsonl(self, cube, tmp_path, capsys):
        fan = _write(tmp_path / "fan.json", io.fan_to_dict(cube.fan))
        seed = _write(tmp_path / "seed.json", {"h": [1.0] * 6})
        g = [6.0, 6.0, 3.0, 3.0, 2.0, 2.0]
        target = _write(tmp_path / "target.json", {"g": g})
        trace = tmp_path / "trace.jsonl"
        argv = ["solve", fan, "--seed", seed, "--target", target, "--allow-non-general", "--trace", str(trace)]
        assert cli.main(argv) == 0
        outcome = solve_minkowski(cube.fan, np.ones(6), g, SolveOptions(allow_non_general_position=True))
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(outcome.trace) > 2
        records = [json.loads(line) for line in lines]
        assert all(list(r) == ["t", "residual", "min_abs_area"] for r in records)
        assert records[0]["t"] == 0.0 and records[-1]["t"] == 1.0
        expected = "".join(
            json.dumps({"t": r.t, "residual": r.residual, "min_abs_area": r.min_abs_area}) + "\n"
            for r in outcome.trace
        )
        assert trace.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("label", [7, -1])
    def test_svg_label_out_of_range(self, cube, label, tmp_path, capsys):
        data = io.fan_to_dict(cube.fan)
        data["cells"][-1] = [0, label, 4]
        assert cli.main(["export", _write(tmp_path / "x.json", data), "--svg", str(tmp_path / "x.svg")]) == 2
        assert f"cell label {label} is outside 0..5" in capsys.readouterr().err


_RUNTIME_PROBE = """
import json, sys
import numpy as np
from herisson import builders, cli
from herisson.congruence import congruent_and_parallel
from herisson.solver import SolveOptions, solve_minkowski

def loaded(name):
    return sorted(m for m in sys.modules if m == name or m.startswith(name + "."))

def scipy():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

steps = {"import": scipy()}
congruent_and_parallel(builders.cube(), builders.box(4.0, 4.0, 4.0))
steps["congruent_and_parallel"] = scipy() + loaded("numpy.ma")
assert cli.main(["congruent", sys.argv[1], sys.argv[2]]) == 1
steps["cli congruent"] = scipy() + loaded("numpy.ma")
assert cli.main(["validate", sys.argv[3]]) == 0
steps["cli validate"] = scipy() + loaded("numpy.ma")
assert cli.main(["solve", sys.argv[3], "--seed", sys.argv[4], "--target", sys.argv[5], "--allow-non-general"]) == 0
steps["cli solve"] = scipy() + loaded("numpy.ma") + loaded("numpy.random")
cube = builders.cube()
opts = SolveOptions(allow_non_general_position=True, jacobian_mode="fd")
assert solve_minkowski(cube.fan, cube.h, np.full(6, 2.25), opts).converged
steps["fd solve_minkowski"] = scipy() + loaded("numpy.ma") + loaded("numpy.random")
print(json.dumps(steps))
"""


def test_runtime_leaves_scipy_and_numpy_ma_unloaded(cube, tmp_path):
    small = _write(tmp_path / "small.json", io.herisson_to_dict(cube))
    big = _write(tmp_path / "big.json", io.herisson_to_dict(herisson.builders.box(4.0, 4.0, 4.0)))
    fan = _write(tmp_path / "fan.json", io.fan_to_dict(cube.fan))
    seed = _write(tmp_path / "seed.json", {"h": [1.0] * 6})
    target = _write(tmp_path / "target.json", {"g": [9.0] * 6})
    src = str(Path(herisson.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _RUNTIME_PROBE, small, big, fan, seed, target],
                         capture_output=True, text=True, check=True, env=env)
    steps = json.loads(out.stdout.splitlines()[-1])
    assert steps == dict.fromkeys(
        ["import", "congruent_and_parallel", "cli congruent", "cli validate", "cli solve", "fd solve_minkowski"], [])
