import json

import numpy as np
import pytest

from herisson import cli, io


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


class TestExitCodes:
    def test_validate(self, cube, tmp_path, capsys):
        good = io.fan_to_dict(cube.fan)
        assert cli.main(["validate", _write(tmp_path / "good.json", good)]) == 0
        bad = io.fan_to_dict(cube.fan)
        bad["equipment"][2] = [-x for x in bad["equipment"][0]]   # antipodal neighbors
        assert cli.main(["validate", _write(tmp_path / "bad.json", bad)]) == 1

    def test_congruent(self, cube, box123, tmp_path, capsys):
        moved = cube.translated([0.3, -0.2, 0.1])
        a = _write(tmp_path / "a.json", io.herisson_to_dict(cube))
        b = _write(tmp_path / "b.json", io.herisson_to_dict(moved))
        c = _write(tmp_path / "c.json", io.herisson_to_dict(box123))
        assert cli.main(["--json", "congruent", a, b]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "congruent"
        assert cli.main(["--json", "congruent", a, c]) == 1
        assert json.loads(capsys.readouterr().out)["status"] != "congruent"

    def test_malformed_input(self, cube, tmp_path, capsys):
        missing = io.fan_to_dict(cube.fan)
        del missing["cells"]
        assert cli.main(["validate", _write(tmp_path / "missing.json", missing)]) == 2
        flat = io.fan_to_dict(cube.fan)
        flat["equipment"] = [row[:2] for row in flat["equipment"]]
        assert cli.main(["validate", _write(tmp_path / "flat.json", flat)]) == 2
        bigon = io.herisson_to_dict(cube)
        bigon["cells"].append([0, 2])
        assert cli.main(["areas", _write(tmp_path / "bigon.json", bigon)]) == 2
        short = io.herisson_to_dict(cube)
        short["h"] = short["h"][:-1]
        assert cli.main(["areas", _write(tmp_path / "short.json", short)]) == 2
        nonfinite = io.herisson_to_dict(cube)
        nonfinite["h"][0] = float("nan")
        assert cli.main(["areas", _write(tmp_path / "nan.json", nonfinite)]) == 2
        assert "support numbers must be finite" in capsys.readouterr().err
