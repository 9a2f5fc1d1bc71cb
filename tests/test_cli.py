import json
import math
import subprocess
import sys

import numpy as np
import pytest

from orthobounds import REAL, CoefficientBox, OrthonormalFamily, SpaceContext, as_vector
from orthobounds.cli import main
from orthobounds.generate import (
    PairInstance,
    generate_certified_instance,
    generate_certified_pair,
    rng_from_seed,
)
from orthobounds import serialize


@pytest.fixture()
def instance_file(tmp_path):
    inst = generate_certified_instance(rng_from_seed(2, 0), 4, 2, REAL)
    path = tmp_path / "instance.json"
    serialize.dump_json(serialize.instance_to_dict(inst), path)
    return path


@pytest.fixture()
def pair_file(tmp_path):
    pair = generate_certified_pair(rng_from_seed(2, 1), 4, 2, "complex")
    path = tmp_path / "pair.json"
    serialize.dump_json(serialize.instance_to_dict(pair), path)
    return path


class TestVerifyCommand:
    def test_small_grid_passes(self, tmp_path, capsys):
        out = tmp_path / "outcome.json"
        code = main([
            "verify", "--instances", "2", "--dims", "2,4", "--family-sizes", "1,2",
            "--fields", "real", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "total_failed=0" in captured
        payload = json.loads(out.read_text())
        assert payload["ok"] is True

    def test_csv_summary(self, tmp_path):
        out = tmp_path / "outcome.csv"
        code = main([
            "verify", "--instances", "1", "--dims", "2", "--family-sizes", "1",
            "--fields", "real", "--seed", "5", "--out", str(out), "--format", "csv",
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "check,passed,failed,worst_margin"
        assert len(lines) > 5

    def test_tightness_export(self, tmp_path):
        out = tmp_path / "tightness.csv"
        code = main([
            "verify", "--instances", "2", "--dims", "2", "--family-sizes", "1",
            "--fields", "real", "--seed", "5", "--tightness-out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("instance-id,")
        assert len(lines) == 1 + 2 * 2


class TestBoundsCommand:
    def test_report_written_with_digest(self, instance_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(["bounds", str(instance_file), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert {"residual", "refined", "coarse", "slack_inner", "slack_norm",
                "certified", "digest"} <= set(report)
        assert report["certified"] is True
        assert report["digest"] == serialize.digest(json.loads(instance_file.read_text()))

    def test_prints_to_stdout_without_out(self, instance_file, capsys):
        assert main(["bounds", str(instance_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certified"] is True

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["bounds", str(tmp_path / "nope.json")]) == 2

    def test_overflowing_box_is_input_error(self, instance_file, tmp_path, capsys):
        payload = json.loads(instance_file.read_text())
        payload["box"]["lower"] = [-1e200] * len(payload["box"]["lower"])
        payload["box"]["upper"] = [1e200] * len(payload["box"]["upper"])
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(payload))
        assert main(["bounds", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows" in captured.err


class TestGrussCommand:
    def test_pair_report(self, pair_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["gruss", str(pair_file), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert {"deviation", "deviation_abs", "refined", "coarse", "certified",
                "digest"} <= set(report)
        assert report["certified"] is True

    def test_single_vector_file_rejected(self, instance_file):
        assert main(["gruss", str(instance_file)]) == 2

    def test_large_box_small_vectors_equality_instance(self, tmp_path):
        # x = y orthogonal to e with a box of half-width 1e3: deviation = t^2
        # equals refined = 1e6 - (1e6 - t^2), which cancels at the box's
        # size; a chain tolerance scaled by ||x||^2 + ||y||^2 alone rejected
        # 15 of these 40 certified instances
        ctx = SpaceContext(REAL, 2)
        fam = OrthonormalFamily.from_members(ctx, [(1.0, 0.0)])
        box = CoefficientBox((0,), (-1e3,), (1e3,))
        path = tmp_path / "pair.json"
        for t in np.geomspace(1e-4, 1e-2, 40):
            x = as_vector(ctx, (0.0, t))
            pair = PairInstance(ctx, x, x, fam, (0,), box, box)
            serialize.dump_json(serialize.instance_to_dict(pair), path)
            assert main(["gruss", str(path), "--out", str(tmp_path / "report.json")]) == 0, t


class TestL2DemoCommand:
    def test_trig_demo_hits_closed_form(self, tmp_path):
        out = tmp_path / "trig.json"
        assert main(["l2demo", "trig", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        report = payload["reports"]["counterpart"]
        assert report["residual"] == pytest.approx(math.pi, abs=1e-8)
        assert report["refined"] == pytest.approx(math.pi, abs=1e-8)
        assert report["coarse"] == pytest.approx(2 * math.pi, abs=1e-8)
        assert payload["kind"] == "periodic-trapezoid"
        assert len(payload["functions"]["f"]) == 1024

    def test_legendre_demo(self, tmp_path):
        out = tmp_path / "leg.json"
        assert main(["l2demo", "legendre", "--nodes", "64", "--seed", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "gauss-legendre"
        assert payload["reports"]["counterpart"]["certified"] is True

    def test_counting_demo_matches_vector_backend(self, tmp_path):
        out = tmp_path / "count.json"
        assert main(["l2demo", "counting", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["reports"]["counterpart"]["residual"] == pytest.approx(0.04, rel=1e-12)
        assert payload["reports"]["gruss"]["deviation_abs"] == pytest.approx(0.02, rel=1e-12)


class TestSharpnessCommand:
    def test_residual_mode(self, tmp_path, capsys):
        out = tmp_path / "sharp.json"
        code = main([
            "sharpness", "--mode", "residual", "--restarts", "4", "--steps", "1200",
            "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert 0.2499 <= payload["best_ratio"] <= 0.25 + 1e-9
        assert "best_ratio=" in capsys.readouterr().out

    def test_gruss_mode_runs(self, tmp_path):
        out = tmp_path / "sharp.json"
        code = main([
            "sharpness", "--mode", "gruss", "--restarts", "2", "--steps", "400",
            "--seed", "11", "--out", str(out),
        ])
        assert code == 0


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "orthobounds.cli", "verify", "--instances", "1",
             "--dims", "2", "--family-sizes", "1", "--fields", "real", "--seed", "1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "total_failed=0" in result.stdout
