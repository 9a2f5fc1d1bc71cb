import csv
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthobounds import cli, serialize
from orthobounds.bounds import CoefficientBox
from orthobounds.cli import main
from orthobounds.generate import (
    Instance,
    PairInstance,
    certified_box_arrays,
    generate_certified_instance,
    generate_certified_pair,
    rng_from_seed,
)
from orthobounds.sharpness import SearchConfig
from orthobounds.space import COMPLEX, REAL, OrthonormalFamily, SpaceContext, as_vector
from orthobounds.suite import SuiteConfig
from draws import family, gaussian
from test_bounds import rescaled_offsets


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

    @pytest.mark.parametrize(
        "grid", [["--dims", "0"], ["--dims", "2", "--family-sizes", "4"]]
    )
    def test_grid_without_cells_is_input_error(self, grid, capsys):
        # it used to run no check and pass with total_failed=0
        assert main(["verify", "--instances", "1", *grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the grid has no cell")

    @pytest.mark.parametrize(
        "grid, value",
        [
            (["--dims", "2", "--family-sizes", "1,0"], "0"),
            (["--dims", "0,2", "--family-sizes", "1"], "0"),
            (["--dims", "2", "--family-sizes", "1", "--fields", "real,quaternion"], "'quaternion'"),
            # -1 was rejected only by numpy's own message, 2^64 ran and passed
            (["--dims", "2", "--family-sizes", "1", "--seed", "-1"], "-1"),
            (["--dims", "2", "--family-sizes", "1", "--seed", str(2**64)], str(2**64)),
            # a repeated value ran its cells again and tallied them all
            (["--dims", "2,2", "--family-sizes", "1", "--fields", "real,real"], "2"),
            (["--dims", "2", "--family-sizes", "1,1"], "1"),
            (["--dims", "2", "--family-sizes", "1", "--fields", "real,complex,real"], "'real'"),
        ],
    )
    def test_grid_with_a_bad_value_is_input_error(self, grid, value, capsys):
        # each used to run the valid cells first: the first exited 2 naming
        # gram_schmidt, the second dropped the 0 and exited 0
        assert main(["verify", "--instances", "1", *grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.rstrip().endswith(value)


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

    def test_single_vector_file_is_input_error(self, instance_file, capsys):
        # reported by main, with the prefix of every other input error
        assert main(["gruss", str(instance_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: instance file must carry y")

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


class TestReportDigest:
    """A report's digest names the instance its file describes."""

    def _report(self, command, path, out, *extra):
        assert main([command, str(path), "--out", str(out), *extra]) == 0
        if out.suffix == ".csv":
            with open(out, newline="", encoding="utf-8") as handle:
                return dict(list(csv.reader(handle))[1:])
        return json.loads(out.read_text())

    def test_bounds_and_gruss_agree_on_a_pair_file(self, pair_file, tmp_path):
        # bounds reads only x and box, yet names the whole pair
        bounds = self._report("bounds", pair_file, tmp_path / "bounds.json")
        gruss = self._report("gruss", pair_file, tmp_path / "gruss.json")
        assert bounds["digest"] == gruss["digest"]

    @pytest.mark.parametrize("command", ["bounds", "gruss"])
    def test_stdlib_written_file(self, command, tmp_path):
        pair = generate_certified_pair(rng_from_seed(2, 2), 8, 4, COMPLEX)
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(serialize.instance_to_dict(pair)), encoding="utf-8")
        report = self._report(command, path, tmp_path / "report.json")
        with open(path, encoding="utf-8") as handle:
            assert report["digest"] == serialize.digest(json.load(handle))

    @pytest.mark.parametrize("command", ["bounds", "gruss"])
    def test_csv_digest_row_equals_the_json_one(self, command, pair_file, tmp_path):
        as_json = self._report(command, pair_file, tmp_path / "report.json")
        as_csv = self._report(command, pair_file, tmp_path / "report.csv", "--format", "csv")
        assert as_csv["digest"] == as_json["digest"]


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

    @pytest.mark.parametrize("kind", ["trig", "legendre", "counting"])
    @pytest.mark.parametrize("nodes", ["0", "-1"])
    def test_rule_without_nodes_is_input_error(self, kind, nodes, capsys):
        # trig --nodes 0 used to exit 1 with a ZeroDivisionError traceback,
        # and counting, which reads no --nodes, exited 0
        assert main(["l2demo", kind, "--nodes", nodes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a quadrature rule needs at least one node")


@pytest.mark.parametrize("command", [["l2demo", "legendre"], ["l2demo", "trig"], ["sharpness"]])
@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_outside_64_unsigned_bits_is_input_error(command, seed, capsys):
    # l2demo legendre used to stop at numpy's own message, trig ran
    assert main([*command, "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip() == f"error: seed must fit in 64 unsigned bits, got {seed}"


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


#: Every option of each command; flags a handler would ignore are not offered.
COMMAND_OPTIONS = {
    "verify": {
        "--instances", "--dims", "--family-sizes", "--fields", "--tightness-out",
        "--seed", "--out", "--format",
    },
    "bounds": {"--out", "--format"},
    "gruss": {"--out", "--format"},
    "l2demo": {"--nodes", "--seed", "--out"},
    "sharpness": {
        "--mode", "--dim", "--family-size", "--field", "--restarts", "--steps",
        "--seed", "--out",
    },
}


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_help_lists_exactly_the_command_options(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert listed == COMMAND_OPTIONS[command]


class _Captured(Exception):
    pass


@pytest.mark.parametrize(
    "command, callee, config",
    [("verify", "run_suite", SuiteConfig()), ("sharpness", "maximize_residual_ratio", SearchConfig())],
)
def test_option_defaults_are_the_config_defaults(command, callee, config, monkeypatch):
    # the CLI states no default of its own: each option reads its config field
    seen = []

    def capture(cfg):
        seen.append(cfg)
        raise _Captured

    monkeypatch.setattr(cli, callee, capture)
    with pytest.raises(_Captured):
        main([command])
    assert seen == [config]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--tol", "1e-9"],
        ["bounds", "instance.json", "--seed", "7"],
        ["bounds", "instance.json", "--tol", "1e-9"],
        ["gruss", "instance.json", "--seed", "7"],
        ["gruss", "instance.json", "--tol", "1e-9"],
        ["l2demo", "counting", "--tol", "1e-9"],
        ["l2demo", "counting", "--format", "csv"],
        ["sharpness", "--tol", "1e-9"],
        ["sharpness", "--format", "csv"],
    ],
)
def test_removed_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "bounds", "gruss"])
def test_csv_format_needs_out(command, instance_file, capsys):
    argv = [command] if command == "verify" else [command, str(instance_file)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--format", "csv"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format csv needs --out" in captured.err


def test_a_call_after_a_usage_and_an_input_error_gives_the_bytes_of_a_call_alone(
    instance_file, tmp_path, capsys
):
    # every main call of a process parses with one parser: errors before a
    # call leave nothing in it that the call could see
    alone, after = tmp_path / "alone.json", tmp_path / "after.json"
    fresh = subprocess.run(
        [sys.executable, "-m", "orthobounds.cli", "bounds", str(instance_file), "--out", str(alone)],
        capture_output=True,
    )
    assert fresh.returncode == 0
    with pytest.raises(SystemExit) as exit_info:
        main(["bounds", str(instance_file), "--format", "csv"])
    assert exit_info.value.code == 2
    assert main(["bounds", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    assert main(["bounds", str(instance_file), "--out", str(after)]) == 0
    assert capsys.readouterr().out.encode() == fresh.stdout
    assert after.read_bytes() == alone.read_bytes()


def _overflowing_payload(case, instance_file):
    if case == "large-vectors":
        # ||x||^2 ~ 1e320 overflows; the box, scaled by 1e150, is itself valid
        payload = json.loads(instance_file.read_text())
        payload["x"] = [1e160 * v for v in payload["x"]]
        for key in ("lower", "upper"):
            payload["box"][key] = [1e150 * v for v in payload["box"][key]]
        return payload
    # a narrow box far from the origin: finite diameter, overflowing slack
    ctx = SpaceContext(REAL, 2)
    fam = OrthonormalFamily.from_members(ctx, [(1.0, 0.0)])
    box = CoefficientBox((0,), (1e160,), (1e160 + 1e146,))
    return serialize.instance_to_dict(Instance(ctx, as_vector(ctx, (1.0, 1.0)), fam, (0,), box))


@pytest.mark.parametrize("command", ["bounds", "gruss"])
@pytest.mark.parametrize("case", ["large-vectors", "far-box"])
def test_overflowing_inputs_are_input_errors(case, command, instance_file, tmp_path, capsys):
    payload = _overflowing_payload(case, instance_file)
    payload["y"], payload["box_y"] = payload["x"], payload["box"]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(payload))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: inputs too large")


def _small_pair_payload():
    """One complex (3, F=2) certified pair file's payload."""
    return serialize.instance_to_dict(generate_certified_pair(rng_from_seed(2, 1), 3, 2, COMPLEX))


#: A file per command with an entry (1e308, 1e308), whose squared norm
#: np.vecdot returns as NaN: Python's max passed over a NaN that did not come
#: first, so both files used to exit 0 with NaN refined and slacks.
NAN_NORM_FILES = {
    "gruss": lambda payload: {**payload, "y": [[1e308, 1e308], [0, 0], [0, 0]]},
    "bounds": lambda payload: {**payload, "box": {
        key: [[1e308, 1e308], *payload["box"][key][1:]] for key in ("lower", "upper")
    }},
}


@pytest.mark.parametrize("command", NAN_NORM_FILES)
def test_an_entry_whose_squared_norm_is_nan_is_input_error(command, tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(NAN_NORM_FILES[command](_small_pair_payload())))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: inputs too large")


#: What the fuzz below puts in place of each field and subtree of a file.
HOSTILE_VALUES = [
    None, True, False, 0, -1, 10**400, 1e308, -1e308, 5e-324, 2**63,
    "", "x", "nan", "inf", [], {}, [1e308, 1e308],
]


def _subtrees(node, path=()):
    """The path of every field and subtree below ``node``."""
    keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield path + (key,)
        yield from _subtrees(node[key], path + (key,))


def _replaced(node, path, value):
    """A copy of ``node`` with the subtree at ``path`` replaced by ``value``."""
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


def test_hostile_files_exit_cleanly(tmp_path, capsys):
    # every field and subtree of one pair file, replaced by each hostile
    # value, through both report commands: an exit code of 0, 1 or 2, no
    # exception (a RuntimeWarning is one here), and no NaN or inf in a
    # report that exits 0
    payload, path = _small_pair_payload(), tmp_path / "hostile.json"
    runs = 0
    for where in _subtrees(payload):
        for value in HOSTILE_VALUES:
            path.write_text(json.dumps(_replaced(payload, where, value)))
            for command in ("bounds", "gruss"):
                code, out = main([command, str(path)]), capsys.readouterr().out
                assert code in (0, 1, 2), (command, where, value)
                constants = []
                if code == 0:
                    json.loads(out, parse_constant=constants.append)
                assert constants == [], (command, where, value)
                runs += 1
    assert runs == 2618


MALFORMED_ARRAYS = {
    "string": ("x", lambda x: ["0.5"] + x[1:]),
    "null": ("x", lambda x: [None] + x[1:]),
    "object": ("x", lambda x: [{"re": 0.5}] + x[1:]),
    "three-element-pairs": ("x", lambda x: [[v, 0.0, 0.0] for v in x]),
    "ragged-member-rows": ("vectors", lambda rows: [rows[0], rows[1][:-1]]),
    "numbers-mixed-with-pairs": ("x", lambda x: [[x[0], 0.0]] + x[1:]),
    "scalar-vector": ("x", lambda x: x[0]),
    "members-not-a-stack": ("vectors", lambda rows: rows[0]),
    # true/false used to read as 1/0
    "booleans": ("x", lambda x: [v > 0 for v in x]),
    "boolean-members": ("vectors", lambda rows: [[v != 0 for v in row] for row in rows]),
    # a boolean among numbers used to read as 1/0: these read as
    # x = (1, x_1, ...), the standard basis rows and phi_0 = 0
    "boolean-in-vector": ("x", lambda x: [True] + x[1:]),
    "boolean-in-member-row": (
        "vectors",
        lambda rows: [[1.0 if i == j else False for j in range(len(row))]
                      for i, row in enumerate(rows)],
    ),
    "boolean-in-box-endpoints": ("box", lambda box: {**box, "lower": [False] + box["lower"][1:]}),
}


@pytest.mark.parametrize("case", MALFORMED_ARRAYS)
def test_malformed_arrays_are_input_errors(case, instance_file, capsys):
    key, edit = MALFORMED_ARRAYS[case]
    payload = json.loads(instance_file.read_text())
    payload[key] = edit(payload[key])
    instance_file.write_text(json.dumps(payload))
    assert main(["bounds", str(instance_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


MALFORMED_FILES = {
    "field-only": lambda payload: {"field": "real"},
    "null-tolerance": lambda payload: {**payload, "tolerance": None},
    "string-dimension": lambda payload: {**payload, "dimension": "4"},
    "null-index": lambda payload: {**payload, "indices": [0, None]},
    "box-without-upper": lambda payload: {**payload, "box": {"lower": payload["box"]["lower"]}},
    "box-not-an-object": lambda payload: {**payload, "box": payload["box"]["lower"]},
    "top-level-array": lambda payload: [payload],
    # true/false used to read as 1/0: the first file was read as d = 1,
    # F = (0,) at tolerance 1.0, the second with indices (0, 1)
    "boolean-scalars": lambda payload: {
        "field": "real", "dimension": True, "vectors": [[1.0]], "tolerance": True,
        "indices": [False], "x": [0.5], "box": {"lower": [0.0], "upper": [1.0]},
        "y": [0.2], "box_y": {"lower": [0.0], "upper": [1.0]},
    },
    "boolean-indices": lambda payload: {**payload, "indices": [False, True]},
    "boolean-tolerance": lambda payload: {**payload, "tolerance": False},
    # an integer beyond the float range escaped as OverflowError, exit 1
    "overflowing-tolerance": lambda payload: {**payload, "tolerance": 10**400},
    # numpy holds such an integer as an object: the message named the dtype
    "overflowing-vectors": lambda payload: {
        **payload, "vectors": [[10**400, *payload["vectors"][0][1:]], *payload["vectors"][1:]],
    },
}

#: The message a case's error names, where it is pinned.
MALFORMED_MESSAGES = {
    "overflowing-vectors": (
        f"error: expected numbers, got the integer {10**400} outside the int64 range "
        "[-9223372036854775808, 9223372036854775807]\n"
    ),
}


@pytest.mark.parametrize("command", ["bounds", "gruss"])
@pytest.mark.parametrize("case", MALFORMED_FILES)
def test_malformed_instance_files_are_input_errors(case, command, instance_file, capsys):
    # a missing key or a null scalar used to escape as KeyError/TypeError,
    # a traceback with exit 1
    payload = json.loads(instance_file.read_text())
    payload["y"], payload["box_y"] = payload["x"], payload["box"]
    instance_file.write_text(json.dumps(MALFORMED_FILES[case](payload)))
    assert main([command, str(instance_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err == MALFORMED_MESSAGES.get(case, captured.err)


def test_loose_family_tolerance_is_input_error(tmp_path, capsys):
    # a family 1e150 off unit norm, "certified" by tolerance 1e300: the chains
    # used to print residual -Infinity with certified true
    payload = {
        "field": "real", "dimension": 2, "vectors": [[1e150, 0.0]], "tolerance": 1e300,
        "indices": [0], "x": [1e10, 1.0], "box": {"lower": [0.0], "upper": [1e10]},
    }
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(payload))
    assert main(["bounds", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: family tolerance")


@pytest.mark.parametrize("command, box", [
    ("bounds", "box"), ("gruss", "box"), ("gruss", "box_y"),
])
def test_a_real_field_box_with_an_imaginary_part_is_input_error(command, box, tmp_path, capsys):
    # a real file whose box carries imaginary parts used to exit 0 with a
    # certified report (coarse 0.18), and a round trip through
    # serialize.instance_to_dict wrote the box as bare reals (coarse 0.09)
    real_box = {"lower": [0.2], "upper": [0.8]}
    payload = {
        "field": "real", "dimension": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]],
        "indices": [0], "x": [0.5, 0.3], "y": [0.5, 0.3], "box": real_box, "box_y": real_box,
    }
    payload[box] = {"lower": [[0.2, 0.3]], "upper": [[0.8, -0.3]]}
    path = tmp_path / "imaginary.json"
    path.write_text(json.dumps(payload))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: real-field box has a nonzero imaginary part")


def test_gram_defect_within_family_tolerance_passes(tmp_path, capsys):
    # defect 1e-3 within tolerance 0.01: the report is certified with
    # residual -2.0e-3, which the allowance's |F| * gram_defect term covers;
    # a fixed 1e-9 * scale allowance made this exit 1
    payload = {
        "field": "real", "dimension": 2, "vectors": [[1.0, 0.0], [1e-3, 1.0]],
        "tolerance": 0.01, "indices": [0, 1], "x": [1.0, 1.0],
        "box": {"lower": [0.9, 0.9], "upper": [1.1, 1.1]},
    }
    path = tmp_path / "defect.json"
    path.write_text(json.dumps(payload))
    assert main(["bounds", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certified"] is True
    assert report["residual"] == pytest.approx(-2.0e-3, rel=1e-3)


#: (dimension, family size, field) cells of the perturbed-family draws; d = |F|
#: = 1 is where the residual reaches the allowance's Gram-defect term.
PERTURBED_CELLS = [(1, 1, REAL), (2, 1, REAL), (2, 2, COMPLEX), (3, 3, REAL), (6, 3, COMPLEX)]


def _perturbed_pair(seed, cell, size, shift):
    """A pair over a family perturbed to a Gram defect of at most 0.9/|F|
    (certified at tolerance = its defect), or None past that.  Both vectors
    and their boxes move by ``shift`` along the family, which leaves each
    condition slack as it was."""
    d, f, fld = cell
    rng = rng_from_seed(seed)
    ctx = SpaceContext(fld, d)
    noise = np.stack([gaussian(rng, d, ctx.is_complex) for _ in range(f)])
    members = family(rng, ctx, f).members + size / f * noise
    defect = OrthonormalFamily.from_members(ctx, members, 1.0 / f).gram_defect
    if defect > 0.9 / f:
        return None
    fam = OrthonormalFamily.from_members(ctx, members, defect)
    idx = tuple(range(f))
    vectors, boxes = [], []
    for _ in range(2):
        v = gaussian(rng, d, ctx.is_complex)
        factor = rng.uniform(0.9, 1.5)
        mid, half = certified_box_arrays(rng, ctx, v, fam, idx)
        half = rescaled_offsets(ctx, v, fam, idx, mid, half, factor)
        move = shift * gaussian(rng, f, ctx.is_complex)
        vectors.append(as_vector(ctx, v + move @ fam.members))
        boxes.append(CoefficientBox.centered(idx, mid + move, half))
    return PairInstance(ctx, vectors[0], vectors[1], fam, idx, boxes[0], boxes[1])


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    cell=st.sampled_from(PERTURBED_CELLS),
    size=st.floats(0.0, 1.0),
    shift=st.floats(0.0, 1e4),
)
def test_certified_reports_exit_zero(tmp_path_factory, seed, cell, size, shift):
    # exit 1 means a certified report whose chain misses by more than the
    # allowance; an uncertified report exits 0 as well
    pair = _perturbed_pair(seed, cell, size, shift)
    if pair is None:
        return
    path = tmp_path_factory.mktemp("perturbed") / "pair.json"
    serialize.dump_json(serialize.instance_to_dict(pair), path)
    for command in ("bounds", "gruss"):
        out = path.with_suffix(f".{command}.json")
        assert main([command, str(path), "--out", str(out)]) == 0
        assert isinstance(json.loads(out.read_text())["certified"], bool)
