import json
import math
import subprocess
import sys

import numpy as np
import pytest

from helpers import collinear_base
from stewart66 import cli, errors, linalg
from stewart66.cli import main

HEX_GEOM = {"circle_angles": [k * math.pi / 3 for k in range(6)], "mu": 0.5}
PERTURBED_GEOM = {
    "base": [[1.2, 0.0]] + [[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)]
                            for k in range(1, 6)],
    "mu": 0.5,
}
IDENTITY_POSE = {"q": [1.0, 0.0, 0.0, 0.0], "P": [0.0, 0.0, 1.0]}
ROOT_125 = math.sqrt(1.25)
# identity pose at height 1; leg 1 runs from (1.2, 0, 0) to (0.6, 0, 1):
# length^2 = 0.36 + 1
PERTURBED_LENGTHS = [math.sqrt(1.25 + 0.11)] + [ROOT_125] * 5


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def hex_geom(tmp_path):
    return write(tmp_path / "hex.json", HEX_GEOM)


@pytest.fixture
def perturbed_geom(tmp_path):
    return write(tmp_path / "perturbed.json", PERTURBED_GEOM)


@pytest.fixture
def identity_pose(tmp_path):
    return write(tmp_path / "pose.json", IDENTITY_POSE)


@pytest.fixture
def resting_legs(tmp_path):
    return write(tmp_path / "legs.json", {"L": [ROOT_125] * 6})


@pytest.fixture
def perturbed_legs(tmp_path):
    return write(tmp_path / "legs6.json", {"L": PERTURBED_LENGTHS})


def test_ik_hexagon_identity(hex_geom, identity_pose, capsys):
    assert main(["ik", "--geom", hex_geom, "--pose", identity_pose]) == 0
    out = capsys.readouterr().out
    assert out.count("1.118033988749895") == 6
    assert json.loads(out) == {"L": [1.118033988749895] * 6}


def test_ik_rejects_non_unit_quaternion(tmp_path, hex_geom, capsys):
    pose = write(tmp_path / "bad_pose.json", {"q": [0.9, 0, 0, 0], "P": [0, 0, 1]})
    assert main(["ik", "--geom", hex_geom, "--pose", pose]) == 2
    assert "quaternion not unit" in capsys.readouterr().err


def test_ik_rejects_nan_quaternion(tmp_path, hex_geom, capsys):
    pose = write(tmp_path / "nan_pose.json", {"q": [math.nan, 0, 0, 0], "P": [0, 0, 1]})
    assert main(["ik", "--geom", hex_geom, "--pose", pose]) == 2
    assert f"{pose}: 'q' must be finite" in capsys.readouterr().err


def test_missing_file_is_validation_error(hex_geom, capsys):
    assert main(["ik", "--geom", hex_geom, "--pose", "/nonexistent/pose.json"]) == 2


@pytest.mark.parametrize("content", [
    b"{\"mu\": 0.5,",
    b"[" * 100000 + b"]" * 100000,
    b"{\"mu\": " + b"9" * 5000 + b"}",
    b"{\"mu\": 0.5, \"name\": \"\xe9\"}",
], ids=["invalid", "nested_100000", "digits_5000", "not_utf8"])
def test_unreadable_files_are_validation_errors(content, tmp_path, capsys):
    # JSONDecodeError, RecursionError, the int digit limit's ValueError
    # (where the interpreter has one) and UnicodeDecodeError
    geom = tmp_path / "geom.json"
    geom.write_bytes(content)
    assert main(["check", "--geom", str(geom)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and str(geom) in err


def test_geometry_requires_mu(tmp_path, identity_pose, capsys):
    geom = write(tmp_path / "nomu.json", {"circle_angles": HEX_GEOM["circle_angles"]})
    assert main(["ik", "--geom", geom, "--pose", identity_pose]) == 2
    assert "mu" in capsys.readouterr().err


def test_geometry_wants_exactly_one_base_form(tmp_path, identity_pose, capsys):
    geom = write(tmp_path / "both.json",
                 {"circle_angles": HEX_GEOM["circle_angles"],
                  "base": PERTURBED_GEOM["base"], "mu": 0.5})
    assert main(["ik", "--geom", geom, "--pose", identity_pose]) == 2


def test_geometry_with_explicit_top_transform(tmp_path, identity_pose, capsys):
    # quarter turn about z in A: each anchor sits a quarter-ring away from
    # its vertex, so L^2 = (1 + mu^2) - 2*mu*cos(pi/2) + 1 = 2.25 for all legs
    geom = write(tmp_path / "turned.json",
                 {"circle_angles": HEX_GEOM["circle_angles"], "mu": 0.5,
                  "A": [[0, -1, 0], [1, 0, 0], [0, 0, 1]]})
    assert main(["ik", "--geom", geom, "--pose", identity_pose]) == 0
    lengths = json.loads(capsys.readouterr().out)["L"]
    assert np.allclose(lengths, 1.5, atol=1e-12)


def test_geometry_rejects_bad_top_transform(tmp_path, identity_pose, capsys):
    geom = write(tmp_path / "skewed.json",
                 {"circle_angles": HEX_GEOM["circle_angles"], "mu": 0.5,
                  "A": [[1, 0.01, 0], [0, 1, 0], [0, 0, 1]]})
    assert main(["ik", "--geom", geom, "--pose", identity_pose]) == 2
    assert "orthogonal" in capsys.readouterr().err


ANGLES = HEX_GEOM["circle_angles"]
# six lengths inside 39 more lists: 40 axes, past the 32 numpy's .flat walks
NESTED_40 = [ROOT_125] * 6
for _ in range(39):
    NESTED_40 = [NESTED_40]


@pytest.mark.parametrize("kind, payload, key", [
    ("legs", {"L": "123456"}, "L"),
    ("legs", {"L": [True, 1, 1, 1, 1, 1]}, "L"),
    ("legs", {"L": [[1, 1, 1, 1, 1, 1]]}, "L"),
    ("legs", {"L": NESTED_40}, "L"),
    ("legs", {"L": [10 ** 400] * 6}, "L"),
    ("pose", {"q": "1000", "P": [0, 0, 1]}, "q"),
    ("pose", {"q": [1, 0, 0, 0], "P": "001"}, "P"),
    ("pose", {"q": [1, 0, 0, False], "P": [0, 0, 1]}, "q"),
    ("pose", {"q": {"q0": 1}, "P": [0, 0, 1]}, "q"),
    ("legs", {"L": [None, 1, 1, 1, 1, 1]}, "L"),
    ("legs", {"L": [math.nan, 1, 1, 1, 1, 1]}, "L"),
    ("geom", {"circle_angles": ANGLES, "mu": "0.5"}, "mu"),
    ("geom", {"circle_angles": ANGLES, "mu": True}, "mu"),
    ("geom", {"circle_angles": ANGLES, "mu": [0.5]}, "mu"),
    ("geom", {"circle_angles": [str(x) for x in ANGLES], "mu": 0.5}, "circle_angles"),
    ("geom", {"base": [["1.2", 0.0]] + PERTURBED_GEOM["base"][1:], "mu": 0.5}, "base"),
    ("geom", {"base": [[1.2]] + PERTURBED_GEOM["base"][1:], "mu": 0.5}, "base"),
    ("geom", {"circle_angles": ANGLES, "mu": 0.5,
              "A": [[1, 0, 0], [0, 1, 0], [0, 0, "1"]]}, "A"),
])
def test_inputs_must_be_json_numbers(kind, payload, key, tmp_path, hex_geom, identity_pose,
                                     perturbed_geom, capsys):
    bad = write(tmp_path / "bad.json", payload)
    argv = {"legs": ["fk", "--geom", perturbed_geom, "--legs", bad],
            "pose": ["ik", "--geom", hex_geom, "--pose", bad],
            "geom": ["ik", "--geom", bad, "--pose", identity_pose]}[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert bad in err and f"'{key}'" in err


def test_fk_round_trip(perturbed_geom, perturbed_legs, capsys):
    assert main(["fk", "--geom", perturbed_geom, "--legs", perturbed_legs]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "nonsingular"
    assert 1 <= len(report["solutions"]) <= 8
    seeds = [s for s in report["solutions"]
             if np.allclose(s["q"], [1, 0, 0, 0], atol=1e-8)
             and np.allclose(s["P"], [0, 0, 1], atol=1e-8)]
    assert seeds
    for s in report["solutions"]:
        assert s["residual"] <= 1e-8 * (1 + max(PERTURBED_LENGTHS))


def test_fk_reports_singular_mode(hex_geom, resting_legs, capsys):
    assert main(["fk", "--geom", hex_geom, "--legs", resting_legs]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "singular"
    assert "sweep" in report["message"]


def test_fk_collinear_base_exit_3(tmp_path, resting_legs, capsys):
    geom = write(tmp_path / "line.json", {"base": collinear_base().tolist(), "mu": 0.5})
    assert main(["fk", "--geom", geom, "--legs", resting_legs]) == 3
    assert "rank" in capsys.readouterr().err


def test_fk_factors_the_base_once(perturbed_geom, perturbed_legs, monkeypatch, capsys):
    calls, factor = [], linalg.lu_factor
    monkeypatch.setattr(linalg, "lu_factor", lambda m: calls.append(m) or factor(m))
    assert main(["fk", "--geom", perturbed_geom, "--legs", perturbed_legs]) == 0
    assert len(calls) == 1


def test_sweep_factors_the_base_once(hex_geom, resting_legs, tmp_path, monkeypatch, capsys):
    calls, factor = [], linalg.lu_factor
    monkeypatch.setattr(linalg, "lu_factor", lambda m: calls.append(m) or factor(m))
    assert main(["sweep", "--geom", hex_geom, "--legs", resting_legs, "--w1-min", "0",
                 "--w1-max", "1", "--samples", "5", "--out", str(tmp_path / "c.csv")]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["conic"]["rank"] == 5


@pytest.mark.parametrize("lengths", [[10.0] * 6, [1.0] * 6, [1.3, 1.3, 0.9, 0.9, 1.1, 0.8]],
                         ids=["huge", "no_rotation", "no_position"])
def test_fk_impossible_lengths_exit_3(lengths, perturbed_geom, tmp_path, capsys):
    # w fits no rotation for the first two; for the last it does, but no
    # position passes the audit.  One message for either cause
    legs = write(tmp_path / "legs.json", {"L": lengths})
    assert main(["fk", "--geom", perturbed_geom, "--legs", legs]) == 3
    assert capsys.readouterr() == ("", "error: no pose reproduces the requested leg lengths\n")


def test_fk_rejects_nonpositive_lengths(perturbed_geom, tmp_path, capsys):
    legs = write(tmp_path / "zeros.json", {"L": [0.0] * 6})
    assert main(["fk", "--geom", perturbed_geom, "--legs", legs]) == 2


def test_sweep_unit_interval(hex_geom, resting_legs, tmp_path, capsys):
    out_csv = tmp_path / "curve.csv"
    code = main(["sweep", "--geom", hex_geom, "--legs", resting_legs,
                 "--w1-min", "0", "--w1-max", "1", "--samples", "101",
                 "--out", str(out_csv)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["sample_count"] == 101
    assert summary["feasible_count"] == 101
    assert summary["max_residual"] <= 1e-8
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "w1,branch_rot,branch_pos,q0,q1,q2,q3,x,y,z,feasible,residual"
    assert all(line.split(",")[10] == "1" for line in lines[1:])


def test_sweep_flags_infeasible_band(hex_geom, resting_legs, tmp_path, capsys):
    out_csv = tmp_path / "band.csv"
    code = main(["sweep", "--geom", hex_geom, "--legs", resting_legs,
                 "--w1-min", "0", "--w1-max", "2", "--samples", "101",
                 "--out", str(out_csv)])
    assert code == 0
    flags = {}
    for line in out_csv.read_text().splitlines()[1:]:
        cells = line.split(",")
        flags.setdefault(float(cells[0]), cells[10])
    crossings = [w1 for w1 in sorted(flags) if flags[w1] == "0"]
    assert crossings and min(crossings) == pytest.approx(1.02, abs=1e-12)
    infeasible_rows = [line for line in out_csv.read_text().splitlines()[1:]
                       if line.split(",")[10] == "0"]
    assert all(line.split(",")[1] == "" and line.split(",")[11] == ""
               for line in infeasible_rows)
    residuals = [float(line.split(",")[11]) for line in out_csv.read_text().splitlines()[1:]
                 if line.split(",")[10] == "1"]
    assert json.loads(capsys.readouterr().out)["max_residual"] == max(residuals)


def test_sweep_rank_six_base_exit_3(perturbed_geom, resting_legs, tmp_path, capsys):
    code = main(["sweep", "--geom", perturbed_geom, "--legs", resting_legs,
                 "--w1-min", "0", "--w1-max", "1", "--samples", "11",
                 "--out", str(tmp_path / "na.csv")])
    assert code == 3
    assert "base not on a conic" in capsys.readouterr().err


def test_sweep_rejects_infinite_bound(hex_geom, resting_legs, tmp_path, capsys):
    code = main(["sweep", "--geom", hex_geom, "--legs", resting_legs,
                 "--w1-min", "0", "--w1-max", "inf", "--samples", "11",
                 "--out", str(tmp_path / "na.csv")])
    assert code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("count", [10 ** 20, 2 ** 62])
def test_sweep_refuses_a_count_no_array_can_hold(count, hex_geom, resting_legs, tmp_path, capsys):
    # np.linspace raised a bare ValueError here: exit 1 with a traceback
    code = main(["sweep", "--geom", hex_geom, "--legs", resting_legs,
                 "--w1-min", "0", "--w1-max", "1", "--samples", str(count),
                 "--out", str(tmp_path / "na.csv")])
    assert code == 2
    assert f"need at most 9007199254740992 samples, got {count}" in capsys.readouterr().err


def test_sweep_inconsistent_lengths_exit_3(hex_geom, tmp_path, capsys):
    legs = write(tmp_path / "bad.json", {"L": [10.0, 0.5, 0.5, 0.5, 0.5, 0.5]})
    code = main(["sweep", "--geom", hex_geom, "--legs", legs,
                 "--w1-min", "0", "--w1-max", "1", "--samples", "11",
                 "--out", str(tmp_path / "na.csv")])
    assert code == 3


def test_sweep_unwritable_out_exit_2(hex_geom, resting_legs, tmp_path, capsys):
    out_csv = tmp_path / "missing" / "curve.csv"
    code = main(["sweep", "--geom", hex_geom, "--legs", resting_legs,
                 "--w1-min", "0", "--w1-max", "1", "--samples", "11",
                 "--out", str(out_csv)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot write {out_csv}" in captured.err


def test_sweep_is_byte_deterministic(hex_geom, resting_legs, tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(["sweep", "--geom", hex_geom, "--legs", resting_legs,
                     "--w1-min", "0", "--w1-max", "1", "--samples", "31",
                     "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_check_hexagon(hex_geom, capsys):
    assert main(["check", "--geom", hex_geom]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["on_conic"] is True
    assert report["rank"] == 5
    conic = np.asarray(report["conic"])
    target = np.array([-1.0, 0, 0, 1, 0, 1]) / math.sqrt(3)
    assert min(np.max(np.abs(conic - target)), np.max(np.abs(conic + target))) <= 1e-9


def test_check_perturbed_hexagon(perturbed_geom, capsys):
    assert main(["check", "--geom", perturbed_geom]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["on_conic"] is False
    assert report["rank"] == 6
    assert report["conic"] is None
    assert 0.027 < report["margin"] < 0.029
    assert "detQ" not in report


@pytest.mark.parametrize("command", ["check", "fk"])
@pytest.mark.parametrize("radius", [1e60, 1e150, 1e200, 1e-80, 1e-100, 1e-200])
def test_a_base_outside_the_coordinate_bounds_exits_2(command, radius, tmp_path, resting_legs,
                                                      capsys):
    # once: detQ Infinity (not JSON) at 1e60, rank 3 at 1e150, a traceback at
    # 1e200; the small radii met the distinct-vertex rule, not the bound
    t = 1.1 * np.arange(6)
    base = radius * np.column_stack([np.cos(t), np.sin(t)])
    geom = write(tmp_path / "far.json", {"base": base.tolist(), "mu": 0.5})
    argv = [command, "--geom", geom] + (["--legs", resting_legs] if command == "fk" else [])
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "base coordinates must be at most" in err


@pytest.mark.parametrize("radius", [1e-12, 1e-9])
def test_check_reads_a_small_circle_as_a_conic(radius, tmp_path, capsys):
    # the distinct-vertex rule scales with the base's size; an absolute
    # 1e-9 once refused both radii as coincident vertices
    t = 1.1 * np.arange(6)
    base = radius * np.column_stack([np.cos(t), np.sin(t)])
    geom = write(tmp_path / "small.json", {"base": base.tolist(), "mu": 0.5})
    assert main(["check", "--geom", geom]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rank"] == 5 and report["on_conic"] is True


def test_sweep_indexes_a_small_hexagon_by_w1(tmp_path, capsys):
    # at radius 1e-4 the hexagon family's unit null vector has n1 = 7.1e-9;
    # the rule reads the column-scaled one, which does not change with scale
    radius = 1e-4
    t = np.arange(6) * math.pi / 3
    geom = write(tmp_path / "small.json",
                 {"base": (radius * np.column_stack([np.cos(t), np.sin(t)])).tolist(), "mu": 0.5})
    legs = write(tmp_path / "legs.json", {"L": [radius * ROOT_125] * 6})
    out_csv = tmp_path / "small.csv"
    assert main(["sweep", "--geom", geom, "--legs", legs, "--w1-min", "0",
                 "--w1-max", str(radius ** 2), "--samples", "11", "--out", str(out_csv)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["parameterized_by_w1"] is True
    assert summary["feasible_count"] == 11


def test_importing_the_package_loads_no_numpy_submodule():
    # `import numpy` leaves numpy.polynomial and others unloaded; each one
    # the package pulled in would cost every CLI process its import time
    code = ("import sys, numpy; before = set(sys.modules); import stewart66, stewart66.cli; "
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_check_duplicate_vertices_exit_2(tmp_path, capsys):
    geom = write(tmp_path / "dup.json",
                 {"base": [[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1], [0.5, 0.5]],
                  "mu": 0.5})
    assert main(["check", "--geom", geom]) == 2


ERRORS = [cls for cls in vars(errors).values()
          if isinstance(cls, type) and issubclass(cls, errors.KinematicsError)]


@pytest.mark.parametrize("error", ERRORS, ids=[cls.__name__ for cls in ERRORS])
def test_every_kinematics_error_maps_to_its_exit_code(error, hex_geom, monkeypatch, capsys):
    def fail(base):
        raise error("stop here")
    monkeypatch.setattr(cli, "conic_check", fail)
    expected = 2 if issubclass(error, errors.ValidationError) else 3
    assert main(["check", "--geom", hex_geom]) == expected
    assert capsys.readouterr() == ("", "error: stop here\n")


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 8.00 TiB for an array with shape (1099511627776,) and data type float64",
     "Unable to allocate 8.00 TiB for an array with shape (1099511627776,) and data type float64"),
    ("", "out of memory"),
], ids=["numpy", "bare"])
def test_an_input_too_large_for_memory_exits_2(message, shown, hex_geom, resting_legs, tmp_path,
                                               monkeypatch, capsys):
    # once: exit 1 with numpy's _ArrayMemoryError traceback for --samples 2^40;
    # the error is raised here instead of asking numpy for the memory
    def fail(*args):
        raise MemoryError(message) if message else MemoryError
    monkeypatch.setattr(cli, "sweep", fail)
    out_csv = tmp_path / "curve.csv"
    code = main(["sweep", "--geom", hex_geom, "--legs", resting_legs, "--w1-min", "0",
                 "--w1-max", "1", "--samples", "1099511627776", "--out", str(out_csv)])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {shown}\n")
    assert not out_csv.exists()


def test_check_repeated_runs_identical(hex_geom, capsys):
    main(["check", "--geom", hex_geom])
    first = capsys.readouterr().out
    main(["check", "--geom", hex_geom])
    assert capsys.readouterr().out == first


def test_module_entry_point(tmp_path):
    geom = write(tmp_path / "hex.json", HEX_GEOM)
    pose = write(tmp_path / "pose.json", IDENTITY_POSE)
    proc = subprocess.run(
        [sys.executable, "-m", "stewart66", "ik", "--geom", geom, "--pose", pose],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.count("1.118033988749895") == 6
