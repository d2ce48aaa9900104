import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stewart66
from stewart66 import FkSolution, Quaternion, SingularBase

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
DEMO = SCRIPTS / "selfmotion_demo.py"
CENSUS = SCRIPTS / "fk_census.py"
FINGERPRINTS = SCRIPTS / "fingerprints.py"
KERNEL_TIMING = SCRIPTS / "kernel_timing.py"


def load_script(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_demo():
    return load_script(DEMO)


def run_script(script, argv):
    # the package as this test imports it, whether installed or on a path
    src = str(Path(stewart66.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script), *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("argv, message", [
    (["--samples", "1"], "error: need at least 2 samples, got 1"),
    (["--samples", "0"], "error: need at least 2 samples, got 0"),
    (["--mu", "1.5"], "error: mu must lie strictly between 0 and 1, got 1.5"),
])
def test_selfmotion_demo_refuses_bad_arguments(argv, message):
    proc = run_script(DEMO, argv)
    assert proc.returncode == 2
    assert proc.stderr == message + "\n"


@pytest.mark.parametrize("argv, message", [
    (["--trials", "-3"], "error: need at least 1 trial, got -3"),
    (["--trials", "0"], "error: need at least 1 trial, got 0"),
    (["--mu", "1.5"], "error: mu must lie strictly between 0 and 1, got 1.5"),
])
def test_census_refuses_bad_arguments(argv, message):
    proc = run_script(CENSUS, argv)
    assert proc.returncode == 2
    assert proc.stderr == message + "\n"


def test_selfmotion_demo_without_an_interval_exits_3(monkeypatch, capsys):
    demo = load_demo()
    monkeypatch.setattr(demo, "feasible_interval", lambda *args, **kwargs: [])
    assert demo.main([]) == 3
    assert capsys.readouterr().err == "error: no feasible w1 interval within [0, 5]\n"


def test_selfmotion_demo_walks_the_hexagon(capsys):
    assert load_demo().main(["--samples", "3"]) == 0
    out = capsys.readouterr().out
    assert "feasible w1 intervals within [0, 5]: [(0.0, 1.0)]" in out
    assert "max leg-length drift over 101 samples" in out


def census_with(monkeypatch, capsys, answer, trials=5):
    """Run fk_census with fk_solve replaced by answer(geom, lengths); returns
    (exit code, stdout, stderr)."""
    census = load_script(CENSUS)
    monkeypatch.setattr(census, "fk_solve", answer)
    code = census.main(["--trials", str(trials)])
    out, err = capsys.readouterr()
    return code, out, err


def test_census_finds_every_seed_pose(capsys):
    assert load_script(CENSUS).main(["--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("20 random poses on the off-conic base (mu = 0.5):\n")
    assert out.endswith("seed pose missing from the solution set: 0 times\n")


def test_census_counts_a_wrong_orientation_as_a_miss(monkeypatch, capsys):
    # right positions, every orientation turned a quarter about z
    turn = Quaternion(0.5 ** 0.5, 0.0, 0.0, 0.5 ** 0.5)

    def turned(geom, lengths):
        return [FkSolution(turn, s.pose.position, s.rotation_index, s.position_sign,
                           s.leg_residual) for s in stewart66.fk_solve(geom, lengths)]
    code, out, _ = census_with(monkeypatch, capsys, turned)
    assert code == 0
    assert out.endswith("seed pose missing from the solution set: 5 times\n")


def raising(error):
    def answer(geom, lengths):
        raise error
    return answer


def test_census_counts_an_empty_answer_as_a_miss(monkeypatch, capsys):
    code, out, _ = census_with(monkeypatch, capsys, lambda geom, lengths: [])
    assert code == 0
    assert "  0 realizable solutions:      5  (100.0%)\n" in out
    assert out.endswith("seed pose missing from the solution set: 5 times\n")


def test_census_exits_3_on_another_solver_failure(monkeypatch, capsys):
    answer = raising(SingularBase("base lies on a conic"))
    assert census_with(monkeypatch, capsys, answer) == (3, "", "error: base lies on a conic\n")


def test_fingerprints_repeat_run_to_run():
    # no hash is pinned: numpy releases differ in the last bits
    first, second = (run_script(FINGERPRINTS, ["--items", "30"]) for _ in range(2))
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    source, *hashes = first.stdout.splitlines()
    assert Path(source).resolve() == Path(stewart66.__file__).resolve()
    assert [line.split()[0] for line in hashes] == ["fk_stream", "design_scan", "selfmotion"]


def test_kernel_timing_times_both_ends_of_the_batch_size():
    # one tree against itself: the package as this test imports it
    src = str(Path(stewart66.__file__).resolve().parents[1])
    proc = run_script(KERNEL_TIMING, [src, src, "--rounds", "1", "--grid-rows", "11"])
    assert proc.returncode == 0, proc.stderr
    first, second, *timings = proc.stdout.splitlines()
    for i, line in enumerate([first, second]):
        assert line.startswith(f"tree {i}: {Path(stewart66.__file__).resolve()} (__pycache__ beside it: ")
    labels = ["fk_solve",
              *(f"solution_arrays {i} {kind}"
                for i, kind in enumerate(["hexagon", "circle", "circle", "ellipse"])),
              "solutions() four families", "solution_arrays [0, 1]", "solution_arrays [0, 5]"]
    assert [line[:26].rstrip() for line in timings] == labels
    assert all(line.endswith("faster in 0 of 1") or line.endswith("faster in 1 of 1")
               for line in timings)


def test_kernel_timing_refuses_a_directory_without_the_package(tmp_path):
    src = str(Path(stewart66.__file__).resolve().parents[1])
    proc = run_script(KERNEL_TIMING, [src, str(tmp_path), "--rounds", "1"])
    assert proc.returncode == 2
    assert f"no stewart66 package under {tmp_path}" in proc.stderr
