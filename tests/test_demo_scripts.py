import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stewart66

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "selfmotion_demo.py"


def load_demo():
    spec = importlib.util.spec_from_file_location("selfmotion_demo", DEMO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, message", [
    (["--samples", "1"], "error: need at least 2 samples, got 1"),
    (["--samples", "0"], "error: need at least 2 samples, got 0"),
    (["--mu", "1.5"], "error: mu must lie strictly between 0 and 1, got 1.5"),
])
def test_selfmotion_demo_refuses_bad_arguments(argv, message):
    # the package as this test imports it, whether installed or on a path
    src = str(Path(stewart66.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(DEMO), *argv],
                          capture_output=True, text=True, env=env, timeout=60)
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
