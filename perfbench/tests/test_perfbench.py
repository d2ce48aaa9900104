"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

import inspect
import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import inputs
import stewart66
import worker
import workloads
from tracer import Tracer, library_functions

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = last_json(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    result = last_json(bench("fk_stream", 1))
    assert result["correct"] is True
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_program_oracle_agrees_with_the_independent_one():
    item = next(workloads.DesignScan(5, None).items())
    geom = stewart66.PlatformGeometry(base=item.base, mu=item.mu, top_transform=item.a)
    pose = stewart66.Pose(stewart66.Quaternion(*item.q), item.p)
    np.testing.assert_allclose(stewart66.leg_lengths(geom, pose), item.lengths, rtol=1e-13)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a, b = inputs.design_scan_chunk(3, 0), inputs.design_scan_chunk(3, 0)
    c = inputs.design_scan_chunk(4, 0)
    assert all(np.array_equal(x.lengths, y.lengths) for x, y in zip(a, b))
    assert not np.array_equal(a[0].lengths, c[0].lengths)
    assert [d.kind for d in a[:3]] == list(inputs.DESIGN_SLICES)


def bindings():
    return {(name, attr): obj for name, module in sys.modules.items()
            if name == "stewart66" or name.startswith("stewart66.")
            for attr, obj in vars(module).items()}


def test_tracer_wraps_every_binding_and_restores_all_of_them():
    from stewart66 import cli  # noqa: F401  (cli binds library names too)
    before = bindings()
    targets = library_functions()
    tracer = Tracer()
    tracer.install()
    try:
        during = bindings()
    finally:
        tracer.uninstall()
    wrapped = {k for k in before if during[k] is not before[k]}
    assert wrapped == {k for k, obj in before.items()
                       if inspect.isfunction(obj) and obj in targets}
    assert {("stewart66.fk_nonsingular", "build_q"), ("stewart66.cli", "fk_solve"),
            ("stewart66", "sweep"), ("stewart66.linalg", "lu_factor")} <= wrapped
    assert during[("stewart66.fk_nonsingular", "build_q")].__wrapped__ is \
        before[("stewart66.geometry", "build_q")]
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_build_q_bound_in_fk_nonsingular_leaves_a_span():
    geom = stewart66.PlatformGeometry(base=inputs.PERTURBED_HEXAGON, mu=0.5)
    item = next(workloads.FkStream(1, None).items())
    tracer = Tracer()
    tracer.install()
    try:
        stewart66.fk_solve(geom, item.lengths)
    finally:
        tracer.uninstall()
    by_id = {s[1]: s for s in tracer.spans}
    build = [s for s in tracer.spans if s[3] == "geometry.build_q"]
    assert len(build) == 1
    assert by_id[build[0][2]][3] == "fk_nonsingular.fk_solve"


@pytest.mark.parametrize("cls", [workloads.FkStream, workloads.DesignScan, workloads.SelfMotion])
def test_traced_and_untraced_outputs_are_identical(cls):
    wl = cls(11, None)
    items = list(islice(wl.items(), 1 if cls is workloads.SelfMotion else 30))
    wl.setup(items[0])
    plain = [wl.fingerprint(worker.run_one(wl, x, None)) for x in items]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [wl.fingerprint(worker.run_one(wl, x, None)) for x in items]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.spans


def corrupt(wl, how):
    run = wl.run

    def corrupted(item, stages=None):
        sols = run(item, stages)
        if how == "drop_true_pose":
            q = np.array([s.pose.orientation.as_array() for s in sols])
            p = np.array([s.pose.position for s in sols])
            gap = inputs.pose_gap(q, p, item.q, item.p, item.radius)
            return [s for s, g in zip(sols, gap) if g > inputs.POSE_TOL]
        moved = stewart66.Pose(sols[0].pose.orientation, sols[0].pose.position + 1e-6)
        return [type(sols[0])(moved, 1, 1, 0.0)] + sols[1:]

    wl.run = corrupted


def measured(how):
    wl = workloads.FkStream(2, None)
    wl.setup(next(wl.items(workloads.WARMUP_CHUNK)))
    corrupt(wl, how)
    tally = worker.Tally()
    _, rows = worker.measure(wl, 0.0, tally)
    return {name: value for name, value, _, _ in rows}, tally


def test_an_answer_without_the_true_pose_counts_as_wrong():
    fracs, tally = measured("drop_true_pose")
    assert fracs["wrong_frac"] == 1.0
    assert fracs["failed_frac"] == 0.0
    # the known accuracy defect is counted, and does not make the run incorrect
    assert tally.counts["invalid"] == 0
    assert tally.failed() == 0
    assert tally.outcome_metrics() == {"outcome.failed_frac": 0.0, "outcome.wrong_frac": 1.0}


def test_a_pose_off_the_lengths_is_invalid():
    fracs, tally = measured("move_a_pose")
    assert fracs["failed_frac"] == 1.0
    assert fracs["invalid_frac"] == 1.0
    assert tally.counts["invalid"] == tally.counts["attempted"]
    assert tally.failed() == tally.counts["attempted"]


def test_fk_check_verdicts():
    wl = workloads.FkStream(2, None)
    item = next(wl.items())
    wl.setup(item)
    assert workloads.fk_check(item, wl.run(item)) == "ok"
    assert workloads.fk_check(item, []) == "failed"
    assert workloads.fk_check(item, workloads.REFUSED) == "failed"
    assert workloads.fk_check(item, stewart66.Infeasible("no rotation")) == "failed"
    assert workloads.fk_check(item, ZeroDivisionError("a crash")) == "invalid"


@pytest.mark.parametrize("cls", [workloads.FkStream, workloads.DesignScan])
def test_per_layer_counts_repeat_exactly_for_a_seed(cls):
    def counts():
        wl = cls(5, None)
        wl.trace_ops = 60
        wl.setup(next(wl.items(workloads.WARMUP_CHUNK)))
        metrics, _, sound = worker.trace_run(wl, 0.0, worker.Tally())
        assert sound
        return {k: v for k, (v, unit) in metrics.items()
                if unit in ("count", "fraction") and k != "trace.overhead_frac"}

    first, second = counts(), counts()
    assert first == second
    assert first["linalg.factorizations_per_op"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("fk_stream", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
