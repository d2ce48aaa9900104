"""Acceptance suite: one test per criterion, each printing a pass line.

Run as `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each test asserts its stated tolerance and runtime budget.
"""

import json
import math
import time

import numpy as np

from helpers import (CIRCLE_COEFFS, hexagon_base, perturbed_hexagon_base,
                     pose_gap, random_circle_base, random_feasible_pose,
                     random_generic_base)
from stewart66.cli import main
from stewart66.errors import Inconsistent
from stewart66.fk_nonsingular import fk_solve
from stewart66.fk_singular import build_singular_system, feasible_interval, sweep
from stewart66.geometry import PlatformGeometry, build_q, conic_check
from stewart66.ik import d_from_lengths, leg_lengths, w_from_pose

ROOT_125 = math.sqrt(1.25)


def _passed(name, detail):
    print(f"[PASS] {name}: {detail}")


def test_criterion_1_fundamental_identity(rng):
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        base = random_generic_base(rng) if trial < 500 else random_circle_base(rng)
        geom = PlatformGeometry(base=base, mu=rng.uniform(0.1, 0.9))
        pose = random_feasible_pose(geom, rng)
        gap = build_q(geom.base) @ w_from_pose(geom, pose) - \
            d_from_lengths(geom, leg_lengths(geom, pose))
        worst = max(worst, float(np.max(np.abs(gap))))
        assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed("criterion 1 (fundamental identity, 1000 pairs)",
            f"worst gap {worst:.3g}, {elapsed:.3f}s")


def test_criterion_2_conic_degeneracy(rng):
    start = time.perf_counter()
    for trial in range(100):
        t = rng.uniform(0.0, 2.0 * np.pi, 6)
        kind = trial % 3
        if kind == 0:
            pts = rng.uniform(-1, 1, 2) + rng.uniform(0.5, 2.0) * \
                np.column_stack([np.cos(t), np.sin(t)])
        elif kind == 1:
            a, b = rng.uniform(0.5, 2.0, 2)
            phi = rng.uniform(0, np.pi)
            rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
            pts = np.column_stack([a * np.cos(t), b * np.sin(t)]) @ rot.T + rng.uniform(-1, 1, 2)
        else:
            x = np.linspace(-1, 1, 6) + rng.uniform(-0.05, 0.05, 6)
            a2, b2, c2 = rng.uniform(-1, 1, 3)
            pts = np.column_stack([x, a2 * x * x + b2 * x + c2])
        assert conic_check(pts).rank <= 5
    for _ in range(100):
        assert conic_check(random_generic_base(rng)).rank == 6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed("criterion 2 (conic degeneracy, 100 + 100 bases)", f"{elapsed:.3f}s")


def test_criterion_3_eight_solution_round_trip(rng):
    geom = PlatformGeometry(base=perturbed_hexagon_base(), mu=0.5)
    start = time.perf_counter()
    worst_seed = 0.0
    worst_residual = 0.0
    for _ in range(500):
        pose = random_feasible_pose(geom, rng)
        lengths = leg_lengths(geom, pose)
        solutions = fk_solve(geom, lengths)
        assert len(solutions) <= 8
        seed_gap = min(pose_gap(s.pose, pose) for s in solutions)
        worst_seed = max(worst_seed, seed_gap)
        assert seed_gap <= 1e-8
        tol = 1e-8 * (1.0 + float(lengths.max()))
        for s in solutions:
            residual = float(np.max(np.abs(leg_lengths(geom, s.pose) - lengths)))
            worst_residual = max(worst_residual, residual)
            assert residual <= tol
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed("criterion 3 (round trip, 500 poses)",
            f"worst seed gap {worst_seed:.3g}, worst residual {worst_residual:.3g}, "
            f"{elapsed:.3f}s")


def test_criterion_4_null_space_identity(rng):
    start = time.perf_counter()
    target = CIRCLE_COEFFS / np.linalg.norm(CIRCLE_COEFFS)
    for _ in range(50):
        report = conic_check(random_circle_base(rng))
        assert report.rank == 5
        n = report.conic
        gap = min(np.max(np.abs(n - target)), np.max(np.abs(n + target)))
        assert gap <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed("criterion 4 (null direction on 50 circle bases)", f"{elapsed:.3f}s")


def test_criterion_5_self_motion_invariance():
    geom = PlatformGeometry(base=hexagon_base(), mu=0.5)
    lengths = np.full(6, ROOT_125)
    start = time.perf_counter()
    system = build_singular_system(geom, lengths)
    samples = sweep(system, geom, 0.0, 1.0, 101)
    assert len(samples) == 101
    assert all(s.feasible for s in samples)
    worst_residual = max(s.leg_residual for s in samples)
    assert worst_residual <= 1e-8
    worst_form = 0.0
    for s in samples:
        w1 = s.parameter
        q0_ref = math.sqrt((1.0 + w1) / 2.0)
        q3_ref = math.sqrt((1.0 - w1) / 2.0)
        z_ref = math.sqrt(w1)
        branches = set()
        for sol in s.poses:
            q = sol.pose.orientation
            p = sol.pose.position
            worst_form = max(worst_form,
                             abs(q.q0 - q0_ref), abs(abs(q.q3) - q3_ref),
                             abs(q.q1), abs(q.q2),
                             abs(p[0]), abs(p[1]), abs(abs(p[2]) - z_ref))
            branches.add((q.q3 >= 0.0, p[2] >= 0.0))
        assert worst_form <= 1e-8
        if q3_ref > 1e-6 and z_ref > 1e-6:
            # interior of the family: both rotation and both height branches
            assert branches == {(True, True), (True, False), (False, True), (False, False)}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed("criterion 5 (self-motion, 101 samples)",
            f"worst residual {worst_residual:.3g}, worst closed-form gap "
            f"{worst_form:.3g}, {elapsed:.3f}s")


def test_criterion_6_feasibility_boundary():
    geom = PlatformGeometry(base=hexagon_base(), mu=0.5)
    system = build_singular_system(geom, np.full(6, ROOT_125))
    start = time.perf_counter()
    intervals = feasible_interval(system, geom, 5.0)
    elapsed = time.perf_counter() - start
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert abs(lo - 0.0) <= 1e-6
    assert abs(hi - 1.0) <= 1e-6
    assert elapsed < 1.0
    _passed("criterion 6 (feasibility boundary)",
            f"interval [{lo:.9f}, {hi:.9f}], {elapsed:.3f}s")


def test_criterion_7_infeasibility_detection(rng):
    geom_circle = PlatformGeometry(base=hexagon_base(), mu=0.5)
    geom_generic = PlatformGeometry(base=perturbed_hexagon_base(), mu=0.5)
    start = time.perf_counter()
    raised = False
    try:
        build_singular_system(geom_circle, np.array([10.0, 0.5, 0.5, 0.5, 0.5, 0.5]))
    except Inconsistent:
        raised = True
    assert raised
    # unreachable lengths must never produce unaudited solutions
    assert fk_solve(geom_generic, np.full(6, 10.0)) == []
    for _ in range(20):
        pose = random_feasible_pose(geom_generic, rng)
        lengths = leg_lengths(geom_generic, pose) * rng.uniform(1.5, 4.0)
        tol = 1e-8 * (1.0 + float(lengths.max()))
        for s in fk_solve(geom_generic, lengths):
            assert np.max(np.abs(leg_lengths(geom_generic, s.pose) - lengths)) <= tol
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed("criterion 7 (infeasibility detection)", f"{elapsed:.3f}s")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    geom = tmp_path / "hex.json"
    geom.write_text(json.dumps({"circle_angles": [k * math.pi / 3 for k in range(6)],
                                "mu": 0.5}))
    legs = tmp_path / "legs.json"
    legs.write_text(json.dumps({"L": [ROOT_125] * 6}))
    outputs = []
    for name in ("run1.csv", "run2.csv"):
        path = tmp_path / name
        assert main(["sweep", "--geom", str(geom), "--legs", str(legs),
                     "--w1-min", "0", "--w1-max", "1", "--samples", "101",
                     "--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]

    pose = tmp_path / "pose.json"
    pose.write_text(json.dumps({"q": [1, 0, 0, 0], "P": [0, 0, 1]}))
    assert main(["ik", "--geom", str(geom), "--pose", str(pose)]) == 0
    out = capsys.readouterr().out
    assert out.count("1.118033988749895") == 6
    _passed("criterion 8 (CLI determinism)",
            f"identical CSV bytes ({len(outputs[0])} bytes), six exact lengths")
