"""The batched recovery held to the one-sample-at-a-time oracle.

sweep and feasible_interval hand their whole grid to one
solution_arrays call; scalar_oracle walks the same route one w vector,
one candidate and one sphere point at a time.  feasible_interval bisects
every scan flip several steps per batch; scalar_oracle bisects one
midpoint at a time, and the endpoints must agree to the bit.
"""

import math

import numpy as np
import pytest

import scalar_oracle as oracle
from helpers import (circle_through_origin_geometry, hexagon_base,
                     seeded_conic_family)
from stewart66 import fk_singular
from stewart66.errors import Infeasible
from stewart66.fk_nonsingular import solution_arrays
from stewart66.fk_singular import (BISECT_LEVELS, BISECT_TOL, SCAN_POINTS, _bisect,
                                   build_singular_system, feasible_interval, sweep,
                                   w_at, w_at_arc)
from stewart66.geometry import PlatformGeometry
from stewart66.ik import Pose, leg_lengths
from stewart66.rotation import Quaternion

HINT = 4.0
SAMPLES = 201
# every range holds feasible and infeasible parameters
SEEDS = {"circle": 2, "ellipse": 3, "top_rotation": 6}
W1_FAMILIES = ["hexagon", "circle", "ellipse", "top_rotation"]


def family(kind):
    """(geometry, rank-5 system, sweep range) of one test family."""
    if kind == "hexagon":
        geom = PlatformGeometry(base=hexagon_base(), mu=0.5)
        return geom, build_singular_system(geom, np.full(6, math.sqrt(1.25))), (0.0, HINT)
    if kind == "arc_length":
        geom = circle_through_origin_geometry()
        lengths = leg_lengths(geom, Pose(Quaternion(1, 0, 0, 0), np.array([0.0, 0.0, 1.0])))
        return geom, build_singular_system(geom, lengths), (-4.0, 4.0)
    geom, lengths = seeded_conic_family(kind, SEEDS[kind])
    return geom, build_singular_system(geom, lengths), (0.0, HINT)


def expected_poses(geom, w, lengths):
    try:
        return oracle.solutions(geom, w, lengths)
    except Infeasible:
        return []


@pytest.mark.parametrize("kind", W1_FAMILIES)
def test_scan_flags_match_per_point_recovery(kind):
    geom, system, _ = family(kind)
    w = w_at(system, np.linspace(0.0, HINT, SCAN_POINTS))
    flags = solution_arrays(geom, w, system.lengths).feasible
    assert flags.tolist() == [oracle.feasible(geom, row, system.lengths) for row in w]
    assert flags.any() and not flags.all()


@pytest.mark.parametrize("kind", W1_FAMILIES + ["arc_length"])
def test_sweep_matches_per_sample_recovery(kind):
    geom, system, (lo, hi) = family(kind)
    locate = w_at if system.parameterizable_by_w1 else w_at_arc
    samples = sweep(system, geom, lo, hi, SAMPLES)
    # infeasible samples stay rows of the sweep, between feasible ones
    assert len(samples) == SAMPLES
    assert any(s.feasible for s in samples) and not all(s.feasible for s in samples)
    previous = []
    for s in samples:
        assert np.array_equal(s.w, locate(system, s.parameter))
        expected = expected_poses(geom, s.w, system.lengths)
        assert s.feasible == bool(expected)
        assert [(p.rotation_index, p.position_sign) for p in s.poses] == \
            [(index, sign) for index, sign, _, _ in expected]
        for got, (_, _, pose, residual) in zip(s.poses, expected):
            assert np.max(np.abs(got.pose.orientation.as_array()
                                 - pose.orientation.as_array())) <= 1e-12
            assert np.max(np.abs(got.pose.position - pose.position)) <= 1e-12
            assert abs(got.leg_residual - residual) <= 1e-12
        poses = [pose for _, _, pose, _ in expected]
        step = oracle.step(poses, previous)
        if step is None:
            assert s.step_from_prev is None
        else:
            assert abs(s.step_from_prev - step) <= 1e-12
        if not s.feasible:
            assert s.poses == () and math.isnan(s.leg_residual)
        else:
            assert s.leg_residual == max(p.leg_residual for p in s.poses)
        previous = poses


@pytest.mark.parametrize("kind, seed", [("hexagon", None)] + [
    (kind, seed) for kind in ("circle", "ellipse", "top_rotation") for seed in (1, 2, 3, 4, 5)])
def test_interval_endpoints_match_one_point_bisection(kind, seed):
    # no seeded family has more than one interval (two flips); the test
    # below puts many brackets into one batch instead
    if kind == "hexagon":
        geom, system, _ = family(kind)
    else:
        geom, lengths = seeded_conic_family(kind, seed)
        system = build_singular_system(geom, lengths)
    intervals = feasible_interval(system, geom, HINT)
    assert intervals
    assert intervals == oracle.feasible_interval(system, geom, HINT)


def test_many_brackets_bisect_as_one_at_a_time():
    geom, system, _ = family("circle")
    grid = np.linspace(0.0, HINT, SCAN_POINTS).tolist()
    flags = solution_arrays(geom, w_at(system, grid), system.lengths).feasible
    first, last = np.flatnonzero(flags)[[0, -1]].tolist()
    # widths from 5e-10 (closed before any step) to 400 grid steps, so the
    # brackets close in different rounds of the batched walk
    brackets = [(grid[first], grid[first - k]) for k in (1, 2, 3, 17, 400) if first - k >= 0]
    brackets += [(grid[last], grid[last + k]) for k in (1, 5, 60) if last + k < SCAN_POINTS]
    brackets += [(grid[last], grid[last] + 5e-10), (grid[first], grid[first])]
    assert len(brackets) >= 8
    expected = [oracle.refine(system, geom, inside, outside) for inside, outside in brackets]
    assert _bisect(system, geom, brackets) == expected
    assert _bisect(system, geom, []) == []


def test_bisection_takes_levels_steps_per_batch(monkeypatch):
    geom, system, _ = family("circle")
    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return solution_arrays(*args)

    monkeypatch.setattr(fk_singular, "solution_arrays", counted)
    assert len(feasible_interval(system, geom, HINT)) == 1
    # each flip's bracket starts one grid step wide and halves per step
    steps = math.ceil(math.log2(HINT / (SCAN_POINTS - 1) / BISECT_TOL))
    assert len(calls) == 1 + math.ceil(steps / BISECT_LEVELS)
    assert calls[0] == SCAN_POINTS
    assert calls[1:] == [2 * (2 ** BISECT_LEVELS - 1)] * (len(calls) - 1)
