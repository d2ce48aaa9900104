"""The batched recovery held to the one-sample-at-a-time oracle.

sweep and feasible_interval hand their whole grid to one
solution_arrays call; scalar_oracle walks the same route one w vector,
one candidate and one sphere point at a time.  feasible_interval narrows
every scan flip by 32 equal cells per batch; scalar_oracle bisects one
midpoint at a time.  Both return the feasible end of a bracket around the
same boundary, so the endpoints agree within the refinement's stop width
BISECT_TOL * (1 + |w1|).
"""

import math

import numpy as np
import pytest

import scalar_oracle as oracle
from helpers import (circle_through_origin_geometry, hexagon_base,
                     seeded_conic_family)
from stewart66 import fk_singular
from stewart66.errors import Infeasible
from stewart66.fk_nonsingular import rotation_candidates, solution_arrays
from stewart66.fk_singular import (BISECT_TOL, SCAN_POINTS, _refine, build_singular_system,
                                   feasible_interval, sweep, w_at, w_at_arc)
from stewart66.geometry import PlatformGeometry
from stewart66.ik import Pose, leg_lengths
from stewart66.rotation import Quaternion, to_matrices

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


def assert_ends_close(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert abs(a - b) <= BISECT_TOL * (1.0 + abs(b))


def expected_poses(geom, w, lengths):
    try:
        return oracle.solutions(geom, w, lengths)
    except Infeasible:
        return []


def zero_pattern_rows(rng, draws=25):
    """(w4, w5, w6) rows of unit quaternions for every zero pattern of
    (q0..q3), the zeroed components exactly 0 or scaled to small values."""
    patterns = np.array([[(k >> i) & 1 for i in range(4)] for k in range(1, 16)], dtype=bool)
    q = rng.normal(size=(len(patterns), 6, draws, 4))
    for j, small in enumerate([0.0, 1e-12, 1e-9, 3e-8, 1e-7, 1e-4]):
        q[:, j] = np.where(patterns[:, None], q[:, j], small * q[:, j])
    q = q.reshape(-1, 4)
    q /= np.linalg.norm(q, axis=1)[:, None]
    m = to_matrices(q.T)
    rows = np.column_stack([m[0, 0], m[0, 1] + m[1, 0], m[1, 1]])
    assert rows.shape == (len(q), 3)  # one row per quaternion
    return rows


@pytest.mark.parametrize("mu", [0.05, 0.5, 0.95])
def test_dedup_matches_earlier_kept_rule(mu, rng):
    # the batch drops a slot near any earlier slot; the oracle compares with
    # the kept ones only.  Both keep the same candidates, which agree to
    # 1e-9: small components carry the square root of cancellation noise
    rows = zero_pattern_rows(rng)
    w = np.zeros((len(rows), 6))
    w[:, 3:] = -2.0 * mu * rows
    batch = rotation_candidates(w, mu)
    for row in range(len(w)):
        try:
            expected = [c.as_array() for c in oracle.quaternions(w[row], mu)]
        except Infeasible:
            expected = []
        got = batch.quaternions[row, batch.kept[row]]
        assert len(got) == len(expected)
        assert np.all(np.abs(got - np.reshape(expected, got.shape)) <= 1e-9)


ROW_FIELDS = ("orientations", "positions", "signs", "residuals", "accepted")
CANDIDATE_FIELDS = ("quaternions", "kept", "fits", "squares", "norm2", "alpha", "beta", "gamma")


@pytest.mark.parametrize("kind", ["circle", "top_rotation"])
def test_a_row_solves_the_same_in_any_batch(kind):
    # fk_solve hands solution_arrays a batch of one and sweep a whole grid:
    # every output of a row, bit for bit, must not depend on its batch
    geom, system, _ = family(kind)
    assert (geom._ra_to_plate is None) == (kind == "circle")
    w = w_at(system, np.linspace(0.0, HINT, 301))
    batch = solution_arrays(geom, w, system.lengths)
    assert batch.feasible.any() and not batch.feasible.all()
    for row in range(len(w)):
        one = solution_arrays(geom, w[row:row + 1], system.lengths)
        for name in ROW_FIELDS:
            assert getattr(one, name).tobytes() == getattr(batch, name)[row:row + 1].tobytes()
        for name in CANDIDATE_FIELDS:
            assert (getattr(one.rotations, name).tobytes()
                    == getattr(batch.rotations, name)[row:row + 1].tobytes())


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
    assert_ends_close(np.ravel(intervals).tolist(),
                      np.ravel(oracle.feasible_interval(system, geom, HINT)).tolist())


def test_many_brackets_bisect_as_one_at_a_time():
    geom, system, _ = family("circle")
    grid = np.linspace(0.0, HINT, SCAN_POINTS).tolist()
    flags = solution_arrays(geom, w_at(system, grid), system.lengths).feasible
    first, last = np.flatnonzero(flags)[[0, -1]].tolist()
    # widths from 5e-10 (closed before any step) to 400 grid steps, so the
    # brackets close in different rounds of the batched refinement
    brackets = [(grid[first], grid[first - k]) for k in (1, 2, 3, 17, 400) if first - k >= 0]
    brackets += [(grid[last], grid[last + k]) for k in (1, 5, 60) if last + k < SCAN_POINTS]
    brackets += [(grid[last], grid[last] + 5e-10), (grid[first], grid[first])]
    assert len(brackets) >= 8
    expected = [oracle.refine(system, geom, inside, outside) for inside, outside in brackets]
    inside, outside = zip(*brackets)
    assert_ends_close(_refine(system, geom, inside, outside).tolist(), expected)
    assert _refine(system, geom, [], []).tolist() == []


def test_refinement_takes_31_points_per_bracket_per_batch(monkeypatch):
    geom, system, _ = family("circle")
    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return solution_arrays(*args)

    monkeypatch.setattr(fk_singular, "solution_arrays", counted)
    assert len(feasible_interval(system, geom, HINT)) == 1
    # each flip's bracket starts one grid step wide and shrinks 32-fold per
    # round; a bracket at larger w1 may close a round early
    rounds = math.ceil(math.log(HINT / (SCAN_POINTS - 1) / BISECT_TOL, 32))
    assert calls[0] == SCAN_POINTS
    assert 1 <= len(calls) - 1 <= rounds
    assert calls[1] == 2 * 31
    assert all(n in (31, 62) for n in calls[1:])
    assert calls[1:] == sorted(calls[1:], reverse=True)
