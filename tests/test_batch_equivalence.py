"""The batched recovery held to the one-sample-at-a-time oracle.

sweep hands its whole grid to one solution_arrays call; scalar_oracle
walks the same route one w vector, one candidate and one sphere point at
a time.  feasible_interval places its ends at the roots of the family's
feasibility polynomials; scalar_oracle scans the parameter and bisects
each flip one midpoint at a time.  Both find the same boundaries, so the
endpoints agree within the bisection's stop width BISECT_TOL * (1 + |w1|).
"""

import math

import numpy as np
import pytest

import scalar_oracle as oracle
from helpers import (circle_through_origin_geometry, hexagon_base,
                     seeded_conic_family, zero_pattern_rows)
from scalar_oracle import BISECT_TOL, SCAN_POINTS
from stewart66.errors import Infeasible
from stewart66.fk_nonsingular import rotation_candidates, solution_arrays
from stewart66.fk_singular import build_singular_system, feasible_interval, sweep, w_at
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


def assert_ends_close(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert abs(a - b) <= BISECT_TOL * (1.0 + abs(b))


def expected_poses(geom, w, lengths):
    try:
        return oracle.solutions(geom, w, lengths)
    except Infeasible:
        return []


@pytest.mark.parametrize("mu", [0.05, 0.5, 0.95])
def test_dedup_matches_earlier_kept_rule(mu, rng):
    # the batch drops a slot equal to any earlier slot; the oracle one within
    # 1e-9 of a kept one.  Both keep the same candidates, which agree to
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
CANDIDATE_FIELDS = ("quaternions", "kept", "fits", "squares")


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
    samples = sweep(system, geom, lo, hi, SAMPLES)
    # infeasible samples stay rows of the sweep, between feasible ones
    assert len(samples) == SAMPLES
    assert any(s.feasible for s in samples) and not all(s.feasible for s in samples)
    previous = []
    for s in samples:
        assert np.array_equal(s.w, w_at(system, s.parameter))
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


@pytest.mark.parametrize("kind, seed", [("hexagon", None), ("arc_length", None)] + [
    (kind, seed) for kind in ("circle", "ellipse", "top_rotation") for seed in (1, 2, 3, 4, 5)])
def test_interval_endpoints_match_one_point_bisection(kind, seed):
    # no seeded family has more than one interval (two flips)
    if seed is None:
        geom, system, _ = family(kind)
    else:
        geom, lengths = seeded_conic_family(kind, seed)
        system = build_singular_system(geom, lengths)
    intervals = feasible_interval(system, geom, HINT)
    assert intervals
    assert_ends_close(np.ravel(intervals).tolist(),
                      np.ravel(oracle.feasible_interval(system, geom, HINT)).tolist())
