import math

import numpy as np
import pytest

from helpers import (CIRCLE_COEFFS, circle_through_origin_geometry,
                     collinear_base, pose_gap, perturbed_hexagon_base,
                     random_circle_base, random_feasible_pose, random_rotation,
                     seeded_conic_family)
from stewart66.errors import (DegenerateBase, Inconsistent, Infeasible,
                              NotParameterizable, ValidationError, WrongRank)
from stewart66.fk_singular import (build_singular_system, feasible_interval,
                                   recover_poses, sweep, w_at, w_at_arc)
from stewart66.geometry import PlatformGeometry, build_q
from stewart66.ik import Pose, leg_lengths
from stewart66.rotation import Quaternion

ROOT_125 = math.sqrt(1.25)


@pytest.fixture
def resting_system(hexagon_geometry):
    # identity pose at height 1: all legs sqrt(1.25), d = 0
    return build_singular_system(hexagon_geometry, np.full(6, ROOT_125))


def test_system_for_uniform_legs(hexagon_geometry, resting_system):
    s = resting_system
    assert np.max(np.abs(s.particular)) <= 1e-12  # d = 0, so the line passes the origin
    target = CIRCLE_COEFFS / np.linalg.norm(CIRCLE_COEFFS)
    gap = min(np.max(np.abs(s.null_dir - target)), np.max(np.abs(s.null_dir + target)))
    assert gap <= 1e-9
    assert s.parameterizable_by_w1


def test_system_for_short_legs(hexagon_geometry):
    q = build_q(hexagon_geometry.base)
    # the pose at the origin solves it: Q @ (0,0,0,-1,0,-1) = -(x^2+y^2) = -1
    seed = np.array([0.0, 0, 0, -1, 0, -1])
    assert np.max(np.abs(q @ seed + 1.0)) < 1e-12
    system = build_singular_system(hexagon_geometry, np.full(6, 0.5))
    d = q @ system.particular
    assert np.max(np.abs(d + 1.0)) <= 1e-8
    diff = system.particular - seed
    assert np.linalg.norm(diff - (diff @ system.null_dir) * system.null_dir) <= 1e-9


def test_unrealizable_lengths_rejected(hexagon_geometry):
    with pytest.raises(Inconsistent):
        build_singular_system(hexagon_geometry, np.array([10.0, 0.5, 0.5, 0.5, 0.5, 0.5]))


def test_rank_six_base_rejected():
    geom = PlatformGeometry(base=perturbed_hexagon_base(), mu=0.5)
    with pytest.raises(WrongRank):
        build_singular_system(geom, np.ones(6))


def test_collinear_base_rejected():
    geom = PlatformGeometry(base=collinear_base(), mu=0.5)
    with pytest.raises(DegenerateBase):
        build_singular_system(geom, np.ones(6))


def test_w_at_reproduces_seed_parameter(resting_system):
    w = w_at(resting_system, 1.0)
    assert np.allclose(w, [1.0, 0, 0, -1, 0, -1], atol=1e-12)


def test_w_at_origin(resting_system):
    assert np.max(np.abs(w_at(resting_system, 0.0))) <= 1e-12


def test_w_at_is_linear(resting_system):
    w = w_at(resting_system, 0.5)
    assert np.allclose(w, [0.5, 0, 0, -0.5, 0, -0.5], atol=1e-12)


def test_w_at_rejects_negative_parameter(resting_system):
    with pytest.raises(ValidationError):
        w_at(resting_system, -0.1)


def test_affine_line_property(hexagon_geometry, rng):
    geom = PlatformGeometry(base=random_circle_base(rng), mu=0.45)
    pose = random_feasible_pose(geom, rng)
    system = build_singular_system(geom, leg_lengths(geom, pose))
    a, b = 0.3, 1.7
    diff = w_at(system, a) - w_at(system, b)
    off_line = diff - (diff @ system.null_dir) * system.null_dir
    assert np.max(np.abs(off_line)) <= 1e-10
    for value in (a, b):
        w = w_at(system, value)
        assert w[0] == pytest.approx(value, abs=1e-12)


def test_recover_poses_at_seed_parameter(hexagon_geometry):
    sols = recover_poses(hexagon_geometry, np.array([1.0, 0, 0, -1, 0, -1]),
                         np.full(6, ROOT_125))
    assert {(round(s.pose.orientation.q0, 9), round(s.pose.position[2], 9))
            for s in sols} == {(1.0, 1.0), (1.0, -1.0)}


def test_recover_poses_halfway(hexagon_geometry):
    sols = recover_poses(hexagon_geometry, np.array([0.5, 0, 0, -0.5, 0, -0.5]),
                         np.full(6, ROOT_125))
    for s in sols:
        q = s.pose.orientation
        assert q.q0 == pytest.approx(math.sqrt(0.75), abs=1e-12)
        assert abs(q.q3) == pytest.approx(0.5, abs=1e-12)
        assert abs(s.pose.position[2]) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        recomputed = leg_lengths(hexagon_geometry, s.pose)
        assert np.max(np.abs(recomputed - ROOT_125)) <= 1e-9
    assert {(s.pose.orientation.q3 > 0, s.position_sign) for s in sols} == \
        {(True, 1), (True, -1), (False, 1), (False, -1)}


def test_recover_poses_at_zero(hexagon_geometry):
    sols = recover_poses(hexagon_geometry, np.zeros(6), np.full(6, ROOT_125))
    for s in sols:
        assert s.pose.orientation.q0 == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert np.max(np.abs(s.pose.position)) <= 1e-12
        assert np.max(np.abs(leg_lengths(hexagon_geometry, s.pose) - ROOT_125)) <= 1e-9


def test_sweep_unit_interval(hexagon_geometry, resting_system):
    samples = sweep(resting_system, hexagon_geometry, 0.0, 1.0, 21)
    assert len(samples) == 21
    assert all(s.feasible for s in samples)
    assert max(s.leg_residual for s in samples) <= 1e-8 * (1.0 + ROOT_125)
    for s in samples[1:]:
        assert s.step_from_prev is not None


def test_sweep_beyond_unit_interval_is_infeasible(hexagon_geometry, resting_system):
    samples = sweep(resting_system, hexagon_geometry, 1.05, 2.0, 10)
    assert len(samples) == 10
    assert not any(s.feasible for s in samples)
    assert all(s.poses == () for s in samples)
    assert all(math.isnan(s.leg_residual) for s in samples)


def test_sweep_two_samples_hits_endpoints(hexagon_geometry, resting_system):
    samples = sweep(resting_system, hexagon_geometry, 0.0, 1.0, 2)
    assert [s.parameter for s in samples] == [0.0, 1.0]
    assert all(s.feasible for s in samples)


def test_sweep_validates_grid(hexagon_geometry, resting_system):
    with pytest.raises(ValidationError):
        sweep(resting_system, hexagon_geometry, 0.0, 1.0, 1)
    with pytest.raises(ValidationError):
        sweep(resting_system, hexagon_geometry, 1.0, 0.5, 10)
    with pytest.raises(ValidationError):
        sweep(resting_system, hexagon_geometry, -0.5, 1.0, 10)
    with pytest.raises(ValidationError):
        sweep(resting_system, hexagon_geometry, 0.0, math.inf, 10)
    with pytest.raises(ValidationError):
        sweep(resting_system, hexagon_geometry, 0.0, 1.0, 2.5)


def test_sweep_contains_seed_pose(rng):
    geom = PlatformGeometry(base=random_circle_base(rng), mu=0.4)
    pose = random_feasible_pose(geom, rng)
    lengths = leg_lengths(geom, pose)
    system = build_singular_system(geom, lengths)
    w1_seed = float(pose.position @ pose.position)
    samples = sweep(system, geom, w1_seed, w1_seed + 0.2, 5)
    first = samples[0]
    assert first.feasible
    assert min(pose_gap(s.pose, pose) for s in first.poses) <= 1e-8


def test_sweep_with_top_rotation(rng):
    geom = PlatformGeometry(base=random_circle_base(rng), mu=0.4,
                            top_transform=random_rotation(rng))
    pose = random_feasible_pose(geom, rng)
    lengths = leg_lengths(geom, pose)
    system = build_singular_system(geom, lengths)
    w1_seed = float(pose.position @ pose.position)
    sols = recover_poses(geom, w_at(system, w1_seed), lengths=lengths)
    assert min(pose_gap(s.pose, pose) for s in sols) <= 1e-8


def test_circle_null_direction_fixes_w2_w3_w5(rng):
    # those coordinates of the null direction vanish on unit-circle bases,
    # so w2, w3, w5 stay constant along the family
    for _ in range(20):
        geom = PlatformGeometry(base=random_circle_base(rng), mu=0.5)
        pose = random_feasible_pose(geom, rng)
        system = build_singular_system(geom, leg_lengths(geom, pose))
        assert abs(system.null_dir[1]) <= 1e-9
        assert abs(system.null_dir[2]) <= 1e-9
        assert abs(system.null_dir[4]) <= 1e-9


def test_feasible_interval_unit(hexagon_geometry, resting_system):
    intervals = feasible_interval(resting_system, hexagon_geometry, 5.0)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert abs(lo - 0.0) <= 1e-6
    assert abs(hi - 1.0) <= 1e-6


def test_feasible_interval_contains_seed_at_origin(hexagon_geometry):
    system = build_singular_system(hexagon_geometry, np.full(6, 0.5))
    intervals = feasible_interval(system, hexagon_geometry, 5.0)
    assert any(lo - 1e-9 <= 0.0 <= hi + 1e-9 for lo, hi in intervals)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["circle", "ellipse"])
def test_interval_endpoints_admit_poses(kind, seed):
    # the bisection returns the feasible end of its last bracket
    geom, lengths = seeded_conic_family(kind, seed)
    system = build_singular_system(geom, lengths)
    intervals = feasible_interval(system, geom, 4.0)
    assert intervals
    for lo, hi in intervals:
        for w1 in (lo, hi):
            assert recover_poses(geom, w_at(system, w1), lengths)


def test_interval_hint_must_be_positive(resting_system, hexagon_geometry):
    with pytest.raises(ValidationError):
        feasible_interval(resting_system, hexagon_geometry, 0.0)
    with pytest.raises(ValidationError):
        feasible_interval(resting_system, hexagon_geometry, math.inf)


def test_conic_without_constant_term_is_not_w1_parameterizable():
    geom = circle_through_origin_geometry()
    pose = Pose(Quaternion(1, 0, 0, 0), np.array([0.0, 0.0, 1.0]))
    system = build_singular_system(geom, leg_lengths(geom, pose))
    assert not system.parameterizable_by_w1
    with pytest.raises(NotParameterizable):
        w_at(system, 1.0)
    with pytest.raises(NotParameterizable):
        feasible_interval(system, geom, 2.0)
    # arc length still walks the same solution line
    w = w_at_arc(system, 0.25)
    q = build_q(geom.base)
    d0 = q @ system.particular
    assert np.max(np.abs(q @ w - d0)) <= 1e-9


def test_arc_length_sweep_flags_parameter(rng):
    geom = circle_through_origin_geometry()
    pose = Pose(Quaternion(1, 0, 0, 0), np.array([0.0, 0.0, 1.0]))
    system = build_singular_system(geom, leg_lengths(geom, pose))
    samples = sweep(system, geom, -0.2, 0.2, 5)
    assert len(samples) == 5
    assert any(s.feasible for s in samples)
    for s in samples:
        if s.feasible:
            assert np.max(np.abs(leg_lengths(geom, s.poses[0].pose) -
                                 system.lengths)) <= 1e-8 * (1 + system.lengths.max())
