import gc
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scalar_oracle as oracle
from helpers import (CIRCLE_COEFFS, circle_through_origin_geometry,
                     circle_through_origin_system, collinear_base, hexagon_base, leg_jacobian, pose_gap,
                     perturbed_hexagon_base, random_circle_base, random_feasible_pose,
                     random_rotation, random_unit_quaternion, seeded_conic_family)
from stewart66 import fk_singular
from stewart66.errors import (DegenerateBase, Inconsistent, Infeasible, ValidationError,
                              WrongRank)
from stewart66.fk_nonsingular import rotation_candidates, solution_arrays
from stewart66.fk_singular import (MAX_SAMPLES, build_singular_system, feasible_interval,
                                   recover_poses, sweep, w_at)
from stewart66.geometry import PlatformGeometry, build_q, make_circle_base
from stewart66.ik import Pose, leg_lengths, plane_map, w_from_pose
from stewart66.rotation import Quaternion, columns

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


@pytest.mark.parametrize("radius", [1e-4, 1e-3, 1.0, 3e4, 1e5, 1e6])
def test_consistency_slack_scales_with_the_lengths(radius, rng):
    # rhs = L^2 - (1 + mu^2)|B|^2 cancels at the resting pose, so the slack
    # scales with max L^2, not with rhs: at every radius real poses pass and
    # lengths bumped by up to 1e-3 fail
    geom = PlatformGeometry(base=radius * hexagon_base(), mu=0.5)
    poses = [Pose(Quaternion(1.0, 0.0, 0.0, 0.0), np.array([0.0, 0.0, radius]))]
    poses += [Pose(random_unit_quaternion(rng), radius * rng.uniform(-1, 1, 3))
              for _ in range(30)]
    for pose in poses:
        lengths = leg_lengths(geom, pose)
        build_singular_system(geom, lengths)
        with pytest.raises(Inconsistent):
            build_singular_system(geom, lengths * (1.0 + rng.uniform(-1e-3, 1e-3, 6)))


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


def test_sweep_rejects_a_negative_lower_bound(resting_system, hexagon_geometry):
    # the grid starts exactly at w1_min, so w_at sees the bound itself
    with pytest.raises(ValidationError, match=r"must be >= 0, got -1\.0$"):
        sweep(resting_system, hexagon_geometry, -1.0, 1.0, 11)


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


@pytest.mark.parametrize("w, fits", [
    ([1.2, 0, 0, -1.2, 0, -1.2], False),  # past the family's end at w1 = 1
    ([0.5, 0, 0, -1.0, 0, -1.0], True),   # the identity, its sphere points off the lengths
], ids=["no_rotation", "no_position"])
def test_recover_poses_raises_one_message_for_either_cause(w, fits, hexagon_geometry):
    assert rotation_candidates(np.array([w]), hexagon_geometry.mu).fits[0] == fits
    message = "^no pose branch reproduces the leg lengths at this parameter$"
    with pytest.raises(Infeasible, match=message):
        recover_poses(hexagon_geometry, w, np.full(6, ROOT_125))


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


def test_sweep_leaves_the_collector_as_it_found_it(collector, hexagon_geometry, resting_system):
    assert any(s.poses for s in sweep(resting_system, hexagon_geometry, 0.0, 1.2, 101))
    assert gc.isenabled() is collector
    with pytest.raises(ValidationError):
        sweep(resting_system, hexagon_geometry, 1.0, 0.0, 101)
    assert gc.isenabled() is collector


def fill_fails(cls, *columns):
    raise MemoryError("no room for the objects")


def test_a_sweep_that_raises_leaves_the_collector_as_it_found_it(
        collector, hexagon_geometry, resting_system, monkeypatch):
    # raised inside the build, while the collector is paused
    monkeypatch.setattr(fk_singular, "_fill", fill_fails)
    with pytest.raises(MemoryError):
        sweep(resting_system, hexagon_geometry, 0.0, 1.2, 101)
    assert gc.isenabled() is collector


# with the collector off throughout, a cycle the sweep made would be left
# for the second collect to find
@pytest.mark.parametrize("collector", [False], indirect=True)
def test_a_sweep_leaves_no_reference_cycles(collector, hexagon_geometry, resting_system):
    gc.collect()
    samples = sweep(resting_system, hexagon_geometry, 0.0, 1.0, 1001)
    assert sum(len(s.poses) for s in samples) > 2000
    del samples
    assert gc.collect() == 0


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
    # np.linspace raised a bare ValueError at these counts, which no array can hold
    for count in (10 ** 20, 2 ** 62):
        with pytest.raises(ValidationError, match=f"need at most {MAX_SAMPLES} samples"):
            sweep(resting_system, hexagon_geometry, 0.0, 1.0, count)


@pytest.mark.parametrize("bounds", [(None, 1.0), (0.0, None), ("0", 1.0), (0.0, "1"),
                                    (False, 1.0), (0.0, True), (0.0, math.nan), (0.0, 10 ** 400),
                                    ([0.0], 1.0), (0.0, [1.0, True])])
def test_sweep_refuses_bounds_that_are_not_real_numbers(bounds, hexagon_geometry,
                                                        resting_system):
    # float() would read "1" and True, and None would raise TypeError
    with pytest.raises(ValidationError, match="must be a finite real number"):
        sweep(resting_system, hexagon_geometry, *bounds, 10)


@pytest.mark.parametrize("hint", [None, "5", True, math.inf, math.nan, [5.0], [5.0, [5.0]]])
def test_feasible_interval_refuses_a_hint_that_is_not_a_real_number(hint, hexagon_geometry,
                                                                    resting_system):
    with pytest.raises(ValidationError, match="must be a finite real number"):
        feasible_interval(resting_system, hexagon_geometry, hint)


@pytest.mark.parametrize("hint", [0.0, -1.0])
def test_feasible_interval_refuses_a_hint_that_is_not_positive(hint, hexagon_geometry,
                                                               resting_system):
    with pytest.raises(ValidationError, match="must be positive"):
        feasible_interval(resting_system, hexagon_geometry, hint)


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
    assert abs(lo - 0.0) <= 1e-12
    assert abs(hi - 1.0) <= 1e-12


@pytest.mark.parametrize("radius", [3000.0, 1e4])
def test_feasible_interval_far_from_unit_scale(radius, monkeypatch):
    # the ends are roots, placed to the float spacing of w1 = radius**2
    # with no search that has to reach it
    geom = PlatformGeometry(base=radius * hexagon_base(), mu=0.5)
    lengths = leg_lengths(geom, Pose(Quaternion(1, 0, 0, 0), np.array([0.0, 0.0, radius])))
    system = build_singular_system(geom, lengths)
    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        if len(calls) > 50:
            raise RuntimeError("feasible_interval does not converge")
        return solution_arrays(*args)

    monkeypatch.setattr(fk_singular, "solution_arrays", counted)
    intervals = feasible_interval(system, geom, 5.0 * radius ** 2)
    assert len(calls) <= 7
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo == 0.0
    assert abs(hi - radius ** 2) <= 1e-8 * radius ** 2
    for w1 in (lo, hi):
        assert recover_poses(geom, w_at(system, w1), lengths)


def test_feasible_interval_contains_seed_at_origin(hexagon_geometry):
    system = build_singular_system(hexagon_geometry, np.full(6, 0.5))
    intervals = feasible_interval(system, hexagon_geometry, 5.0)
    assert any(lo - 1e-9 <= 0.0 <= hi + 1e-9 for lo, hi in intervals)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["circle", "ellipse"])
def test_interval_endpoints_admit_poses(kind, seed):
    # an end the kernel rejects steps inward until it admits a pose
    geom, lengths = seeded_conic_family(kind, seed)
    system = build_singular_system(geom, lengths)
    intervals = feasible_interval(system, geom, 4.0)
    assert intervals
    for lo, hi in intervals:
        for w1 in (lo, hi):
            assert recover_poses(geom, w_at(system, w1), lengths)


def seed_parameter(system, geom, pose):
    """The family parameter of a pose: w1, or arc length from the particular solution."""
    if system.parameterizable_by_w1:
        return float(pose.position @ pose.position)
    return float((w_from_pose(geom, pose) - system.particular) @ system.null_dir)


def assert_ends_admit_poses(system, geom, intervals):
    ends = np.ravel(intervals)
    assert solution_arrays(geom, w_at(system, ends), system.lengths).feasible.all()


def random_conic_base(rng, kind):
    """Six random points on a circle with a random centre, an ellipse with
    random axes, centre and turn, or a circle through the base origin."""
    t = rng.uniform(0.0, 2.0 * np.pi, 6)
    if kind == "ellipse":
        axes, phi = rng.uniform(0.3, 2.0, 2), rng.uniform(0.0, np.pi)
        c, s = np.cos(phi), np.sin(phi)
        points = (axes * np.column_stack([np.cos(t), np.sin(t)])) @ np.array([[c, -s], [s, c]]).T
        return rng.uniform(-1.0, 1.0, 2) + points
    radius = rng.uniform(0.3, 2.0)
    if kind == "circle":
        centre = rng.uniform(-1.5, 1.5, 2)
    else:
        phi = rng.uniform(0.0, 2.0 * np.pi)
        centre = radius * np.array([np.cos(phi), np.sin(phi)])
    return centre + radius * np.column_stack([np.cos(t), np.sin(t)])


# the base is scaled by 10^scale: on small bases the particular solution's
# rotation block grows as 1 / r^2 while the seed's stays of order mu
@given(kind=st.sampled_from(["circle", "ellipse", "origin"]), turned=st.booleans(),
       mu=st.floats(0.05, 0.95), scale=st.floats(-5.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_feasible_set_holds_the_seed_and_its_ends_admit_poses(kind, turned, mu, scale, seed):
    rng = np.random.default_rng(seed)
    geom = PlatformGeometry(base=10.0 ** scale * random_conic_base(rng, kind), mu=mu,
                            top_transform=random_rotation(rng) if turned else None)
    pose = Pose(random_unit_quaternion(rng), rng.uniform(-1.0, 1.0, 3))
    system = build_singular_system(geom, leg_lengths(geom, pose))
    assert system.parameterizable_by_w1 == (kind != "origin")
    s = seed_parameter(system, geom, pose)
    intervals = feasible_interval(system, geom, 2.0 * abs(s) + 1.0)
    # a seed the kernel itself rejects at w_at(s) cannot be asked of the intervals
    if solution_arrays(geom, w_at(system, s)[None], system.lengths).feasible[0]:
        slack = 1e-12 * (1.0 + abs(s))
        assert any(lo - slack <= s <= hi + slack for lo, hi in intervals)
    assert np.all(np.diff(np.ravel(intervals)) >= 0.0)
    assert_ends_admit_poses(system, geom, intervals)


def test_a_small_ellipse_keeps_its_seed():
    # a base of radius about 1.4e-4: expanded about the particular solution,
    # whose w4..w6 reach 4e7, the breakpoints missed this 2e-9 wide set
    base = np.array([[1.3765055783161007e-4, -6.242383345255993e-6],
                     [2.3991860815643052e-5, 9.510026643021808e-5],
                     [-1.1826740715158011e-4, 3.799893542899372e-5],
                     [-1.4099296754904847e-4, -7.4106576767188746e-6],
                     [-9.407734636381144e-5, -8.081046570248187e-5],
                     [1.0716673206650291e-4, -4.898519252692056e-5]])
    geom = PlatformGeometry(base=base, mu=0.5419799331681693)
    pose = Pose(Quaternion(0.2932188826576142, -0.5737408114467123, -0.10349818280158149,
                           0.7577151801899304),
                np.array([-0.7129268766368719, -0.1643421996512029, -0.35382160848311406]))
    system = build_singular_system(geom, leg_lengths(geom, pose))
    w1 = float(pose.position @ pose.position)
    assert solution_arrays(geom, w_at(system, w1)[None], system.lengths).feasible[0]
    intervals = feasible_interval(system, geom, 5.0)
    assert any(lo <= w1 <= hi for lo, hi in intervals)
    assert_ends_admit_poses(system, geom, intervals)


@pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5, 1e-6])
def test_circle_near_the_base_origin_keeps_its_seed(gap):
    # the identity pose at height 1 sits at w1 = 1, on the end where q3
    # reaches 0; the interval is (1 + sqrt 2) * gap wide to first order,
    # below the old 1000-point scan's spacing from gap 1e-4 down
    geom = circle_through_origin_geometry(gap=gap)
    system = circle_through_origin_system(geom)
    assert system.parameterizable_by_w1
    intervals = feasible_interval(system, geom, 5.0)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo - 1e-12 <= 1.0 <= hi
    assert hi - lo == pytest.approx((1.0 + math.sqrt(2.0)) * gap, rel=gap)
    assert_ends_admit_poses(system, geom, intervals)


@pytest.mark.parametrize("radius", [1e-5, 1e-6, 1e-7, 1e-8])
def test_a_small_origin_centred_circle_keeps_its_seed(radius):
    # the identity pose at height r over a circle of radius r: w1 = r^2
    # sits where the sphere touches the position line to within chord^2's
    # rounding, which must split into the seed and its mirror, not snap to
    # P = 0 or find no point
    t = np.array([0.3, 1.2, 2.2, 3.3, 4.2, 5.4])
    geom = PlatformGeometry(base=radius * np.column_stack([np.cos(t), np.sin(t)]), mu=0.5)
    pose = Pose(Quaternion(1.0, 0.0, 0.0, 0.0), np.array([0.0, 0.0, radius]))
    lengths = leg_lengths(geom, pose)
    poses = recover_poses(geom, w_from_pose(geom, pose), lengths)
    assert len(poses) == 2
    for solution, z in zip(poses, (radius, -radius)):
        assert solution.pose.orientation.as_array().tolist() == [1.0, 0.0, 0.0, 0.0]
        assert np.abs(solution.pose.position - [0.0, 0.0, z]).max() <= 1e-12 * radius
    system = build_singular_system(geom, lengths)
    assert system.parameterizable_by_w1
    intervals = feasible_interval(system, geom, 5.0)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo == 0.0
    assert hi == pytest.approx(radius ** 2, rel=1e-12)


def test_an_interval_narrower_than_a_scan_spacing_is_found():
    # the seed's interval is 1.0e-3 wide, a fifth of the spacing of a
    # 1000-point scan over [0, 5], which finds no interval at all
    base = np.array([0.4, -0.9]) + make_circle_base([0.3, 1.2, 2.2, 3.3, 4.2, 5.4])
    geom = PlatformGeometry(base=base, mu=0.2)
    q = np.array([0.2, -1.0, -0.9, -0.2])
    pose = Pose(Quaternion(*(q / np.linalg.norm(q)).tolist()), np.array([-0.6, 0.3, -0.4]))
    system = build_singular_system(geom, leg_lengths(geom, pose))
    s = seed_parameter(system, geom, pose)
    intervals = feasible_interval(system, geom, 5.0)
    (lo, hi), = [(lo, hi) for lo, hi in intervals if lo <= s <= hi]
    assert hi - lo < 0.25 * 5.0 / (oracle.SCAN_POINTS - 1)
    assert_ends_admit_poses(system, geom, intervals)
    assert oracle.feasible_interval(system, geom, 5.0) == []


@pytest.mark.parametrize("kind", ["circle", "ellipse", "top_rotation"])
def test_every_candidate_meets_the_sphere_as_the_gram_formula_says(kind):
    # the plane normals' Gram matrix depends on w4..w6 only, so chord^2 is
    # one number per row, the same for all four rotation candidates
    for seed in (1, 2, 3):
        geom, lengths = seeded_conic_family(kind, seed)
        w = w_at(build_singular_system(geom, lengths), np.linspace(0.0, 4.0, 401))
        rotations = rotation_candidates(w, geom.mu)
        u, v = 2.0 * plane_map(geom, columns(rotations.quaternions.T, 2))  # (3, slot, row)
        n = np.cross(u, v, axis=0)
        w1, w2, w3, w4, w5, w6 = w.T
        r0 = np.cross(w2 * v - w3 * u, n, axis=0) / (n * n).sum(axis=0)
        r02 = (r0 * r0).sum(axis=0)
        g11, g22 = 1.0 + geom.mu ** 2 + w4, 1.0 + geom.mu ** 2 + w6
        gram = w1 - (w2 * w2 * g22 - w2 * w3 * w5 + w3 * w3 * g11) / (4.0 * g11 * g22 - w5 * w5)
        kept = rotations.kept.T
        assert kept.any()
        assert np.all(np.abs(w1 - r02 - gram)[kept] <= 1e-12 * (np.abs(w1) + r02)[kept])


@pytest.mark.parametrize("radius", [1e-6, 1e-4, 1e-3, 1.0, 1e3])
def test_the_family_parameter_does_not_depend_on_the_base_scale(radius):
    # a centred circle is a w1 family at every radius (n1 = 7.1e-9 at
    # radius 1e-4), a circle through the origin an arc-length one
    t = np.array([0.3, 1.2, 2.2, 3.3, 4.2, 5.4])
    pose = Pose(Quaternion(1.0, 0.0, 0.0, 0.0), np.array([0.0, 0.0, radius]))
    for offset, by_w1 in ((0.0, True), (1.0, False)):
        base = radius * np.column_stack([offset + np.cos(t), np.sin(t)])
        geom = PlatformGeometry(base=base, mu=0.5)
        system = build_singular_system(geom, leg_lengths(geom, pose))
        assert system.parameterizable_by_w1 is by_w1
        if by_w1:
            assert w_at(system, radius ** 2)[0] == pytest.approx(radius ** 2, rel=1e-9)


def sigma_ratio(geom, pose):
    s = np.linalg.svd(leg_jacobian(geom, pose), compute_uv=False)
    return s[-1] / s[0]


@pytest.mark.parametrize("kind, seed", [("hexagon", None)] + [
    (kind, seed) for kind in ("circle", "ellipse", "top_rotation") for seed in range(1, 11)])
def test_conic_base_is_singular_at_every_pose(kind, seed, hexagon_geometry):
    # the paper's theorem: with the base on a conic, every pose of the
    # self-motion is a singular configuration (measured ratio <= 2.6e-16)
    if kind == "hexagon":
        geom, lengths = hexagon_geometry, np.full(6, ROOT_125)
    else:
        geom, lengths = seeded_conic_family(kind, seed)
    system = build_singular_system(geom, lengths)
    poses = [sol.pose for lo, hi in feasible_interval(system, geom, 4.0)
             for s in sweep(system, geom, lo, hi, 51) for sol in s.poses]
    assert poses
    assert max(sigma_ratio(geom, pose) for pose in poses) <= 1e-12


def test_base_off_the_conic_is_regular(perturbed_geometry, rng):
    # measured minimum ratio over these poses: 2.6e-5
    poses = [random_feasible_pose(perturbed_geometry, rng) for _ in range(200)]
    assert min(sigma_ratio(perturbed_geometry, pose) for pose in poses) >= 1e-8


def test_interval_hint_must_be_positive(resting_system, hexagon_geometry):
    with pytest.raises(ValidationError):
        feasible_interval(resting_system, hexagon_geometry, 0.0)
    with pytest.raises(ValidationError):
        feasible_interval(resting_system, hexagon_geometry, math.inf)


def test_conic_without_constant_term_is_indexed_by_arc_length():
    geom = circle_through_origin_geometry()
    system = circle_through_origin_system(geom)
    assert not system.parameterizable_by_w1
    # arc length walks the solution line, bit for bit, on either side of
    # the particular solution, for a number and for a batch
    for arc in (0.25, -1.5, np.linspace(-4.0, 4.0, 9)):
        w = w_at(system, arc)
        expected = system.particular + np.multiply.outer(arc, system.null_dir)
        assert w.shape == expected.shape and w.tobytes() == expected.tobytes()
    q = build_q(geom.base)
    d0 = q @ system.particular
    assert np.max(np.abs(q @ w_at(system, 0.25) - d0)) <= 1e-9


def test_arc_length_intervals_contain_every_seed_pose(rng):
    # the window is [-hint, hint]: some intervals reach below 0, and every
    # seed's own arc length lies inside one
    geom = circle_through_origin_geometry()
    below_zero = 0
    for _ in range(4):
        pose = random_feasible_pose(geom, rng)
        system = build_singular_system(geom, leg_lengths(geom, pose))
        assert not system.parameterizable_by_w1
        t = seed_parameter(system, geom, pose)
        intervals = feasible_interval(system, geom, 5.0)
        slack = 1e-9 * (1.0 + abs(t))
        assert any(lo - slack <= t <= hi + slack for lo, hi in intervals)
        below_zero += any(lo < 0.0 for lo, _ in intervals)
        for lo, hi in intervals:
            for arc in (lo, hi):
                assert recover_poses(geom, w_at(system, arc), system.lengths)
    assert below_zero


def test_arc_length_sweep_flags_parameter(rng):
    geom = circle_through_origin_geometry()
    system = circle_through_origin_system(geom)
    samples = sweep(system, geom, -0.2, 0.2, 5)
    assert len(samples) == 5
    assert any(s.feasible for s in samples)
    for s in samples:
        if s.feasible:
            assert np.max(np.abs(leg_lengths(geom, s.poses[0].pose) -
                                 system.lengths)) <= 1e-8 * (1 + system.lengths.max())
