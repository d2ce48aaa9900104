import math

import numpy as np
import pytest

from helpers import (hexagon_base, random_circle_base, random_feasible_pose,
                     random_generic_base, random_rotation, random_unit_quaternion)
from stewart66.errors import DegenerateLeg
from stewart66.geometry import PlatformGeometry, build_q
from stewart66.ik import (Pose, d_from_lengths, leg_lengths, leg_vectors,
                          w_from_pose)
from stewart66.rotation import Quaternion, to_matrix

ROOT_HALF = math.sqrt(0.5)
ROOT_125 = math.sqrt(1.25)


def identity_pose(height=1.0):
    return Pose(Quaternion(1, 0, 0, 0), np.array([0.0, 0.0, height]))


def test_leg_vector_identity_pose_at_height(hexagon_geometry):
    vecs = leg_vectors(hexagon_geometry, np.eye(3), [0.0, 0.0, 1.0])
    assert vecs.shape == (3, 6)
    assert np.allclose(vecs[:, 0], [-0.5, 0.0, 1.0])


def test_leg_vector_identity_pose_at_origin(hexagon_geometry):
    vecs = leg_vectors(hexagon_geometry, np.eye(3), np.zeros(3))
    assert np.allclose(vecs[:, 0], [-0.5, 0.0, 0.0])


def test_leg_vector_quarter_turn(hexagon_geometry):
    quarter = to_matrix(Quaternion(ROOT_HALF, 0, 0, ROOT_HALF))
    vecs = leg_vectors(hexagon_geometry, quarter, np.zeros(3))
    # 0.5 * (0, 1, 0) - (1, 0, 0)
    assert np.allclose(vecs[:, 0], [-1.0, 0.5, 0.0])


def test_stacked_leg_vectors_match_one_pose_at_a_time(rng):
    # the audit's shapes, components first: rotations (3, 3, 1, M) against
    # positions (3, 2, M)
    geom = PlatformGeometry(base=random_generic_base(rng), mu=0.4,
                            top_transform=random_rotation(rng))
    quats = [random_unit_quaternion(rng) for _ in range(7)]
    ra = np.array([to_matrix(q) @ geom.top_transform for q in quats]).transpose(1, 2, 0)[:, :, None]
    positions = rng.uniform(-1.0, 1.0, (3, 2, 7))
    legs = leg_vectors(geom, ra, positions)
    assert legs.shape == (3, 6, 2, 7)
    lengths = np.linalg.norm(legs, axis=0)
    for m, q in enumerate(quats):
        for b in range(2):
            one = leg_vectors(geom, ra[:, :, 0, m], positions[:, b, m])
            assert one.shape == (3, 6)
            assert one.tobytes() == legs[:, :, b, m].tobytes()
            pose = Pose(q, positions[:, b, m])
            assert leg_lengths(geom, pose).tobytes() == lengths[:, b, m].tobytes()


def test_lengths_identity_pose_at_height(hexagon_geometry):
    lengths = leg_lengths(hexagon_geometry, identity_pose())
    assert np.allclose(lengths, ROOT_125, atol=1e-15)


def test_lengths_identity_pose_at_origin(hexagon_geometry):
    lengths = leg_lengths(hexagon_geometry, identity_pose(0.0))
    assert np.allclose(lengths, 0.5, atol=1e-15)


def test_length_quarter_turn(hexagon_geometry):
    pose = Pose(Quaternion(ROOT_HALF, 0, 0, ROOT_HALF), np.zeros(3))
    assert leg_lengths(hexagon_geometry, pose)[0] == pytest.approx(ROOT_125, abs=1e-15)


def test_degenerate_leg_detected(hexagon_geometry):
    # P = (1 - mu) * B_1 collapses leg 1 exactly
    pose = Pose(Quaternion(1, 0, 0, 0), np.array([0.5, 0.0, 0.0]))
    with pytest.raises(DegenerateLeg):
        leg_lengths(hexagon_geometry, pose)


def test_w_identity_pose_at_height(hexagon_geometry):
    w = w_from_pose(hexagon_geometry, identity_pose())
    assert np.allclose(w, [1.0, 0, 0, -1, 0, -1], atol=1e-15)


def test_w_identity_pose_offset_x(hexagon_geometry):
    pose = Pose(Quaternion(1, 0, 0, 0), np.array([1.0, 0.0, 0.0]))
    w = w_from_pose(hexagon_geometry, pose)
    assert np.allclose(w, [1.0, -1.0, 0, -1, 0, -1], atol=1e-15)


def test_w_quarter_turn(hexagon_geometry):
    pose = Pose(Quaternion(ROOT_HALF, 0, 0, ROOT_HALF), np.zeros(3))
    w = w_from_pose(hexagon_geometry, pose)
    assert np.max(np.abs(w)) <= 1e-15


def test_d_zero_when_lengths_match_radius(hexagon_geometry):
    d = d_from_lengths(hexagon_geometry, np.full(6, ROOT_125))
    assert np.max(np.abs(d)) <= 1e-15


def test_d_for_short_legs(hexagon_geometry):
    d = d_from_lengths(hexagon_geometry, np.full(6, 0.5))
    assert np.allclose(d, -1.0)


def test_d_off_circle_vertex():
    base = hexagon_base()
    base[0, 0] = 1.2
    geom = PlatformGeometry(base=base, mu=0.5)
    d = d_from_lengths(geom, np.array([1.0, 1, 1, 1, 1, 1]))
    assert d[0] == pytest.approx(1.0 - 1.25 * 1.44)


def test_length_system_identity(rng):
    # the core identity Q @ w == d, on generic and circle bases,
    # with and without a top rotation
    for trial in range(300):
        base = random_circle_base(rng) if trial % 2 == 0 else random_generic_base(rng)
        top = random_rotation(rng) if trial % 3 == 0 else None
        geom = PlatformGeometry(base=base, mu=rng.uniform(0.1, 0.9), top_transform=top)
        pose = random_feasible_pose(geom, rng)
        gap = build_q(geom.base) @ w_from_pose(geom, pose) - \
            d_from_lengths(geom, leg_lengths(geom, pose))
        assert np.max(np.abs(gap)) <= 1e-9


def test_lengths_invariant_under_quaternion_sign_flip(rng):
    geom = PlatformGeometry(base=random_generic_base(rng), mu=0.37)
    pose = random_feasible_pose(geom, rng)
    q = pose.orientation
    flipped = Pose(Quaternion(-q.q0, -q.q1, -q.q2, -q.q3), pose.position)
    assert np.array_equal(leg_lengths(geom, pose), leg_lengths(geom, flipped))


def test_lengths_scale_with_geometry(rng):
    base = random_generic_base(rng)
    geom = PlatformGeometry(base=base, mu=0.6)
    pose = random_feasible_pose(geom, rng)
    scaled_geom = PlatformGeometry(base=2.0 * base, mu=0.6)
    scaled_pose = Pose(pose.orientation, 2.0 * pose.position)
    ratio = leg_lengths(scaled_geom, scaled_pose) / leg_lengths(geom, pose)
    assert np.max(np.abs(ratio - 2.0)) <= 1e-12


def test_w_component_bounds(rng):
    # rotation entries are at most 1 in magnitude, so the rotation block
    # of w is bounded by multiples of 2*mu, and w1 = |P|^2 >= 0
    for _ in range(100):
        mu = rng.uniform(0.1, 0.9)
        geom = PlatformGeometry(base=random_circle_base(rng), mu=mu,
                                top_transform=random_rotation(rng))
        w = w_from_pose(geom, random_feasible_pose(geom, rng))
        assert w[0] >= 0.0
        assert abs(w[3]) <= 2 * mu + 1e-12
        assert abs(w[4]) <= 4 * mu + 1e-12
        assert abs(w[5]) <= 2 * mu + 1e-12
