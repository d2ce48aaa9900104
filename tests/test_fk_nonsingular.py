import copy
import dataclasses
import gc
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scalar_oracle as oracle
from helpers import (circle_through_origin_geometry, circle_through_origin_system,
                     collinear_base, hexagon_base, perturbed_hexagon_base, pose_gap,
                     random_circle_base, random_feasible_pose, random_generic_base,
                     random_rotation, random_unit_quaternion, rotation_rows, zero_pattern_rows)
from stewart66 import fk_nonsingular, linalg
from stewart66.errors import (DegenerateBase, Infeasible, SingularBase,
                              ValidationError)
from stewart66.fk_nonsingular import (CLAMP_TOL, MAX_W, RESIDUAL_TOL, FkSolution, SolutionArrays,
                                      fk_solve, rotation_candidates, solution_arrays,
                                      sphere_points)
from stewart66.fk_singular import (SingularCurveSample, _steps, build_singular_system,
                                   feasible_interval, recover_poses, sweep, w_at)
from stewart66.geometry import (ORTHOGONALITY_TOL, PlatformGeometry, build_q,
                                factor_for_rank)
from stewart66.ik import (MAX_LENGTH, MIN_LEG_LENGTH, Pose, d_from_lengths, leg_lengths,
                          leg_vectors, plane_map, w_from_pose)
from stewart66.rotation import RENORM_TOL, Quaternion, canonicalize, columns, to_matrix

ROOT_HALF = math.sqrt(0.5)


def candidates(w, mu):
    """Rotation stage on a batch of one that fits: (arrays, the row's candidate list)."""
    c = rotation_candidates(np.asarray(w, dtype=float)[None], mu)
    assert c.fits[0]
    return c, [Quaternion(*q) for q in c.quaternions[0, c.kept[0]]]


def alpha_beta_gamma(w, mu):
    """The rotation stage's alpha, beta and gamma of one w vector."""
    alpha = (w[3] - w[5]) / (4.0 * mu)
    beta = -w[4] / (8.0 * mu)
    return alpha, beta, math.hypot(alpha, 2.0 * beta)


def points(w, q, geom):
    """Sphere stage for one candidate: [(P, sign)], + before -."""
    m = plane_map(geom, (to_matrix(q) @ geom.top_transform)[:, :2].T)
    pts, signs, hit = sphere_points(np.asarray(w, dtype=float)[None], m[..., None, None])
    return [(pts[:, b, 0, 0], int(signs[b, 0, 0])) for b in range(2) if hit[b, 0, 0]]


@pytest.mark.parametrize("base, error", [
    (hexagon_base(), SingularBase),
    (collinear_base(), DegenerateBase),
], ids=["conic", "collinear"])
def test_fk_solve_refuses_rank_deficient_base(base, error):
    # rank 5 belongs to the family solver; below rank 5 no solver applies
    with pytest.raises(error):
        fk_solve(PlatformGeometry(base=base, mu=0.5), np.ones(6))


def test_identity_w_gives_single_candidate():
    w = [1.0, 0, 0, -1, 0, -1]
    _, qs = candidates(w, 0.5)
    assert alpha_beta_gamma(w, 0.5) == (0.0, 0.0, 0.0)
    assert len(qs) == 1
    q = qs[0]
    assert (q.q0, q.q1, q.q2, q.q3) == (1.0, 0.0, 0.0, 0.0)


def test_zero_rotation_block_gives_quarter_turn_pair():
    _, qs = candidates(np.zeros(6), 0.5)
    assert len(qs) == 2
    for q, sign in zip(qs, (1.0, -1.0)):
        assert q.q0 == pytest.approx(ROOT_HALF, abs=1e-12)
        assert q.q3 == pytest.approx(sign * ROOT_HALF, abs=1e-12)
        assert q.q1 == q.q2 == 0.0


def test_half_turn_about_x():
    w = np.array([0.0, 0, 0, -1.0, 0, 1.0])
    _, qs = candidates(w, 0.5)
    alpha, _, gamma = alpha_beta_gamma(w, 0.5)
    assert (alpha, gamma) == (-1.0, 1.0)
    assert len(qs) == 1
    q = qs[0]
    assert (q.q0, q.q1, q.q2, q.q3) == (0.0, 1.0, 0.0, 0.0)
    # the candidate reproduces the defining rotation-block entries
    r = to_matrix(q)
    assert -2 * 0.5 * r[0, 0] == pytest.approx(w[3], abs=1e-12)
    assert -2 * 0.5 * r[1, 1] == pytest.approx(w[5], abs=1e-12)


def test_out_of_range_rotation_block_is_infeasible(hexagon_geometry):
    # w4 beyond 2*mu forces q0^2 or q3^2 negative
    w = np.array([1.0, 0, 0, -3.0, 0, 0.5])
    cands = rotation_candidates(w[None], 0.5)
    assert not cands.fits[0] and not cands.kept.any()
    # the squares say why the row has no pose: q3^2 would be -1
    assert cands.squares[0].tolist() == [0.25, 1.75, 0.0, -1.0]
    assert solution_arrays(hexagon_geometry, w[None], np.ones(6)).solutions() == [[]]


def test_candidates_reproduce_rotation_block(rng):
    for _ in range(200):
        mu = rng.uniform(0.1, 0.9)
        geom = PlatformGeometry(base=random_generic_base(rng), mu=mu)
        w = w_from_pose(geom, random_feasible_pose(geom, rng))
        _, qs = candidates(w, mu)
        assert 1 <= len(qs) <= 4
        alpha, _, gamma = alpha_beta_gamma(w, mu)
        assert gamma >= abs(alpha) >= 0.0
        for q in qs:
            r = to_matrix(q)
            assert abs(-2 * mu * r[0, 0] - w[3]) <= 1e-8
            assert abs(-2 * mu * (r[0, 1] + r[1, 0]) - w[4]) <= 1e-8
            assert abs(-2 * mu * r[1, 1] - w[5]) <= 1e-8
        arrays = [q.as_array() for q in qs]
        for i in range(len(arrays)):
            for j in range(i + 1, len(arrays)):
                assert np.linalg.norm(arrays[i] - arrays[j]) > 1e-9


def test_degenerate_candidates_deduplicate():
    # q1 = q2 = 0 collapses the sign flips pairwise
    _, qs = candidates([1.0, 0, 0, -0.5, 0, -0.5], 0.5)
    assert len(qs) == 2


def test_position_two_points(hexagon_geometry):
    pts = points([1.0, 0, 0, -1, 0, -1], Quaternion(1, 0, 0, 0), hexagon_geometry)
    assert [sign for _, sign in pts] == [1, -1]
    assert np.allclose(pts[0][0], [0, 0, 1])
    assert np.allclose(pts[1][0], [0, 0, -1])


def test_position_tangency(hexagon_geometry):
    pts = points([0.0, 0, 0, -1, 0, -1], Quaternion(1, 0, 0, 0), hexagon_geometry)
    assert len(pts) == 1
    point, sign = pts[0]
    assert sign == 0
    assert np.allclose(point, 0.0)


@pytest.mark.parametrize("multiple, signs", [(24, [1, -1]), (4, [0])], ids=["split", "snapped"])
def test_tangency_snap_splits_above_8_eps_of_its_terms(multiple, signs, hexagon_geometry):
    # A = I, mu 0.5 and (w2, w3) = (-0.5, -0.25) put r0 at (0.5, 0.25, 0),
    # so |r0|^2 = 0.3125 and chord^2 = w1 - 0.3125 are exact; chord^2 is
    # multiple * EPS * (|w1| + |r0|^2) to within 1e-14 relative
    rr = 0.3125
    w1 = rr + multiple * np.finfo(float).eps * 2.0 * rr
    pts = points([w1, -0.5, -0.25, -1.0, 0.0, -1.0], Quaternion(1, 0, 0, 0), hexagon_geometry)
    assert [sign for _, sign in pts] == signs
    r0 = np.array([0.5, 0.25, 0.0])
    if len(pts) == 1:
        assert pts[0][0].tolist() == r0.tolist()
    else:
        assert pts[0][0][2] > 0.0 > pts[1][0][2]
        assert pts[0][0][:2].tolist() == pts[1][0][:2].tolist() == r0[:2].tolist()


def test_position_no_intersection(hexagon_geometry):
    assert points([-0.5, 0, 0, -1, 0, -1], Quaternion(1, 0, 0, 0), hexagon_geometry) == []


def test_position_satisfies_planes_and_sphere(rng):
    for _ in range(100):
        geom = PlatformGeometry(base=random_generic_base(rng), mu=rng.uniform(0.2, 0.8))
        pose = random_feasible_pose(geom, rng)
        w = w_from_pose(geom, pose)
        ra = to_matrix(pose.orientation) @ geom.top_transform
        m = geom.mu * ra - np.eye(3)
        u, v = 2.0 * m[:, 0], 2.0 * m[:, 1]
        for point, _ in points(w, pose.orientation, geom):
            assert abs(u @ point - w[1]) <= 1e-8
            assert abs(v @ point - w[2]) <= 1e-8
            assert abs(point @ point - w[0]) <= 1e-8


def test_fk_recovers_seed_pose(perturbed_geometry):
    pose = Pose(Quaternion(1, 0, 0, 0), np.array([0.0, 0.0, 1.0]))
    lengths = leg_lengths(perturbed_geometry, pose)
    sols = fk_solve(perturbed_geometry, lengths)
    assert 1 <= len(sols) <= 8
    assert min(pose_gap(s.pose, pose) for s in sols) <= 1e-9
    tol = 1e-8 * (1.0 + lengths.max())
    for s in sols:
        recomputed = leg_lengths(perturbed_geometry, s.pose)
        assert np.max(np.abs(recomputed - lengths)) <= tol
    # deterministic ordering: rotation index ascending, + branch before -
    keys = [(s.rotation_index, -s.position_sign) for s in sols]
    assert keys == sorted(keys)


@pytest.mark.parametrize("q2", [1e-5, 1e-6, 1e-7])
def test_fk_recovers_pose_with_small_quaternion_component(perturbed_geometry, q2):
    # the small root of q1, q2 must not come from a cancelling square root
    v = np.array([0.3, 0.95, q2, 0.08])
    pose = Pose(Quaternion(*(v / np.linalg.norm(v))), np.array([0.1, -0.2, 0.9]))
    sols = fk_solve(perturbed_geometry, leg_lengths(perturbed_geometry, pose))
    assert min(pose_gap(s.pose, pose) for s in sols) <= 1e-10


def test_audit_rejects_points_off_the_lengths(perturbed_geometry, rng):
    # w fixes rotations and points; only the leg-length audit sees the lengths
    pose = random_feasible_pose(perturbed_geometry, rng)
    w = w_from_pose(perturbed_geometry, pose)[None]
    lengths = leg_lengths(perturbed_geometry, pose)
    exact = solution_arrays(perturbed_geometry, w, lengths)
    off = solution_arrays(perturbed_geometry, w, lengths * (1.0 + 1e-6))
    assert exact.accepted.any()
    assert np.array_equal(off.positions, exact.positions)
    assert not off.accepted.any()
    assert off.solutions() == [[]]


@pytest.mark.parametrize("raise_by, found", [(3e-9, True), (3e-8, False)], ids=["kept", "refused"])
def test_audit_tolerance_is_one_part_in_1e8(raise_by, found, perturbed_geometry, rng):
    # one leg raised by raise_by * (1 + max L): the seed pose's residual is
    # that raise, against RESIDUAL_TOL = 1e-8 of (1 + max L)
    pose = random_feasible_pose(perturbed_geometry, rng)
    w = w_from_pose(perturbed_geometry, pose)[None]
    lengths = leg_lengths(perturbed_geometry, pose)
    lengths[2] += raise_by * (1.0 + lengths.max())
    sols = solution_arrays(perturbed_geometry, w, lengths).solutions()[0]
    assert any(pose_gap(s.pose, pose) <= 1e-9 for s in sols) == found


def test_audit_leaves_nan_where_a_slot_is_dropped_or_misses_the_sphere(perturbed_geometry, rng):
    # rows: generic, slots 1 and 3 dropped (q3 = 0), no rotation fits, the
    # sphere missed, tangent at the origin
    geom = perturbed_geometry
    pose = random_feasible_pose(geom, rng)
    generic = w_from_pose(geom, pose)
    flat = w_from_pose(geom, Pose(Quaternion(0.8, 0.36, 0.48, 0.0), np.array([0.1, -0.2, 0.9])))
    missed = generic.copy()
    missed[0] = -1.0
    w = np.array([generic, flat, [1.0, 0, 0, -3.0, 0, 0.5], missed, [0.0, 0, 0, -1.0, 0, -1.0]])
    batch = solution_arrays(geom, w, leg_lengths(geom, pose))
    q = batch.rotations.quaternions.T
    _, _, hit = sphere_points(w, plane_map(geom, columns(q[:, :2], 2)))
    audit = (batch.rotations.kept.T[:2] & hit[0]).T  # (row, slot 0-1)
    assert audit[0, 0] and audit[1].tolist() == [True, False] and audit[4].tolist() == [True, False]
    assert not audit[2:4].any() and batch.rotations.kept[3].all()
    assert hit[:, 0, 4].tolist() == [True, False]
    for branch in range(2):
        assert np.isnan(batch.residuals[:, :2, branch]).tolist() == (~audit).tolist()
    # the mirrors: slots 2-3 with the branches swapped
    assert batch.residuals[:, 2:, ::-1].tobytes() == batch.residuals[:, :2].tobytes()
    assert batch.accepted[0].any()
    assert not (batch.accepted & np.isnan(batch.residuals)).any()


def test_audit_residuals_match_the_norm_of_each_pose_to_the_byte(rng):
    # the kernel adds the squared leg components one at a time;
    # np.linalg.norm and max over one pose are the reference
    geom = PlatformGeometry(base=random_generic_base(rng), mu=0.4,
                            top_transform=random_rotation(rng))
    poses = [random_feasible_pose(geom, rng) for _ in range(20)]
    # every row's points are the poses of its own w; only row 0 fits the lengths
    target = leg_lengths(geom, poses[0])
    batch = solution_arrays(geom, np.array([w_from_pose(geom, p) for p in poses]), target)
    maps = plane_map(geom, columns(batch.rotations.quaternions.T, 2))
    audited = ~np.isnan(batch.residuals)
    assert batch.accepted.any() and (audited & ~batch.accepted).any()
    for row, slot, branch in zip(*np.nonzero(audited)):
        legs = leg_vectors(geom, maps[:, :, slot, row], batch.positions[row, slot, branch])
        lengths = np.linalg.norm(legs, axis=0)
        residual = np.abs(lengths - target).max()
        assert batch.residuals[row, slot, branch].tobytes() == residual.tobytes()
        assert batch.accepted[row, slot, branch] == (
            (branch == 0 or batch.signs[row, slot, 0] != 0) and lengths.min() >= MIN_LEG_LENGTH
            and residual <= RESIDUAL_TOL * (1.0 + target.max()))


@pytest.mark.parametrize("leg", range(6))
def test_audit_refuses_a_pose_whose_leg_collapses(leg, hexagon_geometry):
    # P = (1 - mu) * B_leg collapses that leg of the unturned plate; its
    # length 0 is matched, so only the shortest-leg check can refuse it
    position = np.append((1.0 - hexagon_geometry.mu) * hexagon_geometry.base[leg], 0.0)
    pose = Pose(Quaternion(1.0, 0.0, 0.0, 0.0), position)
    m = plane_map(hexagon_geometry, np.eye(3)[:, :2].T)
    lengths = np.linalg.norm(leg_vectors(hexagon_geometry, m, position), axis=0)
    assert lengths[leg] <= 1e-15
    batch = solution_arrays(hexagon_geometry, w_from_pose(hexagon_geometry, pose)[None], lengths)
    assert (batch.residuals[~np.isnan(batch.residuals)] <= 1e-12).any()
    assert not batch.accepted.any()


QUARTER_TURN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("top", [None, QUARTER_TURN], ids=["identity", "quarter_turn"])
def test_fk_impossible_lengths(top, rng):
    # no pose is an empty list, whatever the cause: legs of 10 cannot reach
    # (the platform diameter is bounded well below), and with legs of 1 too
    # w fits no rotation; the third w fits one, but no position passes the audit
    geom = PlatformGeometry(base=perturbed_hexagon_base(), mu=0.5, top_transform=top)
    f = factor_for_rank(build_q(geom.base), 6)
    for lengths, fits in (([10.0] * 6, False), ([1.0] * 6, False),
                          ([1.3, 1.3, 0.9, 0.9, 1.1, 0.8], True)):
        w = linalg.solve(f, d_from_lengths(geom, np.array(lengths)))
        assert rotation_candidates(w[None], geom.mu).fits[0] == fits
        assert fk_solve(geom, lengths) == []
    # most random lengths fit no rotation; none of them raises
    answers = [fk_solve(geom, lengths) for lengths in rng.uniform(0.5, 2.0, (1000, 6))]
    assert [] in answers and all(isinstance(a, list) for a in answers)


def answer_bytes(solutions) -> list:
    return [(s.rotation_index, s.position_sign, s.leg_residual,
             s.pose.orientation.as_array().tobytes(), s.pose.position.tobytes()) for s in solutions]


def test_two_threads_answer_as_one(rng):
    # the base turns a quarter with the top: a turned top alone leaves the
    # conic matrix, and so the factorization lu_factor keeps, unchanged.
    # Alternating devices replace it on every call, so a thread that read
    # one device's key with the other's factorization would answer wrongly
    geoms = [PlatformGeometry(base=perturbed_hexagon_base(), mu=0.5),
             PlatformGeometry(base=perturbed_hexagon_base() @ QUARTER_TURN[:2, :2].T, mu=0.5,
                              top_transform=QUARTER_TURN)]
    legs = [leg_lengths(geom, random_feasible_pose(geom, rng)) for geom in geoms]

    def run():
        return [answer_bytes(fk_solve(geoms[k % 2], legs[k % 2])) for k in range(200)]

    serial = run()
    assert serial[0] != serial[1]
    results = [None, None]
    start = threading.Barrier(2)

    def worker(i):
        start.wait(timeout=60)
        results[i] = run()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial, serial]


def test_fk_round_trip_statistics(perturbed_geometry, rng):
    for _ in range(100):
        pose = random_feasible_pose(perturbed_geometry, rng)
        lengths = leg_lengths(perturbed_geometry, pose)
        sols = fk_solve(perturbed_geometry, lengths)
        assert len(sols) <= 8
        assert min(pose_gap(s.pose, pose) for s in sols) <= 1e-8
        signs = [s.position_sign for s in sols]
        if 0 not in signs:
            assert len(sols) % 2 == 0


def test_fk_round_trip_with_top_rotation(rng):
    # candidates carry R*A; the solver must still return the plate pose
    for _ in range(50):
        geom = PlatformGeometry(base=random_generic_base(rng), mu=rng.uniform(0.2, 0.8),
                                top_transform=random_rotation(rng))
        pose = random_feasible_pose(geom, rng)
        lengths = leg_lengths(geom, pose)
        sols = fk_solve(geom, lengths)
        assert min(pose_gap(s.pose, pose) for s in sols) <= 1e-8


def top_rotation_batch(geom, rng, rows=40):
    """solution_arrays on the w vectors of random poses of geom, audited
    against the first pose's lengths: the orientations do not depend on the
    audit."""
    poses = [random_feasible_pose(geom, rng) for _ in range(rows)]
    w = np.array([w_from_pose(geom, pose) for pose in poses])
    return solution_arrays(geom, w, leg_lengths(geom, poses[0]))


@pytest.mark.parametrize("top", [None, np.eye(3), to_matrix(Quaternion(1.0, 0.0, 0.0, 0.0))],
                         ids=["omitted", "eye", "identity_quaternion"])
def test_identity_top_transform_hands_out_the_candidates(top, rng):
    geom = PlatformGeometry(base=random_generic_base(rng), mu=0.4, top_transform=top)
    batch = top_rotation_batch(geom, rng)
    assert batch.orientations.tobytes() == batch.rotations.quaternions.tobytes()


# q_A with its largest component first, second, third and fourth: one per
# Shepperd branch of the matrix-to-quaternion step that reads q_A off A
SHEPPERD_TOPS = [(0.9, 0.3, -0.2, 0.1), (0.2, -0.9, 0.3, -0.1), (0.1, -0.3, 0.9, 0.2),
                 (-0.3, 0.1, -0.2, 0.9)]


@pytest.mark.parametrize("top", [*SHEPPERD_TOPS, "random"],
                         ids=["branch_0", "branch_1", "branch_2", "branch_3", "random"])
def test_plate_orientations_match_the_matrix_round_trip(top, rng):
    # plates are q_RA (x) conj(q_A), q_A read once per geometry; the oracle
    # reads each plate back through R = (R A) A^T instead
    tops = ([random_rotation(rng) for _ in range(20)] if top == "random"
            else [to_matrix(Quaternion(*np.divide(top, np.linalg.norm(top))))])
    if top != "random":
        assert int(np.argmax([np.trace(tops[0]), *np.diag(tops[0])])) == SHEPPERD_TOPS.index(top)
    for a in tops:
        geom = PlatformGeometry(base=random_generic_base(rng), mu=rng.uniform(0.2, 0.8),
                                top_transform=a)
        batch = top_rotation_batch(geom, rng)
        kept = batch.rotations.kept
        assert kept.sum() >= 40
        for q_ra, plate in zip(batch.rotations.quaternions[kept], batch.orientations[kept]):
            expected = oracle.from_matrix(to_matrix(Quaternion(*q_ra)) @ a.T).as_array()
            assert min(np.abs(plate - expected).max(), np.abs(plate + expected).max()) <= 1e-15


# the base-plane mirror (x, y, z) -> (x, y, -z)
FLIP = np.array([1.0, 1.0, -1.0])


def assert_mirror_slots(batch) -> int:
    """Kept slots s and s + 2 of a row hold base-plane mirrors, bit for bit:
    q_RA with (q1, q2) negated, positions (x, y, -z) with the + and - points
    swapped, and the residuals and acceptance swapped with them; at
    tangency both branches hold the one point.  Returns the pairs seen."""
    q, kept = batch.rotations.quaternions, batch.rotations.kept
    rows, slots = np.nonzero(kept[:, :2] & kept[:, 2:])
    for row, s in zip(rows, slots):
        q0, q1, q2, q3 = q[row, s]
        assert canonicalize([q0, 0.0 - q1, 0.0 - q2, q3]).tobytes() == q[row, s + 2].tobytes()
        swap = [1, 0] if batch.signs[row, s, 0] else [0, 1]
        assert batch.signs[row, s + 2].tobytes() == batch.signs[row, s].tobytes()
        assert (batch.positions[row, s, swap] * FLIP).tobytes() == batch.positions[row, s + 2].tobytes()
        assert batch.residuals[row, s, swap].tobytes() == batch.residuals[row, s + 2].tobytes()
        assert batch.accepted[row, s, swap].tobytes() == batch.accepted[row, s + 2].tobytes()
    return len(rows)


@pytest.mark.parametrize("top", [None, "random"], ids=["identity", "random"])
def test_mirror_slots_hold_mirrored_poses(top, rng):
    pairs = 0
    for _ in range(5):
        a = None if top is None else random_rotation(rng)
        geom = PlatformGeometry(base=random_generic_base(rng), mu=rng.uniform(0.2, 0.8),
                                top_transform=a)
        pairs += assert_mirror_slots(top_rotation_batch(geom, rng))
        # a conic family: one set of lengths, so many rows pass the audit
        geom = PlatformGeometry(base=random_circle_base(rng), mu=rng.uniform(0.2, 0.8),
                                top_transform=a)
        pose = random_feasible_pose(geom, rng)
        system = build_singular_system(geom, leg_lengths(geom, pose))
        w1 = float(pose.position @ pose.position)
        batch = solution_arrays(geom, w_at(system, np.linspace(w1, w1 + 0.3, 51)), system.lengths)
        assert batch.accepted.any()
        pairs += assert_mirror_slots(batch)
    assert pairs >= 400


def assert_tangency_matches_the_oracle(top, rng):
    # the pose's position is the point of its candidate's plane line
    # nearest the origin, so the sphere touches that line, and the line of
    # the mirror slot: both accept branch 0 alone, with sign 0
    tangent = 0
    for _ in range(10):
        a = None if top is None else random_rotation(rng)
        geom = PlatformGeometry(base=random_generic_base(rng), mu=rng.uniform(0.2, 0.8),
                                top_transform=a)
        q = random_unit_quaternion(rng)
        n = np.cross(*plane_map(geom, (to_matrix(q) @ geom.top_transform)[:, :2].T))
        p = rng.uniform(-1.0, 1.0, 3)
        pose = Pose(q, p - (p @ n) / (n @ n) * n)
        w, lengths = w_from_pose(geom, pose), leg_lengths(geom, pose)
        batch = solution_arrays(geom, w[None], lengths)
        expected = oracle.candidate_points(geom, w, lengths)
        assert batch.rotations.kept.all() and len(expected) == 4  # four distinct candidates
        for k, (_, points) in enumerate(expected):
            # at tangency chord^2 is rounding, up to the snap bound, so a
            # split point lies up to its square root off the tangency point
            split = max(math.sqrt(oracle.TANGENT_ULPS * oracle.EPS * (abs(w[0]) + point @ point))
                        for point, *_ in points)
            if (batch.signs[0, k, 0] == 0) != (len(points) == 1):
                # one side splits what the other snaps to tangency, each
                # chord^2 being rounding (below four times the snap bound,
                # as in the test below): the accepted points agree as sets
                got = batch.positions[0, k][batch.accepted[0, k]]
                want = [point for point, *_, ok in points if ok]
                for these, those in ((got, want), (want, got)):
                    for x in these:
                        assert min(np.abs(x - y).max() for y in those) <= 1e-9 + 2.0 * split
                tangent += int(batch.accepted[0, k].any())
                continue
            oks = [ok for *_, ok in points]
            assert batch.accepted[0, k].tolist() == oks + [False] * (2 - len(points))
            for b, (point, sign, residual, ok) in enumerate(points):
                assert batch.signs[0, k, b] == sign
                assert np.abs(batch.positions[0, k, b] - point).max() <= 1e-9 + split
                if ok:
                    assert abs(batch.residuals[0, k, b] - residual) <= 1e-12
            tangent += int(batch.accepted[0, k, 0] and batch.signs[0, k, 0] == 0)
    assert tangent >= 20  # the pose's slot and its mirror, in every design


@pytest.mark.parametrize("top", [None, "random"], ids=["identity", "random"])
def test_mirror_slots_at_tangency_match_the_oracle(top):
    # the fixture's seed, and seeds at which the kernel and the oracle round
    # some chord^2 to opposite sides of the snap bound
    for seed in [20260808, 2, 6, 7, 14, 19, 30]:
        assert_tangency_matches_the_oracle(top, np.random.default_rng(seed))


@pytest.mark.parametrize("c", [1e-3, 1e-4, 1e-5, 3e-6, 1e-6, 3e-7, 1e-7])
def test_poses_near_tangency_keep_both_sphere_points(c, rng):
    # each pose sits c along its position line from the line's point nearest
    # the origin.  chord^2 = c^2 is known to its rounding, about
    # 8 * eps * (w1 + |r0|^2): beyond four times that the two sphere points
    # stay apart and all eight poses come back, the seed within the split's
    # rounding; inside it the one tangency point is c from the seed
    geom = PlatformGeometry(base=perturbed_hexagon_base(), mu=0.5)
    eps = np.finfo(float).eps
    for _ in range(3):
        q = random_unit_quaternion(rng)
        n = np.cross(*plane_map(geom, to_matrix(q)[:, :2].T))
        r0 = rng.uniform(-1.0, 1.0, 3)
        r0 -= (r0 @ n) / (n @ n) * n
        pose = Pose(q, r0 + c * n / np.linalg.norm(n))
        solutions = fk_solve(geom, leg_lengths(geom, pose))
        miss = min(pose_gap(s.pose, pose) for s in solutions)
        if c * c > 4.0 * 8.0 * eps * (pose.position @ pose.position + r0 @ r0):
            assert len(solutions) == 8
            assert miss <= 5e-8
        else:
            assert len(solutions) >= 4
            assert miss <= c + 5e-8


@pytest.mark.parametrize("top", [None, "random"], ids=["identity", "random"])
def test_mirror_slots_of_a_point_on_the_base_plane_keep_z_at_positive_zero(top, rng):
    # P = 0 makes w1 = w2 = w3 = 0 exactly, so every accepted point is the
    # origin.  Slots 2-3 computed on their own, as sphere_points gives them,
    # carry z = +0.0 there, and so must their mirrors of slots 0-1.  The
    # sign of a zero x or y is not held: the mirror reads it off the other
    # branch of slot s, which the direct route need not match.
    pairs = 0
    for _ in range(10):
        a = None if top is None else random_rotation(rng)
        geom = PlatformGeometry(base=random_generic_base(rng), mu=rng.uniform(0.2, 0.8),
                                top_transform=a)
        pose = Pose(random_unit_quaternion(rng), np.zeros(3))
        w = w_from_pose(geom, pose)[None]
        batch = solution_arrays(geom, w, leg_lengths(geom, pose))
        accepted = batch.accepted[0]
        assert (batch.positions[0][accepted] == 0.0).all()
        q = batch.rotations.quaternions.T
        direct, _, _ = sphere_points(w, plane_map(geom, columns(q[:, 2:], 2)))
        for s in np.flatnonzero(accepted[2:, 0]):
            assert batch.positions[0, s + 2, 0, 2].tobytes() == direct[2, 0, s, 0].tobytes()
            pairs += 1
    assert pairs >= 10


@pytest.mark.parametrize("top", [None, "random"], ids=["identity", "random"])
def test_fk_solve_answers_come_in_mirror_pairs(top, rng):
    # the mirror of a pose turns R A into FLIP (R A) FLIP; its plate is that
    # times A^T, here read back through the matrix
    poses = 0
    for _ in range(40):
        a = None if top is None else random_rotation(rng)
        geom = PlatformGeometry(base=random_generic_base(rng), mu=rng.uniform(0.2, 0.8),
                                top_transform=a)
        a = geom.top_transform
        answers = fk_solve(geom, leg_lengths(geom, random_feasible_pose(geom, rng)))
        for sol in answers:
            ra = FLIP[:, None] * (to_matrix(sol.pose.orientation) @ a) * FLIP
            expected = oracle.from_matrix(ra @ a.T).as_array()
            position = (sol.pose.position * FLIP).tobytes()
            mirrors = [m for m in answers if m.pose.position.tobytes() == position]
            assert len(mirrors) == 1
            mirror = mirrors[0]
            assert mirror.leg_residual == sol.leg_residual
            plate = mirror.pose.orientation.as_array()
            assert min(np.abs(plate - expected).max(), np.abs(plate + expected).max()) <= 1e-14
        poses += len(answers)
    assert poses >= 100


def test_geometry_arrays_are_read_only(rng):
    # the plate product is read off A once, at construction; it cannot go
    # stale because neither A nor the base can be written afterwards
    geom = PlatformGeometry(base=random_generic_base(rng), mu=0.5,
                            top_transform=random_rotation(rng))
    for g in (geom, copy.deepcopy(geom), pickle.loads(pickle.dumps(geom))):
        with pytest.raises(ValueError):
            g.base[0, 0] = 2.0
        with pytest.raises(ValueError):
            g.top_transform[:] = 2.0 * np.eye(3)
        assert np.array_equal(g._ra_to_plate, geom._ra_to_plate)
        with pytest.raises(ValueError):
            g._length_shift[0] = 0.0
        assert g._length_shift.tobytes() == geom._length_shift.tobytes()


def test_prepared_length_shift_is_the_formula_to_the_byte(rng):
    for _ in range(50):
        geom = PlatformGeometry(base=random_generic_base(rng) * 10.0 ** rng.uniform(-3, 4),
                                mu=rng.uniform(0.05, 0.95))
        r2 = (geom.base ** 2).sum(axis=1)
        assert geom._length_shift.tobytes() == ((1.0 + geom.mu ** 2) * r2).tobytes()
        lengths = rng.uniform(0.5, 2.0, 6)
        expected = lengths * lengths - (1.0 + geom.mu ** 2) * r2
        assert d_from_lengths(geom, lengths).tobytes() == expected.tobytes()


def test_cross_is_np_cross_to_the_byte(rng):
    # the kernel's cross product of rolled rows, on (component, slot, row)
    # blocks, against numpy's, which forms each component as a1*b2 - a2*b1 too
    a, b = rng.normal(size=(2, 3, 2, 500)) * 10.0 ** rng.uniform(-8, 8, (2, 1, 2, 500))
    a[:, :, ::7] = 0.0
    b[1, 1, ::5] = -0.0
    roll = fk_nonsingular._ROLL
    for x, y in ((a, b), (a[:, 0, 0], b[:, 0, 0]), (a, a)):
        expected = np.cross(x, y, axisa=0, axisb=0, axisc=0)
        got = fk_nonsingular._cross(x.take(roll, axis=0), y.take(roll, axis=0))
        assert got.tobytes() == expected.tobytes()


def written_out_candidates(w, mu):
    """The rotation stage for one row w in Python floats, step by step as
    its docstring states it: squares, snapped roots, the product
    constraint, then each sign pattern of SIGNS canonicalized as
    Quaternion renormalizes and canonicalize flips, zeros at +0.0."""
    w4, w5, w6 = w[3:]
    alpha, beta = (w4 - w6) / (4.0 * mu), -w5 / (8.0 * mu)
    gamma = float(np.hypot(alpha, 2.0 * beta))
    scale = 1.0 + (abs(w4) + abs(w5) + abs(w6)) / (4.0 * mu) + gamma
    half = w4 / (4.0 * mu)
    s1, s2 = (gamma - alpha) / 2.0, (gamma + alpha) / 2.0
    squares = [(0.5 - half) - s1, s1, s2, (0.5 + half) - s2]
    floor = 8.0 * float(np.finfo(float).eps) * scale
    q0, q1, q2, q3 = [math.sqrt(x) if x > floor else 0.0 for x in squares]
    if max(q1, q2) > 0.0:
        if q1 <= q2:
            q1 = abs(beta) / q2
        else:
            q2 = abs(beta) / q1
    if beta < 0.0:
        q1 = -q1
    fits = all(x >= -CLAMP_TOL for x in squares)
    if not fits:
        q0, q1, q2, q3 = 0.0, 0.0, 0.0, 1.0
    norm = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
    if abs(norm - 1.0) > RENORM_TOL:
        q0, q1, q2, q3 = q0 / norm, q1 / norm, q2 / norm, q3 / norm
    slots = []
    for signs in fk_nonsingular.SIGNS[:, :, 0].T.tolist():
        slot = [s * x for s, x in zip(signs, (q0, q1, q2, q3))]
        if next((x for x in slot if x != 0.0), 0.0) < 0.0:
            slot = [0.0 - x for x in slot]
        slots.append([x + 0.0 for x in slot])
    return squares, fits, slots


def test_rotation_candidates_are_the_written_out_steps_to_the_byte(rng):
    # random rows, every zero pattern of the components, and rows no
    # rotation fits, at three mu
    for mu in (0.05, 0.5, 0.95):
        rows = np.zeros((1000, 6))
        rows[:, 3:] = np.concatenate([zero_pattern_rows(rng, draws=4), rng.normal(size=(640, 3))])[:1000]
        rows[:, 3:] *= -2.0 * mu
        rows[-100:, 3:] *= 3.0  # no unit quaternion fits most of these
        # w5 = +0.0 makes beta -0.0, which must leave q1's sign alone
        rows[::7, 4] = 0.0
        batch = rotation_candidates(rows, mu)
        for row, quaternions, fits, squares in zip(rows, batch.quaternions, batch.fits,
                                                   batch.squares):
            expected_squares, expected_fits, slots = written_out_candidates(row.tolist(), mu)
            assert squares.tobytes() == np.array(expected_squares).tobytes()
            assert fits == expected_fits
            assert quaternions.tobytes() == np.array(slots).tobytes()


def written_out_sphere_points(w, m):
    """sphere_points for one row w and one plane map m (2, 3), in the order
    its docstring forms them; sums of squares add left to right."""
    w1, w2, w3 = w[:3]
    u, v = 2.0 * m[0], 2.0 * m[1]
    n = np.cross(u, v)
    nn = n[0] * n[0] + n[1] * n[1] + n[2] * n[2]
    r0 = np.cross(w2 * v - w3 * u, n) / nn
    rr = r0[0] * r0[0] + r0[1] * r0[1] + r0[2] * r0[2]
    chord2 = w1 - rr
    split = chord2 > 8.0 * np.finfo(float).eps * (abs(w1) + rr)
    step = n * (math.sqrt(chord2 if split else 0.0) / math.sqrt(nn))
    return [r0 + step, r0 - step], [int(split), -1], [chord2 >= -fk_nonsingular.TANGENT_EPS, split]


def test_sphere_points_are_the_written_out_steps_to_the_byte(rng):
    # plane maps of random rotations, and w whose sphere meets or misses
    # the line; in every third row it touches the line's point nearest
    # the origin to rounding, where chord^2 falls within the snap bound, and
    # in the next it passes 1e-6 from that point, chord^2 1e-12 beyond it
    geom = PlatformGeometry(base=perturbed_hexagon_base(), mu=0.4)
    q = rng.normal(size=(4, 2, 300))
    m = plane_map(geom, columns(q / np.linalg.norm(q, axis=0), 2))
    w = rng.normal(size=(300, 6))
    for i in range(0, 300, 3):
        for row, chord2 in ((i, 0.0), (i + 1, 1e-12)):
            u, v = 2.0 * m[:, :, 0, row]
            n = np.cross(u, v)
            r0 = np.cross(w[row, 1] * v - w[row, 2] * u, n) / (n @ n)
            w[row, 0] = r0 @ r0 + chord2
    points, signs, hit = sphere_points(w, m)
    assert 10 <= np.count_nonzero(hit[0] & (signs[0] == 0)) <= 100
    assert np.count_nonzero(signs[0, 0, 1::3] == 1) == 100
    for k in range(2):
        for i in range(300):
            expected, sign, expected_hit = written_out_sphere_points(w[i], m[:, :, k, i])
            assert points[:, :, k, i].T.tobytes() == np.array(expected).tobytes()
            assert signs[:, k, i].tolist() == sign
            assert hit[:, k, i].tolist() == expected_hit


def test_kernel_plane_maps_are_to_matrix_columns_to_the_byte(rng):
    # R has one formula: the kernel's plane maps, from rotation.columns on
    # (component, slot, row) arrays, against one to_matrix per quaternion
    q = rng.normal(size=(10_000, 4))
    zeroed = rng.random(len(q)) < 1 / 3
    q[zeroed] *= rng.random((int(zeroed.sum()), 4)) < 0.5
    q[~q.any(axis=1), 0] = 1.0
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    geom = PlatformGeometry(base=perturbed_hexagon_base(), mu=0.37)
    # the kernel's layout: slots 0-1 of 5000 rows
    maps = plane_map(geom, columns(q.T.reshape(4, 2, -1), 2))
    assert maps.shape == (2, 3, 2, 5000)
    flat = maps.reshape(2, 3, -1)
    for i, row in enumerate(q.tolist()):
        expected = plane_map(geom, to_matrix(Quaternion(*row))[:, :2].T)
        assert flat[:, :, i].tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("top", [None, "random"], ids=["identity", "random"])
def test_an_empty_batch_gives_empty_fields(top, rng):
    # once: numpy's bare ValueError from the MAX_W check's max of no rows
    a = None if top is None else random_rotation(rng)
    geom = PlatformGeometry(base=perturbed_hexagon_base(), mu=0.5, top_transform=a)
    batch = solution_arrays(geom, np.empty((0, 6)), np.full(6, 1.2))
    shapes = {"quaternions": (0, 4, 4), "kept": (0, 4), "fits": (0,), "squares": (0, 4)}
    for name, shape in shapes.items():
        assert getattr(batch.rotations, name).shape == shape
    shapes = {"orientations": (0, 4, 4), "positions": (0, 4, 2, 3), "signs": (0, 4, 2),
              "residuals": (0, 4, 2), "accepted": (0, 4, 2), "feasible": (0,)}
    for name, shape in shapes.items():
        assert getattr(batch, name).shape == shape
    assert batch.solutions() == []


# the quarter turn about (1, 1, 0)/sqrt(2) and a fixed generic orientation
NEAR_MU_ORIENTATIONS = {
    "identity": (1.0, 0.0, 0.0, 0.0),
    "quarter_turn": (ROOT_HALF, 0.5, 0.5, 0.0),
    "generic": tuple(np.array([0.9, 0.2, -0.3, 0.25]) / np.linalg.norm([0.9, 0.2, -0.3, 0.25])),
}


@pytest.mark.parametrize("orientation", NEAR_MU_ORIENTATIONS)
@pytest.mark.parametrize("gap", [1e-4, 1e-5, 1e-6, 1e-7])
def test_fk_recovers_seed_pose_as_mu_nears_one(orientation, gap):
    # mu*R*A - I shrinks with 1 - mu, and |u x v| with its square, yet the
    # two position planes still meet in one line
    geom = PlatformGeometry(base=perturbed_hexagon_base(), mu=1.0 - gap)
    pose = Pose(Quaternion(*NEAR_MU_ORIENTATIONS[orientation]), np.array([0.1, -0.2, 0.9]))
    sols = fk_solve(geom, leg_lengths(geom, pose))
    assert min(pose_gap(s.pose, pose) for s in sols) <= 1e-8


@pytest.mark.parametrize("orientation", NEAR_MU_ORIENTATIONS)
def test_position_stage_stays_finite_next_to_mu_one(orientation):
    # RuntimeWarning is an error under pytest: no division may blow up here,
    # no orientation is refused, and whatever comes back passes the audit
    geom = PlatformGeometry(base=perturbed_hexagon_base(), mu=1.0 - 1e-10)
    pose = Pose(Quaternion(*NEAR_MU_ORIENTATIONS[orientation]), np.array([0.1, -0.2, 0.9]))
    lengths = leg_lengths(geom, pose)
    tol = RESIDUAL_TOL * (1.0 + lengths.max())
    for sol in fk_solve(geom, lengths):
        assert np.abs(leg_lengths(geom, sol.pose) - lengths).max() <= tol


def test_fk_poses_pass_the_audit_with_a_skewed_top_transform(rng):
    # A may miss orthogonality by ORTHOGONALITY_TOL; the candidates carry an
    # exact rotation R*A, the returned plate is q_RA (x) conj(q_A) with q_A
    # read off A once per geometry, and leg_lengths multiplies by A again
    for _ in range(50):
        s = rng.uniform(-1.0, 1.0, (3, 3))
        s = (s + s.T) / 2.0
        s *= 0.99 * ORTHOGONALITY_TOL / (2.0 * np.abs(s).max())
        top = random_rotation(rng) @ (np.eye(3) + s)
        geom = PlatformGeometry(base=random_generic_base(rng), mu=rng.uniform(0.2, 0.8),
                                top_transform=top)
        lengths = leg_lengths(geom, random_feasible_pose(geom, rng))
        tol = RESIDUAL_TOL * (1.0 + lengths.max())
        for sol in fk_solve(geom, lengths):
            assert np.abs(leg_lengths(geom, sol.pose) - lengths).max() <= tol


def test_fk_no_spurious_solutions_for_inflated_lengths(perturbed_geometry, rng):
    for _ in range(50):
        pose = random_feasible_pose(perturbed_geometry, rng)
        lengths = leg_lengths(perturbed_geometry, pose) * rng.uniform(1.5, 4.0)
        tol = 1e-8 * (1.0 + lengths.max())
        for s in fk_solve(perturbed_geometry, lengths):
            assert np.max(np.abs(leg_lengths(perturbed_geometry, s.pose) - lengths)) <= tol


def test_random_w_vectors_never_yield_bad_candidates(rng):
    # arbitrary rotation-block data either fits no rotation or produces
    # unit candidates; no silent garbage
    cands = rotation_candidates(rng.uniform(-2, 2, (200, 6)), 0.5)
    assert cands.fits.any() and not cands.fits.all()
    assert not cands.kept[~cands.fits].any()
    q = cands.quaternions[cands.kept]
    assert np.all(np.abs(np.linalg.norm(q, axis=1) - 1.0) <= 1e-6)
    assert np.all(q[:, 0] >= 0.0)


def assert_candidate_invariants(w, mu):
    """The facts rotation_candidates rests on, for every row of w: a row
    that passes the clamp test fits, and its clamped squares add up to 1;
    any two slots are equal or at least 8e-8 apart; a slot is kept exactly
    when its row fits and it differs from every earlier slot, so a kept
    slot 2-3 has its slot 0-1 kept; and a half turn (q0 = 0) keeps slots
    0 and 1 only, as slot 2 is slot 1 and slot 3 is slot 0."""
    c = rotation_candidates(w, mu)
    clamp = (c.squares >= -CLAMP_TOL).all(axis=1)
    assert (c.fits == clamp).all()
    total = np.maximum(c.squares[clamp], 0.0).sum(axis=1)
    assert np.all(np.abs(total - 1.0) <= 4.0 * CLAMP_TOL + 1e-14)
    q = c.quaternions
    d = q[:, :, None] - q[:, None]
    equal = (q[:, :, None] == q[:, None]).all(axis=-1)
    assert np.all(equal | (np.sqrt((d * d).sum(axis=-1)) >= 8e-8))
    repeats = (equal & np.tri(4, k=-1, dtype=bool)).any(axis=2)  # [row, later, earlier]
    assert (c.kept == (c.fits[:, None] & ~repeats)).all()
    assert not (c.kept[:, 2:] & ~c.kept[:, :2]).any()
    assert not c.kept[q[:, 0, 0] == 0.0, 2:].any()
    return c


@given(mu=st.floats(1e-6, 1.0 - 1e-6), exponent=st.floats(-8.0, 150.0),
       seed=st.integers(0, 2**32 - 1))
def test_candidate_invariants_hold_for_random_w(mu, exponent, seed):
    # rows fit only while |w| is about 4 * mu or less, so scale from there
    w = np.random.default_rng(seed).uniform(-1.5, 1.5, (500, 6)) * (4.0 * mu * 10.0 ** exponent)
    assert_candidate_invariants(w, mu)


@given(mu=st.floats(1e-6, 1.0 - 1e-6), pattern=st.integers(1, 15),
       small=st.sampled_from([0.0, 1e-12, 1e-9, 3e-8, 1e-7, 1e-4, 1.0]),
       noise=st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6]), seed=st.integers(0, 2**32 - 1))
def test_candidate_invariants_hold_for_perturbed_rotations(mu, pattern, small, noise, seed):
    # the components outside the bits of pattern are scaled by small
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(500, 4))
    q[:, [(pattern >> i) & 1 == 0 for i in range(4)]] *= small
    q /= np.linalg.norm(q, axis=1)[:, None]
    w = np.zeros((len(q), 6))
    w[:, 3:] = -2.0 * mu * rotation_rows(q) * (1.0 + noise * rng.normal(size=(len(q), 3)))
    cands = assert_candidate_invariants(w, mu)
    if noise == 0.0:
        assert cands.fits.all()


@pytest.mark.parametrize("mu", [0.05, 0.5, 0.95])
def test_candidate_invariants_hold_for_zero_pattern_rows(mu, rng):
    rows = zero_pattern_rows(rng)
    w = np.zeros((len(rows), 6))
    w[:, 3:] = -2.0 * mu * rows
    assert assert_candidate_invariants(w, mu).fits.all()


@pytest.mark.parametrize("block, negative", [
    ((math.nan, 0.0, 0.0), []),
    ((0.0, math.inf, 0.0), [0, 3]),
    ((-math.inf, 0.0, math.inf), []),
    ((1e308, 0.0, -1e308), []),
], ids=["nan", "inf", "infs", "overflow"])
def test_non_finite_squares_fit_no_rotation(block, negative):
    w = np.zeros((1, 6))
    w[0, 3:] = block
    with np.errstate(all="ignore"):
        cands = rotation_candidates(w, 1e-3)
    assert not np.isfinite(cands.squares).all()
    assert not cands.fits[0] and not cands.kept.any()
    assert np.isfinite(cands.quaternions).all()
    # the squares keep the reason: the components gone negative, or a NaN
    assert np.flatnonzero(cands.squares[0] < -CLAMP_TOL).tolist() == negative


BAD_LENGTHS = {
    "five": np.ones(5),
    "matrix": np.ones((2, 6)),
    "nan": [1.0, 1.0, math.nan, 1.0, 1.0, 1.0],
    "inf": [1.0, 1.0, 1.0, math.inf, 1.0, 1.0],
    "zero": [1.0, 1.0, 1.0, 1.0, 0.0, 1.0],
    "negative": [1.0, -1.0, 1.0, 1.0, 1.0, 1.0],
    "string": ["1.0"] * 6,
    "bool": True,
    "one_bool": [1.0, 1.0, True, 1.0, 1.0, 1.0],  # np.asarray reads it as float
    "ragged": [1.0, 1.0, [1.0, 1.0], 1.0, 1.0, 1.0],
    "none": None,
    # beyond ik.MAX_LENGTH: lengths * lengths overflowed in d_from_lengths
    "huge": [1e160] * 6,
    "huger": [1e200] * 6,
}


@pytest.mark.parametrize("entry", ["fk_solve", "build_singular_system", "recover_poses"])
@pytest.mark.parametrize("lengths", BAD_LENGTHS.values(), ids=BAD_LENGTHS.keys())
def test_entry_points_validate_lengths(entry, lengths, hexagon_geometry, perturbed_geometry):
    calls = {
        "fk_solve": lambda: fk_solve(perturbed_geometry, lengths),
        "build_singular_system": lambda: build_singular_system(hexagon_geometry, lengths),
        "recover_poses": lambda: recover_poses(hexagon_geometry, np.zeros(6), lengths),
    }
    with pytest.raises(ValidationError, match="leg lengths"):
        calls[entry]()


BAD_W = {
    "five": np.zeros(5),
    "seven": np.zeros(7),
    "matrix": np.zeros((1, 6)),
    "nan": [0.0, 0.0, math.nan, 0.0, 0.0, 0.0],
    "inf": [math.inf, 0.0, 0.0, 0.0, 0.0, 0.0],
    "string": ["0"] * 6,
    "bool": False,
    "one_bool": [0.0, 0.0, 0.0, False, 0.0, 0.0],
    "ragged": [0.0, [0.0, 0.0], 0.0, 0.0, 0.0, 0.0],
    "none": None,
    # beyond MAX_W: these overflowed in w4 - w6 (rotation_candidates) and
    # in w2 * v (sphere_points)
    "huge_difference": [0.0, 0.0, 0.0, 1e308, 0.0, -1e308],
    "huge_square": [1e308, 1e308, 0.0, 0.0, 0.0, 0.0],
}


@pytest.mark.parametrize("w", BAD_W.values(), ids=BAD_W.keys())
def test_recover_poses_validates_w(w, hexagon_geometry):
    with pytest.raises(ValidationError, match="w must be"):
        recover_poses(hexagon_geometry, w, np.full(6, math.sqrt(1.25)))


@pytest.mark.parametrize("mu", [0.5, float(np.nextafter(1.0, 0.0))], ids=["half", "below_one"])
def test_inputs_at_the_magnitude_bounds_still_answer(mu, rng):
    # 1 - mu at its smallest is the worst case MAX_W is derived for
    hexagon = PlatformGeometry(base=hexagon_base(), mu=mu)
    perturbed = PlatformGeometry(base=perturbed_hexagon_base(), mu=mu)
    for w in ([0, 0, 0, MAX_W, 0, -MAX_W], [MAX_W, MAX_W, 0, 0, 0, 0],
              [MAX_W, -MAX_W, MAX_W, -MAX_W, MAX_W, -MAX_W]):
        with pytest.raises(Infeasible):
            recover_poses(hexagon, w, np.full(6, MAX_LENGTH))
    answers = fk_solve(perturbed, np.full(6, MAX_LENGTH))
    assert answers and all(s.leg_residual <= RESIDUAL_TOL * (1.0 + MAX_LENGTH) for s in answers)
    # lengths within MAX_LENGTH can solve to a w beyond MAX_W, which
    # fk_solve refuses; the rest admit no rotation, so no pose
    f = factor_for_rank(build_q(perturbed.base), 6)
    refused = []
    for _ in range(20):
        lengths = MAX_LENGTH * rng.uniform(0.5, 1.0, 6)
        w = linalg.solve(f, d_from_lengths(perturbed, lengths))
        refused.append(np.abs(w).max() > MAX_W)
        if refused[-1]:
            with pytest.raises(ValidationError):
                fk_solve(perturbed, lengths)
        else:
            assert not rotation_candidates(w[None], mu).fits[0]
            assert fk_solve(perturbed, lengths) == []
    assert any(refused) and not all(refused)


def test_fk_solve_refuses_lengths_that_solve_beyond_max_w(perturbed_geometry):
    # within MAX_LENGTH, but the solved w is 2.7 * MAX_W
    lengths = MAX_LENGTH * np.array([0.5, 1.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValidationError, match="w must be at most"):
        fk_solve(perturbed_geometry, lengths)


@pytest.mark.parametrize("family, beyond", [("hexagon", 1e200), ("near_origin", 1e305),
                                            ("origin", 1e308)])
@pytest.mark.parametrize("entry", ["w_at", "sweep", "feasible_interval"])
def test_family_solvers_refuse_w_beyond_max_w(entry, family, beyond, hexagon_geometry):
    # before the bound, w1 = 1e200 overflowed the recovery, and on the near
    # origin family (n1 = -8.2e-7) (1e305 - p1) / n1 overflowed w_at itself;
    # before the ends were checked, np.linspace overflowed in 1e308 - -1e308
    # (the sweep, and the [-hint, hint] scan of the arc-length origin family)
    if family == "hexagon":
        geom = hexagon_geometry
        system = build_singular_system(geom, np.full(6, math.sqrt(1.25)))
    else:
        geom = circle_through_origin_geometry(gap=1e-6 if family == "near_origin" else 0.0)
        system = circle_through_origin_system(geom)
        assert system.parameterizable_by_w1 == (family == "near_origin")
        assert abs(system.null_dir[0]) < 1e-6
    with pytest.raises(ValidationError, match="w must be at most"):
        if entry == "w_at":
            w_at(system, beyond)
        elif entry == "sweep":
            sweep(system, geom, -beyond, beyond, 3)
        else:
            feasible_interval(system, geom, beyond)


@pytest.mark.parametrize("parameter", ["w1", "arc_length"])
@pytest.mark.parametrize("value", [math.nan, math.inf, [0.5, math.nan]],
                         ids=["nan", "inf", "nan_in_batch"])
def test_family_points_validate_parameter(parameter, value, hexagon_geometry):
    if parameter == "w1":
        system = build_singular_system(hexagon_geometry, np.full(6, math.sqrt(1.25)))
    else:
        system = circle_through_origin_system(circle_through_origin_geometry())
    assert system.parameterizable_by_w1 == (parameter == "w1")
    with pytest.raises(ValidationError, match=f"{parameter.replace('_', ' ')} must be finite"):
        w_at(system, value)


def resting_hexagon_batch(hexagon_geometry):
    """The hexagon family at rest on a small w1 grid: every row feasible."""
    system = build_singular_system(hexagon_geometry, np.full(6, math.sqrt(1.25)))
    batch = solution_arrays(hexagon_geometry, w_at(system, np.linspace(0.1, 0.9, 5)),
                            system.lengths)
    assert batch.accepted.any(axis=(1, 2)).all()
    return batch


def constructed(batch):
    """Per-row FkSolution lists built by the public constructors from the
    arrays of a batch."""
    index = np.cumsum(batch.rotations.kept, axis=1)
    rows = [[] for _ in range(len(batch.accepted))]
    for row, slot, branch in zip(*(x.tolist() for x in np.nonzero(batch.accepted))):
        plate = Quaternion(*batch.orientations[row, slot].tolist())
        rows[row].append(FkSolution(plate, batch.positions[row, slot, branch],
                                    int(index[row, slot]), int(batch.signs[row, slot, branch]),
                                    float(batch.residuals[row, slot, branch])))
    return rows


def assert_same_bytes(got, expected, batch):
    assert [len(r) for r in got] == [len(r) for r in expected]
    assert_one_quaternion_per_candidate(got)
    for a, b in zip(sum(got, []), sum(expected, [])):
        qa, qb = a.pose.orientation, b.pose.orientation
        assert [type(x) for x in (qa.q0, qa.q1, qa.q2, qa.q3)] == [float] * 4
        assert qa.as_array().tobytes() == qb.as_array().tobytes()
        assert a.pose.position.dtype == float and a.pose.position.shape == (3,)
        assert a.pose.position.tobytes() == b.pose.position.tobytes()
        # a copy of the accepted points, not a view of the kernel's array
        assert not np.shares_memory(a.pose.position, batch.positions)
        for name in ("rotation_index", "position_sign", "leg_residual"):
            x, y = getattr(a, name), getattr(b, name)
            assert type(x) is type(y) and np.array(x).tobytes() == np.array(y).tobytes()


def pose_pair_gap(a, b):
    """hypot(|dq|, |dP|) between two FkSolution poses."""
    dq = b.pose.orientation.as_array() - a.pose.orientation.as_array()
    dp = b.pose.position - a.pose.position
    return np.hypot(np.sqrt(np.sum(dq * dq)), np.sqrt(np.sum(dp * dp)))


def constructed_samples(grid, w, batch):
    """SingularCurveSample values built by the public constructor from the
    arrays of a sweep; step_from_prev is the nearest-pose gap, formed pose
    pair by pose pair."""
    out, previous = [], []
    for value, w_row, poses in zip(grid.tolist(), w, constructed(batch)):
        steps = [pose_pair_gap(a, b) for a in previous for b in poses]
        out.append(SingularCurveSample(
            value, w_row, tuple(poses), bool(poses),
            max((s.leg_residual for s in poses), default=math.nan),
            float(min(steps)) if steps else None))
        previous = poses
    return out


def assert_same_samples(got, expected, batch):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert type(a.parameter) is float and a.parameter == b.parameter
        assert a.w.dtype == float and a.w.shape == (6,) and a.w.tobytes() == b.w.tobytes()
        assert type(a.poses) is tuple and type(a.feasible) is bool
        assert a.feasible is b.feasible
        assert type(a.leg_residual) is float
        assert np.array(a.leg_residual).tobytes() == np.array(b.leg_residual).tobytes()
        assert a.feasible or math.isnan(a.leg_residual)
        assert type(a.step_from_prev) is type(b.step_from_prev)
        assert a.step_from_prev is None or (np.float64(a.step_from_prev).tobytes()
                                            == np.float64(b.step_from_prev).tobytes())
    assert_same_bytes([list(s.poses) for s in got], [list(s.poses) for s in expected], batch)


def sweep_against_constructors(geom, w1_min, w1_max, samples) -> list:
    system = build_singular_system(geom, np.full(6, math.sqrt(1.25)))
    got = sweep(system, geom, w1_min, w1_max, samples)
    grid = np.linspace(w1_min, w1_max, samples)
    w = w_at(system, grid)
    batch = solution_arrays(geom, w, system.lengths)
    assert_same_samples(got, constructed_samples(grid, w, batch), batch)
    assert_same_bytes(batch.solutions(), constructed(batch), batch)
    return got


def test_sweep_solutions_match_public_constructors(hexagon_geometry):
    # feasible up to w1 = 1, infeasible beyond
    got = sweep_against_constructors(hexagon_geometry, 0.0, 1.2, 201)
    assert sum(len(s.poses) for s in got) > 600
    assert not all(s.feasible for s in got)


def test_infeasible_sweep_matches_public_constructors(hexagon_geometry):
    got = sweep_against_constructors(hexagon_geometry, 1.5, 2.0, 7)
    assert not any(s.feasible for s in got)


def oracle_steps(batch) -> np.ndarray:
    """step_from_prev of constructed_samples, nan for None."""
    n = len(batch.accepted)
    samples = constructed_samples(np.zeros(n), np.zeros((n, 6)), batch)
    return np.array([math.nan if s.step_from_prev is None else s.step_from_prev
                     for s in samples])


def tied_rows(batch) -> int:
    """Rows whose smallest pose-pair gap is reached by more than one pair."""
    tied, previous = 0, []
    for poses in constructed(batch):
        gaps = [pose_pair_gap(a, b) for a in previous for b in poses]
        tied += len(gaps) > 1 and gaps.count(min(gaps)) > 1
        previous = poses
    return tied


def hexagon_rows(geom, w1) -> SolutionArrays:
    system = build_singular_system(geom, np.full(6, math.sqrt(1.25)))
    return solution_arrays(geom, w_at(system, w1), system.lengths)


def tied_by_hand(geom) -> SolutionArrays:
    """Two rows: the unturned poses at z = +1, z = -1 and z = 5, then one
    pose turned half about z at the origin.  Its gaps to the first two tie
    exactly at hypot(sqrt(2), 1)."""
    accepted = np.zeros((2, 4, 2), dtype=bool)
    accepted[0, 0] = True
    accepted[0, 1, 0] = True
    accepted[1, 2, 0] = True
    orientations = np.zeros((2, 4, 4))
    orientations[0, :, 0] = 1.0
    orientations[1, :, 3] = 1.0
    positions = np.zeros((2, 4, 2, 3))
    positions[0, 0, :, 2] = [1.0, -1.0]
    positions[0, 1, 0, 2] = 5.0
    return SolutionArrays(rotation_candidates(np.zeros((2, 6)), geom.mu), orientations, positions,
                          np.zeros((2, 4, 2), dtype=np.int8), np.zeros((2, 4, 2)), accepted)


STEP_CASES = {
    # the symmetric hexagon: mirror-image poses tie exactly
    "hexagon_ties": lambda g: hexagon_rows(g, np.linspace(0.0, 1.0, 201)),
    # runs of feasible samples broken by infeasible ones
    "alternating": lambda g: hexagon_rows(g, np.where(np.arange(40) % 3 == 2, 1.5,
                                                      np.linspace(0.0, 1.0, 40))),
    "all_infeasible": lambda g: hexagon_rows(g, np.linspace(1.5, 2.0, 7)),
    "two_samples": lambda g: hexagon_rows(g, [0.0, 1.0]),
    "tied_by_hand": tied_by_hand,
}


@pytest.mark.parametrize("case", STEP_CASES)
def test_steps_match_the_pose_pair_oracle_to_the_byte(case, hexagon_geometry):
    batch = STEP_CASES[case](hexagon_geometry)
    got = _steps(batch)
    assert got.dtype == float and got.shape == (len(batch.accepted),)
    assert got.tobytes() == oracle_steps(batch).tobytes()
    feasible = batch.feasible
    assert np.isnan(got[0])
    assert (np.isnan(got[1:]) == ~(feasible[1:] & feasible[:-1])).all()
    if case in ("hexagon_ties", "tied_by_hand"):
        assert tied_rows(batch) > 0
    if case == "tied_by_hand":
        assert got[1] == np.hypot(math.sqrt(2.0), 1.0)


def test_steps_match_the_oracle_with_eight_poses_a_row(rng):
    geom = PlatformGeometry(base=random_circle_base(rng), mu=0.4,
                            top_transform=random_rotation(rng))
    pose = random_feasible_pose(geom, rng)
    system = build_singular_system(geom, leg_lengths(geom, pose))
    w1 = float(pose.position @ pose.position)
    batch = solution_arrays(geom, w_at(system, np.linspace(w1, w1 + 0.3, 101)), system.lengths)
    assert batch.accepted.sum(axis=(1, 2)).max() == 8
    assert _steps(batch).tobytes() == oracle_steps(batch).tobytes()


def test_solutions_without_an_accepted_point_are_empty_lists(hexagon_geometry):
    system = build_singular_system(hexagon_geometry, np.full(6, math.sqrt(1.25)))
    batch = solution_arrays(hexagon_geometry, w_at(system, [1.5, 1.75, 2.0]),
                            system.lengths)
    assert not batch.accepted.any()
    assert batch.solutions() == [[], [], []]


def test_fk_solve_solutions_match_public_constructors(rng):
    geom = PlatformGeometry(base=random_generic_base(rng), mu=0.4,
                            top_transform=random_rotation(rng))
    lengths = leg_lengths(geom, random_feasible_pose(geom, rng))
    sols = fk_solve(geom, lengths)
    assert sols
    # the w vector fk_solve solves for
    w = linalg.solve(factor_for_rank(build_q(geom.base), 6), d_from_lengths(geom, lengths))
    batch = solution_arrays(geom, w[None], lengths)
    assert_same_bytes([sols], constructed(batch), batch)


def assert_one_quaternion_per_candidate(rows):
    """The poses of one (row, rotation_index) share one Quaternion object,
    and no two candidates share one; returns the count of shared ones."""
    owners = {}
    for r, row in enumerate(rows):
        for s in row:
            owners.setdefault((r, s.rotation_index), []).append(s.pose.orientation)
    for plates in owners.values():
        assert all(q is plates[0] for q in plates)
    assert len({id(plates[0]) for plates in owners.values()}) == len(owners)
    return sum(len(plates) == 2 for plates in owners.values())


def test_both_branches_of_a_candidate_share_one_quaternion(rng):
    geom = PlatformGeometry(base=random_circle_base(rng), mu=0.4,
                            top_transform=random_rotation(rng))
    pose = random_feasible_pose(geom, rng)
    system = build_singular_system(geom, leg_lengths(geom, pose))
    w1 = float(pose.position @ pose.position)
    samples = sweep(system, geom, w1, w1 + 0.3, 101)
    assert max(len(s.poses) for s in samples) == 8
    assert assert_one_quaternion_per_candidate([s.poses for s in samples]) > 100


def test_solutions_and_fk_solve_leave_the_collector_as_they_found_it(
        collector, hexagon_geometry, perturbed_geometry, rng):
    assert all(resting_hexagon_batch(hexagon_geometry).solutions())
    assert gc.isenabled() is collector
    lengths = leg_lengths(perturbed_geometry, random_feasible_pose(perturbed_geometry, rng))
    assert fk_solve(perturbed_geometry, lengths)
    assert gc.isenabled() is collector


def collector_switched(*args):
    raise AssertionError("the collector was switched")


def test_fk_solve_recover_poses_and_solutions_leave_the_collector_alone(
        hexagon_geometry, perturbed_geometry, rng, monkeypatch):
    # only sweep pauses the collector; these never switch it, not even on 1001 rows
    monkeypatch.setattr(gc, "disable", collector_switched)
    monkeypatch.setattr(gc, "enable", collector_switched)
    lengths = leg_lengths(perturbed_geometry, random_feasible_pose(perturbed_geometry, rng))
    assert fk_solve(perturbed_geometry, lengths)
    system = build_singular_system(hexagon_geometry, np.full(6, math.sqrt(1.25)))
    assert recover_poses(hexagon_geometry, w_at(system, 0.5), system.lengths)
    batch = solution_arrays(hexagon_geometry, w_at(system, np.linspace(0.1, 0.9, 1001)),
                            system.lengths)
    assert all(batch.solutions())


@pytest.mark.parametrize("rows", [0, 1, 1001])
@pytest.mark.parametrize("turned", [False, True], ids=["A_identity", "A_turned"])
def test_kernel_arrays_are_read_only(rows, turned, rng):
    # solutions() trusts these arrays as the audit left them
    geom = PlatformGeometry(base=perturbed_hexagon_base(), mu=0.5,
                            top_transform=random_rotation(rng) if turned else None)
    pose = random_feasible_pose(geom, rng)
    w = w_from_pose(geom, pose) + rng.normal(0.0, 1e-3, (rows, 6)) * (np.arange(rows) > 0)[:, None]
    batch = solution_arrays(geom, w, leg_lengths(geom, pose))
    assert rows == 0 or batch.accepted[0].any()
    arrays = [getattr(batch, f.name) for f in dataclasses.fields(batch) if f.name != "rotations"]
    arrays += [getattr(batch.rotations, f.name) for f in dataclasses.fields(batch.rotations)]
    assert len(arrays) == 9
    for a in arrays:
        assert len(a) == rows
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    # with A = I the plates are the rotation candidates themselves
    assert (batch.orientations.base is batch.rotations.quaternions.base) is not turned
