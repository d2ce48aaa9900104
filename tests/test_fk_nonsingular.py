import math

import numpy as np
import pytest

from helpers import (collinear_base, hexagon_base, pose_gap,
                     random_feasible_pose, random_generic_base, random_rotation)
from stewart66 import linalg
from stewart66.errors import (DegenerateBase, Infeasible, NotUnit, SingularBase,
                              ValidationError)
from stewart66.fk_nonsingular import (FkSolution, fk_solve, rotation_candidates,
                                      solution_arrays, solutions_from_w,
                                      sphere_points)
from stewart66.fk_singular import (build_singular_system, recover_poses, sweep,
                                   w_at)
from stewart66.geometry import PlatformGeometry, build_q, factor_for_rank
from stewart66.ik import Pose, d_from_lengths, leg_lengths, w_from_pose
from stewart66.rotation import Quaternion, to_matrix

ROOT_HALF = math.sqrt(0.5)


def candidates(w, mu):
    """Rotation stage on a batch of one: (arrays, the row's candidate list)."""
    c = rotation_candidates(np.asarray(w, dtype=float)[None], mu)
    if not c.fits[0]:
        raise Infeasible(c.failure(0))
    return c, [Quaternion(*q) for q in c.quaternions[0, c.kept[0]]]


def points(w, q, geom):
    """Sphere stage for one candidate: [(P, sign)], + before -."""
    ra = to_matrix(q) @ geom.top_transform
    pts, signs, hit = sphere_points(np.asarray(w, dtype=float)[None], ra[None, None], geom.mu)
    return [(pts[0, 0, b], int(signs[0, 0, b])) for b in range(2) if hit[0, 0, b]]


@pytest.mark.parametrize("base, error", [
    (hexagon_base(), SingularBase),
    (collinear_base(), DegenerateBase),
], ids=["conic", "collinear"])
def test_fk_solve_refuses_rank_deficient_base(base, error):
    # rank 5 belongs to the family solver; below rank 5 no solver applies
    with pytest.raises(error):
        fk_solve(PlatformGeometry(base=base, mu=0.5), np.ones(6))


def test_identity_w_gives_single_candidate():
    cands, qs = candidates([1.0, 0, 0, -1, 0, -1], 0.5)
    assert (cands.alpha[0], cands.beta[0], cands.gamma[0]) == (0.0, 0.0, 0.0)
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
    cands, qs = candidates(w, 0.5)
    assert (cands.alpha[0], cands.gamma[0]) == (-1.0, 1.0)
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
    with pytest.raises(Infeasible, match=r"q3\^2 would be -1 < 0"):
        solutions_from_w(hexagon_geometry, w, np.ones(6))


def test_candidates_reproduce_rotation_block(rng):
    for _ in range(200):
        mu = rng.uniform(0.1, 0.9)
        geom = PlatformGeometry(base=random_generic_base(rng), mu=mu)
        w = w_from_pose(geom, random_feasible_pose(geom, rng))
        cands, qs = candidates(w, mu)
        assert 1 <= len(qs) <= 4
        assert cands.gamma[0] >= abs(cands.alpha[0]) >= 0.0
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
    assert solutions_from_w(perturbed_geometry, w[0], lengths * (1.0 + 1e-6)) == []


def test_fk_impossible_lengths(perturbed_geometry):
    # legs of 10 cannot reach: the platform diameter is bounded well below
    try:
        sols = fk_solve(perturbed_geometry, np.full(6, 10.0))
    except Infeasible:
        return
    assert sols == []


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


def test_fk_no_spurious_solutions_for_inflated_lengths(perturbed_geometry, rng):
    for _ in range(50):
        pose = random_feasible_pose(perturbed_geometry, rng)
        lengths = leg_lengths(perturbed_geometry, pose) * rng.uniform(1.5, 4.0)
        try:
            sols = fk_solve(perturbed_geometry, lengths)
        except Infeasible:
            continue
        tol = 1e-8 * (1.0 + lengths.max())
        for s in sols:
            assert np.max(np.abs(leg_lengths(perturbed_geometry, s.pose) - lengths)) <= tol


def test_random_w_vectors_never_yield_bad_candidates(rng):
    # arbitrary rotation-block data either raises Infeasible or produces
    # unit candidates; no silent garbage
    cands = rotation_candidates(rng.uniform(-2, 2, (200, 6)), 0.5)
    assert cands.fits.any() and not cands.fits.all()
    assert not cands.kept[~cands.fits].any()
    q = cands.quaternions[cands.kept]
    assert np.all(np.abs(np.linalg.norm(q, axis=1) - 1.0) <= 1e-6)
    assert np.all(q[:, 0] >= 0.0)


BAD_LENGTHS = {
    "five": np.ones(5),
    "matrix": np.ones((2, 6)),
    "nan": [1.0, 1.0, math.nan, 1.0, 1.0, 1.0],
    "inf": [1.0, 1.0, 1.0, math.inf, 1.0, 1.0],
    "zero": [1.0, 1.0, 1.0, 1.0, 0.0, 1.0],
    "negative": [1.0, -1.0, 1.0, 1.0, 1.0, 1.0],
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


def resting_hexagon_batch(hexagon_geometry):
    """The hexagon family at rest on a small w1 grid: every row feasible."""
    system = build_singular_system(hexagon_geometry, np.full(6, math.sqrt(1.25)))
    batch = solution_arrays(hexagon_geometry, w_at(system, np.linspace(0.1, 0.9, 5)),
                            system.lengths)
    assert batch.accepted.any(axis=(1, 2)).all()
    return batch


def test_solutions_reject_a_nonfinite_position(hexagon_geometry):
    batch = resting_hexagon_batch(hexagon_geometry)
    row, slot, branch = np.argwhere(batch.accepted)[3]
    batch.positions[row, slot, branch, 1] = math.nan
    with pytest.raises(ValidationError, match="position must be finite"):
        batch.solutions()


def test_solutions_reject_a_non_unit_orientation(hexagon_geometry):
    batch = resting_hexagon_batch(hexagon_geometry)
    row, slot, _ = np.argwhere(batch.accepted)[3]
    batch.orientations[row, slot] *= 1.01
    with pytest.raises(NotUnit):
        batch.solutions()


def constructed(batch):
    """Per-row FkSolution lists built by the public constructors from the
    arrays of a batch."""
    index = np.cumsum(batch.rotations.kept, axis=1)
    rows = [[] for _ in range(len(batch.accepted))]
    for row, slot, branch in zip(*(x.tolist() for x in np.nonzero(batch.accepted))):
        plate = Quaternion(*batch.orientations[row, slot].tolist())
        pose = Pose(plate, batch.positions[row, slot, branch])
        rows[row].append(FkSolution(pose, int(index[row, slot]),
                                    int(batch.signs[row, slot, branch]),
                                    float(batch.residuals[row, slot, branch])))
    return rows


def assert_same_bytes(got, expected, batch):
    assert [len(r) for r in got] == [len(r) for r in expected]
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


def test_sweep_solutions_match_public_constructors(hexagon_geometry):
    system = build_singular_system(hexagon_geometry, np.full(6, math.sqrt(1.25)))
    samples = sweep(system, hexagon_geometry, 0.0, 1.2, 201)
    batch = solution_arrays(hexagon_geometry, np.array([s.w for s in samples]),
                            system.lengths)
    got = [list(s.poses) for s in samples]
    assert sum(map(len, got)) > 600
    assert_same_bytes(got, constructed(batch), batch)
    assert_same_bytes(batch.solutions(), constructed(batch), batch)


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


def test_solutions_renormalize_as_the_constructor_does(hexagon_geometry):
    # within NORM_TOL of unit norm but beyond RENORM_TOL: Quaternion
    # renormalizes, and so must the batch path
    batch = resting_hexagon_batch(hexagon_geometry)
    row, slot, _ = np.argwhere(batch.accepted)[3]
    batch.orientations[row, slot] *= 1.0 + 3e-9
    assert_same_bytes(batch.solutions(), constructed(batch), batch)
