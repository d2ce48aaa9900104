"""Shared generators for the test suite; all randomness is seeded by callers."""


import numpy as np

from stewart66.errors import DegenerateLeg, DuplicateVertex
from stewart66.fk_singular import build_singular_system
from stewart66.geometry import PlatformGeometry, conic_check, make_circle_base
from stewart66.ik import Pose, leg_lengths, leg_vectors, plane_map
from stewart66.rotation import Quaternion, columns, to_matrix

HEX_ANGLES = np.arange(6) * np.pi / 3

CIRCLE_COEFFS = np.array([-1.0, 0.0, 0.0, 1.0, 0.0, 1.0])


def hexagon_base():
    return make_circle_base(HEX_ANGLES)


def perturbed_hexagon_base():
    base = hexagon_base()
    base[0, 0] = 1.2
    return base


def collinear_base():
    # six distinct points on a line: the conic matrix drops to rank 3
    x = np.linspace(-2, 3, 6)
    return np.column_stack([x, 0.5 * x])


def random_unit_quaternion(rng):
    while True:
        v = rng.normal(size=4)
        n = np.linalg.norm(v)
        if n > 1e-3:
            return Quaternion(*(v / n))


def random_rotation(rng):
    return to_matrix(random_unit_quaternion(rng))


def random_circle_base(rng):
    while True:
        try:
            return make_circle_base(rng.uniform(0.0, 2.0 * np.pi, 6))
        except DuplicateVertex:
            continue


def random_ellipse_base(rng):
    # six spread angles on an ellipse about the origin, axes turned at random
    t = np.arange(6) * np.pi / 3 + rng.uniform(-0.4, 0.4, 6)
    ax, ay = rng.uniform(0.6, 1.4, 2)
    phi = rng.uniform(0.0, np.pi)
    c, s = np.cos(phi), np.sin(phi)
    return np.column_stack([ax * np.cos(t), ay * np.sin(t)]) @ np.array([[c, -s], [s, c]]).T


def circle_through_origin_geometry(gap=0.0):
    """The unit circle centred at (1 + gap, 0): through the base origin at
    gap 0, where x^2 + y^2 - 2x = 0, and gap from it otherwise."""
    t = np.array([0.3, 1.2, 2.2, 3.3, 4.2, 5.4])
    base = np.column_stack([1.0 + gap + np.cos(t), np.sin(t)])
    return PlatformGeometry(base=base, mu=0.5)


def circle_through_origin_system(geom):
    """geom's family through the identity pose at height 1.  On the origin
    circle its null direction has no w1 component: arc length indexes it."""
    pose = Pose(Quaternion(1.0, 0.0, 0.0, 0.0), np.array([0.0, 0.0, 1.0]))
    return build_singular_system(geom, leg_lengths(geom, pose))


def seeded_conic_family(kind, seed):
    """A conic-base platform and the leg lengths of a random pose on it.

    kind is "circle", "ellipse" or "top_rotation" (a circle base with a
    random top transform).
    """
    rng = np.random.default_rng(seed)
    base = random_ellipse_base(rng) if kind == "ellipse" else random_circle_base(rng)
    top = random_rotation(rng) if kind == "top_rotation" else None
    geom = PlatformGeometry(base=base, mu=rng.uniform(0.2, 0.8), top_transform=top)
    return geom, leg_lengths(geom, random_feasible_pose(geom, rng))


def random_generic_base(rng, noise=0.1):
    # hexagon plus noise, redrawn until clearly off every conic
    while True:
        base = hexagon_base() + rng.normal(0.0, noise, (6, 2))
        if conic_check(base).rank == 6:
            return base


def random_feasible_pose(geom, rng, box=1.0):
    while True:
        pose = Pose(random_unit_quaternion(rng), rng.uniform(-box, box, 3))
        try:
            leg_lengths(geom, pose)
        except DegenerateLeg:
            continue
        return pose


def pose_gap(sol_pose, pose):
    """Max-norm pose distance, quaternion sign folded out."""
    qa = sol_pose.orientation.as_array()
    qb = pose.orientation.as_array()
    dq = min(np.max(np.abs(qa - qb)), np.max(np.abs(qa + qb)))
    return max(float(dq), float(np.max(np.abs(sol_pose.position - pose.position))))


def leg_jacobian(geom, pose):
    """The 6x6 leg Jacobian of a pose: row i is (u_i, (mu R A B_i) x u_i),
    u_i the unit vector of leg i and mu R A B_i its top anchor about P."""
    ra = to_matrix(pose.orientation) @ geom.top_transform
    legs = leg_vectors(geom, plane_map(geom, ra[:, :2].T), pose.position).T
    u = legs / np.linalg.norm(legs, axis=1, keepdims=True)
    anchors = geom.mu * np.column_stack([geom.base, np.zeros(6)]) @ ra.T
    return np.hstack([u, np.cross(anchors, u)])


def rotation_rows(q):
    """(R00, R01 + R10, R11) of unit quaternions q (N, 4): the entries
    that -2 * mu times gives (w4, w5, w6)."""
    c0, c1 = columns(np.transpose(q), 2)
    return np.column_stack([c0[0], c1[0] + c0[1], c1[1]])


def zero_pattern_rows(rng, draws=25):
    """(w4, w5, w6) rows of unit quaternions for every zero pattern of
    (q0..q3), the zeroed components exactly 0 or scaled to small values."""
    patterns = np.array([[(k >> i) & 1 for i in range(4)] for k in range(1, 16)], dtype=bool)
    q = rng.normal(size=(len(patterns), 6, draws, 4))
    for j, small in enumerate([0.0, 1e-12, 1e-9, 3e-8, 1e-7, 1e-4]):
        q[:, j] = np.where(patterns[:, None], q[:, j], small * q[:, j])
    q = q.reshape(-1, 4)
    q /= np.linalg.norm(q, axis=1)[:, None]
    rows = rotation_rows(q)
    assert rows.shape == (len(q), 3)  # one row per quaternion
    return rows
