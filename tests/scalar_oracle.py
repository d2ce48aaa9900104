"""One-sample-at-a-time reference for the batched recovery.

The package recovers poses for N w vectors at once (fk_nonsingular.
solution_arrays).  This module keeps the loop form of the same route, one
w vector, one rotation candidate and one sphere point at a time, so the
tests can hold the batched kernel to it.  It also keeps the one-point
bisection of the feasibility boundaries, which the equal-cell refinement
of fk_singular must match within its stop width BISECT_TOL * (1 + |w1|).
It is test code only.
"""

import math

import numpy as np

from stewart66.errors import DegenerateLeg, Infeasible
from stewart66.fk_nonsingular import solution_arrays
from stewart66.fk_singular import BISECT_TOL, SCAN_POINTS, recover_poses, w_at
from stewart66.ik import Pose, leg_lengths
from stewart66.rotation import Quaternion, to_matrix

# The oracle's own tolerances, not the kernel's: a change to one of the
# kernel's shows up as a mismatch against these.
# Squared components this far below zero are rounding noise.
CLAMP_TOL = 1e-10
# Unit-norm slack on the assembled candidate.
UNIT_TOL = 1e-6
# Candidates closer than this are the same root.
DEDUP_TOL = 1e-9
# Squared half-chord below this collapses the two sphere points into one.
TANGENT_EPS = 1e-10
# Returned solutions must reproduce the input lengths this well (relative).
RESIDUAL_TOL = 1e-8


def canonical(q):
    for c in (q.q0, q.q1, q.q2, q.q3):
        if c > 0.0:
            return q
        if c < 0.0:
            return Quaternion(0.0 - q.q0, 0.0 - q.q1, 0.0 - q.q2, 0.0 - q.q3)
    raise AssertionError("zero quaternion")


def from_matrix(m):
    return canonical(Quaternion(*shepperd(m)))


def shepperd(m):
    """The quaternion components (4,) Shepperd's method reads off m, before
    any renormalization or sign fold."""
    t = m[0, 0] + m[1, 1] + m[2, 2]
    i = int(np.argmax([t, m[0, 0], m[1, 1], m[2, 2]]))
    if i == 0:
        s = 2.0 * math.sqrt(1.0 + t)
        q = (s / 4, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s)
    elif i == 1:
        s = 2.0 * math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
        q = ((m[2, 1] - m[1, 2]) / s, s / 4, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s)
    elif i == 2:
        s = 2.0 * math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2])
        q = ((m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, s / 4, (m[1, 2] + m[2, 1]) / s)
    else:
        s = 2.0 * math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1])
        q = ((m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, s / 4)
    return q


def clamped_sqrt(value, scale):
    if value < -CLAMP_TOL:
        raise Infeasible("negative squared component")
    if value <= 8.0 * np.finfo(float).eps * scale:
        return 0.0
    return math.sqrt(value)


def quaternions(w, mu):
    w4, w5, w6 = float(w[3]), float(w[4]), float(w[5])
    alpha = (w4 - w6) / (4.0 * mu)
    beta = -w5 / (8.0 * mu)
    gamma = math.hypot(alpha, 2.0 * beta)
    scale = 1.0 + (abs(w4) + abs(w5) + abs(w6)) / (4.0 * mu) + gamma
    q1 = clamped_sqrt((gamma - alpha) / 2.0, scale)
    q2 = clamped_sqrt((gamma + alpha) / 2.0, scale)
    q3 = clamped_sqrt(0.5 + w4 / (4.0 * mu) - (alpha + gamma) / 2.0, scale)
    q0 = clamped_sqrt(0.5 - w4 / (4.0 * mu) + (alpha - gamma) / 2.0, scale)
    if abs(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3 - 1.0) > UNIT_TOL:
        raise Infeasible("no unit quaternion")
    if max(q1, q2) > 1e-12:
        if q1 <= q2:
            q1 = abs(beta) / q2
        else:
            q2 = abs(beta) / q1
    if beta < 0.0:
        q1 = -q1
    out = []
    for s12, s3 in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        cand = canonical(Quaternion(q0, s12 * q1 + 0.0, s12 * q2 + 0.0, s3 * q3 + 0.0))
        if all(np.linalg.norm(cand.as_array() - kept.as_array()) > DEDUP_TOL for kept in out):
            out.append(cand)
    return out


def sphere_points(w, q, geom):
    m = geom.mu * (to_matrix(q) @ geom.top_transform) - np.eye(3)
    u, v = 2.0 * m[:, 0], 2.0 * m[:, 1]
    cr = np.cross(u, v)
    norm_cr = float(np.linalg.norm(cr))
    assert norm_cr > 0.0
    uu, vv, uv = float(u @ u), float(v @ v), float(u @ v)
    w1, w2, w3 = float(w[0]), float(w[1]), float(w[2])
    r0 = ((vv * w2 - uv * w3) * u + (uu * w3 - uv * w2) * v) / (uu * vv - uv * uv)
    chord2 = w1 - float(r0 @ r0)
    if chord2 < -TANGENT_EPS:
        return []
    if chord2 <= TANGENT_EPS:
        return [(r0, 0)]
    t = math.sqrt(chord2)
    return [(r0 + t * cr / norm_cr, 1), (r0 - t * cr / norm_cr, -1)]


def candidate_points(geom, w, lengths):
    """[(plate, points)] per rotation candidate, points being
    [(point, sign, residual, accepted)] for each sphere point, one point at
    a time; residual is nan where a leg collapses.  Infeasible when no
    rotation fits."""
    lengths = np.asarray(lengths, dtype=float)
    tol = RESIDUAL_TOL * (1.0 + float(lengths.max()))
    out = []
    for cand in quaternions(w, geom.mu):
        plate = cand
        if not np.array_equal(geom.top_transform, np.eye(3)):
            plate = from_matrix(to_matrix(cand) @ geom.top_transform.T)
        points = []
        for point, sign in sphere_points(w, plate, geom):
            try:
                residual = float(np.max(np.abs(leg_lengths(geom, Pose(plate, point)) - lengths)))
            except DegenerateLeg:
                residual = math.nan
            points.append((point, sign, residual, residual <= tol))
        out.append((plate, points))
    return out


def solutions(geom, w, lengths):
    """[(rotation_index, position_sign, pose, residual)]; Infeasible when no
    rotation fits."""
    return [(index, sign, Pose(plate, point), residual)
            for index, (plate, points) in enumerate(candidate_points(geom, w, lengths), start=1)
            for point, sign, residual, accepted in points if accepted]


def feasible(geom, w, lengths):
    try:
        return bool(solutions(geom, w, lengths))
    except Infeasible:
        return False


def pose_gap(a, b):
    dq = np.linalg.norm(a.orientation.as_array() - b.orientation.as_array())
    dp = np.linalg.norm(a.position - b.position)
    return math.hypot(float(dq), float(dp))


def step(poses, previous):
    """Nearest-pose gap between two samples' pose lists, or None."""
    if not poses or not previous:
        return None
    return min(pose_gap(a, b) for a in poses for b in previous)


def feasible_at(system, geom, w1):
    """Whether the family has a pose at w1, by one-point recovery."""
    try:
        recover_poses(geom, w_at(system, w1), system.lengths)
    except Infeasible:
        return False
    return True


def refine(system, geom, inside, outside):
    """Bisect a feasibility boundary between a feasible and an infeasible
    w1, one midpoint at a time; returns the feasible end."""
    while abs(outside - inside) > BISECT_TOL:
        mid = 0.5 * (inside + outside)
        if feasible_at(system, geom, mid):
            inside = mid
        else:
            outside = mid
    return inside


def feasible_interval(system, geom, w1_hint_max):
    """The scan of fk_singular.feasible_interval, each flip bisected by
    refine."""
    grid = np.linspace(0.0, w1_hint_max, SCAN_POINTS)
    flags = solution_arrays(geom, w_at(system, grid), system.lengths).feasible.tolist()
    intervals = []
    i = 0
    while i < SCAN_POINTS:
        if not flags[i]:
            i += 1
            continue
        j = i
        while j + 1 < SCAN_POINTS and flags[j + 1]:
            j += 1
        lo = float(grid[i]) if i == 0 else refine(system, geom, float(grid[i]), float(grid[i - 1]))
        hi = (float(grid[j]) if j == SCAN_POINTS - 1
              else refine(system, geom, float(grid[j]), float(grid[j + 1])))
        intervals.append((lo, hi))
        i = j + 1
    return intervals
