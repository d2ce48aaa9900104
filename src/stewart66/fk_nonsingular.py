"""Forward kinematics off the conic: up to eight isolated poses.

Route: solve the 6x6 length system for w, read up to four rotation
candidates out of (w4, w5, w6), then intersect the two position planes
(w2, w3) with the sphere |P|^2 = w1 for each candidate.  Every solution
is audited against the input lengths before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (DegenerateLeg, Infeasible, NoIntersection,
                     ParallelPlanes, SingularBase)
from .geometry import PlatformGeometry, build_q
from .ik import Pose, d_from_lengths, leg_lengths
from .rotation import Quaternion, canonicalize, from_matrix, to_matrix

# Squared quaternion components this far below zero are rounding noise.
CLAMP_TOL = 1e-10
# Unit-norm slack on assembled candidates; guards inconsistent w vectors.
UNIT_TOL = 1e-6
# Candidates closer than this (after canonicalization) are the same root.
DEDUP_TOL = 1e-9
# Squared half-chord below this collapses the two sphere points into one.
TANGENT_EPS = 1e-10
# |u x v| below this means the two position planes define no line.
PLANE_TOL = 1e-10
# Returned solutions must reproduce the input lengths this well (relative).
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class QuaternionCandidates:
    """Rotation candidates compatible with (w4, w5, w6)."""

    quaternions: tuple
    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True, eq=False)
class FkSolution:
    pose: Pose
    rotation_index: int  # 1-based index into the candidate list
    position_sign: int   # +1 / -1 sphere branch, 0 at tangency
    leg_residual: float  # max |recomputed length - input length|


def solve_w(q_matrix, d) -> np.ndarray:
    """Solve the length system; the base must be off any conic (rank 6)."""
    f = linalg.lu_factor(q_matrix)
    if f.rank < 6:
        raise SingularBase(
            f"base matrix has rank {f.rank}: poses are not isolated, "
            "use the singular-family solver")
    return linalg.solve(f, d)


def _clamped_sqrt(value: float, scale: float, what: str) -> float:
    """Square root of a squared component that may carry rounding noise.

    Values below -CLAMP_TOL are genuinely infeasible data.  Values within
    a few machine epsilons of zero (relative to the terms that formed
    them) are noise either way; snapping them to zero matters because the
    square root would amplify 1e-16 noise into 1e-8 components.
    """
    if value < -CLAMP_TOL:
        raise Infeasible(f"{what} would be {value:.3g} < 0: no rotation fits these lengths")
    if value <= 8.0 * np.finfo(float).eps * scale:
        return 0.0
    return math.sqrt(value)


def _quat_gap(a: Quaternion, b: Quaternion) -> float:
    return float(np.linalg.norm(a.as_array() - b.as_array()))


def quaternions_from_w(w, mu: float) -> QuaternionCandidates:
    """Up to four canonical rotation candidates from (w4, w5, w6).

    q2 takes the positive root; where q2 is away from zero, q1 comes from
    the product constraint q1*q2 = beta (dividing keeps the product exact
    where the difference of square roots cancels catastrophically).  Sign
    flips over (q1, q2) jointly and over q3 enumerate the rest; duplicates
    collapse after canonicalization.
    """
    w4, w5 = float(w[3]), float(w[4])
    w6 = float(w[5])
    alpha = (w4 - w6) / (4.0 * mu)
    beta = -w5 / (8.0 * mu)
    gamma = math.hypot(alpha, 2.0 * beta)
    # common noise scale for all four squared components: every one of them
    # combines O(1)-sized terms built from w4, w5, w6, so the floor cannot
    # shrink with gamma (gamma itself is noise at the degenerate point)
    scale = 1.0 + (abs(w4) + abs(w5) + abs(w6)) / (4.0 * mu) + gamma
    q1 = _clamped_sqrt((gamma - alpha) / 2.0, scale, "q1^2")
    q2 = _clamped_sqrt((gamma + alpha) / 2.0, scale, "q2^2")
    q3 = _clamped_sqrt(0.5 + w4 / (4.0 * mu) - (alpha + gamma) / 2.0, scale, "q3^2")
    q0 = _clamped_sqrt(0.5 - w4 / (4.0 * mu) + (alpha - gamma) / 2.0, scale, "q0^2")
    total = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3
    if abs(total - 1.0) > UNIT_TOL:
        raise Infeasible(f"candidate norm^2 = {total:.9g}: w fits no unit quaternion")
    if q2 > 1e-12:
        q1 = beta / q2
    candidates = []
    for s12, s3 in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        cand = canonicalize(Quaternion(q0, s12 * q1 + 0.0, s12 * q2 + 0.0, s3 * q3 + 0.0))
        if all(_quat_gap(cand, kept) > DEDUP_TOL for kept in candidates):
            candidates.append(cand)
    return QuaternionCandidates(tuple(candidates), alpha, beta, gamma)


def position_from_w(w, q: Quaternion, geom: PlatformGeometry) -> list:
    """Sphere-line intersection for one rotation candidate.

    The planes u.P = w2 and v.P = w3 meet in the line r0 + t*r1; the
    sphere |P|^2 = w1 picks out up to two parameters t.  Returns
    [(P, +1), (P, -1)] for a proper chord and [(P, 0)] at tangency.
    """
    ra = to_matrix(q) @ geom.top_transform
    m = geom.mu * ra - np.eye(3)
    u = 2.0 * m[:, 0]
    v = 2.0 * m[:, 1]
    cr = np.cross(u, v)
    norm_cr = float(np.linalg.norm(cr))
    if norm_cr < PLANE_TOL:
        raise ParallelPlanes("position planes are parallel: no line of candidates")
    w1, w2, w3 = float(w[0]), float(w[1]), float(w[2])
    uu, vv, uv = float(u @ u), float(v @ v), float(u @ v)
    den = uu * vv - uv * uv
    r0 = ((vv * w2 - uv * w3) * u + (uu * w3 - uv * w2) * v) / den
    r1 = cr / norm_cr
    chord2 = w1 - float(r0 @ r0)
    if chord2 < -TANGENT_EPS:
        raise NoIntersection(
            f"sphere radius^2 w1 = {w1:.9g} is below the line's closest "
            f"approach {float(r0 @ r0):.9g}")
    if chord2 <= TANGENT_EPS:
        return [(r0, 0)]
    t = math.sqrt(chord2)
    return [(r0 + t * r1, 1), (r0 - t * r1, -1)]


def solutions_from_w(geom: PlatformGeometry, w, lengths) -> list:
    """Assemble audited poses for one w vector against known leg lengths."""
    lengths = np.asarray(lengths, dtype=float)
    candidates = quaternions_from_w(w, geom.mu)
    identity_top = np.array_equal(geom.top_transform, np.eye(3))
    tol = RESIDUAL_TOL * (1.0 + float(lengths.max()))
    solutions = []
    for index, cand in enumerate(candidates.quaternions, start=1):
        if identity_top:
            plate_q = cand
        else:
            # candidates carry the combined rotation R*A; peel A back off
            plate_q = from_matrix(to_matrix(cand) @ geom.top_transform.T)
        try:
            points = position_from_w(w, plate_q, geom)
        except NoIntersection:
            continue
        for point, sign in points:
            pose = Pose(plate_q, point)
            try:
                recomputed = leg_lengths(geom, pose)
            except DegenerateLeg:
                continue
            residual = float(np.max(np.abs(recomputed - lengths)))
            if residual <= tol:
                solutions.append(FkSolution(pose, index, sign, residual))
    return solutions


def fk_solve(geom: PlatformGeometry, lengths) -> list:
    """All isolated poses reproducing the leg lengths; at most eight.

    Ordered by (rotation candidate, sphere branch + before -).  Raises
    SingularBase on a conic base and Infeasible when the solved w admits
    no rotation at all; an empty list means rotations exist but no
    position reproduces the lengths.
    """
    lengths = np.asarray(lengths, dtype=float)
    w = solve_w(build_q(geom.base), d_from_lengths(geom, lengths))
    return solutions_from_w(geom, w, lengths)
