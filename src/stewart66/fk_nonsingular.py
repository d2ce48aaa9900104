"""Forward kinematics off the conic: up to eight isolated poses.

Route: solve the 6x6 length system for w, read up to four rotation
candidates out of (w4, w5, w6), then intersect the two position planes
(w2, w3) with the sphere |P|^2 = w1 for each candidate.  Every solution
is audited against the input lengths before being returned.

The route runs on arrays: solution_arrays takes N w vectors and works on
(N rows x 4 rotation candidates x 2 sphere branches) at once, building no
objects.  fk_solve and solutions_from_w are a batch of one; the
self-motion sweep and feasibility scan are one batch over their grid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import linalg
from .errors import Infeasible, ValidationError
from .geometry import PlatformGeometry, build_q, factor_for_rank
from .ik import EYE3, MIN_LEG_LENGTH, Pose, check_lengths, d_from_lengths, leg_vectors
from .rotation import RENORM_TOL, Quaternion, canonicalize, to_matrices

# Squared quaternion components this far below zero are rounding noise.
CLAMP_TOL = 1e-10
# Unit-norm slack on assembled candidates; guards inconsistent w vectors.
UNIT_TOL = 1e-6
# Candidates closer than this (after canonicalization) are the same root.
DEDUP_TOL = 1e-9
# Squared half-chord below this collapses the two sphere points into one.
TANGENT_EPS = 1e-10
# Returned solutions must reproduce the input lengths this well (relative).
RESIDUAL_TOL = 1e-8

# Candidate k multiplies (q0, q1, q2, q3) by SIGNS[k]: (q1, q2) flip jointly,
# q3 on its own.
SIGNS = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, -1.0],
                  [1.0, -1.0, -1.0, 1.0], [1.0, -1.0, -1.0, -1.0]])
# Names of the squared components in the order they are checked.
SQUARE_NAMES = ((1, "q1^2"), (2, "q2^2"), (3, "q3^2"), (0, "q0^2"))
EPS = np.finfo(float).eps
# Slot pairs LATER[p] > EARLIER[p]; DROPS[p] is one-hot on the slot a near pair drops
LATER, EARLIER = np.nonzero(np.tri(4, k=-1, dtype=bool))
DROPS = LATER[:, None] == np.arange(4)


@dataclass(frozen=True, eq=False, slots=True)
class FkSolution:
    pose: Pose
    rotation_index: int  # 1-based index into the candidate list
    position_sign: int   # +1 / -1 sphere branch, 0 at tangency
    leg_residual: float  # max |recomputed length - input length|


@dataclass(frozen=True, eq=False)
class RotationCandidates:
    """Rotation candidates for each row of W[N, 6], from (w4, w5, w6).

    Slot k of a row holds sign pattern SIGNS[k], canonicalized; kept marks
    the slots that are distinct candidates of a row that fits a unit
    quaternion, so a row's candidate list is its kept slots in order.
    """

    quaternions: np.ndarray  # (N, 4, 4)
    kept: np.ndarray         # (N, 4) bool
    fits: np.ndarray         # (N,) bool: some unit quaternion fits the row
    squares: np.ndarray      # (N, 4) q0^2..q3^2 as formed, before clamping
    norm2: np.ndarray        # (N,) squared norm of the clamped components
    alpha: np.ndarray        # (N,)
    beta: np.ndarray         # (N,)
    gamma: np.ndarray        # (N,)

    def failure(self, row: int) -> str:
        """Why no rotation fits row `row`."""
        for j, name in SQUARE_NAMES:
            if self.squares[row, j] < -CLAMP_TOL:
                return (f"{name} would be {self.squares[row, j]:.3g} < 0: "
                        f"no rotation fits these lengths")
        return f"candidate norm^2 = {self.norm2[row]:.9g}: w fits no unit quaternion"


@dataclass(frozen=True, eq=False)
class SolutionArrays:
    """Audited poses for N w vectors, indexed [row, candidate slot, branch].

    Branch 0 is the + sphere point, or the single point (sign 0) at
    tangency; branch 1 is the - point.  accepted marks the points that
    reproduce the leg lengths; positions and residuals elsewhere are not
    meaningful.
    """

    rotations: RotationCandidates
    orientations: np.ndarray  # (N, 4, 4) canonical plates q_RA (x) conj(q_A), q_A per geometry
    positions: np.ndarray     # (N, 4, 2, 3)
    signs: np.ndarray         # (N, 4, 2) +1 / -1 / 0
    residuals: np.ndarray     # (N, 4, 2) max |recomputed length - input length|
    accepted: np.ndarray      # (N, 4, 2) bool

    @property
    def feasible(self) -> np.ndarray:
        """(N,) bool: the row has at least one accepted pose."""
        return self.accepted.any(axis=(1, 2))

    def solutions(self) -> list:
        """One list of FkSolution per row, ordered by (candidate, + before -).

        The accepted points are gathered by one flat index and checked as
        one batch against what Pose and Quaternion require; the objects are
        then filled column-wise by _fill, one Quaternion per pose, without
        repeating those checks one object at a time.
        """
        points = np.flatnonzero(self.accepted)  # flat (row, slot, branch)
        candidates = points // 2                # flat (row, slot)
        plates = self.orientations.reshape(-1, 4).take(candidates, axis=0)
        positions = self.positions.reshape(-1, 3).take(points, axis=0)
        if not np.isfinite(positions).all():
            raise ValidationError("position must be finite")
        off = np.abs(np.sqrt(np.add.reduce(plates * plates, axis=1)) - 1.0)
        # canonicalize has renormalized every candidate, so Quaternion would
        # keep each as it is; any that is not (NaN included) takes the
        # constructor's own check and renormalization.  The half margin
        # covers the ulp by which x*x here and x**2 there can differ.
        if not (off <= 0.5 * RENORM_TOL).all():
            plates = np.array([Quaternion(*q).as_array() for q in plates.tolist()])
        found = _fill(FkSolution, _fill(Pose, _fill(Quaternion, *plates.T.tolist()), list(positions)),
                      self.rotations.kept.cumsum(axis=1).take(candidates).tolist(),
                      self.signs.take(points).tolist(), self.residuals.take(points).tolist())
        # points run row by row, so each row's solutions are one slice
        stops = np.bincount(candidates // 4, minlength=len(self.accepted)).cumsum().tolist()
        return list(map(found.__getitem__, map(slice, [0, *stops], stops)))


# Runs an iterator to its end and keeps nothing of it.
_consume = deque(maxlen=0).extend


def _fill(cls, *columns) -> list:
    """len(columns[0]) new cls objects; object i gets columns[k][i] as the
    k-th name of cls.__slots__, which is the dataclass field order.

    Each field is set on all objects by one map over its slot descriptor,
    so neither __init__ nor __post_init__ runs: callers pass only values
    those checks would keep as they are.
    """
    objects = list(map(object.__new__, repeat(cls, len(columns[0]))))
    for name, column in zip(cls.__slots__, columns, strict=True):
        _consume(map(getattr(cls, name).__set__, objects, column))
    return objects


def _dot(a, b) -> np.ndarray:
    # row-wise a . b through matmul: the BLAS dot that a @ b uses on one row
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _cross(a, b) -> np.ndarray:
    # np.cross's arithmetic, one component at a time, without its set-up
    out = np.empty(a.shape)
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(a[..., j], b[..., k], out=out[..., i])
        out[..., i] -= a[..., k] * b[..., j]
    return out


def rotation_candidates(w, mu: float) -> RotationCandidates:
    """Up to four canonical rotation candidates for each row of W[N, 6].

    q2 takes the positive root and q1 the sign of beta.  The smaller of the
    two comes from the product constraint |q1*q2| = |beta| divided by the
    larger one: its own square root loses its digits to cancellation in
    gamma -/+ alpha.  Sign flips over (q1, q2) jointly and over q3
    enumerate the rest.  A slot is dropped when it lies within DEDUP_TOL of
    any earlier slot, kept or not.  That agrees with comparing against the
    kept slots only: a snapped component is exactly 0 or above sqrt(8*EPS)
    ~ 4e-8, so two slots are identical or at least 8e-8 apart, and no chain
    of near slots can pass through a dropped one.
    """
    w = np.asarray(w, dtype=float)
    w4, w5, w6 = w[:, 3], w[:, 4], w[:, 5]
    alpha = (w4 - w6) / (4.0 * mu)
    beta = -w5 / (8.0 * mu)
    gamma = np.hypot(alpha, 2.0 * beta)
    # common noise scale for all four squared components: every one of them
    # combines O(1)-sized terms built from w4, w5, w6, so the floor cannot
    # shrink with gamma (gamma itself is noise at the degenerate point)
    scale = 1.0 + (np.abs(w4) + np.abs(w5) + np.abs(w6)) / (4.0 * mu) + gamma
    half = w4 / (4.0 * mu)
    squares = np.array([0.5 - half + (alpha - gamma) / 2.0, (gamma - alpha) / 2.0,
                        (gamma + alpha) / 2.0, 0.5 + half - (alpha + gamma) / 2.0])
    # values within a few machine epsilons of zero (relative to the terms
    # that formed them) are noise either way; snapping them to zero matters
    # because the square root would amplify 1e-16 noise into 1e-8 components
    q0, q1, q2, q3 = np.sqrt(np.where(squares > 8.0 * EPS * scale, squares, 0.0))
    norm2 = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3
    fits = (squares >= -CLAMP_TOL).all(axis=0) & ~(np.abs(norm2 - 1.0) > UNIT_TOL)
    big = np.maximum(q1, q2) > 1e-12
    q1, q2 = (np.divide(np.abs(beta), q2, out=q1.copy(), where=big & (q1 <= q2)),
              np.divide(np.abs(beta), q1, out=q2.copy(), where=big & (q1 > q2)))
    q1 = np.where(beta < 0.0, -q1, q1)
    # rows no rotation fits carry a half turn about z, so the stages after
    # stay finite: its position planes meet in a line for every mu
    base = np.where(fits, np.array([q0, q1, q2, q3]), [[0.0], [0.0], [0.0], [1.0]])
    quaternions = base.T[:, None, :] * SIGNS
    quaternions += 0.0
    quaternions = canonicalize(quaternions)
    # np.take, not fancy indexing: it gathers the pairs twice as fast
    d = np.take(quaternions, LATER, axis=1) - np.take(quaternions, EARLIER, axis=1)
    near = ~(np.sqrt(_dot(d, d)) > DEDUP_TOL)
    kept = fits[:, None] & ~(near @ DROPS)
    return RotationCandidates(quaternions, kept, fits, squares.T, norm2, alpha, beta, gamma)


def sphere_points(w, ra, mu: float):
    """Sphere-line intersections for rotation candidates.

    w is W[N, 6] and ra the combined rotations R @ A (N, K, 3, 3).  The
    planes u.P = w2 and v.P = w3 meet in the line r0 + t*n, n = u x v, whose
    point nearest the origin is r0 = ((w2*v - w3*u) x n) / |n|^2; the sphere
    |P|^2 = w1 picks out up to two parameters t.  u and v are columns of
    2 * (mu * R @ A - I), which is invertible for mu < 1, so n never
    vanishes.  Returns points (N, K, 2, 3), signs (N, K, 2) and hit
    (N, K, 2): branch 0 is the + point, or the tangency point with sign 0,
    branch 1 the - point.
    """
    w = np.asarray(w, dtype=float)
    # columns 0 and 1 of 2 * (mu * ra - I)
    u = 2.0 * (mu * ra[..., :, 0] - EYE3[0])
    v = 2.0 * (mu * ra[..., :, 1] - EYE3[1])
    n = _cross(u, v)
    nn = _dot(n, n)
    w1, w2, w3 = w[:, 0, None], w[:, 1, None], w[:, 2, None]
    # in place from here on: these (N, K, 3) arrays dominate the kernel's memory
    v *= w2[..., None]
    u *= w3[..., None]
    v -= u
    r0 = _cross(v, n)
    del u, v
    r0 /= nn[..., None]
    chord2 = w1 - _dot(r0, r0)
    tangent = chord2 <= TANGENT_EPS
    step = n
    step *= (np.sqrt(np.where(tangent, 0.0, chord2)) / np.sqrt(nn))[..., None]
    points = np.empty(tangent.shape + (2, 3))
    np.add(r0, step, out=points[..., 0, :])
    np.subtract(r0, step, out=points[..., 1, :])
    signs = np.empty(tangent.shape + (2,), dtype=np.int8)
    signs[..., 0] = ~tangent
    signs[..., 1] = -1
    hit = np.empty(tangent.shape + (2,), dtype=bool)
    hit[..., 0] = chord2 >= -TANGENT_EPS
    hit[..., 1] = hit[..., 0] & ~tangent
    return points, signs, hit


def solution_arrays(geom: PlatformGeometry, w, lengths) -> SolutionArrays:
    """Candidates, sphere points and the leg-length audit for W[N, 6].

    A point is accepted when no leg collapses and every leg reproduces its
    input length within RESIDUAL_TOL * (1 + max length).
    """
    w = np.asarray(w, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    rotations = rotation_candidates(w, geom.mu)
    # candidates carry q_RA; plates are q_RA (x) conj(q_A), q_A fixed per geometry
    q, plate = rotations.quaternions, geom._ra_to_plate
    orientations = q if plate is None else canonicalize(q @ plate)
    ra = to_matrices(rotations.quaternions)
    points, signs, hit = sphere_points(w, ra, geom.mu)
    tol = RESIDUAL_TOL * (1.0 + lengths.max())
    residuals = np.full(hit.shape, np.nan)
    accepted = np.zeros(hit.shape, dtype=bool)
    # every kept (row, slot) with a sphere point at once; legs are (M, 2, 6, 3)
    rows, slots = np.nonzero(rotations.kept & hit[..., 0])
    legs = leg_vectors(geom, ra[rows, slots, None], points[rows, slots])
    # np.linalg.norm(legs, axis=-1), one component at a time: add.reduce over
    # the components, which lie 6 apart in legs, costs more than the
    # arithmetic.  The sum runs left to right, as add.reduce runs it.
    legs *= legs
    audited = legs[..., 0] + legs[..., 1]
    audited += legs[..., 2]
    np.sqrt(audited, out=audited)
    residual = np.abs(audited - lengths).max(axis=-1)
    residuals[rows, slots] = residual
    accepted[rows, slots] = (hit[rows, slots] & (audited >= MIN_LEG_LENGTH).all(axis=-1)
                             & (residual <= tol))
    return SolutionArrays(rotations, orientations, points, signs, residuals, accepted)


def solutions_from_w(geom: PlatformGeometry, w, lengths) -> list:
    """Assemble audited poses for one w vector against known leg lengths.

    Infeasible when no unit quaternion fits (w4, w5, w6); an empty list
    when rotations exist but no position reproduces the lengths.
    """
    batch = solution_arrays(geom, np.asarray(w, dtype=float)[None, :], lengths)
    if not batch.rotations.fits[0]:
        raise Infeasible(batch.rotations.failure(0))
    return batch.solutions()[0]


def fk_solve(geom: PlatformGeometry, lengths) -> list:
    """All isolated poses reproducing the leg lengths; at most eight.

    Ordered by (rotation candidate, sphere branch + before -).  Raises
    ValidationError unless the lengths are six positive finite numbers,
    SingularBase on a conic base, DegenerateBase below rank 5, and
    Infeasible when the solved w admits no rotation at all; an empty list
    means rotations exist but no position reproduces the lengths.
    """
    lengths = check_lengths(lengths)
    f = factor_for_rank(build_q(geom.base), 6)
    w = linalg.solve(f, d_from_lengths(geom, lengths))
    return solutions_from_w(geom, w, lengths)
