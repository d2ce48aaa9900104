"""Forward kinematics off the conic: up to eight isolated poses.

Route: solve the 6x6 length system for w, read up to four rotation
candidates out of (w4, w5, w6), then intersect the two position planes
(w2, w3) with the sphere |P|^2 = w1 for each candidate.  Every solution
is audited against the input lengths before being returned.

The route runs on arrays: solution_arrays takes N w vectors and works on
(N rows x 4 rotation candidates x 2 sphere branches) at once, building no
objects.  Base and top plate are planar, so candidate slots 2-3 are the
mirror images of slots 0-1 through the base plane: only slots 0-1 go
through the sphere stage and the audit.  fk_solve and
fk_singular.recover_poses are a batch of one; the self-motion sweep and
feasible_interval are one batch over their parameter values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import linalg
from .errors import ValidationError
from .geometry import PlatformGeometry, build_q, factor_for_rank
from .ik import MIN_LEG_LENGTH, Pose, check_lengths, d_from_lengths, leg_vectors, plane_map
from .rotation import LEAD_WEIGHTS, Quaternion, _renormalize, canonicalize, columns

# Squared quaternion components this far below zero are rounding noise.
CLAMP_TOL = 1e-10
# Squared half-chord below minus this leaves the sphere and its line apart.
TANGENT_EPS = 1e-10
# Returned solutions must reproduce the input lengths this well (relative).
RESIDUAL_TOL = 1e-8
# Largest |w_i| solution_arrays, and so every solver, takes.  Its largest
# numbers are the squares in sphere_points and the audit, of points no
# farther out than |r0| <= 4 * |w| / (1 - mu)^3: the plane normals are the
# columns of 2 * (mu * R * A - I), whose singular values lie in
# [1 - mu, 1 + mu], and 1 - mu >= 2^-53 for every float mu < 1.  So
# |w_i| <= 2^340 keeps |r0| <= 2^501, and every square below 2^1006 for a
# base within geometry.MAX_COORDINATE = 2^126 of the origin, short of the
# float maximum 2^1024.  w / (4 * mu) stays finite for mu above 2^-680.
MAX_W = 2.0 ** 340

# Candidate k multiplies (q0, q1, q2, q3) by SIGNS[:, k]: (q1, q2) flip
# jointly, q3 on its own.
SIGNS = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0],
                  [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])[:, :, None]
# Row k is LEAD_WEIGHTS times SIGNS[:, k]: with it canonicalize's lead-sign
# test reads every slot off the signs of one quaternion.
_SLOT_LEADS = LEAD_WEIGHTS * SIGNS[:, :, 0].T
# Rows 1, 2, 0, 1 of a vector: two shifted views of them pair every
# component with the next two.
_ROLL = np.array([1, 2, 0, 1])
# Negates the first of two rows.
MINUS_PLUS = np.array([-1.0, 1.0])[:, None]
# The quaternion of a half turn about z, as one column.
HALF_TURN = np.array([0.0, 0.0, 0.0, 1.0])[:, None]
EPS = np.finfo(float).eps
# Sphere branch b is r0 + BRANCHES[b] * step: the + point, then the - point;
# shaped to stand before the (slot, row) axes.
BRANCHES = np.array([1.0, -1.0])[:, None, None]


@dataclass(frozen=True, eq=False, slots=True)
class FkSolution:
    pose: Pose
    rotation_index: int  # 1-based index into the candidate list
    position_sign: int   # +1 / -1 sphere branch, 0 at tangency
    leg_residual: float  # max |recomputed length - input length|


@dataclass(frozen=True, eq=False)
class RotationCandidates:
    """Rotation candidates for each row of W[N, 6], from (w4, w5, w6).

    Slot k of a row holds sign pattern SIGNS[:, k], canonicalized; kept marks
    the slots that are distinct candidates of a row that fits a unit
    quaternion, so a row's candidate list is its kept slots in order.  The
    arrays are read-only.
    """

    quaternions: np.ndarray  # (N, 4, 4)
    kept: np.ndarray         # (N, 4) bool
    fits: np.ndarray         # (N,) bool: some unit quaternion fits the row
    squares: np.ndarray      # (N, 4) q0^2..q3^2 as formed, before clamping


@dataclass(frozen=True, eq=False)
class SolutionArrays:
    """Audited poses for N w vectors, indexed [row, candidate slot, branch].

    Branch 0 is the + sphere point, or the single point (sign 0) at
    tangency; branch 1 is the - point.  accepted marks the points that
    reproduce the leg lengths; positions and residuals elsewhere are not
    meaningful.  Slots 2-3 hold the base-plane mirrors of slots 0-1 (see
    solution_arrays), those of dropped slots too.  The arrays are
    read-only, so they stay as the audit left them.
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

        The accepted points are gathered by one flat index and the objects
        filled column-wise by _fill, without the checks of Pose and
        Quaternion: the audit accepts only finite positions, and every plate
        is canonicalize output, which Quaternion keeps as it is.  Both
        sphere branches of a candidate have the same plate, so they share
        one Quaternion.
        """
        points = self.accepted.ravel().nonzero()[0]  # flat (row, slot, branch)
        candidates = points >> 1                     # flat (row, slot)
        # accepted points per candidate, 0, 1 or 2, and the candidates with any
        per = np.bincount(candidates, minlength=4 * len(self.accepted))
        lead = per.nonzero()[0]
        plates = self.orientations.reshape(-1, 4).take(lead, axis=0)
        positions = self.positions.reshape(-1, 3).take(points, axis=0)
        # one Quaternion per candidate, repeated for each of its points
        shared = np.fromiter(_fill(Quaternion, *plates.T.tolist()), object, len(lead))
        found = _fill(FkSolution, _fill(Pose, shared.repeat(per[lead]).tolist(), list(positions)),
                      self.rotations.kept.cumsum(axis=1).take(candidates).tolist(),
                      self.signs.take(points).tolist(), self.residuals.take(points).tolist())
        # points run row by row, so each row's solutions are one slice
        stops = per.cumsum()[3::4].tolist()
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


def _cross(a, b) -> np.ndarray:
    # a x b for a and b given as their rows (1, 2, 0, 1), _ROLL, components
    # first: component i is a[i+1] * b[i+2] - a[i+2] * b[i+1], for i = 0, 1, 2
    # at once, as two products of shifted views
    c = a[:3] * b[1:]
    c -= a[1:] * b[:3]
    return c


def rotation_candidates(w, mu: float) -> RotationCandidates:
    """Up to four canonical rotation candidates for each row of W[N, 6].

    q2 takes the positive root and q1 the sign of beta.  The smaller of the
    two comes from the product constraint |q1*q2| = |beta| divided by the
    larger one: its own square root loses its digits to cancellation in
    gamma -/+ alpha.  Sign flips over (q1, q2) jointly and over q3
    enumerate the rest.  A row fits when no square is below -CLAMP_TOL:
    the four squares add up to 1 by construction, so the clamped ones then
    do to within 4 * CLAMP_TOL.  A slot is dropped when it repeats an
    earlier one: where the components it negates are 0, and at q0 = 0 where
    slots 3 and 2 are -slot 0 and -slot 1.  Snapped components are 0 or
    above sqrt(8*EPS) ~ 4e-8, so distinct slots are at least 8e-8 apart.
    """
    wt = np.asarray(w, dtype=float).T
    w4, w5, w6 = wt[3], wt[4], wt[5]
    alpha = (w4 - w6) / (4.0 * mu)
    # -w5 / (8 mu): a quotient rounds the same either side of 0
    beta = w5 / (-8.0 * mu)
    gamma = np.hypot(alpha, 2.0 * beta)
    # common noise scale for all four squared components: every one of them
    # combines O(1)-sized terms built from w4, w5, w6, so the floor cannot
    # shrink with gamma (gamma itself is noise at the degenerate point)
    size = np.abs(wt[3:])
    scale = 1.0 + (size[0] + size[1] + size[2]) / (4.0 * mu) + gamma
    half = w4 / (4.0 * mu)
    # q1^2, q2^2 = (gamma -/+ alpha) / 2, then q0^2, q3^2 = 0.5 -/+ half
    # less them: x - y is x + (-y) exactly, so MINUS_PLUS forms a pair at once
    squares = np.empty((4,) + alpha.shape)
    np.divide(gamma + alpha * MINUS_PLUS, 2.0, out=squares[1:3])
    np.subtract(0.5 + half * MINUS_PLUS, squares[1:3], out=squares[::3])
    # values within a few machine epsilons of zero (relative to the terms
    # that formed them) are noise either way; snapping them to zero matters
    # because the square root would amplify 1e-16 noise into 1e-8 components
    q = np.sqrt(np.where(squares > 8.0 * EPS * scale, squares, 0.0))
    q1, q2 = q[1], q[2]
    fits = (squares >= -CLAMP_TOL).all(axis=0)
    # which components are 0 does not change below: of q1 and q2 the larger
    # keeps its root, and big, (q1, q2) != 0, decides the rest
    nonzero = q != 0.0
    lead, big, turn = nonzero[0], nonzero[1] | nonzero[2], nonzero[3]
    # big > first is big and not first: the masks are disjoint, so neither
    # division reads what the other wrote
    first, product = q1 <= q2, np.abs(beta)
    np.divide(product, q2, out=q1, where=big & first)
    np.divide(product, q1, out=q2, where=big > first)
    # q1 >= +0 so far and takes the sign of beta < 0: beta + 0.0 is +0.0 at -0.0
    np.copysign(q1, beta + 0.0, out=q1)
    # rows no rotation fits carry a half turn about z, so the stages after
    # stay finite: its position planes meet in a line for every mu
    q = _renormalize(np.where(fits, q, HALF_TURN))
    # canonicalize each slot, SIGNS[:, k] * q, from q once: the norm is the
    # same in every slot, and the lead sign canonicalize reads is
    # LEAD_WEIGHTS @ (SIGNS[:, k] * sign(q)) = _SLOT_LEADS[k] @ sign(q)
    flip = _SLOT_LEADS @ np.sign(q) < 0.0
    quaternions = q[:, None, :] * SIGNS  # (component, slot, row)
    np.subtract(0.0, quaternions, out=quaternions, where=flip)
    quaternions += 0.0  # the zeros SIGNS negated are +0.0 again
    # slot 1 negates q3, slot 2 (q1, q2) and slot 3 all three
    both = big & lead
    kept = np.array([fits, turn & (big | lead), both, turn & both]) & fits
    fields = quaternions.T, kept.T, fits, squares.T
    for x in fields:
        x.setflags(write=False)
    return RotationCandidates(*fields)


def sphere_points(w, m):
    """Sphere-line intersections for rotation candidates.

    w is W[N, 6] and m the candidates' plane maps (2, 3, K, N) (plane_map),
    components first and rows last.  The planes u.P = w2 and v.P = w3 meet
    in the line r0 + t*n, n = u x v, whose point nearest the origin is
    r0 = ((w2*v - w3*u) x n) / |n|^2; the sphere |P|^2 = w1 picks out up to
    two parameters t.  u and v are 2 * m, columns of 2 * (mu * R @ A - I),
    which is invertible for mu < 1, so n never vanishes.  Returns points
    (3, 2, K, N), signs (2, K, N) and hit (2, K, N): branch 0 is the +
    point, or the tangency point with sign 0, branch 1 the - point.
    """
    wt = np.asarray(w, dtype=float).T
    w1, w2, w3 = wt[0], wt[1], wt[2]
    # u and v as their rows _ROLL, so w2 * v - w3 * u comes out rolled too
    uv = m.take(_ROLL, axis=1)
    uv *= 2.0
    u, v = uv[0], uv[1]
    n = _cross(u, v)
    # add.reduce over the leading component axis adds the squares left to right
    nn = np.add.reduce(n * n, axis=0)
    x = w2 * v
    x -= w3 * u
    r0 = _cross(x, n.take(_ROLL, axis=0))
    r0 /= nn
    rr = np.add.reduce(r0 * r0, axis=0)
    chord2 = w1 - rr
    # the two points split where chord2 is more than its rounding: a few
    # ulps of the terms it is the difference of, as rotation_candidates
    # snaps its squares
    split = chord2 > 8.0 * EPS * (np.abs(w1) + rr)
    step = n * (np.sqrt(np.where(split, chord2, 0.0)) / np.sqrt(nn))
    points = step[:, None] * BRANCHES
    points += r0[:, None]
    signs = np.empty((2,) + split.shape, dtype=np.int8)
    signs[0], signs[1] = split, -1
    return points, signs, np.array([chord2 >= -TANGENT_EPS, split])


def solution_arrays(geom: PlatformGeometry, w, lengths) -> SolutionArrays:
    """Candidates, sphere points and the leg-length audit for W[N, 6].

    A point is accepted when no leg collapses and every leg reproduces its
    input length within RESIDUAL_TOL * (1 + max length).  The stages index
    their arrays [component, branch, slot, row], the reverse of the
    results', so every result field is the transpose of an array built
    here.  The four candidates (4, 4, N) and their plates are formed in
    full; the plane maps (2, 3, 2, N), sphere points (3, 2, 2, N) and the
    audit's legs (3, 6, 2, 2, N) cover slots 0-1 only.  Slot s + 2 carries
    q_RA with (q1, q2) negated, so its pose is slot s's mirrored through the
    base plane, with the same leg lengths: its points are slot s's at
    (x, y, -z) with the + and - points swapped, and its residuals and
    verdicts swap with them.  The legs of every slot-0-1 point are formed,
    and a point is audited, its residual NaN otherwise, where its slot is
    kept and meets the sphere: a kept mirror implies a kept slot.
    ValidationError when some |w_i| exceeds MAX_W or is NaN; no rows give
    fields of no rows.
    """
    w = np.asarray(w, dtype=float)
    if not np.abs(w).max(initial=0.0) <= MAX_W:
        raise ValidationError(f"w must be at most {MAX_W:.4g} in magnitude")
    lengths = np.asarray(lengths, dtype=float)
    rotations = rotation_candidates(w, geom.mu)
    q, plate = rotations.quaternions.T, geom._ra_to_plate
    # candidates carry q_RA; plates are q_RA (x) conj(q_A), q_A fixed per geometry
    orientations = q
    if plate is not None:
        orientations = canonicalize((plate.T @ q.reshape(4, -1)).reshape(q.shape))
    # one plane map per slot-0-1 candidate, from columns 0 and 1 of R(q_RA) = R @ A
    m = plane_map(geom, columns(q[:, :2], 2))
    points, signs, hit = sphere_points(w, m)
    tol = RESIDUAL_TOL * (1.0 + lengths.max())
    kept = rotations.kept.T
    audit = kept[:2] & hit[0]
    legs = leg_vectors(geom, m[:, :, None], points)  # (3, 6, 2, 2, N)
    legs *= legs
    audited = np.sqrt(np.add.reduce(legs, axis=0), out=legs[0])
    gaps = audited - lengths[:, None, None, None]
    residual = np.abs(gaps, out=gaps).max(axis=0)
    residuals = np.where(audit, residual, np.nan)
    verdict = (residual <= tol) & (audited >= MIN_LEG_LENGTH).all(axis=0) & audit
    # slots 2-3 as the mirrors of slots 0-1.  Signs and hit flags are not
    # swapped: at tangency only branch 0 is hit, with sign 0, and both
    # branches hold the one point
    accepted = np.concatenate([verdict, verdict[::-1]], axis=1)
    pairs = accepted.reshape((2, 2) + hit.shape[1:])  # (branch, mirror, slot 0-1, row)
    pairs &= hit[:, None]
    accepted &= kept
    positions = np.concatenate([points, points[:, ::-1]], axis=2)
    # 0.0 - z, not -z: a z that cancels to 0 is +0.0 in the mirror slot too
    z = positions[2, :, 2:]
    np.subtract(0.0, z, out=z)
    fields = (orientations.T, positions.T, np.concatenate([signs, signs], axis=1).T,
              np.concatenate([residuals, residuals[::-1]], axis=1).T, accepted.T)
    for x in fields:
        x.setflags(write=False)
    return SolutionArrays(rotations, *fields)


def fk_solve(geom: PlatformGeometry, lengths) -> list:
    """All isolated poses reproducing the leg lengths; at most eight.

    Ordered by (rotation candidate, sphere branch + before -).  An empty
    list when no pose reproduces the lengths: when the solved w fits no
    rotation, or no position of a fitting one passes the audit; the
    rotation stage's fits and squares (solution_arrays) tell which.  Raises
    ValidationError unless the lengths are six positive finite numbers that
    solve to a w within MAX_W, SingularBase on a conic base and
    DegenerateBase below rank 5.
    """
    lengths = check_lengths(lengths)
    f = factor_for_rank(build_q(geom.base), 6)
    w = linalg.solve(f, d_from_lengths(geom, lengths))
    return solution_arrays(geom, w[None], lengths).solutions()[0]
