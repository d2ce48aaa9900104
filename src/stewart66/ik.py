"""Leg vectors and lengths from a pose, plus the length-expansion pieces.

The squared leg lengths are linear in six pose-dependent unknowns w;
build_q(base) maps w to the shifted squared lengths d.  w_from_pose and
d_from_lengths compute the two sides of that identity independently,
which makes any pose a ground-truth oracle for the forward solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLeg, ValidationError, _float_array
from .geometry import PlatformGeometry
from .rotation import Quaternion, to_matrix

MIN_LEG_LENGTH = 1e-12
# Largest leg length taken.  The length system is in L^2 (d_from_lengths),
# so L up to 2^170 keeps its right-hand side near fk_nonsingular.MAX_W =
# 2^340.  The w solved from it is larger by up to the system's condition
# number, which no check here bounds.
MAX_LENGTH = 2.0 ** 170


@dataclass(frozen=True, eq=False, slots=True)
class Pose:
    """Rigid placement of the top plate: orientation quaternion plus center.
    ValidationError unless they are a Quaternion and three finite numbers."""

    orientation: Quaternion
    position: np.ndarray  # (3,)

    def __post_init__(self):
        if not isinstance(self.orientation, Quaternion):
            raise ValidationError(f"orientation must be a Quaternion, got {self.orientation!r:.40}")
        object.__setattr__(self, "position", _float_array(self.position, "position", (3,)))


def plane_map(geom: PlatformGeometry, columns) -> np.ndarray:
    """Columns 0 and 1 of mu*R*A - I as two column vectors (2, 3, ...), for
    columns 0 and 1 of the combined rotations R*A (2, 3, ...)
    (rotation.columns).  They are all of the map a planar base point meets,
    and twice them are the normals of the position planes of w2 and w3."""
    m = np.multiply(columns, geom.mu)
    m[0, 0] -= 1.0
    m[1, 1] -= 1.0
    return m


def leg_vectors(geom: PlatformGeometry, m, position) -> np.ndarray:
    """Leg vectors (3, 6, ...), components first: leg i is
    (mu*R*A - I) @ B_i + P for plane maps m (2, 3, ...) (plane_map) and
    plate positions P (3, ...).  Every B_i = (x_i, y_i, 0), so leg i is
    m[0]*x_i + m[1]*y_i + P."""
    m = np.asarray(m, dtype=float)[:, :, None]
    # base coordinates (6, 1, ...) against the batch axes of m
    x, y = geom.base.T.reshape((2, 6) + (1,) * (m.ndim - 3))
    return m[0] * x + m[1] * y + np.asarray(position, dtype=float)[:, None]


def leg_lengths(geom: PlatformGeometry, pose: Pose) -> np.ndarray:
    """Euclidean lengths of the six legs; DegenerateLeg if one collapses."""
    m = plane_map(geom, (to_matrix(pose.orientation) @ geom.top_transform)[:, :2].T)
    legs = leg_vectors(geom, m, pose.position)
    lengths = np.sqrt(np.add.reduce(legs * legs, axis=0))
    if np.any(lengths < MIN_LEG_LENGTH):
        raise DegenerateLeg(f"leg {int(np.argmin(lengths)) + 1} collapsed to zero length")
    return lengths


def w_from_pose(geom: PlatformGeometry, pose: Pose) -> np.ndarray:
    """The six unknowns of the linear length system for a known pose.

    mu multiplies only the rotated position term in w2/w3; with it on both
    terms the identity build_q(base) @ w == d breaks.
    """
    ra = to_matrix(pose.orientation) @ geom.top_transform
    p = pose.position
    mixed = geom.mu * (ra.T @ p) - p
    return np.array([
        p @ p,
        2.0 * mixed[0],
        2.0 * mixed[1],
        -2.0 * geom.mu * ra[0, 0],
        -2.0 * geom.mu * (ra[0, 1] + ra[1, 0]),
        -2.0 * geom.mu * ra[1, 1],
    ])


def d_from_lengths(geom: PlatformGeometry, lengths) -> np.ndarray:
    """Right-hand side of the length system: L_i^2 - (1 + mu^2)*|B_i|^2, for
    checked float lengths (check_lengths).  The geometry holds the shift."""
    return lengths * lengths - geom._length_shift


def check_lengths(lengths) -> np.ndarray:
    """lengths as a new float (6,) array; ValidationError unless they are six
    strictly positive, finite numbers no larger than MAX_LENGTH."""
    lng = _float_array(lengths, "leg lengths", (6,))
    # of six numbers, Python's min and max are cheaper than array reductions
    values = lng.tolist()
    if min(values) <= 0.0:
        raise ValidationError("leg lengths must be strictly positive")
    if max(values) > MAX_LENGTH:
        raise ValidationError(f"leg lengths must be at most {MAX_LENGTH:.4g}")
    return lng
