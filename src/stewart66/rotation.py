"""Unit quaternions and the rotation matrices they generate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotUnit

# Construction normalizes within this distance of unit norm, rejects beyond.
NORM_TOL = 1e-6
# Drift below this is working precision already; renormalizing would shift
# components by an ulp and break exact identities like q vs -q.
RENORM_TOL = 1e-13


@dataclass(frozen=True)
class Quaternion:
    q0: float
    q1: float
    q2: float
    q3: float

    def __post_init__(self):
        norm = math.sqrt(self.q0 ** 2 + self.q1 ** 2 + self.q2 ** 2 + self.q3 ** 2)
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
            raise NotUnit(f"quaternion not unit: norm {norm:.9g}")
        if abs(norm - 1.0) > RENORM_TOL:
            for name in ("q0", "q1", "q2", "q3"):
                object.__setattr__(self, name, getattr(self, name) / norm)

    def as_array(self) -> np.ndarray:
        return np.array([self.q0, self.q1, self.q2, self.q3])


def to_matrix(q: Quaternion) -> np.ndarray:
    """Rotation matrix of a unit quaternion (right handed, det +1)."""
    q0, q1, q2, q3 = q.q0, q.q1, q.q2, q.q3
    norm = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
    if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
        raise NotUnit(f"quaternion not unit: norm {norm:.9g}")
    return np.array([
        [2 * q0 * q0 - 1 + 2 * q1 * q1, 2 * q1 * q2 - 2 * q0 * q3, 2 * q0 * q2 + 2 * q1 * q3],
        [2 * q1 * q2 + 2 * q0 * q3, 2 * q0 * q0 - 1 + 2 * q2 * q2, 2 * q2 * q3 - 2 * q0 * q1],
        [2 * q1 * q3 - 2 * q0 * q2, 2 * q0 * q1 + 2 * q2 * q3, 2 * q0 * q0 - 1 + 2 * q3 * q3],
    ])


def canonicalize(q: Quaternion) -> Quaternion:
    """Pick the q0 >= 0 representative of {q, -q}; same rotation either way.

    An exactly zero q0 ties on the first nonzero component instead, so both
    representatives of such a rotation collapse to the same value.
    """
    for c in (q.q0, q.q1, q.q2, q.q3):
        if c > 0.0:
            return q
        if c < 0.0:
            # 0.0 - x instead of -x keeps zero components at +0.0
            return Quaternion(0.0 - q.q0, 0.0 - q.q1, 0.0 - q.q2, 0.0 - q.q3)
    raise NotUnit("zero quaternion has no canonical form")


def from_matrix(r) -> Quaternion:
    """Canonical quaternion of a rotation matrix; inverse of to_matrix."""
    m = np.asarray(r, dtype=float)
    # Shepperd branching: divide by the largest of the four squared terms.
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
    return canonicalize(Quaternion(*q))
