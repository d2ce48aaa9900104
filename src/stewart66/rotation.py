"""Unit quaternions and the rotation matrices they generate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotUnit, _real

# Construction normalizes within this distance of unit norm, rejects beyond.
NORM_TOL = 1e-6
# Drift below this is working precision already; renormalizing would shift
# components by an ulp and break exact identities like q vs -q.
RENORM_TOL = 1e-13
LEAD_WEIGHTS = np.array([8.0, 4.0, 2.0, 1.0])


@dataclass(frozen=True, slots=True)
class Quaternion:
    q0: float
    q1: float
    q2: float
    q3: float

    def __post_init__(self):
        # stored as floats; a NaN or infinite component is left to the norm
        # test: NotUnit
        for name in ("q0", "q1", "q2", "q3"):
            object.__setattr__(self, name, _real(getattr(self, name), name, finite=False))
        norm = math.sqrt(self.q0 ** 2 + self.q1 ** 2 + self.q2 ** 2 + self.q3 ** 2)
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
            raise NotUnit(f"quaternion not unit: norm {norm:.9g}")
        if abs(norm - 1.0) > RENORM_TOL:
            for name in ("q0", "q1", "q2", "q3"):
                object.__setattr__(self, name, getattr(self, name) / norm)

    def as_array(self) -> np.ndarray:
        return np.array([self.q0, self.q1, self.q2, self.q3])


def columns(q0, q1, q2, q3):
    """The columns of the rotation matrix of unit quaternion components, one
    at a time: one formula for floats and for arrays of components, so a
    caller that needs the first columns only evaluates no others."""
    t0, t1, t2 = 2 * q0, 2 * q1, 2 * q2
    d = t0 * q0 - 1
    yield [d + t1 * q1, t1 * q2 + t0 * q3, t1 * q3 - t0 * q2]
    yield [t1 * q2 - t0 * q3, d + t2 * q2, t0 * q1 + t2 * q3]
    yield [t0 * q2 + t1 * q3, t2 * q3 - t0 * q1, d + 2 * q3 * q3]


def to_matrix(q: Quaternion) -> np.ndarray:
    """Rotation matrix of a unit quaternion (right handed, det +1)."""
    q0, q1, q2, q3 = q.q0, q.q1, q.q2, q.q3
    norm = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
    if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
        raise NotUnit(f"quaternion not unit: norm {norm:.9g}")
    return np.array(list(zip(*columns(q0, q1, q2, q3))))


def canonicalize(q) -> np.ndarray:
    """Unit quaternion components (4, ...), components first, renormalized
    like Quaternion and with the first nonzero component positive: the
    q0 >= 0 representative of {q, -q}, with an exactly zero q0 tied on the
    next component.
    """
    q = np.array(q, dtype=float)
    norm = np.sqrt(np.add.reduce(q * q, axis=0))
    np.divide(q, norm, out=q, where=np.abs(norm - 1.0) > RENORM_TOL)
    # 8*s0 outweighs 4*s1 + 2*s2 + s3, so the weighted sum of the signs has
    # the sign of the first nonzero component
    flip = (LEAD_WEIGHTS @ np.sign(q).reshape(4, -1) < 0.0).reshape(q.shape[1:])
    # 0.0 - x instead of -x keeps zero components at +0.0
    np.subtract(0.0, q, out=q, where=flip)
    return q


def from_matrix(m) -> np.ndarray:
    """Canonical quaternion (4,) of one rotation matrix; inverse of to_matrix."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = np.asarray(m, dtype=float).tolist()
    t = m00 + m11 + m22
    # Shepperd branching: divide by the largest of the four squared terms.
    i = max(range(4), key=[t, m00, m11, m22].__getitem__)
    diagonal, off = [(1.0 + t, (m21 - m12, m02 - m20, m10 - m01)),
                     (1.0 + m00 - m11 - m22, (m21 - m12, m01 + m10, m02 + m20)),
                     (1.0 + m11 - m00 - m22, (m02 - m20, m01 + m10, m12 + m21)),
                     (1.0 + m22 - m00 - m11, (m10 - m01, m02 + m20, m12 + m21))][i]
    s = 2.0 * math.sqrt(diagonal)
    q = [x / s for x in off]
    q.insert(i, s / 4)
    return canonicalize(q)
