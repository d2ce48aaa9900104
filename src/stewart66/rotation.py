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
        # squares added left to right, as canonicalize does: its output is kept
        q0, q1, q2, q3 = self.q0, self.q1, self.q2, self.q3
        norm = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
            raise NotUnit(f"quaternion not unit: norm {norm:.9g}")
        if abs(norm - 1.0) > RENORM_TOL:
            for name in ("q0", "q1", "q2", "q3"):
                object.__setattr__(self, name, getattr(self, name) / norm)

    def as_array(self) -> np.ndarray:
        return np.array([self.q0, self.q1, self.q2, self.q3])


def columns(q, count: int) -> np.ndarray:
    """Columns 0 and 1, or all three (count 2 or 3), of the rotation matrices
    of unit quaternion components q (4, ...), as (count, 3, ...): the one
    formula of R, for one quaternion and for arrays of them.  Each entry is
    a sum or difference of doubled products p_kl = (2 q_k) q_l, k <= l."""
    flat = np.asarray(q, dtype=float).reshape(4, -1)
    t = 2.0 * flat[:count + 1]
    p0 = t[0] * flat       # p00 p01 p02 p03
    # p11 p12 p13, p21 p22 p23 [, p31 p32 p33] in one product; p21, p31, p32 go unused
    p = (t[1:, None] * flat[1:]).reshape(3 * count, flat.shape[1])
    p0[0] -= 1.0           # p00 - 1, the diagonal's first term
    r = np.empty((3 * count, flat.shape[1]))  # column j, row i at 3j + i
    np.add(p0[0], p[::4], out=r[::4])                           # R00 R11 [R22]
    np.add(p0[3:0:-2], p[1:6:4], out=r[1:6:4])                  # R10 R21
    np.subtract(p[2:0:-1], p0[2:4], out=r[2:4])                 # R20 R01
    if count == 3:
        np.add(p0[2], p[2], out=r[6])                           # R02
        np.subtract(p[5], p0[1], out=r[7])                      # R12
    return r.reshape((count, 3) + np.shape(q)[1:])


def to_matrix(q: Quaternion) -> np.ndarray:
    """Rotation matrix of a Quaternion, unit by construction (right handed, det +1)."""
    return columns([q.q0, q.q1, q.q2, q.q3], 3).T.copy()


def canonicalize(q) -> np.ndarray:
    """Unit quaternion components (4, ...), components first, renormalized
    like Quaternion and with the first nonzero component positive: the
    q0 >= 0 representative of {q, -q}, with an exactly zero q0 tied on the
    next component.
    """
    q = _renormalize(np.array(q, dtype=float))
    # 8*s0 outweighs 4*s1 + 2*s2 + s3, so the weighted sum of the signs has
    # the sign of the first nonzero component
    flip = (LEAD_WEIGHTS @ np.sign(q).reshape(4, -1) < 0.0).reshape(q.shape[1:])
    # 0.0 - x instead of -x keeps zero components at +0.0
    np.subtract(0.0, q, out=q, where=flip)
    return q


def _renormalize(q) -> np.ndarray:
    """q, a float array of quaternion components (4, ...), divided in place
    by its norm where that is more than RENORM_TOL from 1, as Quaternion
    does."""
    norm = np.sqrt(np.add.reduce(q * q, axis=0))
    np.divide(q, norm, out=q, where=np.abs(norm - 1.0) > RENORM_TOL)
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
