"""Platform description and the conic test on its base vertices.

Six planar base vertices; the top plate is the base contracted by mu and
turned by a fixed rotation.  Whether the six vertices lie on a common
conic decides which forward-kinematics route applies: the coefficient
matrix of the length system loses exactly one rank on a conic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import DuplicateVertex, ValidationError

MIN_VERTEX_SEPARATION = 1e-9
ORTHOGONALITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PlatformGeometry:
    """Six base vertices (z = 0 implied), contraction ratio, top rotation.

    Circle bases are taken on the unit circle; callers with another radius
    rescale their lengths instead.
    """

    base: np.ndarray                            # (6, 2)
    mu: float
    top_transform: Optional[np.ndarray] = None  # (3, 3); identity when omitted

    def __post_init__(self):
        base = np.array(self.base, dtype=float)
        if base.shape != (6, 2):
            raise ValidationError(f"base must be 6 planar points, got shape {base.shape}")
        if not np.all(np.isfinite(base)):
            raise ValidationError("base coordinates must be finite")
        diff = base[:, None, :] - base[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        dist[np.diag_indices(6)] = np.inf
        if dist.min() <= MIN_VERTEX_SEPARATION:
            i, j = np.unravel_index(int(dist.argmin()), dist.shape)
            raise DuplicateVertex(f"base vertices {i} and {j} coincide")
        if self.top_transform is None:
            a = np.eye(3)
        else:
            a = np.array(self.top_transform, dtype=float)
        if a.shape != (3, 3) or not np.all(np.isfinite(a)):
            raise ValidationError("top transform must be a finite 3x3 matrix")
        if np.max(np.abs(a.T @ a - np.eye(3))) > ORTHOGONALITY_TOL:
            raise ValidationError("top transform is not orthogonal")
        if np.linalg.det(a) < 0.0:
            # a reflection cannot be reached by rotating the plate
            raise ValidationError("top transform must be a proper rotation (det +1)")
        mu = float(self.mu)
        if not np.isfinite(mu) or not 0.0 < mu < 1.0:
            raise ValidationError(f"mu must lie strictly between 0 and 1, got {mu}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "top_transform", a)


@dataclass(frozen=True, eq=False)
class ConicReport:
    """Outcome of the rank test on the base's conic matrix."""

    det_q: float  # reported by the CLI; the rank alone decides on_conic
    rank: int
    on_conic: bool
    conic: Optional[np.ndarray]  # unit (1, x, y, x^2, xy, y^2) coefficients, rank 5 only


def make_circle_base(angles) -> np.ndarray:
    """Unit-circle vertices (cos t, sin t); angles must be distinct mod 2*pi."""
    th = np.asarray(angles, dtype=float)
    if th.shape != (6,):
        raise ValidationError(f"need exactly 6 angles, got shape {th.shape}")
    if not np.all(np.isfinite(th)):
        raise ValidationError("angles must be finite")
    for i in range(6):
        for j in range(i + 1, 6):
            d = abs(th[i] - th[j]) % (2.0 * np.pi)
            if min(d, 2.0 * np.pi - d) <= MIN_VERTEX_SEPARATION:
                raise DuplicateVertex(f"angles {i} and {j} coincide modulo 2*pi")
    return np.column_stack([np.cos(th), np.sin(th)])


def build_q(base) -> np.ndarray:
    """Row i is (1, x_i, y_i, x_i^2, x_i*y_i, y_i^2)."""
    b = np.asarray(base, dtype=float)
    x, y = b[:, 0], b[:, 1]
    return np.column_stack([np.ones(6), x, y, x * x, x * y, y * y])


def conic_check(base) -> ConicReport:
    """Rank-test the conic matrix; six points on any conic drop it to five."""
    q = build_q(base)
    f = linalg.lu_factor(q)
    conic = linalg.null_vector(f) if f.rank == 5 else None
    return ConicReport(
        det_q=float(np.linalg.det(q)),
        rank=f.rank,
        on_conic=f.rank <= 5,
        conic=conic,
    )
