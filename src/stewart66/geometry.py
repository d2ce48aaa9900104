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
from .errors import (DegenerateBase, DuplicateVertex, SingularBase,
                     ValidationError, WrongRank, _float_array, _real)
from .rotation import from_matrix

# Two vertices closer than this times the largest vertex norm coincide.
MIN_VERTEX_SEPARATION = 1e-9
ORTHOGONALITY_TOL = 1e-9
# Largest |x| or |y| of a base vertex.  For coordinates up to c, build_q's
# squares reach c^2, and the rank test's column norms (linalg.lu_factor)
# square those again: six terms of c^4 stay below the float maximum 2^1024
# for c up to 2^255.  fk_nonsingular.MAX_W's derivation needs a base within
# 2^500 of the origin.  2^126 meets both with room.
MAX_COORDINATE = 2.0 ** 126
# The mirror bound: some |x| or |y| must reach it.  Q's columns scale as
# (1, r, r, r^2, r^2, r^2) with the base's reach r, so the column norms
# square entries of about r^4 >= 2^-504, normal floats (down to 2^-1022),
# and the rank test reads the same bits at every power-of-two scale.
MIN_COORDINATE = 2.0 ** -126
_FIRST, _SECOND = np.triu_indices(6, 1)  # the 15 vertex pairs, first < second, row-major
# build_q's columns: ones, then x*x, x*y, y*y as base columns _LEFT times _RIGHT
_ONES = np.ones((6, 1))
_LEFT, _RIGHT = np.array([0, 0, 1]), np.array([0, 1, 1])


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
        base = _check_distinct(_check_base(self.base))
        a = self.top_transform
        # candidates carry q(R A) = q(R) (x) q(A); a row of them times this
        # matrix is q(R A) (x) conj(q(A)), the plate's q(R).  None when A = I.
        plate = None
        if a is None:
            a = np.eye(3)
        else:
            # A's checks read its nine entries as Python floats: on one 3x3
            # matrix, numpy's per-call overhead costs more than the arithmetic
            a = _float_array(a, "top transform", (3, 3))
            rows = a.tolist()
            (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = rows
            # the six distinct entries of A^T A - I, dot products of A's columns;
            # `not <=` also refuses a NaN from overflowing entries
            gaps = (x0 * x0 + x1 * x1 + x2 * x2 - 1.0, y0 * y0 + y1 * y1 + y2 * y2 - 1.0,
                    z0 * z0 + z1 * z1 + z2 * z2 - 1.0, x0 * y0 + x1 * y1 + x2 * y2,
                    x0 * z0 + x1 * z1 + x2 * z2, y0 * z0 + y1 * z1 + y2 * z2)
            if not max(map(abs, gaps)) <= ORTHOGONALITY_TOL:
                raise ValidationError("top transform is not orthogonal")
            # det A as the triple product of its columns, x . (y cross z); a
            # reflection cannot be reached by rotating the plate
            if x0 * (y1 * z2 - y2 * z1) + x1 * (y2 * z0 - y0 * z2) + x2 * (y0 * z1 - y1 * z0) < 0.0:
                raise ValidationError("top transform must be a proper rotation (det +1)")
            if rows != [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]:
                a0, a1, a2, a3 = from_matrix(a)
                plate = np.array([[a0, -a1, -a2, -a3], [a1, a0, a3, -a2],
                                  [a2, -a3, a0, a1], [a3, a2, -a1, a0]])
        mu = _real(self.mu, "mu")
        if not 0.0 < mu < 1.0:
            raise ValidationError(f"mu must lie strictly between 0 and 1, got {mu}")
        # the shift (1 + mu^2) * |B_i|^2 of the length system (ik.d_from_lengths)
        shift = (1.0 + mu ** 2) * (base ** 2).sum(axis=1)
        # read-only, so that nothing derived from them here can go stale
        base.flags.writeable = a.flags.writeable = shift.flags.writeable = False
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "top_transform", a)
        object.__setattr__(self, "_ra_to_plate", plate)
        object.__setattr__(self, "_length_shift", shift)

    def __reduce__(self):
        # copies and unpickled geometries go through __post_init__ too, so
        # their arrays are read-only as well
        return PlatformGeometry, (self.base, self.mu, self.top_transform)


@dataclass(frozen=True, eq=False)
class ConicReport:
    """Outcome of the rank test on the base's conic matrix."""

    margin: float  # s5/s0 of the column-scaled SVD; on_conic iff it is <= linalg.RANK_EPS
    rank: int
    on_conic: bool
    conic: Optional[np.ndarray]  # unit (1, x, y, x^2, xy, y^2) coefficients, rank 5 only


def _check_base(base) -> np.ndarray:
    """base as a new float (6, 2) array; ValidationError unless it is six
    finite planar points with no coordinate beyond MAX_COORDINATE in
    magnitude and one at least MIN_COORDINATE."""
    base = _float_array(base, "base", (6, 2))
    if not MIN_COORDINATE <= np.abs(base).max() <= MAX_COORDINATE:
        raise ValidationError(f"base coordinates must be at most {MAX_COORDINATE:.4g} "
                              f"in magnitude, and one at least {MIN_COORDINATE:.4g}")
    return base


def _check_distinct(base) -> np.ndarray:
    """base; DuplicateVertex when two vertices lie within MIN_VERTEX_SEPARATION
    times the largest vertex norm, so the rule holds at every scale."""
    gap = base.take(_FIRST, axis=0) - base.take(_SECOND, axis=0)
    gap *= gap
    dist = np.sqrt(gap[:, 0] + gap[:, 1])
    k = int(dist.argmin())
    if dist[k] <= MIN_VERTEX_SEPARATION * np.sqrt((base * base).sum(axis=1).max()):
        raise DuplicateVertex(f"base vertices {_FIRST[k]} and {_SECOND[k]} coincide")
    return base


def make_circle_base(angles) -> np.ndarray:
    """Unit-circle vertices (cos t, sin t), distinct as a geometry's must be."""
    th = _float_array(angles, "angles", (6,))
    return _check_distinct(np.column_stack([np.cos(th), np.sin(th)]))


def build_q(base) -> np.ndarray:
    """Row i is (1, x_i, y_i, x_i^2, x_i*y_i, y_i^2), for a checked (6, 2) float base."""
    return np.concatenate((_ONES, base, base.take(_LEFT, axis=1) * base.take(_RIGHT, axis=1)), axis=1)


def conic_check(base) -> ConicReport:
    """Rank-test the conic matrix; six points on any conic drop it to five.
    ValidationError unless base is six finite planar points within
    MAX_COORDINATE, reaching MIN_COORDINATE (not necessarily distinct)."""
    return conic_report(linalg.lu_factor(build_q(_check_base(base))))


def conic_report(f: linalg.Factorization) -> ConicReport:
    """The rank test of the conic matrix read off its factorization f."""
    conic = linalg.null_vector(f) if f.rank == 5 else None
    return ConicReport(
        margin=float(f.s[5] / f.s[0]),
        rank=f.rank,
        on_conic=f.rank <= 5,
        conic=conic,
    )


def factor_for_rank(q, rank: int) -> linalg.Factorization:
    """Factor the conic matrix for a solver that needs rank 6 or rank 5.

    Rank 6 (isolated poses, fk_solve) raises SingularBase on a conic base;
    rank 5 (the self-motion family) raises WrongRank off every conic.
    Either raises DegenerateBase below rank 5.
    """
    f = linalg.lu_factor(q)
    if f.rank < 5:
        raise DegenerateBase(f"base matrix rank {f.rank} < 5: vertices are degenerate")
    if f.rank != rank:
        if rank == 6:
            raise SingularBase("base lies on a conic: poses are not isolated, "
                               "use the singular-family solver")
        raise WrongRank("base not on a conic: poses are isolated, use fk_solve")
    return f
