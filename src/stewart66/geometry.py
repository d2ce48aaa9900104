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

MIN_VERTEX_SEPARATION = 1e-9
ORTHOGONALITY_TOL = 1e-9
# Largest |x| or |y| of a base vertex.  The binding quantity is det Q,
# which ConicReport hands out: for coordinates up to c, the columns
# (1, x, y, x^2, xy, y^2) of Q have norms at most sqrt(6) times (1, c, c,
# c^2, c^2, c^2), so |det Q| <= 216 * c^8 (Hadamard), below 2^1016 for
# c = 2^126, short of the float maximum 2^1024.  The rank test's column
# norms square entries of at most 2^252, and fk_nonsingular.MAX_W's
# derivation needs a base within 2^500 of the origin: both hold with room.
MAX_COORDINATE = 2.0 ** 126
# The mirror bound: some |x| or |y| must reach it.  Q's columns scale as
# (1, r, r, r^2, r^2, r^2) with the base's reach r, so det Q ~ r^8 >=
# 2^-1008, a normal float, and the rank test's column norms square
# entries of about 2^-504 or more.  A geometry's base clears it by
# MIN_VERTEX_SEPARATION.
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
        a = np.eye(3) if a is None else _float_array(a, "top transform", (3, 3))
        if np.max(np.abs(a.T @ a - np.eye(3))) > ORTHOGONALITY_TOL:
            raise ValidationError("top transform is not orthogonal")
        if np.linalg.det(a) < 0.0:
            # a reflection cannot be reached by rotating the plate
            raise ValidationError("top transform must be a proper rotation (det +1)")
        mu = _real(self.mu, "mu")
        if not 0.0 < mu < 1.0:
            raise ValidationError(f"mu must lie strictly between 0 and 1, got {mu}")
        # candidates carry q(R A) = q(R) (x) q(A); a row of them times this
        # matrix is q(R A) (x) conj(q(A)), the plate's q(R).  None when A = I.
        plate = None
        if not (a == np.eye(3)).all():
            a0, a1, a2, a3 = from_matrix(a)
            plate = np.array([[a0, -a1, -a2, -a3], [a1, a0, a3, -a2],
                              [a2, -a3, a0, a1], [a3, a2, -a1, a0]])
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

    det_q: float  # reported by the CLI; the rank alone decides on_conic
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
    """base; DuplicateVertex when two vertices lie within MIN_VERTEX_SEPARATION."""
    gap = base.take(_FIRST, axis=0) - base.take(_SECOND, axis=0)
    gap *= gap
    dist = np.sqrt(gap[:, 0] + gap[:, 1])
    k = int(dist.argmin())
    if dist[k] <= MIN_VERTEX_SEPARATION:
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
    q = build_q(_check_base(base))
    return conic_report(q, linalg.lu_factor(q))


def conic_report(q, f: linalg.Factorization) -> ConicReport:
    """The rank test of conic matrix q read off its factorization f."""
    conic = linalg.null_vector(f) if f.rank == 5 else None
    return ConicReport(
        det_q=float(np.linalg.det(q)),
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
