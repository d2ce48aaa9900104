"""Forward kinematics on a conic base: the one-parameter pose family.

On a conic the length system has rank five, so fixing the six lengths
leaves a whole line of w vectors: particular + span(null direction).
The sphere equation |P|^2 = w1 makes w1 the natural parameter along that
line; each parameter value re-enters the nonsingular recovery and yields
up to eight poses, all with identical leg lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import (DegenerateBase, Infeasible, NotParameterizable,
                     ValidationError, WrongRank)
from .fk_nonsingular import FkSolution, solutions_from_w
from .geometry import PlatformGeometry, build_q
from .ik import d_from_lengths

# Below this |n_1| the family cannot be indexed by w1; arc length instead.
W1_COMPONENT_TOL = 1e-8

SCAN_POINTS = 1000
BISECT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SingularSystem:
    """Rank-5 length system on a conic base, solved up to one parameter."""

    particular: np.ndarray  # one solution, see linalg.solve
    null_dir: np.ndarray    # unit kernel vector
    parameterizable_by_w1: bool
    lengths: np.ndarray     # the leg lengths the system was built from


@dataclass(frozen=True, eq=False)
class SingularCurveSample:
    """One parameter value on the self-motion family."""

    parameter: float        # w1, or arc length when not w1-parameterizable
    w: np.ndarray
    poses: tuple            # FkSolution values, empty when infeasible
    feasible: bool
    leg_residual: float     # max over poses; nan when infeasible
    step_from_prev: Optional[float]  # nearest-pose gap to the previous feasible sample


def build_singular_system(geom: PlatformGeometry, lengths) -> SingularSystem:
    """Particular solution plus null direction of the rank-5 length system.

    WrongRank when the base is off every conic (rank 6), DegenerateBase
    below rank 5, Inconsistent when no pose realizes the lengths.
    """
    lengths = np.asarray(lengths, dtype=float)
    f = linalg.lu_factor(build_q(geom.base))
    if f.rank == 6:
        raise WrongRank("base is not on a conic: poses are isolated, use fk_solve")
    if f.rank < 5:
        raise DegenerateBase(f"base matrix rank {f.rank} < 5: vertices are degenerate")
    d = d_from_lengths(geom, lengths)
    particular = linalg.solve(f, d)
    null_dir = linalg.null_vector(f)
    return SingularSystem(
        particular=particular,
        null_dir=null_dir,
        parameterizable_by_w1=bool(abs(null_dir[0]) > W1_COMPONENT_TOL),
        lengths=lengths.copy(),
    )


def w_at(system: SingularSystem, w1: float) -> np.ndarray:
    """The unique solution-line point whose first coordinate is w1."""
    if not system.parameterizable_by_w1:
        raise NotParameterizable(
            "null direction has no w1 component; index the family by arc "
            "length (w_at_arc)")
    if w1 < 0.0:
        raise ValidationError(f"w1 is a squared position norm, must be >= 0, got {w1}")
    t = (w1 - system.particular[0]) / system.null_dir[0]
    return system.particular + t * system.null_dir


def w_at_arc(system: SingularSystem, arc: float) -> np.ndarray:
    """Solution-line point at signed arc length from the particular solution."""
    return system.particular + arc * system.null_dir


def recover_poses(geom: PlatformGeometry, w, lengths=None) -> list:
    """Poses at one point of the family; Infeasible when there are none.

    Without explicit lengths the audit targets come from w itself, via
    L_i^2 = (Q @ w)_i + (1 + mu^2)|B_i|^2.
    """
    w = np.asarray(w, dtype=float)
    if lengths is None:
        sq = build_q(geom.base) @ w + (1.0 + geom.mu ** 2) * (geom.base ** 2).sum(axis=1)
        if np.any(sq <= 0.0):
            raise Infeasible("w implies a nonpositive squared leg length")
        lengths = np.sqrt(sq)
    solutions = solutions_from_w(geom, w, lengths)
    if not solutions:
        raise Infeasible("no pose branch reproduces the leg lengths at this parameter")
    return solutions


def _pose_gap(a: FkSolution, b: FkSolution) -> float:
    dq = np.linalg.norm(a.pose.orientation.as_array() - b.pose.orientation.as_array())
    dp = np.linalg.norm(a.pose.position - b.pose.position)
    return math.hypot(float(dq), float(dp))


def sweep(system: SingularSystem, geom: PlatformGeometry,
          w1_min: float, w1_max: float, samples: int) -> list:
    """Evaluate the family on a uniform parameter grid.

    Infeasible samples are recorded, not fatal.  Grid values are w1, or
    arc length when the system is not w1-parameterizable.
    """
    if int(samples) < 2:
        raise ValidationError(f"need at least 2 samples, got {samples}")
    if not w1_max > w1_min:
        raise ValidationError("w1_max must exceed w1_min")
    if system.parameterizable_by_w1 and w1_min < 0.0:
        raise ValidationError("w1 is a squared position norm, must be >= 0")
    locate = w_at if system.parameterizable_by_w1 else w_at_arc
    out = []
    previous = None  # poses of the previous sample when it was feasible
    for value in np.linspace(w1_min, w1_max, int(samples)):
        w = locate(system, float(value))
        try:
            poses = tuple(recover_poses(geom, w, lengths=system.lengths))
        except Infeasible:
            poses = ()
        feasible = bool(poses)
        residual = max(s.leg_residual for s in poses) if feasible else math.nan
        step = None
        if feasible and previous:
            step = min(_pose_gap(a, b) for a in poses for b in previous)
        out.append(SingularCurveSample(float(value), w, poses, feasible, residual, step))
        previous = poses if feasible else None
    return out


def _feasible_at(system: SingularSystem, geom: PlatformGeometry, w1: float) -> bool:
    try:
        recover_poses(geom, w_at(system, w1), lengths=system.lengths)
    except Infeasible:
        return False
    return True


def _refine(system, geom, inside: float, outside: float) -> float:
    # bisect a feasibility boundary between a feasible and an infeasible w1
    while abs(outside - inside) > BISECT_TOL:
        mid = 0.5 * (inside + outside)
        if _feasible_at(system, geom, mid):
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


def feasible_interval(system: SingularSystem, geom: PlatformGeometry,
                      w1_hint_max: float) -> list:
    """Disjoint closed w1 intervals in [0, hint] where poses exist.

    Dense scan plus bisection of the flips; reports what the scan finds
    without claiming the family has no branches beyond the hint.
    """
    if not system.parameterizable_by_w1:
        raise NotParameterizable("family is not indexed by w1")
    if not w1_hint_max > 0.0:
        raise ValidationError("w1_hint_max must be positive")
    grid = np.linspace(0.0, w1_hint_max, SCAN_POINTS)
    flags = [_feasible_at(system, geom, float(x)) for x in grid]
    intervals = []
    i = 0
    while i < SCAN_POINTS:
        if not flags[i]:
            i += 1
            continue
        j = i
        while j + 1 < SCAN_POINTS and flags[j + 1]:
            j += 1
        lo = float(grid[i]) if i == 0 else _refine(system, geom, float(grid[i]), float(grid[i - 1]))
        hi = (float(grid[j]) if j == SCAN_POINTS - 1
              else _refine(system, geom, float(grid[j]), float(grid[j + 1])))
        intervals.append((lo, hi))
        i = j + 1
    return intervals
