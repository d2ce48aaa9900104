"""Forward kinematics on a conic base: the one-parameter pose family.

On a conic the length system has rank five, so fixing the six lengths
leaves a whole line of w vectors: particular + span(null direction).
The sphere equation |P|^2 = w1 makes w1 the natural parameter along that
line; each parameter value re-enters the nonsingular recovery and yields
up to eight poses, all with identical leg lengths.  sweep and the
feasibility scan hand their whole grid to that recovery as one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import Infeasible, NotParameterizable, ValidationError
from .fk_nonsingular import SolutionArrays, solution_arrays, solutions_from_w
from .geometry import (ConicReport, PlatformGeometry, build_q, conic_report,
                       factor_for_rank)
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
    conic: ConicReport      # the base's rank test, from the same factorization


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
    q = build_q(geom.base)
    f = factor_for_rank(q, 5)
    conic = conic_report(q, f)
    return SingularSystem(
        particular=linalg.solve(f, d_from_lengths(geom, lengths)),
        null_dir=conic.conic,
        parameterizable_by_w1=bool(abs(conic.conic[0]) > W1_COMPONENT_TOL),
        lengths=lengths.copy(),
        conic=conic,
    )


def w_at(system: SingularSystem, w1) -> np.ndarray:
    """The unique solution-line point whose first coordinate is w1: (6,) for
    a number, (N, 6) for N values."""
    if not system.parameterizable_by_w1:
        raise NotParameterizable(
            "null direction has no w1 component; index the family by arc "
            "length (w_at_arc)")
    if np.any(np.asarray(w1) < 0.0):
        raise ValidationError(
            f"w1 is a squared position norm, must be >= 0, got {np.min(w1)}")
    t = (w1 - system.particular[0]) / system.null_dir[0]
    return system.particular + np.multiply.outer(t, system.null_dir)


def w_at_arc(system: SingularSystem, arc) -> np.ndarray:
    """Solution-line point at signed arc length from the particular solution:
    (6,) for a number, (N, 6) for N values."""
    return system.particular + np.multiply.outer(arc, system.null_dir)


def recover_poses(geom: PlatformGeometry, w, lengths) -> list:
    """Poses at one point of the family, audited against the leg lengths;
    Infeasible when there are none."""
    solutions = solutions_from_w(geom, np.asarray(w, dtype=float), lengths)
    if not solutions:
        raise Infeasible("no pose branch reproduces the leg lengths at this parameter")
    return solutions


def _steps(batch: SolutionArrays) -> np.ndarray:
    """Per row, the smallest pose gap hypot(|dq|, |dP|) to any pose of the
    row before; nan where either row has no pose."""
    q, p, ok = batch.orientations, batch.positions, batch.accepted
    best = np.full(len(ok) - 1, np.inf)
    # one previous (candidate, branch) slot at a time keeps the gaps at (N, 4, 2)
    for k in range(4):
        dq = q[1:] - q[:-1, k, None]
        dq = np.sqrt((dq * dq).sum(axis=-1))[..., None]
        for b in range(2):
            dp = p[1:] - p[:-1, k, b, None, None]
            gap = np.hypot(dq, np.sqrt((dp * dp).sum(axis=-1)))
            gap = np.where(ok[1:] & ok[:-1, k, b, None, None], gap, np.inf)
            best = np.minimum(best, gap.min(axis=(1, 2)))
    return np.concatenate([[np.nan], np.where(np.isfinite(best), best, np.nan)])


def sweep(system: SingularSystem, geom: PlatformGeometry,
          w1_min: float, w1_max: float, samples: int) -> list:
    """Evaluate the family on a uniform parameter grid.

    Infeasible samples are recorded, not fatal.  Grid values are w1, or
    arc length when the system is not w1-parameterizable.
    """
    if not (math.isfinite(w1_min) and math.isfinite(w1_max)):
        raise ValidationError("sweep bounds must be finite")
    if int(samples) < 2:
        raise ValidationError(f"need at least 2 samples, got {samples}")
    if not w1_max > w1_min:
        raise ValidationError("w1_max must exceed w1_min")
    if system.parameterizable_by_w1 and w1_min < 0.0:
        raise ValidationError("w1 is a squared position norm, must be >= 0")
    locate = w_at if system.parameterizable_by_w1 else w_at_arc
    grid = np.linspace(w1_min, w1_max, int(samples))
    w = locate(system, grid)
    batch = solution_arrays(geom, w, system.lengths)
    out = []
    for value, w_row, poses, step in zip(grid.tolist(), w, batch.solutions(),
                                         _steps(batch).tolist()):
        feasible = bool(poses)
        residual = max(s.leg_residual for s in poses) if feasible else math.nan
        out.append(SingularCurveSample(value, w_row, tuple(poses), feasible, residual,
                                       None if math.isnan(step) else step))
    return out


def _feasible_at(system: SingularSystem, geom: PlatformGeometry, w1: float) -> bool:
    try:
        recover_poses(geom, w_at(system, w1), lengths=system.lengths)
    except Infeasible:
        return False
    return True


def _refine(system, geom, inside: float, outside: float) -> float:
    # bisect a feasibility boundary between a feasible and an infeasible w1;
    # the feasible end is returned, so every endpoint admits a pose
    while abs(outside - inside) > BISECT_TOL:
        mid = 0.5 * (inside + outside)
        if _feasible_at(system, geom, mid):
            inside = mid
        else:
            outside = mid
    return inside


def feasible_interval(system: SingularSystem, geom: PlatformGeometry,
                      w1_hint_max: float) -> list:
    """Disjoint closed w1 intervals in [0, hint] where poses exist.

    Dense scan plus bisection of the flips; reports what the scan finds
    without claiming the family has no branches beyond the hint.
    """
    if not system.parameterizable_by_w1:
        raise NotParameterizable("family is not indexed by w1")
    if not 0.0 < w1_hint_max < math.inf:
        raise ValidationError("w1_hint_max must be positive and finite")
    grid = np.linspace(0.0, w1_hint_max, SCAN_POINTS)
    flags = solution_arrays(geom, w_at(system, grid), system.lengths).feasible.tolist()
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
