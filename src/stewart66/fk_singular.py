"""Forward kinematics on a conic base: the one-parameter pose family.

On a conic the length system has rank five, so fixing the six lengths
leaves a whole line of w vectors: particular + span(null direction).
The sphere equation |P|^2 = w1 makes w1 the natural parameter along that
line; each parameter value re-enters the nonsingular recovery and yields
up to eight poses, all with identical leg lengths.  sweep and the
feasibility scan hand their whole grid to that recovery as one batch;
the bisection of the scan's flips evaluates several steps of every
bracket per batch.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import Infeasible, NotParameterizable, ValidationError
from .fk_nonsingular import SolutionArrays, solution_arrays, solutions_from_w
from .geometry import (ConicReport, PlatformGeometry, build_q, conic_report,
                       factor_for_rank)
from .ik import check_lengths, d_from_lengths

# Below this |n_1| the family cannot be indexed by w1; arc length instead.
W1_COMPONENT_TOL = 1e-8

SCAN_POINTS = 1000
BISECT_TOL = 1e-9
# Bisection steps per batched evaluation: 2**5 - 1 = 31 midpoints a bracket.
BISECT_LEVELS = 5


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

    ValidationError unless the lengths are six positive finite numbers,
    WrongRank when the base is off every conic (rank 6), DegenerateBase
    below rank 5, Inconsistent when no pose realizes the lengths.
    """
    lengths = check_lengths(lengths)
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
    Infeasible when there are none, ValidationError on lengths that are
    not six positive finite numbers."""
    solutions = solutions_from_w(geom, np.asarray(w, dtype=float), check_lengths(lengths))
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
    try:
        count = operator.index(samples)
    except TypeError:
        raise ValidationError(f"sample count must be an integer, got {samples!r}") from None
    if count < 2:
        raise ValidationError(f"need at least 2 samples, got {samples}")
    if not w1_max > w1_min:
        raise ValidationError("w1_max must exceed w1_min")
    if system.parameterizable_by_w1 and w1_min < 0.0:
        raise ValidationError("w1 is a squared position norm, must be >= 0")
    locate = w_at if system.parameterizable_by_w1 else w_at_arc
    grid = np.linspace(w1_min, w1_max, count)
    w = locate(system, grid)
    batch = solution_arrays(geom, w, system.lengths)
    feasible = batch.feasible
    residual = np.where(batch.accepted, batch.residuals, -np.inf).max(axis=(1, 2))
    residual[~feasible] = np.nan
    return [SingularCurveSample(value, w_row, tuple(poses), ok, worst,
                                None if math.isnan(step) else step)
            for value, w_row, poses, ok, worst, step in zip(
                grid.tolist(), w, batch.solutions(), feasible.tolist(), residual.tolist(),
                _steps(batch).tolist())]


def _bisect(system: SingularSystem, geom: PlatformGeometry, brackets) -> list:
    """The feasible end of each (inside, outside) w1 bracket, bisected to
    BISECT_TOL.

    Each round evaluates, for every open bracket at once, the midpoints of
    the next BISECT_LEVELS bisection steps down both branches (a complete
    binary tree in heap order: node h has children 2h+1 on the infeasible
    and 2h+2 on the feasible side), in one solution_arrays call.  The walk
    down each tree then takes the steps one-point bisection takes, with the
    same midpoints, so the ends are the same to the bit.
    """
    inside = [a for a, _ in brackets]
    outside = [b for _, b in brackets]
    open_ = [i for i in range(len(inside)) if abs(outside[i] - inside[i]) > BISECT_TOL]
    while open_:
        ins = np.array([inside[i] for i in open_])[:, None]
        outs = np.array([outside[i] for i in open_])[:, None]
        levels = []
        for _ in range(BISECT_LEVELS):
            mid = 0.5 * (ins + outs)
            levels.append(mid)
            # children (ins, mid) if mid is infeasible, (mid, outs) if feasible
            ins = np.stack([ins, mid], axis=-1).reshape(len(open_), -1)
            outs = np.stack([mid, outs], axis=-1).reshape(len(open_), -1)
        mids = np.concatenate(levels, axis=1)
        flags = solution_arrays(geom, w_at(system, mids.ravel()),
                                system.lengths).feasible.reshape(mids.shape).tolist()
        for i, tree, ok in zip(open_, mids.tolist(), flags):
            h = 0
            for _ in range(BISECT_LEVELS):
                if not abs(outside[i] - inside[i]) > BISECT_TOL:
                    break
                if ok[h]:
                    inside[i], h = tree[h], 2 * h + 2
                else:
                    outside[i], h = tree[h], 2 * h + 1
        open_ = [i for i in open_ if abs(outside[i] - inside[i]) > BISECT_TOL]
    return inside


def feasible_interval(system: SingularSystem, geom: PlatformGeometry,
                      w1_hint_max: float) -> list:
    """Disjoint closed w1 intervals in [0, hint] where poses exist.

    Dense scan plus bisection of the flips; reports what the scan finds
    without claiming the family has no branches beyond the hint.  Every
    endpoint inside (0, hint) is the feasible end of its last bisection
    bracket, so it admits a pose.
    """
    if not system.parameterizable_by_w1:
        raise NotParameterizable("family is not indexed by w1")
    if not 0.0 < w1_hint_max < math.inf:
        raise ValidationError("w1_hint_max must be positive and finite")
    grid = np.linspace(0.0, w1_hint_max, SCAN_POINTS)
    flags = solution_arrays(geom, w_at(system, grid), system.lengths).feasible
    # runs of feasible scan points: run k spans edges[2k] to edges[2k+1] - 1
    edges = np.flatnonzero(np.diff(flags, prepend=False, append=False)).tolist()
    # each end as (feasible point, infeasible neighbour), scan indices
    ends = [(i, i - 1) if k % 2 == 0 else (i - 1, i) for k, i in enumerate(edges)]
    g = grid.tolist()
    refined = iter(_bisect(system, geom, [(g[a], g[b]) for a, b in ends
                                          if 0 <= b < SCAN_POINTS]))
    # an end with no neighbour on the scan stays the grid value
    points = [next(refined) if 0 <= b < SCAN_POINTS else g[a] for a, b in ends]
    return list(zip(points[0::2], points[1::2]))
