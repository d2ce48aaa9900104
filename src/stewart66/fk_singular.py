"""Forward kinematics on a conic base: the one-parameter pose family.

On a conic the length system has rank five, so fixing the six lengths
leaves a whole line of w vectors: particular + span(null direction).
The sphere equation |P|^2 = w1 makes w1 the natural parameter along that
line, or signed arc length where the line keeps w1 fixed (a conic through
the base origin); w_at places either.  Each parameter value re-enters the
nonsingular recovery and yields up to eight poses, all with identical leg
lengths.  sweep and the feasibility scan hand their whole grid to that
recovery as one batch;
the refinement of the scan's flips splits every open bracket into equal
cells and evaluates all their points as one batch per round.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import Infeasible, ValidationError, _float_array, _real
from .fk_nonsingular import MAX_W, SolutionArrays, _collector_paused, _fill, solution_arrays
from .geometry import ConicReport, PlatformGeometry, build_q, conic_report, factor_for_rank
from .ik import check_lengths, d_from_lengths

# Below this |n_1| the family cannot be indexed by w1; arc length instead.
W1_COMPONENT_TOL = 1e-8

SCAN_POINTS = 1000
# Relative width, scaled by 1 + |parameter|, at which a boundary bracket closes.
BISECT_TOL = 1e-9
# Equal cells a bracket is split into per batched evaluation: 31 points.
_CELLS = 32
# Largest sample count sweep takes.  numpy refuses an array of 2^63 bytes
# or more, and sweep's largest holds 72 floats (576 bytes) a sample: the
# audit's legs, 3 components x 6 legs x 2 branches for each of up to 2
# audited slots.  2^53 samples keep it below 2^62.2 bytes; memory runs out
# long before.
MAX_SAMPLES = 2 ** 53


@dataclass(frozen=True, eq=False)
class SingularSystem:
    """Rank-5 length system on a conic base, solved up to one parameter."""

    particular: np.ndarray  # one solution, see linalg.solve
    null_dir: np.ndarray    # unit kernel vector
    parameterizable_by_w1: bool
    lengths: np.ndarray     # the leg lengths the system was built from
    conic: ConicReport      # the base's rank test, from the same factorization


@dataclass(frozen=True, eq=False, slots=True)
class SingularCurveSample:
    """One parameter value on the self-motion family."""

    parameter: float        # w1, or arc length when not w1-parameterizable
    w: np.ndarray
    poses: tuple            # FkSolution values, empty when infeasible
    feasible: bool
    leg_residual: float     # max over poses; nan when infeasible
    # nearest-pose gap to the previous sample; None for the first sample and
    # when either sample is infeasible
    step_from_prev: Optional[float]


def build_singular_system(geom: PlatformGeometry, lengths) -> SingularSystem:
    """Particular solution plus null direction of the rank-5 length system.

    ValidationError unless the lengths are six positive finite numbers,
    WrongRank when the base is off every conic (rank 6), DegenerateBase
    below rank 5, Inconsistent when no pose realizes the lengths.
    """
    lengths = check_lengths(lengths)
    f = factor_for_rank(build_q(geom.base), 5)
    conic = conic_report(f)
    return SingularSystem(
        particular=linalg.solve(f, d_from_lengths(geom, lengths),
                                linalg.consistency_tol(lengths)),
        null_dir=conic.conic,
        parameterizable_by_w1=bool(abs(conic.conic[0]) > W1_COMPONENT_TOL),
        lengths=lengths,
        conic=conic,
    )


def w_at(system: SingularSystem, s) -> np.ndarray:
    """The solution-line point at family parameter s: (6,) for a number,
    (N, 6) for N values.  s is the point's first coordinate w1 when the
    system is parameterizable_by_w1, and its signed arc length from the
    particular solution otherwise.  ValidationError unless s holds finite
    numbers within fk_nonsingular.MAX_W, non-negative where they are w1."""
    by_w1 = system.parameterizable_by_w1
    s = t = _float_array(s, "w1" if by_w1 else "arc length")
    # checked before the w1 division, which could overflow past it
    if not np.abs(s).max(initial=0.0) <= MAX_W:
        raise ValidationError(f"w must be at most {MAX_W:.4g} in magnitude")
    if by_w1:
        if np.any(s < 0.0):
            raise ValidationError(
                f"w1 is a squared position norm, must be >= 0, got {np.min(s)}")
        t = (s - system.particular[0]) / system.null_dir[0]
    return system.particular + np.multiply.outer(t, system.null_dir)


def recover_poses(geom: PlatformGeometry, w, lengths) -> list:
    """Poses at one point of the family, audited against the leg lengths;
    Infeasible when there are none (w fits no rotation, or no position
    passes the audit), ValidationError unless w is six finite
    numbers within fk_nonsingular.MAX_W and the lengths are as check_lengths
    takes them (strings and bools are not numbers)."""
    solutions = solution_arrays(geom, _float_array(w, "w", (6,))[None],
                                check_lengths(lengths)).solutions()[0]
    if not solutions:
        raise Infeasible("no pose branch reproduces the leg lengths at this parameter")
    return solutions


def _squared_gaps(points) -> np.ndarray:
    """|x[:, j, n+1] - x[:, i, n]|^2 for points x (C, K, N), components
    first and rows last: (K, K, N - 1).

    The components are added one at a time, left to right, as
    (d * d).sum(axis=-1) adds fewer than eight terms, so every value is
    bit-equal to that sum.  Each component is one (K, N) block, so every
    broadcast's inner loop is N long.
    """
    x = points[0]
    total = np.subtract(x[None, :, 1:], x[:, None, :-1])
    total *= total
    d = np.empty_like(total)
    for x in points[1:]:
        np.subtract(x[None, :, 1:], x[:, None, :-1], out=d)
        d *= d
        total += d
    return total


def _steps(batch: SolutionArrays) -> np.ndarray:
    """Per row, the smallest pose gap hypot(|dq|, |dP|) to any pose of the
    row before; nan where either row has no pose.

    hypot is taken on all 8 x 8 pose pairs of neighbouring rows where both
    poses are accepted.  The poses are read in the kernel's own order,
    [component, branch, slot, row], so a pose is the point branch * 4 + slot
    and every block is a view.
    """
    n = len(batch.accepted) - 1
    ok = batch.accepted.T.reshape(8, -1)  # (point, row)
    dq = _squared_gaps(batch.orientations.T)
    dp = _squared_gaps(batch.positions.T.reshape(3, 8, -1))
    np.sqrt(dq, out=dq)
    np.sqrt(dp, out=dp)
    # a pose is a (branch, slot) point; a pair's dq is its slots' dq
    shape = (2, 4, 2, 4, n)
    gaps = np.full(shape, np.inf)
    np.hypot(dq[None, :, None, :], dp.reshape(shape), out=gaps,
             where=(ok[:, None, :-1] & ok[None, :, 1:]).reshape(shape))
    best = gaps.reshape(64, n).min(axis=0)
    return np.concatenate([[np.nan], np.where(best < np.inf, best, np.nan)])


def sweep(system: SingularSystem, geom: PlatformGeometry,
          w1_min: float, w1_max: float, samples: int) -> list:
    """Evaluate the family on a uniform parameter grid.

    Infeasible samples are recorded, not fatal.  Grid values are the
    family parameter that w_at takes.  ValidationError unless samples is
    an integer from 2 to MAX_SAMPLES, and when a grid value or its w
    passes fk_nonsingular.MAX_W.
    """
    w1_min, w1_max = _real(w1_min, "w1_min"), _real(w1_max, "w1_max")
    try:
        count = operator.index(None if isinstance(samples, bool) else samples)  # True is no count
    except TypeError:
        raise ValidationError(f"sample count must be an integer, got {samples!r}") from None
    if not 2 <= count <= MAX_SAMPLES:
        bound = "at least 2" if count < 2 else f"at most {MAX_SAMPLES}"
        raise ValidationError(f"need {bound} samples, got {samples}")
    if not w1_max > w1_min:
        raise ValidationError("w1_max must exceed w1_min")
    w_at(system, [w1_min, w1_max])  # the ends' rule, before linspace overflows past it
    grid = np.linspace(w1_min, w1_max, count)
    w = w_at(system, grid)
    batch = solution_arrays(geom, w, system.lengths)
    feasible = batch.feasible
    residual = np.where(batch.accepted, batch.residuals, -np.inf).max(axis=(1, 2))
    residual[~feasible] = np.nan
    steps = _steps(batch)
    with _collector_paused():
        return _fill(SingularCurveSample, grid.tolist(), list(w), list(map(tuple, batch.solutions())),
                     feasible.tolist(), residual.tolist(),
                     np.where(np.isnan(steps), None, steps).tolist())


def _refine(system: SingularSystem, geom: PlatformGeometry, inside, outside) -> np.ndarray:
    """The feasible end of each (inside, outside) parameter bracket, narrowed
    until its width is at most BISECT_TOL * (1 + |inside|).

    Each round splits every open bracket into _CELLS equal cells and
    evaluates the interior points of all of them in one solution_arrays
    call.  A bracket keeps the first cell, walking from its feasible end,
    whose far point is infeasible (the last cell if none is), so its
    inside end is always a point found feasible.
    """
    inside = np.array(inside, dtype=float)
    outside = np.array(outside, dtype=float)
    split = np.arange(1, _CELLS) / _CELLS
    while True:
        open_ = np.flatnonzero(np.abs(outside - inside) > BISECT_TOL * (1.0 + np.abs(inside)))
        if not open_.size:
            return inside
        ins, outs = inside[open_, None], outside[open_, None]
        points = np.concatenate([ins, ins + (outs - ins) * split, outs], axis=1)
        ok = solution_arrays(geom, w_at(system, points[:, 1:-1].ravel()),
                             system.lengths).feasible.reshape(len(open_), -1)
        # the first cell whose far end is infeasible; the padding column
        # picks the last cell when every interior point is feasible
        k = np.argmin(np.column_stack([ok, np.zeros(len(open_), dtype=bool)]), axis=1)
        rows = np.arange(len(open_))
        inside[open_], outside[open_] = points[rows, k], points[rows, k + 1]


def feasible_interval(system: SingularSystem, geom: PlatformGeometry,
                      w1_hint_max: float) -> list:
    """Disjoint closed parameter intervals where poses exist, within
    [0, hint] on a w1 family and [-hint, hint] on an arc-length one.

    A dense scan finds the flips, and equal-cell refinement narrows each
    to BISECT_TOL * (1 + |s|); reports what the scan finds without
    claiming the family has no branches beyond the hint.  Every endpoint
    inside the scan range is the feasible end of its last refinement
    bracket, so it admits a pose; ValidationError when the hint or a w
    passes fk_nonsingular.MAX_W.
    """
    w1_hint_max = _real(w1_hint_max, "w1_hint_max")
    if not w1_hint_max > 0.0:
        raise ValidationError(f"w1_hint_max must be positive, got {w1_hint_max!r}")
    low = 0.0 if system.parameterizable_by_w1 else -w1_hint_max
    w_at(system, [low, w1_hint_max])  # the ends' rule, before linspace overflows past it
    grid = np.linspace(low, w1_hint_max, SCAN_POINTS)
    flags = solution_arrays(geom, w_at(system, grid), system.lengths).feasible
    # first and last feasible scan index of each run, one run a row
    ends = np.flatnonzero(np.diff(flags, prepend=False, append=False)).reshape(-1, 2) - [0, 1]
    beyond = ends + [-1, 1]  # each end's infeasible neighbour
    inner = (beyond >= 0) & (beyond < SCAN_POINTS)
    points = grid[ends]
    # an end with no neighbour on the scan stays the grid value
    points[inner] = _refine(system, geom, grid[ends[inner]], grid[beyond[inner]])
    return [tuple(row) for row in points.tolist()]
