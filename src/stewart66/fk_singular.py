"""Forward kinematics on a conic base: the one-parameter pose family.

On a conic the length system has rank five, so fixing the six lengths
leaves a whole line of w vectors: particular + span(null direction).
The sphere equation |P|^2 = w1 makes w1 the natural parameter along that
line, or signed arc length where the line keeps w1 fixed (a conic through
the base origin); w_at places either.  Each parameter value re-enters the
nonsingular recovery and yields up to eight poses, all with identical leg
lengths.  sweep hands its whole grid to that recovery as one batch;
feasible_interval reads the feasible parameters off the roots of five
polynomials in the parameter and confirms them with one batch.
"""

from __future__ import annotations

import gc
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import Infeasible, ValidationError, _float_array, _real
from .fk_nonsingular import MAX_W, SolutionArrays, _fill, solution_arrays
from .geometry import ConicReport, PlatformGeometry, build_q, conic_report, factor_for_rank
from .ik import check_lengths, d_from_lengths

# Below this w1 component of the column-scaled null vector, which does not
# change with the base's scale, w1 cannot index the family; arc length instead.
W1_COMPONENT_TOL = 1e-8

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
        parameterizable_by_w1=bool(abs(f.vt[5, 0]) > W1_COMPONENT_TOL),
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
    # the cyclic collector is off while the results are built: they hold
    # floats, ints, arrays, tuples, lists and one another, so they form no
    # cycle and a collection frees nothing, yet the thousands a sweep makes
    # would set off one collection after another
    was_on = gc.isenabled()
    gc.disable()
    try:
        return _fill(SingularCurveSample, grid.tolist(), list(w), list(map(tuple, batch.solutions())),
                     feasible.tolist(), residual.tolist(),
                     np.where(np.isnan(steps), None, steps).tolist())
    finally:
        if was_on:
            gc.enable()


def _breakpoints(system: SingularSystem, mu: float) -> np.ndarray:
    """The real parts of the at most 9 roots, in t, of the polynomials whose
    signs decide whether w(t) = particular + t * null_dir has a pose.

    A rotation fits where q0^2 and q3^2 are not negative (q1^2, q2^2 never
    are): where 4 mu -/+ S >= hypot(D, w5), with S, D = w4 +/- w6.  The
    sphere is met where chord^2 = w1 - |r0|^2 >= 0.  The plane normals'
    Gram matrix 4 [[g11, w5/2], [w5/2, g22]], g11, g22 = 1 + mu^2 + w4, w6,
    is the same for every candidate and positive definite where one fits,
    so chord^2 has the sign of 4 det(g) w1 - (w2^2 g22 - w2 w3 w5 + w3^2 g11).
    A double root that rounding splits into a complex pair keeps its real part.

    The polynomials are expanded about t0, the family point with the
    smallest rotation block w4..w6, which every pose needs of order mu;
    about the particular solution, whose block grows as 1 / r^2 on a base
    of radius r, their coefficients cancel.  null_dir[3:] is nonzero at
    rank 5: a conic with no quadratic part is a line, of rank 3.
    """
    p, n = system.particular, system.null_dir
    t0 = -(p[3:] @ n[3:]) / (n[3:] @ n[3:])
    # w_i(t0 + x) as the coefficients (n[i], p[i] + t0 * n[i]) in x, highest first
    w1, w2, w3, w4, w5, w6 = np.column_stack([n, p + t0 * n])
    shift, bound = [0.0, 1.0 + mu * mu], [0.0, 4.0 * mu]
    g11, g22, q0_side, q3_side = w4 + shift, w6 + shift, w4 + w6 - bound, w4 + w6 + bound
    spread = np.convolve(w4 - w6, w4 - w6) + np.convolve(w5, w5)
    cubic = (np.convolve(4.0 * np.convolve(g11, g22) - np.convolve(w5, w5), w1)
             - np.convolve(np.convolve(w2, w2), g22) + np.convolve(np.convolve(w2, w3), w5)
             - np.convolve(np.convolve(w3, w3), g11))
    polynomials = (q0_side, q3_side, np.convolve(q0_side, q0_side) - spread,
                   np.convolve(q3_side, q3_side) - spread, cubic)
    return np.concatenate([np.roots(c) for c in polynomials]).real + t0


def feasible_interval(system: SingularSystem, geom: PlatformGeometry,
                      w1_hint_max: float) -> list:
    """Disjoint closed parameter intervals where poses exist, within
    [0, hint] on a w1 family and [-hint, hint] on an arc-length one.

    The roots of _breakpoints split the window into pieces; one
    solution_arrays call on the piece edges and midpoints tells which
    pieces have poses, and neighbouring ones merge.  An end the kernel
    rejects moves inward by 1, 2, 4, ... ulps of its distance to its
    piece's midpoint, up to the midpoint, which has a pose: every end
    admits one.  ValidationError when the hint or a w passes
    fk_nonsingular.MAX_W.
    """
    w1_hint_max = _real(w1_hint_max, "w1_hint_max")
    if not w1_hint_max > 0.0:
        raise ValidationError(f"w1_hint_max must be positive, got {w1_hint_max!r}")
    low = 0.0 if system.parameterizable_by_w1 else -w1_hint_max
    w_at(system, [low, w1_hint_max])  # the window's rule, before any root is placed in it
    roots = _breakpoints(system, geom.mu)
    if system.parameterizable_by_w1:
        roots = system.particular[0] + roots * system.null_dir[0]
    edges = np.unique(np.clip(np.append(roots, [low, w1_hint_max]), low, w1_hint_max))
    points = np.empty(2 * len(edges) - 1)  # edge, midpoint, edge, ..., edge
    points[::2], points[1::2] = edges, 0.5 * (edges[:-1] + edges[1:])
    ok = solution_arrays(geom, w_at(system, points), system.lengths).feasible
    # each run of feasible pieces as the indices of its two end edges
    runs = np.flatnonzero(np.diff(ok[1::2], prepend=False, append=False)).reshape(-1, 2)
    ends, bad = edges[runs], np.flatnonzero(~ok[2 * runs])
    if bad.size:
        end, mid = ends.flat[bad][:, None], points[(2 * runs + [1, -1]).flat[bad]][:, None]
        steps = np.concatenate([end + (mid - end) * 2.0 ** np.arange(-52, 0), mid], axis=1)
        ok = solution_arrays(geom, w_at(system, steps.ravel()), system.lengths).feasible
        ends.flat[bad] = steps[np.arange(len(bad)), ok.reshape(steps.shape).argmax(axis=1)]
    return [tuple(row) for row in ends.tolist()]
