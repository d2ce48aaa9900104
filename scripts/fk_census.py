#!/usr/bin/env python3
"""Count forward-kinematics solutions across random poses.

Samples random plate poses on a base that is off every conic (one
hexagon vertex pushed outward), converts each to leg lengths, solves the
forward problem back, and tallies how many of the up-to-eight candidate
poses are actually realizable.  The seed pose counts as found when some
solution matches both its orientation (up to the quaternion's sign) and
its position within 1e-8; an empty answer counts as a miss.

Exit codes, as for stewart66: 0 success, 2 invalid input, 3 another
solver failure.
"""

import argparse
import sys
from collections import Counter

import numpy as np

from stewart66 import (DegenerateLeg, PlatformGeometry, Pose, Quaternion,
                       ValidationError, fk_solve, leg_lengths, make_circle_base)
from stewart66.cli import run

# A returned pose this close to the seed pose, in max norm, is the seed pose.
FOUND_TOL = 1e-8


def random_pose(rng):
    v = rng.normal(size=4)
    return Pose(Quaternion(*(v / np.linalg.norm(v))), rng.uniform(-1, 1, 3))


def pose_gap(a, b):
    """Max-norm distance between two poses, quaternion sign folded out."""
    qa, qb = a.orientation.as_array(), b.orientation.as_array()
    dq = min(np.abs(qa - qb).max(), np.abs(qa + qb).max())
    return max(dq, np.abs(a.position - b.position).max())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mu", type=float, default=0.5)
    args = parser.parse_args(argv)
    return run(census, args.trials, args.seed, args.mu)


def census(trials, seed, mu):
    if trials < 1:
        raise ValidationError(f"need at least 1 trial, got {trials}")
    base = make_circle_base(np.arange(6) * np.pi / 3)
    base[0, 0] = 1.2
    geom = PlatformGeometry(base=base, mu=mu)
    rng = np.random.default_rng(seed)

    counts = Counter()
    misses = 0
    done = 0
    while done < trials:
        pose = random_pose(rng)
        try:
            lengths = leg_lengths(geom, pose)
        except DegenerateLeg:
            continue
        solutions = fk_solve(geom, lengths)
        counts[len(solutions)] += 1
        if min((pose_gap(s.pose, pose) for s in solutions), default=np.inf) > FOUND_TOL:
            misses += 1
        done += 1

    print(f"{trials} random poses on the off-conic base (mu = {mu}):")
    for n in sorted(counts):
        share = 100.0 * counts[n] / trials
        print(f"  {n} realizable solutions: {counts[n]:6d}  ({share:.1f}%)")
    print(f"seed pose missing from the solution set: {misses} times")


if __name__ == "__main__":
    sys.exit(main())
