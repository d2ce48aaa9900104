#!/usr/bin/env python3
"""Walk the self-motion family of a circular-base platform.

Builds the regular-hexagon base with mu = 0.5, takes the leg lengths of
the resting pose (identity rotation at height 1), and sweeps the free
parameter w1 across its feasible interval.  Every sampled pose keeps all
six legs at sqrt(1.25) while the plate spins about z and slides down to
the base plane.

Exit codes, as for stewart66: 0 success, 2 invalid input, 3 no feasible
interval or another solver failure.
"""

import argparse
import sys

import numpy as np

from stewart66 import (Infeasible, PlatformGeometry, Pose, Quaternion,
                       build_singular_system, feasible_interval, leg_lengths,
                       make_circle_base, sweep)
from stewart66.cli import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=11)
    parser.add_argument("--mu", type=float, default=0.5)
    args = parser.parse_args(argv)
    return run(walk, args.samples, args.mu)


def walk(samples, mu):
    geom = PlatformGeometry(base=make_circle_base(np.arange(6) * np.pi / 3), mu=mu)
    resting = Pose(Quaternion(1, 0, 0, 0), np.array([0.0, 0.0, 1.0]))
    lengths = leg_lengths(geom, resting)
    print(f"leg lengths at the resting pose: {lengths[0]:.12f} (all six)")

    system = build_singular_system(geom, lengths)
    intervals = feasible_interval(system, geom, w1_hint_max=5.0)
    print(f"feasible w1 intervals within [0, 5]: "
          f"{[(round(a, 9), round(b, 9)) for a, b in intervals]}")
    if not intervals:
        raise Infeasible("no feasible w1 interval within [0, 5]")

    lo, hi = intervals[0]
    curve = sweep(system, geom, lo, hi, samples)
    print(f"\n{'w1':>8} {'q0':>10} {'q3':>10} {'z':>10} {'poses':>6} {'residual':>10}")
    for s in curve:
        pose = s.poses[0]
        print(f"{s.parameter:8.4f} {pose.orientation.q0:10.6f} "
              f"{abs(pose.orientation.q3):10.6f} {abs(pose.position[2]):10.6f} "
              f"{len(s.poses):6d} {s.leg_residual:10.2e}")

    worst = max(s.leg_residual for s in sweep(system, geom, lo, hi, 101))
    print(f"\nmax leg-length drift over 101 samples: {worst:.2e}")


if __name__ == "__main__":
    sys.exit(main())
