"""Shared generators for the test suite; all randomness is seeded by callers."""

import numpy as np

from stewart66.errors import DegenerateLeg, DuplicateVertex
from stewart66.geometry import PlatformGeometry, conic_check, make_circle_base
from stewart66.ik import Pose, leg_lengths
from stewart66.rotation import Quaternion, to_matrix

HEX_ANGLES = np.arange(6) * np.pi / 3

CIRCLE_COEFFS = np.array([-1.0, 0.0, 0.0, 1.0, 0.0, 1.0])


def hexagon_base():
    return make_circle_base(HEX_ANGLES)


def perturbed_hexagon_base():
    base = hexagon_base()
    base[0, 0] = 1.2
    return base


def collinear_base():
    # six distinct points on a line: the conic matrix drops to rank 3
    x = np.linspace(-2, 3, 6)
    return np.column_stack([x, 0.5 * x])


def random_unit_quaternion(rng):
    while True:
        v = rng.normal(size=4)
        n = np.linalg.norm(v)
        if n > 1e-3:
            return Quaternion(*(v / n))


def random_rotation(rng):
    return to_matrix(random_unit_quaternion(rng))


def random_circle_base(rng):
    while True:
        try:
            return make_circle_base(rng.uniform(0.0, 2.0 * np.pi, 6))
        except DuplicateVertex:
            continue


def random_generic_base(rng, noise=0.1):
    # hexagon plus noise, redrawn until clearly off every conic
    while True:
        base = hexagon_base() + rng.normal(0.0, noise, (6, 2))
        if conic_check(base).rank == 6:
            return base


def random_feasible_pose(geom, rng, box=1.0):
    while True:
        pose = Pose(random_unit_quaternion(rng), rng.uniform(-box, box, 3))
        try:
            leg_lengths(geom, pose)
        except DegenerateLeg:
            continue
        return pose


def pose_gap(sol_pose, pose):
    """Max-norm pose distance, quaternion sign folded out."""
    qa = sol_pose.orientation.as_array()
    qb = pose.orientation.as_array()
    dq = min(np.max(np.abs(qa - qb)), np.max(np.abs(qa + qb)))
    return max(float(dq), float(np.max(np.abs(sol_pose.position - pose.position))))
