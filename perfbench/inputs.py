"""Seeded inputs and the independent pose oracle of the benchmark.

Nothing here imports stewart66.  Leg lengths come from a separate
implementation of the closed-form inverse kinematics, so the inputs do
not change when the package under test does, and the audit of returned
poses shares no code with the solver it audits.

Every generator takes the workload seed; the same seed gives the same
inputs.  Streams are cut into chunks so a run can draw as many fresh
inputs as its time allows without generating them inside the timed loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HEX_ANGLES = np.arange(6) * np.pi / 3
HEXAGON = np.column_stack([np.cos(HEX_ANGLES), np.sin(HEX_ANGLES)])
# Criterion 3 of the acceptance suite: vertex 0 moved off the circle.
PERTURBED_HEXAGON = HEXAGON.copy()
PERTURBED_HEXAGON[0, 0] = 1.2
IDENTITY = np.eye(3)
ROOT_125 = math.sqrt(1.25)

CHUNK = 1000
# Accuracy the acceptance suite demands of every returned pose.
POSE_TOL = 1e-8
# Slack on the scan-found interval when testing that it covers the seed w1.
INTERVAL_SLACK = 1e-9
SELFMOTION_HINT = 5.0
# Seed of the random members of the self-motion family set; see selfmotion_families.
FAMILY_SEED = 0
SWEEP_SAMPLES = 1001
# Slice order of design_scan; item i belongs to DESIGN_SLICES[i % 3].
DESIGN_SLICES = ("generic", "near_conic", "off_scale")


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def rotation_matrices(q) -> np.ndarray:
    """(..., 3, 3) rotation matrices of unit quaternions (..., 4)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], -2)


def random_quaternions(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def leg_lengths(base, mu, a, q, p) -> np.ndarray:
    """Leg lengths |mu*R*A*B_i + P - B_i|, broadcast over leading axes.

    base (..., 6, 2), mu (...), a (..., 3, 3), q (..., 4), p (..., 3)
    give lengths (..., 6).
    """
    base = np.asarray(base, dtype=float)
    b3 = np.concatenate([base, np.zeros(base.shape[:-1] + (1,))], axis=-1)
    ra = rotation_matrices(q) @ np.asarray(a, dtype=float)
    top = np.asarray(mu, dtype=float)[..., None, None] * np.einsum("...ij,...mj->...mi", ra, b3)
    legs = top + np.asarray(p, dtype=float)[..., None, :] - b3
    return np.linalg.norm(legs, axis=-1)


def audit_ok(base, mu, a, q, p, lengths) -> bool:
    """Every pose (N, 4), (N, 3) reproduces the lengths within the suite's tolerance."""
    lengths = np.asarray(lengths, dtype=float)
    got = leg_lengths(base, mu, a, q, p)
    return bool(np.all(np.abs(got - lengths) <= POSE_TOL * (1.0 + lengths.max())))


def pose_gap(q, p, q_true, p_true, radius: float) -> np.ndarray:
    """Max-norm distance of poses (N, 4), (N, 3) to the true pose.

    The quaternion sign is folded out; positions count relative to the
    base radius so that bases far from unit scale are judged alike.
    """
    q = np.asarray(q, dtype=float)
    dq = np.minimum(np.abs(q - q_true).max(axis=-1), np.abs(q + q_true).max(axis=-1))
    dp = np.abs(np.asarray(p, dtype=float) - p_true).max(axis=-1) / radius
    return np.maximum(dq, dp)


@dataclass(frozen=True, eq=False)
class Design:
    """One platform, its seed pose and the lengths that pose realizes."""

    base: np.ndarray
    mu: float
    a: np.ndarray
    q: np.ndarray
    p: np.ndarray
    lengths: np.ndarray
    radius: float = 1.0
    kind: str = "fixed"


def fk_stream_chunk(seed: int, k: int) -> list:
    """Random feasible poses of the perturbed hexagon, mu = 0.5, A = I."""
    rng = rng_for(seed, 1, k)
    q = random_quaternions(rng, CHUNK)
    p = rng.uniform(-1.0, 1.0, (CHUNK, 3))
    lengths = leg_lengths(PERTURBED_HEXAGON, 0.5, IDENTITY, q, p)
    return [Design(PERTURBED_HEXAGON, 0.5, IDENTITY, q[i], p[i], lengths[i], kind="fk_stream")
            for i in range(CHUNK)]


def design_scan_chunk(seed: int, k: int) -> list:
    """Fresh designs in three equal slices; see DESIGN_SLICES.

    generic: hexagon plus N(0, 0.1) noise.  near_conic: the hexagon with
    vertex 0 pushed out radially by 10^U(-10, -1).  off_scale: a generic
    base scaled to radius 10^U(-3, 4).  mu ~ U(0.1, 0.9); odd items carry
    a random proper top rotation A, even items the identity.  Seed poses
    have a random orientation and a position uniform in the radius-scaled
    unit cube.
    """
    rng = rng_for(seed, 2, k)
    index = k * CHUNK + np.arange(CHUNK)
    kind = index % 3
    base = np.broadcast_to(HEXAGON, (CHUNK, 6, 2)).copy()
    noisy = kind != 1
    base[noisy] += rng.normal(0.0, 0.1, (int(noisy.sum()), 6, 2))
    near = kind == 1
    base[near, 0] *= 1.0 + 10.0 ** rng.uniform(-10.0, -1.0, (int(near.sum()), 1))
    radius = np.ones(CHUNK)
    scaled = kind == 2
    radius[scaled] = 10.0 ** rng.uniform(-3.0, 4.0, int(scaled.sum()))
    base *= radius[:, None, None]
    mu = rng.uniform(0.1, 0.9, CHUNK)
    a = np.broadcast_to(IDENTITY, (CHUNK, 3, 3)).copy()
    turned = index % 2 == 1
    a[turned] = rotation_matrices(random_quaternions(rng, int(turned.sum())))
    q = random_quaternions(rng, CHUNK)
    p = rng.uniform(-1.0, 1.0, (CHUNK, 3)) * radius[:, None]
    lengths = leg_lengths(base, mu, a, q, p)
    return [Design(base[i], float(mu[i]), a[i], q[i], p[i], lengths[i], float(radius[i]),
                   DESIGN_SLICES[kind[i]]) for i in range(CHUNK)]


def _spread_angles(rng: np.random.Generator, min_gap: float = 0.3) -> np.ndarray:
    # six distinct directions, redrawn until no two crowd each other
    while True:
        t = np.sort(rng.uniform(0.0, 2.0 * np.pi, 6))
        if np.diff(np.append(t, t[0] + 2.0 * np.pi)).min() > min_gap:
            return t


def quaternion_product(a, b) -> np.ndarray:
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array([w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                     w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                     w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                     w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2])


def selfmotion_families(seed: int) -> list:
    """The fixed conic family set: hexagon, two random circles, one ellipse.

    The hexagon sits at its resting pose (identity, height 1), whose
    family has the closed-form interval [0, 1] and legs of sqrt(1.25).
    The others take a random pose in the unit cube, so the seed w1 = |P|^2
    stays below SELFMOTION_HINT.  All bases are centred on the origin, so
    every family is indexed by w1.

    The random members are drawn once, from FAMILY_SEED: drawn per seed,
    they change the cost of a pass by up to a third and no timing of this
    workload would repeat.  The seed instead turns the whole set, bases
    and seed poses, by one random angle about the base normal.  That
    changes every input number but leaves each family's w1 interval, and
    so its cost, as it was.
    """
    rng = rng_for(FAMILY_SEED, 3)
    drawn = [("hexagon", HEXAGON, 0.5, np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))]
    bases = []
    for _ in range(2):
        t = _spread_angles(rng)
        bases.append(("circle", np.column_stack([np.cos(t), np.sin(t)])))
    t = _spread_angles(rng)
    ax, ay = rng.uniform(0.6, 1.4, 2)
    phi = rng.uniform(0.0, np.pi)
    bases.append(("ellipse", np.column_stack([ax * np.cos(t), ay * np.sin(t)]) @ _turn2(phi).T))
    for kind, base in bases:
        mu = float(rng.uniform(0.1, 0.9))
        drawn.append((kind, base, mu, random_quaternions(rng, 1)[0], rng.uniform(-1.0, 1.0, 3)))
    theta = rng_for(seed, 3).uniform(0.0, 2.0 * np.pi)
    turn = np.eye(3)
    turn[:2, :2] = _turn2(theta)
    spin = np.array([math.cos(theta / 2), 0.0, 0.0, math.sin(theta / 2)])
    out = []
    for kind, base, mu, q, p in drawn:
        base = base @ _turn2(theta).T
        # the plate turns with the base: R' = Rz R Rz^T, P' = Rz P
        q = quaternion_product(quaternion_product(spin, q), spin * [1.0, -1.0, -1.0, -1.0])
        p = turn @ p
        lengths = (np.full(6, ROOT_125) if kind == "hexagon"
                   else leg_lengths(base, mu, IDENTITY, q, p))
        out.append(Design(base, mu, IDENTITY, q, p, lengths, kind=kind))
    return out


def _turn2(angle: float) -> np.ndarray:
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def cli_design(seed: int) -> Design:
    """A generic hexagon-plus-noise platform and seed pose for `fk` and `check`."""
    rng = rng_for(seed, 4)
    base = HEXAGON + rng.normal(0.0, 0.1, (6, 2))
    mu = float(rng.uniform(0.1, 0.9))
    q = random_quaternions(rng, 1)[0]
    p = rng.uniform(-1.0, 1.0, 3)
    return Design(base, mu, IDENTITY, q, p, leg_lengths(base, mu, IDENTITY, q, p), kind="cli")
