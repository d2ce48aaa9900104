"""Cost contracts: what a solve costs, in counts that do not depend on the host.

A Python-level call is a "call" event of sys.setprofile whose code lives in
a module of the stewart66 package.  numpy's own Python wrappers, which
differ between numpy 1.24 and 2.x, do not count, and neither do calls into
C.  So the counts below hold on every supported numpy, and a contract
fails when a change adds package calls per row or per candidate slot, or a
second factorization, not when the host is slow.
"""

import math
import sys
from collections import Counter

import numpy as np
import pytest

from helpers import hexagon_base, perturbed_hexagon_base, random_rotation
from stewart66 import fk_singular
from stewart66.fk_nonsingular import fk_solve, solution_arrays
from stewart66.fk_singular import (_CELLS, BISECT_TOL, SCAN_POINTS, build_singular_system,
                                   feasible_interval, recover_poses, sweep, w_at)
from stewart66.geometry import PlatformGeometry
from stewart66.ik import Pose, leg_lengths
from stewart66.rotation import Quaternion


def package_calls(fn, *args) -> Counter:
    """The package functions that fn(*args) calls, as {"module.name": count}."""
    files = {m.__file__: name.rpartition(".")[2] for name, m in list(sys.modules.items())
             if name.startswith("stewart66") and getattr(m, "__file__", None)}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            calls[f"{files[frame.f_code.co_filename]}.{frame.f_code.co_name}"] += 1

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(before)
    return calls


@pytest.mark.parametrize("top", [None, "random"], ids=["identity", "random"])
def test_solution_arrays_makes_the_same_calls_at_every_batch_size(top, rng):
    # the hexagon's self-motion over w1 in [0, 1.2]: rows with up to eight
    # poses, and rows past the family's end with none
    a = None if top is None else random_rotation(rng)
    geom = PlatformGeometry(base=hexagon_base(), mu=0.5, top_transform=a)
    system = build_singular_system(geom, np.full(6, math.sqrt(1.25)))
    counts = []
    for n in (1, 101, 10_001):
        calls = package_calls(solution_arrays, geom, w_at(system, np.linspace(0.0, 1.2, n)),
                              system.lengths)
        assert calls["fk_nonsingular.solution_arrays"] == 1
        counts.append(calls)
    assert counts[0] == counts[1] == counts[2]


def hexagon_family():
    """The hexagon's self-motion through the identity pose at height 1:
    poses for w1 in [0, 1], none beyond."""
    geom = PlatformGeometry(base=hexagon_base(), mu=0.5)
    return geom, build_singular_system(geom, np.full(6, math.sqrt(1.25)))


def test_sweep_makes_the_same_calls_at_every_sample_count():
    geom, system = hexagon_family()
    counts = []
    for n in (101, 1001, 10_001):
        calls = package_calls(sweep, system, geom, 0.0, 1.2, n)
        assert calls["fk_nonsingular.solution_arrays"] == 1
        counts.append(calls)
    assert counts[0] == counts[1] == counts[2]


def test_feasible_interval_refines_in_logarithmically_many_batches(monkeypatch):
    # one scan batch, then one batch per refinement round; a round narrows
    # every bracket _CELLS-fold from the scan spacing until it is at most
    # BISECT_TOL * (1 + |s|) wide
    geom, system = hexagon_family()
    hint = 5.0
    found = feasible_interval(system, geom, hint)
    rows = []

    def recorded(geom, w, lengths):
        rows.append(len(w))
        return solution_arrays(geom, w, lengths)

    monkeypatch.setattr(fk_singular, "solution_arrays", recorded)
    calls = package_calls(feasible_interval, system, geom, hint)
    spacing = hint / (SCAN_POINTS - 1)
    rounds = max(math.ceil(math.log(spacing / (BISECT_TOL * (1.0 + abs(s))), _CELLS))
                 for interval in found for s in interval)
    assert calls["fk_nonsingular.solution_arrays"] == len(rows) <= 1 + rounds
    # [0, 1]: the end at 0 is a scan point, the end at 1 one bracket of
    # _CELLS - 1 interior points a round
    assert len(found) == 1 and rows == [SCAN_POINTS] + [_CELLS - 1] * rounds


@pytest.mark.parametrize("top", [None, "random"], ids=["identity", "random"])
def test_fk_solve_builds_factors_and_recovers_once(top, rng):
    a = None if top is None else random_rotation(rng)
    geom = PlatformGeometry(base=perturbed_hexagon_base(), mu=0.5, top_transform=a)
    q = np.array([0.9, 0.1, 0.3, -0.2]) / math.sqrt(0.95)
    lengths = leg_lengths(geom, Pose(Quaternion(*q.tolist()), np.array([0.1, -0.2, 0.9])))
    calls = package_calls(fk_solve, geom, lengths)
    assert calls["fk_nonsingular.fk_solve"] == 1
    assert calls["geometry.build_q"] == 1
    assert calls["linalg.lu_factor"] == 1
    assert calls["fk_nonsingular.solution_arrays"] == 1


def test_recover_poses_recovers_once():
    geom, system = hexagon_family()
    calls = package_calls(recover_poses, geom, w_at(system, 0.5), system.lengths)
    assert calls["fk_singular.recover_poses"] == 1
    assert calls["fk_nonsingular.solution_arrays"] == 1
