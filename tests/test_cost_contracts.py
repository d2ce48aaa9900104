"""Cost contracts: what a solve costs, in counts that do not depend on the host.

A Python-level call is a "call" event of sys.setprofile whose code lives in
a module of the stewart66 package.  numpy's own Python wrappers, which
differ between numpy 1.24 and 2.x, do not count, and neither do calls into
C.  So the counts below hold on every supported numpy, and a contract
fails when a change adds package calls per row or per candidate slot, or a
second factorization, not when the host is slow.

Two more counts do not depend on the host either: the SVDs numpy runs,
through a counting wrapper, and the tracemalloc peak of a batch.
"""

import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from helpers import (circle_through_origin_geometry, circle_through_origin_system, hexagon_base,
                     perturbed_hexagon_base, random_feasible_pose, random_rotation,
                     seeded_conic_family)
from stewart66.fk_nonsingular import fk_solve, solution_arrays
from stewart66.fk_singular import (build_singular_system, feasible_interval, recover_poses, sweep,
                                   w_at)
from stewart66.geometry import PlatformGeometry, conic_check
from stewart66.ik import Pose, leg_lengths
from stewart66.linalg import lu_factor
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


def svd_calls(monkeypatch) -> list:
    """A list that grows by one on each np.linalg.svd call from now on.  The
    factorization memo is first left holding an unrelated matrix, so no
    count depends on what an earlier test factored."""
    lu_factor(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    return calls


@pytest.mark.parametrize("gap, calls", [(None, 1), (1e-7, 2)], ids=["hexagon", "near_origin"])
def test_feasible_interval_recovers_once_and_factors_nothing(gap, calls, monkeypatch):
    # one solution_arrays call on the piece edges and midpoints; a second
    # only when an end the kernel rejects steps inward, as the lower end of
    # the circle 1e-7 from the base origin does (n1 = 8.2e-8)
    if gap is None:
        geom, system = hexagon_family()
    else:
        geom = circle_through_origin_geometry(gap=gap)
        system = circle_through_origin_system(geom)
    svds = svd_calls(monkeypatch)
    counts = package_calls(feasible_interval, system, geom, 5.0)
    assert counts["fk_nonsingular.solution_arrays"] == calls
    assert svds == []


@pytest.mark.parametrize("top", [None, "random"], ids=["identity", "random"])
def test_fk_solve_on_one_device_factors_once(top, rng, monkeypatch):
    a = None if top is None else random_rotation(rng)
    geom = PlatformGeometry(base=perturbed_hexagon_base(), mu=0.5, top_transform=a)
    legs = [leg_lengths(geom, random_feasible_pose(geom, rng)) for _ in range(50)]
    calls = svd_calls(monkeypatch)
    answers = [fk_solve(geom, lengths) for lengths in legs]
    assert len(calls) == 1
    assert all(answers)


def test_conic_check_then_fk_solve_factor_once(perturbed_geometry, rng, monkeypatch):
    lengths = leg_lengths(perturbed_geometry, random_feasible_pose(perturbed_geometry, rng))
    calls = svd_calls(monkeypatch)
    assert not conic_check(perturbed_geometry.base).on_conic
    assert fk_solve(perturbed_geometry, lengths)
    assert len(calls) == 1


@pytest.mark.parametrize("call", ["conic_check", "build_singular_system"])
def test_the_conic_report_reads_its_one_svd(call, monkeypatch):
    # rank, margin and conic all come from the factorization: no determinant
    geom = PlatformGeometry(base=hexagon_base(), mu=0.5)
    svds = svd_calls(monkeypatch)
    dets, det = [], np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda *args, **kw: dets.append(1) or det(*args, **kw))
    if call == "conic_check":
        report = conic_check(geom.base)
    else:
        report = build_singular_system(geom, np.full(6, math.sqrt(1.25))).conic
    assert report.on_conic
    assert dets == [] and len(svds) <= 1


def test_alternating_devices_factor_on_every_call(rng, monkeypatch):
    # the memo holds one entry: two bases taking turns never hit it
    geoms = [PlatformGeometry(base=base, mu=0.5)
             for base in (perturbed_hexagon_base(), perturbed_hexagon_base()[:, ::-1])]
    legs = [leg_lengths(geom, random_feasible_pose(geom, rng)) for geom in geoms]
    calls = svd_calls(monkeypatch)
    for k in range(10):
        fk_solve(geoms[k % 2], legs[k % 2])
    assert len(calls) == 10


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak of fn(*args) in bytes, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def circle_family():
    """The seed-1 circle family: eight poses a sample on its first interval."""
    geom, lengths = seeded_conic_family("circle", 1)
    system = build_singular_system(geom, lengths)
    return geom, system, feasible_interval(system, geom, 5.0)[0]


# Bytes a sample: measured 2.45 kB (four poses a sample) and 4.19 kB (eight)
# for sweep, 1.6 kB a row for the kernel, with numpy 2.4.  The bounds leave
# 14-18% for other numpy versions, less than the ~0.8 kB a sample that a
# kept copy of each sample's orientation, position and residual rows costs.
PEAK_BUDGETS = {"hexagon": 2900, "circle": 4800, "kernel": 1900}


@pytest.mark.parametrize("family", ["hexagon", "circle"])
def test_sweep_traced_peak_per_sample_is_bounded(family):
    if family == "hexagon":
        geom, system = hexagon_family()
        lo, hi = 0.0, 1.0
    else:
        geom, system, (lo, hi) = circle_family()
    per_sample = [traced_peak(sweep, system, geom, lo, hi, n) / n for n in (1001, 10_001)]
    assert max(per_sample) <= PEAK_BUDGETS[family]
    assert per_sample[1] <= 1.05 * per_sample[0]


def test_kernel_traced_peak_per_row_is_bounded():
    geom, system = hexagon_family()
    per_row = [traced_peak(solution_arrays, geom, w_at(system, np.linspace(0.0, 1.0, n)),
                           system.lengths) / n for n in (1001, 10_001)]
    assert max(per_row) <= PEAK_BUDGETS["kernel"]
    assert per_row[1] <= 1.05 * per_row[0]
