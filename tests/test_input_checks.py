"""Every public entry point reads numbers through one array check and one
scalar check (stewart66.errors): strings, booleans, ragged lists, None and
non-finite values are refused with ValidationError everywhere, and what is
accepted is read exactly as float64 would be.

Leg lengths, w, the conic check and the sweep and scan bounds have their
own parametrized tests next to their solvers; this table covers the rest.
"""

import math

import numpy as np
import pytest

from helpers import HEX_ANGLES, hexagon_base, perturbed_hexagon_base, random_rotation
from stewart66.errors import KinematicsError, NotUnit, ValidationError
from stewart66.fk_nonsingular import fk_solve
from stewart66.fk_singular import build_singular_system, feasible_interval, sweep, w_at, w_at_arc
from stewart66.geometry import PlatformGeometry, conic_check, make_circle_base
from stewart66.ik import Pose, check_lengths, leg_lengths
from stewart66.rotation import Quaternion

ROOT_125 = math.sqrt(1.25)
RESTING_LENGTHS = np.full(6, ROOT_125)
LIFTED = Pose(Quaternion(*np.array([0.9, 0.1, -0.2, 0.3]) / math.sqrt(0.95)), [0.1, -0.2, 0.9])


def first_leaf(value, new):
    """value, a number or nested lists of them, with its first number
    replaced by new."""
    if isinstance(value, list):
        return [first_leaf(value[0], new), *value[1:]]
    return new


BAD = {
    "string": lambda good: first_leaf(good, "1"),
    "bool": lambda good: True,
    "one_bool": lambda good: first_leaf(good, True),
    "ragged": lambda good: first_leaf(good, [1.0, 1.0]),
    "none": lambda good: None,
    "nonfinite": lambda good: first_leaf(good, math.nan),
}


def resting_system():
    return build_singular_system(PlatformGeometry(base=hexagon_base(), mu=0.5), RESTING_LENGTHS)


def hexagon_with_top(a):
    return PlatformGeometry(base=hexagon_base(), mu=0.5, top_transform=a)


def family_sweep(samples):
    system = resting_system()
    return sweep(system, PlatformGeometry(base=hexagon_base(), mu=0.5), 0.0, 1.0, samples)


# entry point: (call on one argument, an accepted value of that argument)
ENTRY_POINTS = {
    "PlatformGeometry.base": (lambda v: PlatformGeometry(base=v, mu=0.5),
                              perturbed_hexagon_base().tolist()),
    "PlatformGeometry.top_transform": (hexagon_with_top, np.eye(3).tolist()),
    "PlatformGeometry.mu": (lambda v: PlatformGeometry(base=hexagon_base(), mu=v), 0.5),
    "make_circle_base": (make_circle_base, HEX_ANGLES.tolist()),
    "Pose.position": (lambda v: Pose(Quaternion(1.0, 0.0, 0.0, 0.0), v), [0.0, 0.0, 1.0]),
    "Pose.orientation": (lambda v: Pose(v, [0.0, 0.0, 1.0]), Quaternion(1.0, 0.0, 0.0, 0.0)),
    "Quaternion": (lambda v: Quaternion(0.0, 0.0, v, 0.0), 1.0),
    "check_lengths": (check_lengths, RESTING_LENGTHS.tolist()),
    "w_at": (lambda v: w_at(resting_system(), v), [0.5, 0.75]),
    "w_at_arc": (lambda v: w_at_arc(resting_system(), v), [-0.25, 0.25]),
    "sweep.samples": (family_sweep, 11),
}


# a top_transform of None is the documented default, the identity
CASES = [(entry, bad) for entry in ENTRY_POINTS for bad in BAD
         if (entry, bad) != ("PlatformGeometry.top_transform", "none")]


@pytest.mark.parametrize("entry, bad", CASES, ids=[f"{e}-{b}" for e, b in CASES])
def test_entry_points_refuse_what_is_not_a_finite_number(entry, bad):
    call, good = ENTRY_POINTS[entry]
    call(good)
    value = BAD[bad](good)
    # a non-finite component is not a finite norm: the norm test answers
    expected = NotUnit if (entry, bad) == ("Quaternion", "nonfinite") else ValidationError
    with pytest.raises(expected) as info:
        call(value)
    assert type(info.value) in (expected, ValidationError)


@pytest.mark.parametrize("component", [10 ** 400, 1j, "1", None, np.bool_(True)],
                         ids=["beyond_float", "complex", "string", "none", "numpy_bool"])
def test_quaternion_refuses_components_that_are_not_real(component):
    with pytest.raises(ValidationError, match="q1 must be a real number"):
        Quaternion(1.0, component, 0.0, 0.0)


@pytest.mark.parametrize("component", [math.nan, math.inf, -math.inf])
def test_quaternion_leaves_nonfinite_components_to_the_norm_test(component):
    with pytest.raises(NotUnit, match="quaternion not unit"):
        Quaternion(component, 0.0, 0.0, 0.0)


def test_a_bool_item_of_an_ndarray_is_refused_by_dtype():
    with pytest.raises(ValidationError, match="angles must be numbers"):
        make_circle_base(np.array([True, False, True, False, True, False]))


def test_a_numpy_bool_item_of_a_list_is_refused():
    angles = HEX_ANGLES.tolist()
    angles[3] = np.bool_(True)
    with pytest.raises(ValidationError, match="angles must be numbers"):
        make_circle_base(angles)


def test_integers_beyond_the_float_range_are_refused():
    with pytest.raises(ValidationError, match="leg lengths must be numbers"):
        check_lengths([10 ** 400] + [1] * 5)


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def fk_bytes(solutions) -> list:
    return [(s.pose.orientation, s.pose.position.tobytes(), s.rotation_index,
             s.position_sign, s.leg_residual) for s in solutions]


def fk_answer(geom, lengths):
    """fk_solve's poses, or the error it raised, as comparable values."""
    try:
        return fk_bytes(fk_solve(geom, lengths))
    except KinematicsError as exc:
        return repr(exc)


def test_int_lists_read_as_their_float64_values():
    base = [[0, 0], [3, 0], [4, 2], [1, 5], [-2, 3], [-1, 1]]
    geom = PlatformGeometry(base=base, mu=0.5)
    twin = PlatformGeometry(base=np.array(base, dtype=float), mu=0.5)
    assert same(geom.base, twin.base)
    pose = Pose(Quaternion(1, 0, 0, 0), [0, 0, 3])
    assert same(pose.position, np.array([0.0, 0.0, 3.0]))
    lengths = leg_lengths(geom, pose)
    assert fk_bytes(fk_solve(geom, lengths)) == fk_bytes(fk_solve(twin, lengths))
    assert fk_solve(geom, lengths)
    whole = np.round(lengths).astype(int)
    assert fk_answer(geom, whole.tolist()) == fk_answer(twin, whole.astype(float))
    assert same(check_lengths(whole.tolist()), whole.astype(float))
    system = resting_system()
    assert same(w_at(system, [0, 1]), w_at(system, np.array([0.0, 1.0])))
    assert same(w_at_arc(system, 1), w_at_arc(system, 1.0))


def test_float32_arrays_read_as_their_float64_values():
    angles = HEX_ANGLES.astype(np.float32)
    assert same(make_circle_base(angles), make_circle_base(angles.astype(float)))
    geom = PlatformGeometry(base=perturbed_hexagon_base().astype(np.float32), mu=np.float32(0.5))
    twin = PlatformGeometry(base=perturbed_hexagon_base().astype(np.float32).astype(float),
                            mu=float(np.float32(0.5)))
    assert same(geom.base, twin.base) and geom.mu == twin.mu
    lengths = leg_lengths(geom, LIFTED).astype(np.float32)
    assert fk_answer(geom, lengths) == fk_answer(twin, lengths.astype(float))
    assert fk_solve(geom, lengths)
    assert same(conic_check(geom.base.astype(np.float32)).det_q,
                conic_check(geom.base).det_q)


def test_float32_bounds_read_as_their_float64_values():
    # the grids are built from the checked floats, so they are float64 too
    geom, system = PlatformGeometry(base=hexagon_base(), mu=0.5), resting_system()
    lo, hi = np.float32(0.1), np.float32(0.9)
    samples = sweep(system, geom, lo, hi, 5)
    twin = sweep(system, geom, float(lo), float(hi), 5)
    assert [s.parameter for s in samples] == [s.parameter for s in twin]
    assert all(type(s.parameter) is float and s.w.dtype == np.float64 for s in samples)
    assert [fk_bytes(s.poses) for s in samples] == [fk_bytes(s.poses) for s in twin]
    assert feasible_interval(system, geom, np.float32(5)) == feasible_interval(system, geom, 5.0)


def test_numpy_int_arrays_read_as_their_float64_values():
    for dtype in (np.int32, np.int64, np.uint8):
        base = np.array([[0, 0], [3, 0], [4, 2], [1, 5], [2, 3], [1, 1]], dtype=dtype)
        assert same(PlatformGeometry(base=base, mu=0.5).base, base.astype(float))
        assert same(check_lengths(np.arange(1, 7, dtype=dtype)), np.arange(1.0, 7.0))


def test_checked_arrays_are_new_and_leave_the_callers_writable(rng):
    base, a = perturbed_hexagon_base(), random_rotation(rng)
    geom = PlatformGeometry(base=base, mu=0.5, top_transform=a)
    assert base.flags.writeable and a.flags.writeable
    assert not geom.base.flags.writeable and not geom.top_transform.flags.writeable
    base[0, 0] = 7.0
    assert geom.base[0, 0] == 1.2
    lengths = np.full(6, ROOT_125)
    system = build_singular_system(PlatformGeometry(base=hexagon_base(), mu=0.5), lengths)
    lengths[0] = 2.0
    assert system.lengths[0] == ROOT_125
    position = np.array([0.0, 0.0, 1.0])
    pose = Pose(Quaternion(1.0, 0.0, 0.0, 0.0), position)
    assert pose.position is not position and position.flags.writeable


def test_read_only_arrays_are_accepted(rng):
    base, a = perturbed_hexagon_base(), random_rotation(rng)
    lengths = leg_lengths(PlatformGeometry(base=base, mu=0.5, top_transform=a), LIFTED)
    for array in (base, a, lengths):
        array.flags.writeable = False
    geom = PlatformGeometry(base=base, mu=0.5, top_transform=a)
    assert fk_solve(geom, lengths)
    assert fk_bytes(fk_solve(geom, lengths)) == fk_bytes(fk_solve(geom, lengths.copy()))
    assert conic_check(base).rank == 6
