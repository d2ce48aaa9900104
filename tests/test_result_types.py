"""The result types are frozen, slotted dataclasses.

SolutionArrays.solutions and sweep fill them field by field through their
slot descriptors, in __match_args__ order, so that order must be the field
order, and the slots along the class hierarchy must hold every field.
"""

import copy
import dataclasses
import math
import pickle
import weakref

import numpy as np
import pytest

from helpers import hexagon_base, perturbed_hexagon_base
from stewart66 import (FkSolution, PlatformGeometry, Pose, Quaternion, SingularCurveSample,
                       build_singular_system, fk_solve, leg_lengths, sweep)


def examples() -> dict:
    plate = Quaternion(0.6, 0.0, 0.0, 0.8)
    pose = Pose(plate, np.array([0.1, -0.2, 1.0]))
    solution = FkSolution(plate, np.array([0.1, -0.2, 1.0]), 2, -1, 3e-16)
    sample = SingularCurveSample(0.5, np.arange(6.0), (solution,), True, 3e-16, None)
    return {Quaternion: plate, Pose: pose, FkSolution: solution, SingularCurveSample: sample}


def same(a, b) -> bool:
    """Field by field, to the byte, down through nested result objects."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


@pytest.fixture(params=list(examples()), ids=lambda cls: cls.__name__)
def value(request):
    return examples()[request.param]


def test_slots_are_the_fields_in_order(value):
    cls = type(value)
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert cls.__match_args__ == names
    assert sum((c.__dict__.get("__slots__", ()) for c in reversed(cls.__mro__)), ()) == names
    assert not hasattr(value, "__dict__")
    with pytest.raises(TypeError):
        weakref.ref(value)


def test_fields_are_frozen(value):
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))


@pytest.mark.parametrize("round_trip", [
    lambda x: pickle.loads(pickle.dumps(x)),
    copy.deepcopy,
    copy.copy,
    dataclasses.replace,
], ids=["pickle", "deepcopy", "copy", "replace"])
def test_round_trip_keeps_every_field(value, round_trip):
    again = round_trip(value)
    assert again is not value
    assert same(again, value)


def solved_off_the_conic():
    geom = PlatformGeometry(base=perturbed_hexagon_base(), mu=0.5)
    pose = Pose(Quaternion(0.6, 0.0, 0.0, 0.8), np.array([0.1, -0.2, 1.0]))
    return geom, fk_solve(geom, leg_lengths(geom, pose))


def swept_on_the_conic():
    geom = PlatformGeometry(base=hexagon_base(), mu=0.5)
    system = build_singular_system(geom, np.full(6, math.sqrt(1.25)))
    return geom, [sol for s in sweep(system, geom, 0.0, 1.0, 11) for sol in s.poses]


@pytest.mark.parametrize("solved", [solved_off_the_conic, swept_on_the_conic],
                         ids=["fk_solve", "sweep"])
def test_a_solution_is_its_pose(solved):
    geom, solutions = solved()
    assert solutions
    for sol in solutions:
        assert sol.pose is sol and isinstance(sol, Pose)
        alone = Pose(sol.orientation, sol.position)
        assert leg_lengths(geom, sol).tobytes() == leg_lengths(geom, alone).tobytes()


def test_quaternion_keeps_value_equality_and_hash():
    a, b = Quaternion(0.6, 0.0, 0.0, 0.8), Quaternion(0.6, 0.0, 0.0, 0.8)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Quaternion(0.8, 0.0, 0.0, 0.6)
    assert pickle.loads(pickle.dumps(a)) == a
    assert dataclasses.replace(a, q0=0.8, q3=0.6) == Quaternion(0.8, 0.0, 0.0, 0.6)
