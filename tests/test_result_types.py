"""The result types are frozen, slotted dataclasses.

SolutionArrays.solutions and sweep fill them field by field through their
slot descriptors, in __slots__ order, so that order must be the field order.
"""

import copy
import dataclasses
import pickle
import weakref

import numpy as np
import pytest

from stewart66 import FkSolution, Pose, Quaternion, SingularCurveSample


def examples() -> dict:
    plate = Quaternion(0.6, 0.0, 0.0, 0.8)
    pose = Pose(plate, np.array([0.1, -0.2, 1.0]))
    solution = FkSolution(pose, 2, -1, 3e-16)
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
    assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))
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


def test_quaternion_keeps_value_equality_and_hash():
    a, b = Quaternion(0.6, 0.0, 0.0, 0.8), Quaternion(0.6, 0.0, 0.0, 0.8)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Quaternion(0.8, 0.0, 0.0, 0.6)
    assert pickle.loads(pickle.dumps(a)) == a
    assert dataclasses.replace(a, q0=0.8, q3=0.6) == Quaternion(0.8, 0.0, 0.0, 0.6)
