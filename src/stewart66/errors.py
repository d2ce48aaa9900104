"""Exception taxonomy, and the one array check and one scalar check of input."""

import math
import numbers

import numpy as np


class KinematicsError(Exception):
    """Base class for every error this package raises deliberately."""


class ValidationError(KinematicsError):
    """Input violates a documented invariant (bad geometry, pose, lengths)."""


class DuplicateVertex(ValidationError):
    """Two base vertices coincide (or two circle angles do, modulo 2*pi)."""


class NotUnit(ValidationError):
    """Quaternion norm is too far from one to trust."""


class DegenerateLeg(KinematicsError):
    """A leg vector collapsed to (numerically) zero length."""


class WrongRank(KinematicsError):
    """Operation defined only at one specific rank saw another."""


class SingularBase(KinematicsError):
    """Base vertices lie on a conic: poses are not isolated."""


class DegenerateBase(KinematicsError):
    """Base rank below five; even the one-parameter solver does not apply."""


class Inconsistent(KinematicsError):
    """Leg lengths are not realizable by any pose of this platform."""


class Infeasible(KinematicsError):
    """No rotation/position candidate is compatible with the data."""


def _float_array(value, name: str, shape=None) -> np.ndarray:
    """value as a new float array; ValidationError unless it is a regular array
    of finite numbers, of the given shape if one is given.  Strings and
    bools are refused, and an int beyond int64 is read as a float if a
    float can hold it.  np.asarray([1.5, True]) is float and such ints make
    an object array, so the items of a sequence or of an object array have
    their types checked one by one; an object array's must be reals as
    _real has them."""
    try:
        a = np.asarray(value)
        types = (set() if isinstance(value, np.ndarray) and a.dtype != object
                 else set(map(type, np.asarray(value, dtype=object).flat)))
    except (ValueError, RuntimeError) as exc:  # ragged, or nested past the 32 axes .flat walks
        raise ValidationError(f"{name} must be a regular array: {exc}") from exc
    if a.dtype == object:
        real = all(issubclass(t, numbers.Real) and t is not bool for t in types)
    else:
        real = a.dtype.kind in "iuf" and types.isdisjoint({bool, np.bool_})
    if real:
        try:
            a = np.array(a, dtype=float)
        except OverflowError:  # an int beyond the float range
            real = False
    if not real:
        raise ValidationError(f"{name} must be numbers, got {value!r:.80}")
    if shape is not None and a.shape != shape:
        raise ValidationError(f"{name} must be an array of shape {shape}, got shape {a.shape}")
    # count_nonzero, not all(): one C loop, where all() goes through a reduction
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValidationError(f"{name} must be finite")
    return a


def _real(value, name: str, finite: bool = True) -> float:
    """value as a float; ValidationError unless it is a real number within
    the float range, and finite unless finite is False.  A bool is refused:
    it is an int, and True would pass as 1.0."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            x = float(value)
            if not finite or math.isfinite(x):
                return x
    except OverflowError:  # an int beyond the float range
        pass
    raise ValidationError(f"{name} must be a {'finite ' * finite}real number, got {value!r:.80}")
