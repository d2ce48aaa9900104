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


class NotParameterizable(KinematicsError):
    """Null direction has (numerically) no w1 component; use arc length."""


def _float_array(value, name: str, shape=None) -> np.ndarray:
    """value as a new float array; ValidationError unless it is a regular array
    of finite numbers, of the given shape if one is given.  Strings and bools
    are refused, and np.asarray([1.5, True]) is float, so a sequence that is
    not an ndarray has its items' types checked one by one."""
    try:
        a = np.asarray(value)
    except ValueError as exc:  # ragged
        raise ValidationError(f"{name} must be a regular array: {exc}") from exc
    if a.dtype.kind not in "iuf" or not (
            isinstance(value, np.ndarray)
            or {bool, np.bool_}.isdisjoint(map(type, np.asarray(value, dtype=object).flat))):
        raise ValidationError(f"{name} must be numbers, got {value!r:.80}")
    if shape is not None and a.shape != shape:
        raise ValidationError(f"{name} must be an array of shape {shape}, got shape {a.shape}")
    a = np.array(a, dtype=float)
    if not np.isfinite(a).all():
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
