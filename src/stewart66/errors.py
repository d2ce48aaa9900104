"""Exception taxonomy shared across the package."""


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
