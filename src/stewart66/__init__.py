"""Kinematics of the simplified 6-6 platform (top plate = rotated,
contracted copy of the base): inverse kinematics, the up-to-eight
solution forward problem off the conic, and the one-parameter
self-motion family on conic bases."""

from .errors import (DegenerateBase, DegenerateLeg, DuplicateVertex,
                     Inconsistent, Infeasible, KinematicsError,
                     NoIntersection, NotParameterizable, NotUnit,
                     ParallelPlanes, SingularBase, ValidationError, WrongRank)
from .fk_nonsingular import FkSolution, fk_solve
from .fk_singular import (SingularCurveSample, SingularSystem,
                          build_singular_system, feasible_interval,
                          recover_poses, sweep, w_at, w_at_arc)
from .geometry import (ConicReport, PlatformGeometry, conic_check,
                       make_circle_base)
from .ik import Pose, leg_lengths
from .rotation import Quaternion

__version__ = "0.1.0"

__all__ = [
    "ConicReport", "DegenerateBase", "DegenerateLeg", "DuplicateVertex",
    "FkSolution", "Inconsistent", "Infeasible", "KinematicsError",
    "NoIntersection", "NotParameterizable", "NotUnit", "ParallelPlanes",
    "PlatformGeometry", "Pose", "Quaternion", "SingularBase",
    "SingularCurveSample", "SingularSystem", "ValidationError", "WrongRank",
    "build_singular_system", "conic_check", "feasible_interval", "fk_solve",
    "leg_lengths", "make_circle_base", "recover_poses", "sweep", "w_at",
    "w_at_arc",
]
