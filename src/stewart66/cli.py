"""Command-line front end: JSON geometry/pose/lengths in, JSON/CSV out.

Exit codes: 0 success, 2 input/validation error (an unwritable --out
included, and an input too large for the machine's memory), 3 solver
infeasibility.  Every input value must be a JSON
number (or a list of them), read through the package's own checks
(errors._float_array, errors._real); strings and booleans are refused.
Floats are serialized with the shortest round-tripping representation so
identical inputs always produce byte-identical output, except for the wall
time that `sweep` reports as elapsed_seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .errors import (Infeasible, KinematicsError, SingularBase, ValidationError,
                     _float_array, _real)
from .fk_nonsingular import fk_solve
from .fk_singular import build_singular_system, sweep
from .geometry import PlatformGeometry, conic_check, make_circle_base
from .ik import Pose, check_lengths, leg_lengths
from .rotation import Quaternion

CSV_HEADER = "w1,branch_rot,branch_pos,q0,q1,q2,q3,x,y,z,feasible,residual"


def _jfloat(x) -> float:
    # + 0.0 maps -0.0 to 0.0 so sign noise never reaches the output
    return float(x) + 0.0


def _solution_numbers(sol) -> list:
    """branch_rot, branch_pos, q0-q3, x, y, z and residual of an FkSolution, as printed."""
    q = sol.orientation
    return [sol.rotation_index, sol.position_sign,
            *map(_jfloat, [q.q0, q.q1, q.q2, q.q3, *sol.position.tolist(), sol.leg_residual])]


def _load_object(path, what, *keys) -> dict:
    """The JSON object in file path; ValidationError "path: what" unless it
    is one and holds every key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or past the parser's limits
        raise ValidationError(f"cannot read {path} as JSON: {exc}") from exc
    if not isinstance(data, dict) or not all(key in data for key in keys):
        raise ValidationError(f"{path}: {what}")
    return data


def load_geometry(path) -> PlatformGeometry:
    data = _load_object(path, "geometry file must be a JSON object")
    if ("base" in data) == ("circle_angles" in data):
        raise ValidationError(f"{path}: provide exactly one of 'base' or 'circle_angles'")
    if "mu" not in data:
        raise ValidationError(f"{path}: 'mu' is required (it never defaults)")
    if "base" in data:
        base = _float_array(data["base"], f"{path}: 'base'", (6, 2))
    else:
        base = make_circle_base(_float_array(data["circle_angles"], f"{path}: 'circle_angles'", (6,)))
    top = _float_array(data["A"], f"{path}: 'A'", (3, 3)) if "A" in data else None
    return PlatformGeometry(base=base, mu=_real(data["mu"], f"{path}: 'mu'"), top_transform=top)


def load_pose(path) -> Pose:
    data = _load_object(path, "pose file needs 'q' (4 reals) and 'P' (3 reals)", "q", "P")
    q = _float_array(data["q"], f"{path}: 'q'", (4,))
    return Pose(Quaternion(*q.tolist()), _float_array(data["P"], f"{path}: 'P'", (3,)))


def load_lengths(path) -> np.ndarray:
    data = _load_object(path, "lengths file needs key 'L' with 6 reals", "L")
    return check_lengths(_float_array(data["L"], f"{path}: 'L'", (6,)))


def cmd_ik(args) -> None:
    geom = load_geometry(args.geom)
    pose = load_pose(args.pose)
    lengths = leg_lengths(geom, pose)
    print(json.dumps({"L": [_jfloat(x) for x in lengths]}))


def _conic_json(report) -> dict:
    return {
        "margin": _jfloat(report.margin),
        "rank": int(report.rank),
        "on_conic": bool(report.on_conic),
        "conic": None if report.conic is None else [_jfloat(x) for x in report.conic],
    }


def cmd_check(args) -> None:
    geom = load_geometry(args.geom)
    print(json.dumps(_conic_json(conic_check(geom.base))))


def cmd_fk(args) -> None:
    geom = load_geometry(args.geom)
    lengths = load_lengths(args.legs)
    try:
        solutions = fk_solve(geom, lengths)
    except SingularBase:
        print(json.dumps({
            "mode": "singular",
            "message": "base lies on a conic: every pose admits a continuous "
                       "self-motion; use 'sweep' to sample the family",
        }))
        return
    if not solutions:
        raise Infeasible("no pose reproduces the requested leg lengths")
    payload = [{"q": pose[:4], "P": pose[4:], "branch_rot": rot, "branch_pos": sign, "residual": res}
               for rot, sign, *pose, res in map(_solution_numbers, solutions)]
    print(json.dumps({"mode": "nonsingular", "solutions": payload}))


def cmd_sweep(args) -> None:
    start = time.perf_counter()
    geom = load_geometry(args.geom)
    lengths = load_lengths(args.legs)
    system = build_singular_system(geom, lengths)
    samples = sweep(system, geom, args.w1_min, args.w1_max, args.samples)
    lines = [CSV_HEADER]
    for s in samples:
        w1_txt = repr(_jfloat(s.parameter if system.parameterizable_by_w1 else s.w[0]))
        if not s.feasible:
            lines.append(f"{w1_txt},,,,,,,,,,0,")
        for *pose, res in map(_solution_numbers, s.poses):
            lines.append(",".join([w1_txt, *map(repr, pose), "1", repr(res)]))
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out}: {exc}") from exc
    print(json.dumps({
        "command": "sweep",
        "geom": args.geom,
        "legs": args.legs,
        "w1_min": args.w1_min,
        "w1_max": args.w1_max,
        "samples": args.samples,
        "conic": _conic_json(system.conic),
        "parameterized_by_w1": system.parameterizable_by_w1,
        "sample_count": len(samples),
        "feasible_count": sum(1 for s in samples if s.feasible),
        "max_residual": max((s.leg_residual for s in samples if s.feasible), default=None),
        "out": args.out,
        "elapsed_seconds": time.perf_counter() - start,
    }))


_GEOM = ("--geom", None, "geometry JSON")
_LEGS = ("--legs", None, 'lengths JSON {"L": [6]}')
# (command, help, handler, options as (flag, type, help)); every option is required
_COMMANDS = (
    ("ik", "leg lengths from a pose", cmd_ik,
     (_GEOM, ("--pose", None, 'pose JSON {"q": [4], "P": [3]}'))),
    ("fk", "isolated poses from leg lengths (base off any conic)", cmd_fk, (_GEOM, _LEGS)),
    ("sweep", "sample the self-motion family (conic base)", cmd_sweep,
     (_GEOM, _LEGS, ("--w1-min", float, None), ("--w1-max", float, None),
      ("--samples", int, None), ("--out", None, "CSV path for the sampled curve"))),
    ("check", "conic/rank report for a base", cmd_check, (_GEOM,)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stewart66",
        description="Kinematics of the 6-6 platform whose top plate is a "
                    "rotated, contracted copy of its base.  Circle bases use "
                    "radius 1; rescale lengths for other radii.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, func, options in _COMMANDS:
        p = sub.add_parser(name, help=text)
        for flag, kind, note in options:
            p.add_argument(flag, type=kind, required=True, help=note)
        p.set_defaults(func=func)
    return parser


def run(action, *args) -> int:
    """Exit code of action(*args): 0 when it returns, 2 when it raises a
    ValidationError or MemoryError and 3 on any other KinematicsError, whose
    message then goes to stderr as "error: ..."."""
    try:
        action(*args)
    except KinematicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 3
    except MemoryError as exc:
        # numpy refuses an array this machine cannot hold, such as a sweep grid
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args.func, args)
