"""Command-line front end: JSON geometry/pose/lengths in, JSON/CSV out.

Exit codes: 0 success, 2 input/validation error, 3 solver infeasibility.
Floats are serialized with the shortest round-tripping representation so
identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .errors import (DegenerateBase, Infeasible, KinematicsError,
                     ValidationError, WrongRank)
from .fk_nonsingular import fk_solve
from .fk_singular import build_singular_system, sweep
from .geometry import PlatformGeometry, conic_check, make_circle_base
from .ik import Pose, check_lengths, leg_lengths
from .rotation import Quaternion

CSV_HEADER = "w1,branch_rot,branch_pos,q0,q1,q2,q3,x,y,z,feasible,residual"


def _jfloat(x) -> float:
    # + 0.0 maps -0.0 to 0.0 so sign noise never reaches the output
    return float(x) + 0.0


def _num(x) -> str:
    return repr(_jfloat(x))


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def load_geometry(path) -> PlatformGeometry:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: geometry file must be a JSON object")
    has_base = "base" in data
    has_angles = "circle_angles" in data
    if has_base == has_angles:
        raise ValidationError(f"{path}: provide exactly one of 'base' or 'circle_angles'")
    if "mu" not in data:
        raise ValidationError(f"{path}: 'mu' is required (it never defaults)")
    try:
        if has_angles:
            base = make_circle_base(np.asarray(data["circle_angles"], dtype=float))
        else:
            base = np.asarray(data["base"], dtype=float)
        top = np.asarray(data["A"], dtype=float) if "A" in data else None
        return PlatformGeometry(base=base, mu=float(data["mu"]), top_transform=top)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed geometry: {exc}") from exc


def load_pose(path) -> Pose:
    data = _load_json(path)
    try:
        q = [float(x) for x in data["q"]]
        p = [float(x) for x in data["P"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: pose file needs 'q' (4 reals) and 'P' (3 reals)") from exc
    if len(q) != 4 or len(p) != 3:
        raise ValidationError(f"{path}: 'q' must have 4 components and 'P' 3")
    return Pose(Quaternion(*q), np.asarray(p, dtype=float))


def load_lengths(path) -> np.ndarray:
    data = _load_json(path)
    if not isinstance(data, dict) or "L" not in data:
        raise ValidationError(f"{path}: lengths file needs key 'L' with 6 reals")
    try:
        lengths = np.asarray([float(x) for x in data["L"]], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed lengths: {exc}") from exc
    return check_lengths(lengths)


def cmd_ik(args) -> int:
    geom = load_geometry(args.geom)
    pose = load_pose(args.pose)
    lengths = leg_lengths(geom, pose)
    print(json.dumps({"L": [_jfloat(x) for x in lengths]}))
    return 0


def _conic_json(report) -> dict:
    return {
        "detQ": _jfloat(report.det_q),
        "rank": int(report.rank),
        "on_conic": bool(report.on_conic),
        "conic": None if report.conic is None else [_jfloat(x) for x in report.conic],
    }


def cmd_check(args) -> int:
    geom = load_geometry(args.geom)
    print(json.dumps(_conic_json(conic_check(geom.base))))
    return 0


def cmd_fk(args) -> int:
    geom = load_geometry(args.geom)
    lengths = load_lengths(args.legs)
    report = conic_check(geom.base)
    if report.rank == 5:
        print(json.dumps({
            "mode": "singular",
            "message": "base lies on a conic: every pose admits a continuous "
                       "self-motion; use 'sweep' to sample the family",
        }))
        return 0
    if report.rank < 5:
        raise DegenerateBase(f"base matrix rank {report.rank} < 5")
    solutions = fk_solve(geom, lengths)
    if not solutions:
        raise Infeasible("no pose reproduces the requested leg lengths")
    payload = []
    for sol in solutions:
        q = sol.pose.orientation
        payload.append({
            "q": [_jfloat(q.q0), _jfloat(q.q1), _jfloat(q.q2), _jfloat(q.q3)],
            "P": [_jfloat(x) for x in sol.pose.position],
            "branch_rot": sol.rotation_index,
            "branch_pos": sol.position_sign,
            "residual": sol.leg_residual,
        })
    print(json.dumps({"mode": "nonsingular", "solutions": payload}))
    return 0


def cmd_sweep(args) -> int:
    start = time.perf_counter()
    geom = load_geometry(args.geom)
    lengths = load_lengths(args.legs)
    report = conic_check(geom.base)
    if report.rank == 6:
        raise WrongRank("base not on a conic; use fk")
    system = build_singular_system(geom, lengths)
    samples = sweep(system, geom, args.w1_min, args.w1_max, args.samples)
    lines = [CSV_HEADER]
    for s in samples:
        w1_txt = _num(s.parameter if system.parameterizable_by_w1 else s.w[0])
        if not s.feasible:
            lines.append(f"{w1_txt},,,,,,,,,,0,")
            continue
        for sol in s.poses:
            q = sol.pose.orientation
            p = sol.pose.position
            lines.append(",".join([
                w1_txt, str(sol.rotation_index), str(sol.position_sign),
                _num(q.q0), _num(q.q1), _num(q.q2), _num(q.q3),
                _num(p[0]), _num(p[1]), _num(p[2]),
                "1", _num(sol.leg_residual),
            ]))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(json.dumps({
        "command": "sweep",
        "geom": args.geom,
        "legs": args.legs,
        "w1_min": args.w1_min,
        "w1_max": args.w1_max,
        "samples": args.samples,
        "conic": _conic_json(report),
        "parameterized_by_w1": system.parameterizable_by_w1,
        "sample_count": len(samples),
        "feasible_count": sum(1 for s in samples if s.feasible),
        "max_residual": max((sol.leg_residual for s in samples for sol in s.poses),
                            default=None),
        "out": args.out,
        "elapsed_seconds": time.perf_counter() - start,
    }))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stewart66",
        description="Kinematics of the 6-6 platform whose top plate is a "
                    "rotated, contracted copy of its base.  Circle bases use "
                    "radius 1; rescale lengths for other radii.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ik", help="leg lengths from a pose")
    p.add_argument("--geom", required=True, help="geometry JSON")
    p.add_argument("--pose", required=True, help='pose JSON {"q": [4], "P": [3]}')
    p.set_defaults(func=cmd_ik)

    p = sub.add_parser("fk", help="isolated poses from leg lengths (base off any conic)")
    p.add_argument("--geom", required=True, help="geometry JSON")
    p.add_argument("--legs", required=True, help='lengths JSON {"L": [6]}')
    p.set_defaults(func=cmd_fk)

    p = sub.add_parser("sweep", help="sample the self-motion family (conic base)")
    p.add_argument("--geom", required=True, help="geometry JSON")
    p.add_argument("--legs", required=True, help='lengths JSON {"L": [6]}')
    p.add_argument("--w1-min", type=float, required=True, dest="w1_min")
    p.add_argument("--w1-max", type=float, required=True, dest="w1_max")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV path for the sampled curve")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="conic/rank report for a base")
    p.add_argument("--geom", required=True, help="geometry JSON")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KinematicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
