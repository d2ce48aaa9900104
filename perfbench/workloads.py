"""The four workloads: what one operation is, and how its output is checked.

Each workload offers
  items(chunk)        an endless seeded stream of operation inputs, in
                      rounds of round_ops (one item of each slice, family
                      or command),
  setup(item)         the geometries and per-geometry preparation, ending
                      with the first call on each fixed geometry,
  run(item)           one operation: the only code inside the timer,
  check(item, result) one of STATUSES,
  fingerprint(result) a value equal for equal outputs,
  report(...)         the workload's own metrics by name.

Importing this module imports stewart66; the setup probe relies on that
happening only after its timer has started.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from time import perf_counter

import numpy as np

import inputs
import stewart66
from stewart66.errors import KinematicsError
from tracer import Tracer, load_spans

HERE = Path(__file__).resolve().parent
WARMUP_CHUNK = 999_999
REFUSED = "refused as conic"
# ok; failed: refused, raised a KinematicsError or answered nothing; wrong:
# answered without the true pose; invalid: broke a guarantee the program
# gives (every returned pose reproduces the lengths, no other exception,
# deterministic CLI output, the hexagon's closed form).
STATUSES = ("ok", "failed", "wrong", "invalid")


def percentile(values, pct):
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def error_status(result):
    return "failed" if isinstance(result, KinematicsError) else "invalid"


def fk_check(item, result):
    """Audit every returned pose independently, then look for the seed pose."""
    if isinstance(result, BaseException):
        return error_status(result)
    if result is REFUSED or not result:
        return "failed"
    q = np.array([s.pose.orientation.as_array() for s in result])
    p = np.array([s.pose.position for s in result])
    if not inputs.audit_ok(item.base, item.mu, item.a, q, p, item.lengths):
        return "invalid"
    if inputs.pose_gap(q, p, item.q, item.p, item.radius).min() > inputs.POSE_TOL:
        return "wrong"
    return "ok"


def fk_fingerprint(result):
    if isinstance(result, BaseException) or result is REFUSED:
        return repr(result)
    return [(s.rotation_index, s.position_sign, s.pose.orientation.as_array().tobytes(),
             s.pose.position.tobytes()) for s in result]


def latency_report(prefix, lat, per_s_name):
    us = np.asarray(lat) * 1e6
    return [(per_s_name, len(us) / us.sum() * 1e6, "1/s", len(us)),
            (f"{prefix}_p50_us", percentile(us, 50), "us", len(us)),
            (f"{prefix}_p99_us", percentile(us, 99), "us", len(us))]


class Workload:
    round_ops = 1
    warmup_ops = 200
    memory_in_children = False  # peak RSS of the CLI processes, not of this one

    @contextlib.contextmanager
    def tracing(self):
        """Trace the operations run inside; the yielded tracer collects spans."""
        tracer = Tracer()
        tracer.install()
        try:
            yield tracer
        finally:
            tracer.uninstall()

    def baselines(self, stages):
        """Reference timings taken before each untraced pass of a traced run."""

    def process_metrics(self, stages):
        # no CLI process runs outside the cli workload
        return {"cli.import_numpy_ms": 0.0, "cli.import_stewart66_ms": 0.0,
                "cli.compute_ms": 0.0}


class FkStream(Workload):
    """One device, many length vectors: the perturbed hexagon, mu 0.5, A = I."""

    name = "fk_stream"
    trace_ops = 300

    def __init__(self, seed, rundir):
        self.seed = seed
        self.geom = None

    def items(self, chunk=0):
        for k in itertools.count(chunk):
            yield from inputs.fk_stream_chunk(self.seed, k)

    def setup(self, item):
        self.geom = stewart66.PlatformGeometry(base=inputs.PERTURBED_HEXAGON, mu=0.5)
        self.run(item)

    def run(self, item, stages=None):
        return stewart66.fk_solve(self.geom, item.lengths)

    check = staticmethod(fk_check)
    fingerprint = staticmethod(fk_fingerprint)

    def report(self, lat, stages):
        return latency_report("fk", lat, "fk_per_s")


class DesignScan(Workload):
    """A fresh platform per operation: geometry, conic test, forward solve.

    This is the path of `stewart66 fk`, run in-process.  The near_conic
    and off_scale slices are where the solver is known to fail; they are
    counted in full and never narrowed.
    """

    name = "design_scan"
    round_ops = 3
    trace_ops = 300

    def __init__(self, seed, rundir):
        self.seed = seed

    def items(self, chunk=0):
        for k in itertools.count(chunk):
            yield from inputs.design_scan_chunk(self.seed, k)

    def setup(self, item):
        self.run(item)

    def run(self, item, stages=None):
        geom = stewart66.PlatformGeometry(base=item.base, mu=item.mu, top_transform=item.a)
        if stewart66.conic_check(geom.base).on_conic:
            return REFUSED
        return stewart66.fk_solve(geom, item.lengths)

    check = staticmethod(fk_check)
    fingerprint = staticmethod(fk_fingerprint)

    def report(self, lat, stages):
        return latency_report("design", lat, "designs_per_s")


class SelfMotion(Workload):
    """The conic family set; one operation is one family.

    An operation builds the rank-5 system, finds the feasible intervals
    below a fixed hint and sweeps the first one, as the self-motion demo
    does.
    """

    name = "selfmotion"
    round_ops = 4
    warmup_ops = 1
    trace_ops = 4

    def __init__(self, seed, rundir):
        self.families = inputs.selfmotion_families(seed)
        self.geoms = []

    def items(self, chunk=0):
        return itertools.cycle(range(len(self.families)))

    def setup(self, item):
        self.geoms = [stewart66.PlatformGeometry(base=f.base, mu=f.mu) for f in self.families]
        for geom, fam in zip(self.geoms, self.families):
            stewart66.build_singular_system(geom, fam.lengths)

    def run(self, i, stages=None):
        fam, geom = self.families[i], self.geoms[i]
        system = stewart66.build_singular_system(geom, fam.lengths)
        t0 = perf_counter()
        intervals = stewart66.feasible_interval(system, geom, inputs.SELFMOTION_HINT)
        t1 = perf_counter()
        samples = None
        if intervals:
            lo, hi = intervals[0]
            samples = stewart66.sweep(system, geom, lo, hi, inputs.SWEEP_SAMPLES)
        if stages is not None:
            stages.append((i, t1 - t0, perf_counter() - t1))
        return system, intervals, samples

    def check(self, i, result):
        fam, geom = self.families[i], self.geoms[i]
        if isinstance(result, BaseException):
            return error_status(result)
        system, intervals, samples = result
        if fam.kind == "hexagon" and not (
                len(intervals) == 1 and abs(intervals[0][0]) <= 1e-6
                and abs(intervals[0][1] - 1.0) <= 1e-6):
            return "invalid"
        poses = [sol.pose for s in samples or () for sol in s.poses]
        if not poses:
            return "failed"
        q = np.array([pose.orientation.as_array() for pose in poses])
        p = np.array([pose.position for pose in poses])
        if not inputs.audit_ok(fam.base, fam.mu, fam.a, q, p, fam.lengths):
            return "invalid"
        w1 = float(fam.p @ fam.p)
        slack = inputs.INTERVAL_SLACK * (1.0 + w1)
        if not any(lo - slack <= w1 <= hi + slack for lo, hi in intervals):
            return "wrong"
        try:
            seeds = stewart66.recover_poses(geom, stewart66.w_at(system, w1), fam.lengths)
        except KinematicsError:
            return "wrong"
        q = np.array([s.pose.orientation.as_array() for s in seeds])
        p = np.array([s.pose.position for s in seeds])
        if inputs.pose_gap(q, p, fam.q, fam.p, 1.0).min() > inputs.POSE_TOL:
            return "wrong"
        return "ok"

    @staticmethod
    def fingerprint(result):
        if isinstance(result, BaseException):
            return repr(result)
        _, intervals, samples = result
        return (tuple(intervals), tuple(
            (s.parameter, s.feasible, tuple(fk_fingerprint(list(s.poses)))) for s in samples or ()))

    def report(self, lat, stages):
        # a pass is one run over the whole family set, starting at family 0
        k = len(self.families)
        passes = [stages[j:j + k] for j, st in enumerate(stages)
                  if st[0] == 0 and [s[0] for s in stages[j:j + k]] == list(range(k))]
        if not passes:
            return []
        interval = [sum(s[1] for s in ps) * 1e3 for ps in passes]
        swept = [sum(s[2] for s in ps) * 1e3 for ps in passes]
        return [("sweep_ms", float(np.median(swept)), "ms", len(passes)),
                ("feasible_interval_ms", float(np.median(interval)), "ms", len(passes))]


ELAPSED = re.compile(rb'"elapsed_seconds": [^,}]*')


class Cli(Workload):
    """`stewart66 check`, `fk` and `sweep --samples 1001` as processes.

    One operation is one process.  Every process must print what the same
    command prints in-process, byte for byte, and `sweep` must write the
    same CSV; the elapsed_seconds field of sweep's stdout is masked.
    """

    name = "cli"
    round_ops = 3
    warmup_ops = 3
    memory_in_children = True
    trace_ops = 3
    COMMANDS = ("check", "fk", "sweep")

    def __init__(self, seed, rundir):
        rundir = Path(rundir)
        self.design = inputs.cli_design(seed)
        files = {
            "generic.json": {"base": self.design.base.tolist(), "mu": self.design.mu},
            "legs.json": {"L": self.design.lengths.tolist()},
            "hex.json": {"circle_angles": inputs.HEX_ANGLES.tolist(), "mu": 0.5},
            "hexlegs.json": {"L": [inputs.ROOT_125] * 6},
        }
        for name, data in files.items():
            (rundir / name).write_text(json.dumps(data), encoding="utf-8")
        f = {name: str(rundir / name) for name in files}
        self.csv = rundir / "curve.csv"
        self.argv = {
            "check": ["check", "--geom", f["generic.json"]],
            "fk": ["fk", "--geom", f["generic.json"], "--legs", f["legs.json"]],
            "sweep": ["sweep", "--geom", f["hex.json"], "--legs", f["hexlegs.json"],
                      "--w1-min", "0", "--w1-max", "1",
                      "--samples", str(inputs.SWEEP_SAMPLES), "--out", str(self.csv)],
        }
        self.rundir = rundir
        self.reference = {}
        self.tracer = None  # set while a traced pass collects spans

    def items(self, chunk=0):
        return itertools.cycle(self.COMMANDS)

    def setup(self, item):
        from stewart66 import cli
        for path in (self.argv["fk"][2], self.argv["sweep"][2]):
            cli.load_geometry(path)

    @staticmethod
    def _process(argv):
        proc = subprocess.run(argv, capture_output=True, timeout=120, check=False)
        return proc.returncode, proc.stdout

    @contextlib.contextmanager
    def tracing(self):
        # each CLI process traces itself; run() gathers its spans here
        self.tracer = SimpleNamespace(op=0, spans=[])
        try:
            yield self.tracer
        finally:
            self.tracer = None

    def run(self, cmd, stages=None):
        spans = self.rundir / "spans.json"
        if self.tracer is None:
            prefix = [sys.executable, "-m", "stewart66"]
        else:
            prefix = [sys.executable, str(HERE / "worker.py"), "cli-trace", str(spans), "--"]
        t0 = perf_counter()
        rc, out = self._process(prefix + self.argv[cmd])
        if stages is not None:
            stages.append((cmd, perf_counter() - t0))
        if self.tracer is not None:
            offset = max((s[1] for s in self.tracer.spans), default=0)
            self.tracer.spans.extend(load_spans(spans, self.tracer.op, offset))
        return rc, ELAPSED.sub(b'"elapsed_seconds": null', out), self._csv(cmd)

    def _csv(self, cmd):
        return self.csv.read_bytes() if cmd == "sweep" and self.csv.exists() else b""

    def baselines(self, stages):
        """Process wall time of `import numpy` and `import stewart66` alone."""
        for name in ("numpy", "stewart66"):
            t0 = perf_counter()
            self._process([sys.executable, "-c", f"import {name}"])
            stages.append((f"import_{name}", perf_counter() - t0))

    def _in_process(self, cmd):
        from stewart66 import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(self.argv[cmd])
        out = ELAPSED.sub(b'"elapsed_seconds": null', buf.getvalue().encode())
        result = (rc, out, self._csv(cmd))
        return result, self._audit(cmd, result)

    def _audit(self, cmd, result):
        rc, out, table = result
        if rc != 0:
            return "failed"
        data = json.loads(out)
        d = self.design
        if cmd == "check":
            return "ok" if data["rank"] == 6 else "failed"
        if cmd == "fk":
            sols = data.get("solutions") or []
            if not sols:
                return "failed"
            q = np.array([s["q"] for s in sols])
            p = np.array([s["P"] for s in sols])
            if not inputs.audit_ok(d.base, d.mu, d.a, q, p, d.lengths):
                return "invalid"
            return "ok" if inputs.pose_gap(q, p, d.q, d.p, 1.0).min() <= inputs.POSE_TOL else "wrong"
        rows = [r for r in csv.DictReader(io.StringIO(table.decode())) if r["feasible"] == "1"]
        if not rows:
            return "failed"
        if len(rows) < data["feasible_count"]:
            return "invalid"
        q = np.array([[float(r[k]) for k in ("q0", "q1", "q2", "q3")] for r in rows])
        p = np.array([[float(r[k]) for k in ("x", "y", "z")] for r in rows])
        lengths = np.full(6, inputs.ROOT_125)
        ok = inputs.audit_ok(inputs.HEXAGON, 0.5, inputs.IDENTITY, q, p, lengths)
        return "ok" if ok else "invalid"

    def check(self, cmd, result):
        if cmd not in self.reference:
            self.reference[cmd] = self._in_process(cmd)
        expected, status = self.reference[cmd]
        return status if result == expected else "invalid"

    @staticmethod
    def fingerprint(result):
        return result

    def process_metrics(self, stages):
        def median_ms(name):
            return float(np.median([t * 1e3 for n, t in stages if n == name]))

        base = median_ms("import_stewart66")
        return {"cli.import_numpy_ms": median_ms("import_numpy"),
                "cli.import_stewart66_ms": base,
                "cli.compute_ms": sum(median_ms(c) - base for c in self.COMMANDS)}

    def report(self, lat, stages):
        rows = []
        for cmd in self.COMMANDS:
            ms = [t * 1e3 for name, t in stages if name == cmd]
            if ms:
                rows.append((f"cli_{cmd}_ms", float(np.median(ms)), "ms", len(ms)))
        return rows


WORKLOADS = {w.name: w for w in (FkStream, DesignScan, SelfMotion, Cli)}
