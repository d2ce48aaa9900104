"""Benchmark worker: one fresh interpreter per set-up probe or measured run.

    worker.py setup     WORKLOAD SEED RUNDIR   print {"setup_s": ...}
    worker.py run       WORKLOAD SEED RUNDIR SECONDS TRACE   print the result
    worker.py cli-trace SPANS -- ARGS...   run `stewart66 ARGS` under the tracer

run.py starts these with PYTHONPATH pointing at the checkout's src/ and
one BLAS/OpenMP thread.  Only the standard library is imported at the
top, so the set-up probe's timer starts before numpy is loaded.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from collections import Counter
from itertools import islice
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program():
    import stewart66
    if Path(stewart66.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"stewart66 was imported from {stewart66.__file__}, not from {SRC}")
    return stewart66


def cmd_setup(workload, seed, rundir):
    """Import, geometries and per-geometry preparation, input generation excluded."""
    t0 = perf_counter()
    import_program()
    t1 = perf_counter()
    import workloads
    wl = workloads.WORKLOADS[workload](seed, rundir)
    first = next(wl.items(workloads.WARMUP_CHUNK))
    t2 = perf_counter()
    wl.setup(first)
    t3 = perf_counter()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))


class Tally:
    """Operations by status (workloads.STATUSES), overall and per input kind."""

    def __init__(self):
        self.counts = Counter()

    def add(self, kind, status):
        self.counts["attempted"] += 1
        self.counts[f"{kind}:attempted"] += 1
        self.counts[status] += 1
        self.counts[f"{kind}:{status}"] += 1

    def failed(self):
        """Operations that broke a guarantee of the program.

        Refused, empty and wrong answers are the known accuracy defects;
        they are reported as failed_frac and wrong_frac, not here.
        """
        return self.counts["invalid"]

    def outcome_metrics(self):
        """Defect rates over a traced run's fixed item list; they repeat exactly."""
        n = self.counts["attempted"]
        return {"outcome.failed_frac": (self.counts["failed"] + self.counts["invalid"]) / n,
                "outcome.wrong_frac": self.counts["wrong"] / n}

    def rows(self):
        def fractions(prefix, label):
            n = self.counts[f"{prefix}attempted"]
            c = {s: self.counts[f"{prefix}{s}"] for s in ("failed", "wrong", "invalid")}
            # an invalid operation failed an output check, so failed_frac includes it
            return [(f"{label}failed_frac", (c["failed"] + c["invalid"]) / n, "fraction", n),
                    (f"{label}wrong_frac", c["wrong"] / n, "fraction", n),
                    (f"{label}invalid_frac", c["invalid"] / n, "fraction", n)]

        rows = fractions("", "")
        kinds = sorted({k.split(":")[0] for k in self.counts if ":" in k})
        if len(kinds) > 1:
            for kind in kinds:
                rows += fractions(f"{kind}:", f"{kind}.")
        return rows


def kind_of(item):
    return getattr(item, "kind", "all")


def run_one(wl, item, stages):
    try:
        return wl.run(item, stages)
    except Exception as exc:  # a failed operation is counted, not fatal
        return exc


def peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if wl.memory_in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def machine_record(seed):
    import numpy
    return {"machine": platform.machine(), "cpu": platform.processor(),
            "system": platform.platform(),
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "python": platform.python_version(), "numpy": numpy.__version__, "seed": seed}


def measure(wl, seconds, tally):
    """Closed loop, one caller: the next operation starts when the last returns.

    The loop stops at the first round boundary after the deadline, so that
    every family or command of a round is measured equally often.  The
    gated metrics use operation times at reference speed (see speed.py);
    the report lines give the raw ones too.
    """
    import numpy as np
    from speed import Speedometer, scaled
    lat, ref_lat, stages = [], [], []
    speed = Speedometer()
    deadline = perf_counter() + seconds
    for item in wl.items():
        before = speed.sample()
        t0 = perf_counter()
        result = run_one(wl, item, stages)
        lat.append(perf_counter() - t0)
        ref_lat.append(scaled(lat[-1], before, speed.sample()))
        tally.add(kind_of(item), wl.check(item, result))
        if perf_counter() >= deadline and len(lat) % wl.round_ops == 0:
            break
    ms = np.asarray(ref_lat) * 1e3
    # a round holds one item of each slice, family or command, so its mean
    # weighs them alike; a median over single operations of unlike kinds
    # would fall between two kinds' costs and jump from run to run
    rounds = ms.reshape(-1, wl.round_ops).mean(axis=1)
    metrics = {
        "ops_per_s": (len(ms) / ms.sum() * 1e3, "1/s"),
        "op_p50_ms": (float(np.median(rounds)), "ms"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
    }
    rows = [("ops_per_s (reference speed)", *metrics["ops_per_s"], len(ms)),
            ("op_p50_ms (reference speed)", *metrics["op_p50_ms"], len(rounds))]
    rows.append(("reference_kernel_ms", float(np.median(speed.samples)) * 1e3, "ms",
                 len(speed.samples)))
    return metrics, rows + wl.report(lat, stages) + tally.rows() + [
        ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", 1)]


def one_pass(wl, items, tally, stages, tracer=None):
    """Run a fixed item list; returns (seconds inside operations, fingerprints)."""
    busy, prints = 0.0, []
    for j, item in enumerate(items):
        if tracer is not None:
            tracer.op = j
        t0 = perf_counter()
        result = run_one(wl, item, stages)
        busy += perf_counter() - t0
        tally.add(kind_of(item), wl.check(item, result))
        prints.append(wl.fingerprint(result))
    return busy, prints


def unit_of(name):
    if name.endswith("_us_per_op"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    return "fraction" if name.endswith(("_ratio", "_frac")) else "count"


def trace_run(wl, seconds, tally):
    """Untraced and traced passes over one fixed item list, alternating.

    Counts must repeat exactly across traced passes and outputs must match
    between traced and untraced passes; either failure makes the run
    incorrect.
    """
    from tracer import LAYERS, layer_metrics, self_time_ns, span_counts
    items = list(islice(wl.items(), wl.trace_ops))
    plain_t, traced_t, stages = [], [], []
    counts, self_ns, sound = None, Counter({layer: 0 for layer in LAYERS}), True
    deadline = perf_counter() + seconds
    while not traced_t or perf_counter() < deadline:
        wl.baselines(stages)
        busy, plain = one_pass(wl, items, tally, stages)
        plain_t.append(busy)
        with wl.tracing() as tracer:
            busy, traced = one_pass(wl, items, tally, None, tracer)
        traced_t.append(busy)
        sound &= traced == plain
        pass_counts = span_counts(tracer.spans)
        sound &= counts is None or pass_counts == counts
        counts = counts or pass_counts
        self_ns.update(self_time_ns(tracer.spans))
    passes = len(traced_t)
    metrics = layer_metrics(counts, {k: v / passes for k, v in self_ns.items()}, len(items))
    metrics.update(wl.process_metrics(stages))
    metrics.update(tally.outcome_metrics())
    metrics["trace.overhead_frac"] = sum(traced_t) / sum(plain_t) - 1.0
    out = {name: (value, unit_of(name)) for name, value in metrics.items()}
    return out, [(name, v, u, passes) for name, (v, u) in out.items()], sound


def cmd_run(workload, seed, rundir, seconds, trace):
    import_program()
    import workloads
    wl = workloads.WORKLOADS[workload](seed, rundir)
    warm = list(islice(wl.items(workloads.WARMUP_CHUNK), wl.warmup_ops + 1))
    wl.setup(warm[0])
    for item in warm[1:]:
        wl.check(item, run_one(wl, item, None))
    tally = Tally()
    sound = True
    if trace:
        metrics, rows, sound = trace_run(wl, seconds, tally)
    else:
        metrics, rows = measure(wl, seconds, tally)
    print(json.dumps({
        "correct": sound and tally.failed() == 0,
        "attempted": tally.counts["attempted"],
        "failed": tally.failed(),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "report": rows,
        "record": machine_record(seed),
    }))


def cmd_cli_trace(spans_path, argv):
    import_program()
    from stewart66 import cli
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    sys.exit(code)


def main(argv):
    cmd = argv[0]
    if cmd == "setup":
        workload, seed, rundir = argv[1:4]
        cmd_setup(workload, int(seed), rundir)
    elif cmd == "run":
        workload, seed, rundir, seconds, trace = argv[1:6]
        cmd_run(workload, int(seed), rundir, float(seconds), trace == "1")
    elif cmd == "cli-trace":
        if argv[2] != "--":
            raise SystemExit("usage: worker.py cli-trace SPANS -- ARGS...")
        cmd_cli_trace(argv[1], argv[3:])
    else:
        raise SystemExit(f"unknown worker command {cmd!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
