#!/usr/bin/env python3
"""stewart66 benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload fk_stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the root of a checkout; the package is imported from its src/.
Load model: one caller, one thread, closed loop (the next call is issued
when the previous one returns).  Every workload runs in fresh
interpreters with one BLAS/OpenMP thread.

--trace 0 measures end to end, untraced: set-up time (median of several
fresh-interpreter probes), throughput and median latency of one
operation at reference speed (speed.py), and peak memory.  --trace 1 is a separate run that alternates untraced and
traced passes over a fixed item list and reports per-layer metrics from
spans recorded around the library's public functions.

The lines before the last name every metric of the workload with its
unit and sample count; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  `failed` counts operations on
which the program broke a guarantee it gives (an unaudited pose, a crash,
CLI output that changes); `correct` is false when any did, or when traced
and untraced outputs or per-layer counts disagree.  The known accuracy
defects (refused, empty or wrong answers) are not failures of this kind:
the report lines give their rates as failed_frac and wrong_frac, and
--trace 1 gives them as outcome.failed_frac and outcome.wrong_frac.
README.md gives the rules.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fk_stream", "design_scan", "selfmotion", "cli")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args, env) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} {args[1]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, args, env, rundir) -> dict:
    if args.trace == 0:
        # the first probe fills the byte-code and file caches and is not counted
        probes = [worker(["setup", name, args.seed, rundir], env)["setup_s"]
                  for _ in range(SETUP_PROBES + 1)][1:]
    result = worker(["run", name, args.seed, rundir, args.seconds, args.trace], env)
    if args.trace == 0:
        setup_s = statistics.median(probes)
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        result["report"].insert(0, ("setup_s", setup_s, "s", SETUP_PROBES))
    print(f"# {name}: {json.dumps(result.pop('record'))}")
    for metric, value, unit, n in result.pop("report"):
        print(f"{name:12s} {metric:40s} {value:16.6g} {unit:8s} n={n}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "stewart66" / "__init__.py").is_file():
        print(f"error: no stewart66 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = ROOT / ".bench_run"
    runs.mkdir(exist_ok=True)
    rundir = tempfile.mkdtemp(dir=runs)
    try:
        results = {name: run_workload(name, args, worker_env(), rundir) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        if not any(runs.iterdir()):
            runs.rmdir()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
