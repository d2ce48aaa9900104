#!/usr/bin/env python3
"""Time the forward kernel of two trees at both ends of its batch size.

Loads the stewart66 package under each of two src directories into one
process, prints the file each was loaded from and whether a __pycache__
sits beside it, then runs the two trees alternately for --rounds rounds
(the first tree first in odd rounds), each case a best of 3 per round:

- fk_solve on 300 fk_stream items of seed 1, in us a call (a batch of one);
- solution_arrays on the four seed-1 selfmotion families at 1001 rows,
  over each family's first feasible interval below the workload's hint;
- SolutionArrays.solutions() on those four batches, in one call each,
  the result objects a sweep builds;
- solution_arrays on the hexagon family's --grid-rows grids over
  w1 in [0, 1], where every row fits a rotation, and [0, 5], where one
  row in five does.

For each case it prints the median over the rounds for each tree, the
second tree's change against the first, and in how many rounds the
second tree was faster.

    python scripts/kernel_timing.py <parent checkout>/src src

Running both trees in one process, alternately, keeps a drift of the
host's speed from reading as a difference between them; timings of two
processes run one after the other do not.  perfbench/inputs.py is read
from this checkout.
"""

import argparse
import importlib.util
import statistics
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import inputs  # noqa: E402  (perfbench/, on the path above)

SEED = 1
ITEMS = 300
REPEATS = 3


def load(src, name):
    """The stewart66 package under src, imported as the module name."""
    package = Path(src).resolve() / "stewart66"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cases(pkg, grid_rows):
    """(label, scale, unit, call) for every timed case, built with pkg's own types."""
    solution_arrays = pkg.fk_nonsingular.solution_arrays
    device = pkg.PlatformGeometry(base=inputs.PERTURBED_HEXAGON, mu=0.5)
    items = [item.lengths for item in islice(inputs.fk_stream_chunk(SEED, 0), ITEMS)]
    out = [("fk_solve", 1e6 / ITEMS, "us a call",
            lambda: [pkg.fk_solve(device, lengths) for lengths in items])]
    families = inputs.selfmotion_families(SEED)
    batches = []
    for i, fam in enumerate(families):
        geom = pkg.PlatformGeometry(base=fam.base, mu=fam.mu)
        system = pkg.build_singular_system(geom, fam.lengths)
        lo, hi = pkg.feasible_interval(system, geom, inputs.SELFMOTION_HINT)[0]
        w = pkg.w_at(system, np.linspace(lo, hi, inputs.SWEEP_SAMPLES))
        out.append((f"solution_arrays {i} {fam.kind}", 1e3, "ms",
                    lambda geom=geom, w=w, lengths=system.lengths:
                        solution_arrays(geom, w, lengths)))
        batches.append(solution_arrays(geom, w, system.lengths))
    out.append(("solutions() four families", 1e3, "ms",
                lambda: [batch.solutions() for batch in batches]))
    hexagon = families[0]
    geom = pkg.PlatformGeometry(base=hexagon.base, mu=hexagon.mu)
    system = pkg.build_singular_system(geom, hexagon.lengths)
    for hi in (1.0, 5.0):
        w = pkg.w_at(system, np.linspace(0.0, hi, grid_rows))
        out.append((f"solution_arrays [0, {hi:g}]", 1e3, "ms",
                    lambda w=w: solution_arrays(geom, w, system.lengths)))
    return out


def best(call):
    """The shortest of REPEATS timings of call(), in seconds."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return min(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("first", help="src directory of the first tree (the parent)")
    parser.add_argument("second", help="src directory of the second tree (the change)")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--grid-rows", type=int, default=100_001)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"need at least 1 round, got {args.rounds}")
    if args.grid_rows < 2:
        parser.error(f"need at least 2 grid rows, got {args.grid_rows}")
    trees = []
    for i, src in enumerate((args.first, args.second)):
        if not (Path(src) / "stewart66" / "__init__.py").is_file():
            parser.error(f"no stewart66 package under {src}")
        pkg = load(src, f"stewart66_tree{i}")
        cached = (Path(pkg.__file__).parent / "__pycache__").exists()
        print(f"tree {i}: {pkg.__file__} (__pycache__ beside it: {'yes' if cached else 'no'})")
        trees.append(cases(pkg, args.grid_rows))

    for j, (label, scale, unit, _) in enumerate(trees[0]):
        times = ([], [])
        for r in range(args.rounds):
            for i in ((0, 1) if r % 2 == 0 else (1, 0)):
                times[i].append(best(trees[i][j][3]))
        first, second = (scale * statistics.median(t) for t in times)
        faster = sum(b < a for a, b in zip(*times))
        print(f"{label:<26} {first:10.3f} -> {second:10.3f} {unit:<9} "
              f"{100 * (second - first) / first:+6.1f}%  faster in {faster} of {args.rounds}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
