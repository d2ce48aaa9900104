#!/usr/bin/env python3
"""Hash the benchmark workloads' outputs, to show a change keeps every bit.

Runs the fk_stream, design_scan and selfmotion workloads of perfbench/ on
their own seeded inputs, through each workload's own setup, run, check
and fingerprint, and prints one sha256 per workload over the pickled
(fingerprint, check status) pair of every operation, all seeds in turn.
Two trees whose outputs agree bit for bit print the same hashes.

    PYTHONPATH=src python scripts/fingerprints.py
    PYTHONPATH=<other checkout>/src python scripts/fingerprints.py

stewart66 is imported from PYTHONPATH (or wherever it is installed), and
the first line printed is the file it came from, so one copy of this
script hashes any tree.  perfbench/ is read from this checkout.
design_scan takes --items operations per seed and fk_stream half as many:
its items share one geometry and vary only the leg lengths.  selfmotion
takes its whole family set.  numpy releases may differ in the last bits,
so compare hashes made with one numpy.
"""

import argparse
import hashlib
import pickle
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import stewart66  # noqa: E402
import workloads  # noqa: E402  (perfbench/, on the path above)


def outputs(workload, seed, count):
    """(fingerprint, check status) of the first count operations of one seed."""
    wl = workloads.WORKLOADS[workload](seed, None)
    # count None: one round, which for selfmotion is each family once
    items = list(islice(wl.items(0), count or wl.round_ops))
    wl.setup(items[0])
    for item in items:
        try:
            result = wl.run(item)
        except Exception as exc:  # counted by its repr, as the benchmark counts it
            result = exc
        yield wl.fingerprint(result), wl.check(item, result)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[4243, 1, 17])
    parser.add_argument("--items", type=int, default=3000)
    args = parser.parse_args(argv)
    if args.items < 2:
        parser.error(f"need at least 2 items, got {args.items}")
    print(stewart66.__file__)
    counts = {"fk_stream": args.items // 2, "design_scan": args.items, "selfmotion": None}
    for workload, count in counts.items():
        digest, statuses = hashlib.sha256(), Counter()
        for seed in args.seeds:
            for pair in outputs(workload, seed, count):
                # protocol 4 pickles alike on every Python this project supports
                digest.update(pickle.dumps(pair, protocol=4))
                statuses[pair[1]] += 1
        tally = " ".join(f"{s}={statuses[s]}" for s in workloads.STATUSES)
        print(f"{workload} {digest.hexdigest()} {tally}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
