#!/usr/bin/env python3
"""Record the reference output digests of the trace workloads.

Usage (from the repository root):

    python3 bench/record_digests.py

For every trace workload it runs the set-up and one round of commands at
full size for seeds 0-49, and at tiny size for seed 0, and writes the SHA-256
of each command's output directory to ``bench/reference_digests.json``.
Run it only at a commit whose CLI output is known to be right: from then on
``run.py`` requires byte-identical output on every recorded seed.  The
``lemma`` workload is checked by the C8 predicate instead, because a faster
simulator may draw its random numbers in another order.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads as wl


def main() -> int:
    plan = [("full", seed) for seed in range(50)] + [("tiny", 0)]
    references = {}
    for workload in wl.WORKLOADS.values():
        if not workload.has_trace:
            continue
        for size, seed in plan:
            work = run.WORK_DIR / f"record-{workload.name}-{size}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            bench = run.Bench(workload, size, seed, work)
            bench.reference = None
            bench.set_up()
            bench.run_round(work / "round")
            if bench.ledger.failed:
                print(f"{workload.name}/{size}/{seed}: {bench.ledger.errors}", file=sys.stderr)
                return 1
            references[f"{workload.name}/{size}/{seed}"] = bench.expected
            shutil.rmtree(work)
            print(f"recorded {workload.name}/{size}/{seed}", flush=True)
    run.REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
