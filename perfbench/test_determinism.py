#!/usr/bin/env python3
"""Determinism self-test of the discovery benchmark.

Usage, from the repository root:

    python3 perfbench/test_determinism.py

For each workload, runs the benchmark for 10 seconds twice with seed 11 and
once with seed 12. The two seed-11 runs must agree exactly on every field of
the run record: answer digests, ok_ratio, exact_ratio, recall@10 (overall
and per approximate method), the cache hit/miss counts and the replayed WAL
records, the numbers that must not depend on timing. Seed 12 must change
the lake digest. Exits non-zero and names each mismatch otherwise.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("lookup_hot", "discover_mixed", "cluster_ingest")
SEED = 11
SECONDS = 10


def run(workload, seed):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("%s seed %d: run failed" % (workload, seed))
    for line in proc.stdout.splitlines():
        if line.startswith("RUN_RECORD "):
            record = json.loads(line[len("RUN_RECORD "):])
            return record["record"]
    raise SystemExit("%s seed %d: no RUN_RECORD line" % (workload, seed))


def main():
    failures = []
    for workload in WORKLOADS:
        first = run(workload, SEED)
        second = run(workload, SEED)
        other = run(workload, SEED + 1)
        for field in sorted(set(first) | set(second)):
            if first.get(field) != second.get(field):
                failures.append("%s: %s differs across runs of seed %d: %s vs %s"
                                % (workload, field, SEED, first.get(field),
                                   second.get(field)))
        if first["lake_digest"] == other["lake_digest"]:
            failures.append("%s: seeds %d and %d generated the same lake"
                            % (workload, SEED, SEED + 1))
        print("%s: %s" % (workload, json.dumps(first, sort_keys=True)))
    for f in failures:
        print("FAIL " + f)
    print("determinism: %s" % ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
