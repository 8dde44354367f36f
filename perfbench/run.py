#!/usr/bin/env python3
"""Runs one workload of the LakeFind discovery benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload lookup_hot --seed 1 --seconds 10 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench on first use, runs the workload in its own process,
and prints:

  * a RUN_RECORD line: git sha, source digest, nproc, CPU model, build type,
    seed, every metric with its sample count, answer digests and the first
    failed checks;
  * in a traced run (--trace 1), a LAYER_SHARES line: each layer's share of
    request time;
  * as the last line, one JSON object with the keys correct, attempted,
    failed and metrics: the end_to_end metrics of BENCHMARK.json with
    --trace 0, its per_layer metrics with --trace 1.

Exits non-zero without a result line when the build, the run or a
percentile guard fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TYPE = "Release"
WORKLOADS = ("lookup_hot", "discover_mixed", "cluster_ingest")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark once per checkout (locked)."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       check=True, stdout=sys.stderr)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def contract_metrics(result, trace):
    """The BENCHMARK.json metrics this run must report, with their values.

    A traced run reads a per_layer metric its workload does not report as 0:
    the workload bypasses that layer. Every untraced run reports every
    end_to_end metric. A reported metric BENCHMARK.json does not name, or one
    with another unit, is a benchmark bug."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = result["layers"] if trace else result["e2e"]
    unknown = set(source) - {m["name"] for m in wanted}
    if unknown:
        raise SystemExit("perfbench: workload %s reports metrics not in "
                         "BENCHMARK.json: %s"
                         % (result["workload"], ", ".join(sorted(unknown))))
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None and trace:
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            raise SystemExit("perfbench: metric %s missing from workload %s "
                             "or not in %s" % (m["name"], result["workload"],
                                               m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s"
            % (args.workload, RUN_TIMEOUT_S))
        return 1
    if proc.returncode != 0:
        log("perfbench: %s exited with code %d"
            % (args.workload, proc.returncode))
        return 1
    lines = [l for l in proc.stdout.splitlines()
             if l.startswith("PERFBENCH_RESULT ")]
    if not lines:
        log("perfbench: no result from %s" % args.workload)
        return 1
    result = json.loads(lines[-1][len("PERFBENCH_RESULT "):])
    metrics = contract_metrics(result, args.trace == 1)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": BUILD_TYPE,
        "metrics": result["layers"] if args.trace else
        dict(result["e2e"], **result["extra"]),
        "record": result["record"],
        "failures": result["failures"],
    }
    print("RUN_RECORD " + json.dumps(record, sort_keys=True))
    if args.trace:
        shares = " ".join("%s=%.1f%%" % (k, 100 * v)
                          for k, v in sorted(result["layer_shares"].items()))
        print("LAYER_SHARES workload=%s seed=%d %s"
              % (args.workload, args.seed, shares))
    for failure in result["failures"]:
        log("perfbench: check failed: " + failure)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
