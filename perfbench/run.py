#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Builds the serving stack and the harness
from source (into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), runs the arithmetic self-tests, then one
measured run of the workload. Every metric is printed by name with its
unit; the last line of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). The full result -- run metadata, checks,
every metric with its sample count -- and the traced run's spans are
written under <build>/results/. Exits non-zero, without a result line,
when the program cannot be built or run, and with `"correct": false`
when any output check fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    try:
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(build_dir):
    if not os.path.isfile(os.path.join(REPO, "src", "recsys", "engine.h")):
        fail("no program sources next to the benchmark; nothing to build")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=log,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {step[:2]} failed: {e}")
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (log: {log_path})")


def source_id():
    """The git commit when the checkout is a repository, else a hash of
    the sources."""
    if os.path.isdir(os.path.join(REPO, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(REPO))
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                                 env=env, capture_output=True, text=True,
                                 timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def tracing_overhead(history_path, result):
    """Traced minus untraced medians, from earlier untraced runs of the
    same workload and sources."""
    meta = result["meta"]
    untraced = []
    if os.path.isfile(history_path):
        with open(history_path) as f:
            for line in f:
                past = json.loads(line)
                if (past["workload"] == meta["workload"]
                        and past["source_id"] == meta["source_id"]
                        and not past["trace"]):
                    untraced.append(past["metrics"])
    overhead = {"untraced_runs": len(untraced)}
    for name in ("read_p50_ms", "read_capacity_rps"):
        values = [m[name] for m in untraced if name in m]
        traced = result["end_to_end"].get(name, {}).get("value")
        if values and traced is not None:
            base = statistics.median(values)
            overhead[name] = {"traced": traced, "untraced_median": base,
                              "difference": traced - base,
                              "relative": (traced - base) / base}
    return overhead


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_benchmark()
    # Workloads outside BENCHMARK.json stay runnable; their result line
    # holds whichever of its metrics they measure.
    listed = args.workload in [w["name"] for w in bench["workloads"]]
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    build(build_dir)
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              timeout=60)
    if selftest.returncode != 0:
        fail("arithmetic self-tests failed")

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_path = os.path.join(results, stem + ".json")
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_path, "--source-id", source_id()]
    if args.trace:
        command += ["--spans", os.path.join(results, stem + "-spans.csv")]
    if os.path.exists(out_path):
        os.remove(out_path)
    try:
        run = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.flush()
    if run.returncode not in (0, 1) or not os.path.isfile(out_path):
        fail(f"run failed with exit code {run.returncode}")
    with open(out_path) as f:
        result = json.load(f)

    history_path = os.path.join(results, "history.jsonl")
    if args.trace:
        result["tracing_overhead"] = tracing_overhead(history_path, result)
        print("tracing overhead:", json.dumps(result["tracing_overhead"]))
        with open(out_path, "w") as f:
            json.dump(result, f)
    with open(history_path, "a") as f:
        f.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trace": bool(args.trace),
            "source_id": result["meta"]["source_id"],
            "metrics": {k: v["value"]
                        for k, v in result["end_to_end"].items()},
        }) + "\n")

    print("meta:", json.dumps(result["meta"]))
    measured = result["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in measured:
            if listed:
                fail(f"metric {name} was not measured on {args.workload}")
            continue
        metrics[name] = {"value": measured[name]["value"],
                         "unit": measured[name]["unit"]}
    correct = bool(result["correct"]) and run.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
