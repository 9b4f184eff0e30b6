#!/usr/bin/env python3
"""Fail when docs/METRICS.md and BENCH_serving.json disagree.

The metrics contract (docs/METRICS.md) lists key sets as backticked
names between `<!-- NAME:begin -->` / `<!-- NAME:end -->` markers.
Each marker block is compared with the keys of the matching object in
an actual smoke artifact, in both directions:

  * a key in the artifact but not the doc  -> the doc is stale;
  * a key in the doc but not the artifact  -> the doc over-promises.

Checked blocks:

  * `bench-keys`         -> the artifact's top-level keys;
  * `scenarios-keys`     -> the `scenarios` object;
  * `scenario-row-keys`  -> `scenarios.matrix[0]`, one matrix cell;
  * `stages-keys`        -> the `stages` object (the profiler export).

Usage: check_metrics_doc.py <docs/METRICS.md> <BENCH_serving.json>

Exit code 0 when every set matches exactly, 1 otherwise (and on a
missing marker block or artifact object, which would make the check
vacuous).
"""

import json
import re
import sys


def documented_keys(text, doc_path, name):
    begin, end = f"<!-- {name}:begin -->", f"<!-- {name}:end -->"
    lo = text.find(begin)
    hi = text.find(end)
    if lo < 0 or hi < 0 or hi <= lo:
        sys.exit(f"error: marker block {begin} .. {end} not found in "
                 f"{doc_path}")
    keys = re.findall(r"`([^`]+)`", text[lo + len(begin):hi])
    if not keys:
        sys.exit(f"error: no backticked keys inside the {name} marker "
                 f"block of {doc_path}")
    return set(keys)


def compare(doc_path, json_path, what, documented, actual):
    undocumented = sorted(actual - documented)
    missing = sorted(documented - actual)
    if undocumented:
        print(f"{doc_path} is stale: {json_path} has undocumented "
              f"{what} keys: {', '.join(undocumented)}")
    if missing:
        print(f"{doc_path} over-promises: documented {what} keys "
              f"absent from {json_path}: {', '.join(missing)}")
    if undocumented or missing:
        return 1
    print(f"ok: {len(documented)} {what} keys match between "
          f"{doc_path} and {json_path}")
    return 0


def main(argv):
    if len(argv) != 3:
        sys.exit(f"usage: {argv[0]} <METRICS.md> <BENCH_serving.json>")
    doc_path, json_path = argv[1], argv[2]
    text = open(doc_path, encoding="utf-8").read()
    with open(json_path, encoding="utf-8") as f:
        artifact = json.load(f)

    scenarios = artifact.get("scenarios")
    matrix = scenarios.get("matrix") if isinstance(scenarios, dict) else None
    stages = artifact.get("stages")
    checked = [
        ("top-level", "bench-keys", artifact),
        ("scenarios", "scenarios-keys", scenarios),
        ("scenario row", "scenario-row-keys",
         matrix[0] if matrix else None),
        ("stages", "stages-keys", stages),
    ]
    rc = 0
    for what, block, obj in checked:
        if not isinstance(obj, dict):
            print(f"{json_path} has no {what} object to check")
            rc = 1
            continue
        rc |= compare(doc_path, json_path, what,
                      documented_keys(text, doc_path, block),
                      set(obj.keys()))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
