#!/usr/bin/env python3
"""Validate BENCH_*.json bench artifacts against the rbft-bench schema.

Usage: bench_schema_check.py FILE [FILE...]

Accepts schema rbft-bench-v1 (written by bench/bench_util.hpp):

  {
    "schema": "rbft-bench-v1",
    "bench":  "<snake_case bench name>",
    "title":  "<human title>",
    "jobs":   <positive int>,
    "points": [
      {
        "name":     "<google-benchmark entry name>",
        "counters": {"<name>": <number>, ...},
        "runs": [
          {"label": str, "seed": int >= 0,
           "sim_time_s": number >= 0, "wall_time_s": number >= 0}, ...
        ],
        "rows": [{"label": str, "values": {"<name>": <number>, ...}}, ...]
      }, ...
    ]
  }

Every field is deterministic for a given build except wall_time_s.
Exit status: 0 all files valid, 1 any violation, 2 usage/IO error.
Stdlib only — runs on any python3, nothing to install.
"""

import json
import sys


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_value_map(errors, where, values):
    if not isinstance(values, dict):
        errors.append(f"{where}: expected an object, got {type(values).__name__}")
        return
    for name, value in values.items():
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: non-string or empty key {name!r}")
        if not is_number(value):
            errors.append(f"{where}[{name!r}]: expected a number, got {value!r}")


def check_run(errors, where, run):
    if not isinstance(run, dict):
        errors.append(f"{where}: expected an object")
        return
    if not isinstance(run.get("label"), str) or not run["label"]:
        errors.append(f"{where}.label: expected a non-empty string")
    seed = run.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.append(f"{where}.seed: expected a non-negative integer, got {seed!r}")
    for key in ("sim_time_s", "wall_time_s"):
        value = run.get(key)
        if not is_number(value) or value < 0:
            errors.append(f"{where}.{key}: expected a non-negative number, got {value!r}")
    extra = set(run) - {"label", "seed", "sim_time_s", "wall_time_s"}
    if extra:
        errors.append(f"{where}: unexpected keys {sorted(extra)}")


def check_point(errors, where, point):
    if not isinstance(point, dict):
        errors.append(f"{where}: expected an object")
        return
    if not isinstance(point.get("name"), str) or not point["name"]:
        errors.append(f"{where}.name: expected a non-empty string")
    check_value_map(errors, f"{where}.counters", point.get("counters"))
    runs = point.get("runs")
    if not isinstance(runs, list) or not runs:
        errors.append(f"{where}.runs: expected a non-empty array")
    else:
        for i, run in enumerate(runs):
            check_run(errors, f"{where}.runs[{i}]", run)
    rows = point.get("rows")
    if not isinstance(rows, list):
        errors.append(f"{where}.rows: expected an array")
    else:
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or not isinstance(row.get("label"), str):
                errors.append(f"{where}.rows[{i}]: expected an object with a string label")
                continue
            check_value_map(errors, f"{where}.rows[{i}].values", row.get("values"))
    extra = set(point) - {"name", "counters", "runs", "rows"}
    if extra:
        errors.append(f"{where}: unexpected keys {sorted(extra)}")


def validate(path):
    with open(path, "rb") as f:
        doc = json.load(f)
    errors = []
    if not isinstance(doc, dict):
        return [f"top level: expected an object, got {type(doc).__name__}"]
    schema = doc.get("schema")
    if schema != "rbft-bench-v1":
        errors.append(f"schema: expected 'rbft-bench-v1', got {schema!r}")
    for key in ("bench", "title"):
        if not isinstance(doc.get(key), str) or not doc[key]:
            errors.append(f"{key}: expected a non-empty string")
    jobs = doc.get("jobs")
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        errors.append(f"jobs: expected a positive integer, got {jobs!r}")
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        errors.append("points: expected a non-empty array")
    else:
        for i, point in enumerate(points):
            check_point(errors, f"points[{i}]", point)
    extra = set(doc) - {"schema", "bench", "title", "jobs", "points"}
    if extra:
        errors.append(f"top level: unexpected keys {sorted(extra)}")
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        try:
            errors = validate(path)
        except (OSError, json.JSONDecodeError) as e:
            print(f"{path}: {e}", file=sys.stderr)
            return 2
        if errors:
            failed = True
            for e in errors:
                print(f"{path}: {e}", file=sys.stderr)
        else:
            with open(path, "rb") as f:
                npoints = len(json.load(f)["points"])
            print(f"{path}: ok ({npoints} point(s))")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
