#!/usr/bin/env python3
"""Smoke-sized self-test of the benchmark; takes about a minute.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics run.py emits, that a
smoke run of every workload, untraced and traced, prints a well-formed
last line with those names and units and no failed operation, and that a
directory holding only BENCHMARK.json and perfbench/ makes run.py exit
non-zero without a result. Exits non-zero on the first mismatch.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run


def check(cond, message):
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def last_json(cmd, cwd):
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    return out.returncode, (json.loads(lines[-1]) if lines and
                            lines[-1].startswith("{") else None), out.stderr


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    run.bootstrap()
    spec = {"end_to_end": dict(run.END_TO_END),
            "per_layer": dict(run.per_layer_spec())}
    for key, want in spec.items():
        got = {m["name"]: m["unit"] for m in bench[key]}
        check(got == want, f"BENCHMARK.json {key} differs from run.py: "
              f"{sorted(set(got.items()) ^ set(want.items()))}")
    names = [w["name"] for w in bench["workloads"]]
    check(names == list(run.WORKLOAD_NAMES), f"workloads {names}")

    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, "perfbench/run.py", "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--smoke"]
            code, result, err = last_json(cmd, run.ROOT)
            where = f"{name} --trace {trace}"
            check(code == 0 and result is not None, f"{where}: exit {code}\n{err}")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{where}: {err}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == spec[key], f"{where}: metric names or units differ")
            check(all(isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"])
                      for v in result["metrics"].values()),
                  f"{where}: non-numeric metric value")
            print(f"ok  {where}", flush=True)

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, result, _ = last_json(bench["command"] + [
        "--workload", names[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        bare)
    shutil.rmtree(bare)
    check(code != 0 and result is None, "run without src/ must fail with no result")
    print("ok  no src/: exit", code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
