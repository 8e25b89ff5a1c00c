#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks runs against.

    python3 perfbench/record_reference.py --workload train-rw --seeds 0-15

For each seed, runs the workload's first units (REFERENCE_UNITS) exactly
as a run does and stores every op's outputs: per-microbatch losses for a
train step; ranks, and the MetricsReport of the evaluate() call a batch
ends, for an eval batch. Run it only on a commit whose outputs are known
good; it rewrites the given seeds of perfbench/reference/<workload>.json.
"""
from __future__ import annotations

import argparse
import json
import sys

import run

# Units a run of --seconds 36 makes on a 2-core x86-64 machine; units
# beyond these are checked against themselves only.
REFERENCE_UNITS = {"train-mulmlp": 2, "eval-gat": 3, "train-rw": 1}


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=run.WORKLOAD_NAMES, required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="one seed or an inclusive range such as 0-15")
    args = ap.parse_args(argv)
    if not run.bootstrap():
        print(f"error: no gridflow sources at {run.SRC}", file=sys.stderr)
        return 2
    malloc = run.set_malloc_thresholds()
    from checks import Checker
    from tracing import Tracer
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    path = run.REFERENCE / f"{args.workload}.json"
    doc = {"seeds": {}}
    if path.is_file():
        with open(path) as f:
            doc = json.load(f)
    for seed in args.seeds:
        checker = Checker()
        run.measure(w, w.setup(seed), seed, float("inf"), Tracer(), checker,
                    None, REFERENCE_UNITS[args.workload])
        if checker.failed:
            print(f"seed {seed}: outputs fail their own checks, not recorded: "
                  f"{checker.errors[:3]}", file=sys.stderr)
            return 1
        for op in (op for unit in checker.units for op in unit):
            if "losses" in op:  # float32 values; keep their 8 digits
                op["losses"] = [float(f"{v:.8g}") for v in op["losses"]]
        doc["seeds"][str(seed)] = checker.units
        print(f"seed {seed}: {sum(map(len, checker.units))} ops", flush=True)
    doc["env"] = run.environment(malloc)
    doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    run.REFERENCE.mkdir(exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
