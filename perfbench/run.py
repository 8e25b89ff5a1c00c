#!/usr/bin/env python3
"""gridflow benchmark: one workload per fresh process, closed loop, one
thread, BLAS pinned to one thread.

    python3 perfbench/run.py --workload train-mulmlp --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --seconds 36          # all three, one process each

Set-up (dataset build, GraphTensors, prepare_examples, Model init) runs
SETUP_REPS times and setup_s is the median. Then the workload's unit of
work repeats until the next unit would end after --seconds (at least one
unit). Every train step and eval batch is checked (checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs one unit without
and then one with the layer wrappers and prints the per-layer metrics,
the tracing overhead and the share of main-operation time no span covers.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A fuller record (environment, README-named metrics with sample
counts, errors) and, when traced, the spans go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GRIDFLOW_THREADS")
WORKLOAD_NAMES = ("train-mulmlp", "eval-gat", "train-rw")
SETUP_REPS = 3
# glibc raises its mmap threshold each time a larger mmapped block is
# freed, up to 32 MiB, so a fresh process allocates through mmap and page
# faults until its first epoch or so has run; on a 2-core x86-64 machine
# that made the first train-rw unit of a process 30-45% slower than the
# next. Training runs for hours in the adapted state, so the benchmark
# starts there: threshold at the ceiling, trim threshold at twice it, as
# glibc would set them.
MMAP_THRESHOLD = 32 << 20

# name, unit; see README.md for what each means per workload. The eval
# metrics of the train workloads are printed but not gated: their few
# short eval batches spread 15-25% between runs.
END_TO_END = (("ex_per_s", "1/s"), ("op_s.p50", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def per_layer_spec() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    from tracing import AUTODIFF_OPS
    spec = []
    for op in AUTODIFF_OPS:
        spec += [(f"autodiff.{op}.calls", "count"), (f"autodiff.{op}.fwd_s", "s"),
                 (f"autodiff.{op}.bwd_s", "s"), (f"autodiff.{op}.out_mb", "MB")]
    spec += [("autodiff.backward.s", "s"), ("autodiff.backward.bookkeeping_s", "s")]
    for fn in ("transition_logits", "transition_matrix", "flow_step",
               "attend_message", "flow_loss"):
        spec += [(f"attnflow.{fn}.calls", "count"), (f"attnflow.{fn}.s", "s")]
    spec += [(f"graphnets.{fn}.s", "s") for fn in
             ("gru", "init_node_states", "implicit_readout", "Model.forward",
              "Model.predict", "GraphTensors")]
    spec += [("optim.Adam.step.calls", "count"), ("optim.Adam.step.s", "s"),
             ("metrics.ranks_of.s", "s"), ("metrics.metrics.s", "s")]
    spec += [(f"training.{fn}.self_s", "s")
             for fn in ("train", "evaluate", "select_snapshots")]
    spec += [("data.build_dataset.s", "s"), ("dynamics.rollout.calls", "count"),
             ("dynamics.rollout.s", "s")]
    spec += [(f"grid.{fn}.s", "s")
             for fn in ("build_grid", "corrupt", "add_selfloops")]
    spec += [("trace.overhead.frac", "frac"), ("trace.unattributed.frac", "frac")]
    return spec


def bootstrap() -> bool:
    """Pin BLAS to one thread and put this checkout's src/ first on the
    path, before numpy is imported. False if there is no src/ to test."""
    sys.dont_write_bytecode = True
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "gridflow" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def set_malloc_thresholds() -> str:
    """Start glibc malloc in the state a long run adapts it to."""
    try:
        libc = ctypes.CDLL(None)
        ok = libc.mallopt(-3, MMAP_THRESHOLD) and libc.mallopt(-1, 2 * MMAP_THRESHOLD)
    except (OSError, AttributeError):  # not glibc: leave the allocator alone
        ok = False
    return f"mmap_threshold={MMAP_THRESHOLD}" if ok else "default"


def environment(malloc: str) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": _git_sha(), "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "malloc": malloc, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def _git_sha():
    """HEAD of the repository rooted exactly here, else None (a plain
    checkout has none; src_sha256 identifies the code either way)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def load_reference(workload: str, seed: int):
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path) as f:
        return json.load(f)["seeds"].get(str(seed))


def measure(w, s, seed, seconds, tracer, checker, ref, max_units=None):
    """Repeat the workload's unit under the probes; returns unit times."""
    from tracing import installed, probe_patches
    unit, ref_index = w.units(s, seed)
    times = []
    with installed(probe_patches(tracer, checker)):
        start = time.perf_counter()
        while max_units is None or len(times) < max_units:
            k = len(times)
            checker.begin_unit()
            t0 = time.perf_counter()
            try:
                unit(k)
            except Exception:  # the run reports a failed operation, not a crash
                checker.abort(traceback.format_exc())
                break
            times.append(time.perf_counter() - t0)
            i = ref_index(k)
            checker.end_unit(ref[i] if ref is not None and i < len(ref) else None)
            if time.perf_counter() - start + times[-1] > seconds:
                break
    return times


def _p(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def named_metrics(w, tracer, checker, setup_times) -> dict:
    """(value, unit, sample count) by the names README.md defines; the
    end-to-end metrics are drawn from these."""
    from tracing import EVAL_BATCH, STEP
    steps, batches = tracer.durations(STEP), tracer.durations(EVAL_BATCH)
    evals = tracer.durations("training.evaluate")
    out = {}
    if steps:
        out["train_ex_per_s"] = (checker.train_examples / sum(steps), "1/s", len(steps))
        out["train_step_s.p50"] = (statistics.median(steps), "s", len(steps))
        if len(steps) >= 100:
            out["train_step_s.p90"] = (_p(steps, 90), "s", len(steps))
    if batches:
        out["eval_ex_per_s"] = (checker.eval_examples / sum(evals), "1/s", len(evals))
        out["eval_batch_s.p50"] = (statistics.median(batches), "s", len(batches))
    if setup_times:
        out["setup_s"] = (statistics.median(setup_times), "s", len(setup_times))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                          "MB", 1)
    out["fail_frac"] = (checker.failed / max(1, checker.attempted), "frac",
                        checker.attempted)
    return out


def end_to_end(w, named) -> dict:
    main = "train" if w.main_op == "step" else "eval"
    main_op = "train_step_s.p50" if w.main_op == "step" else "eval_batch_s.p50"
    source = {"ex_per_s": f"{main}_ex_per_s", "op_s.p50": main_op,
              "setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb"}
    return {name: {"value": named[source[name]][0], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(w, tracer, t_plain, t_traced) -> dict:
    from tracing import STEP
    rows = tracer.summary()
    empty = {"calls": 0, "total": 0.0, "self": 0.0}

    def row(name):
        return rows.get(name, empty)

    values = {"trace.overhead.frac": t_traced / t_plain - 1.0}
    main = rows.get(STEP if w.main_op == "step" else "training.evaluate", empty)
    values["trace.unattributed.frac"] = main["self"] / main["total"] if main["total"] else 0.0
    values["autodiff.backward.bookkeeping_s"] = row("autodiff.backward")["self"]
    for name, unit in per_layer_spec():
        if name in values:
            continue
        span, _, quantity = name.rpartition(".")
        if quantity == "calls":
            values[name] = row(span)["calls"]
        elif quantity == "fwd_s":
            values[name] = row(span)["self"]
        elif quantity == "bwd_s":
            values[name] = row(span + ".bwd")["self"]
        elif quantity == "out_mb":
            values[name] = tracer.out_bytes.get(span, 0) / 1e6
        elif quantity == "self_s":
            values[name] = row(span)["self"]
        else:  # "s": inclusive time of the calls
            values[name] = row(span)["total"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_spec()}


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    from checks import Checker
    from tracing import EVAL_BATCH, STEP, Tracer, installed, layer_patches
    from workloads import WORKLOADS, smoke as shrink

    malloc = set_malloc_thresholds()
    w = shrink(WORKLOADS[name]) if smoke else WORKLOADS[name]
    ref = None if smoke else load_reference(name, seed)
    checker = Checker()
    setup_times, layer_metrics = [], {}
    if not trace:
        for _ in range(1 if smoke else SETUP_REPS):
            t0 = time.perf_counter()
            s = w.setup(seed)
            setup_times.append(time.perf_counter() - t0)
        tracer = Tracer()
        units = measure(w, s, seed, seconds, tracer, checker, ref)
    else:
        # The same first unit twice, on identical fresh set-ups: without
        # and then with the layer wrappers.
        plain = measure(w, w.setup(seed), seed, 0, Tracer(), checker, ref, 1)
        tracer = Tracer()
        with installed(layer_patches(tracer)):
            units = measure(w, w.setup(seed), seed, 0, tracer, checker, ref, 1)
        if plain and units:
            layer_metrics = per_layer(w, tracer, plain[0], units[0])

    named = named_metrics(w, tracer, checker, setup_times)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  units {len(units)}"
          f"  reference {'yes' if ref else 'none'}")
    env = environment(malloc)
    print("env " + json.dumps(env, sort_keys=True))
    for key, (value, unit, n) in named.items():
        print(f"  {key:<18} {value:>14.6g} {unit:<5} n={n}")
    for err in checker.errors[:20]:
        print("check failed: " + err.strip().splitlines()[-1], file=sys.stderr)

    main_key = "train_step_s.p50" if w.main_op == "step" else "eval_batch_s.p50"
    if not units or main_key not in named:
        print("error: no operation completed, no result to report", file=sys.stderr)
        return 1
    metrics = layer_metrics if trace else end_to_end(w, named)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    with open(f"{stem}.json", "w") as f:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "smoke": smoke, "env": env, "unit_s": units,
                   "setup_s": setup_times, "step_s": tracer.durations(STEP),
                   "eval_batch_s": tracer.durations(EVAL_BATCH),
                   "named": {k: {"value": v, "unit": u, "n": n}
                             for k, (v, u, n) in named.items()},
                   "metrics": metrics, "errors": checker.errors}, f, indent=1)
    if trace:
        tracer.write(f"{stem}.spans.json")
    print(json.dumps({"correct": checker.attempted > 0 and checker.failed == 0,
                      "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long sizes for the self-test; no reference")
    args = ap.parse_args(argv)
    if not bootstrap():
        print(f"error: no gridflow sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run(args.workload, args.seed, args.seconds, bool(args.trace),
                   args.smoke)
    code = 0
    for name in WORKLOAD_NAMES:  # each in a fresh process
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
