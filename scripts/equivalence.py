#!/usr/bin/env python3
"""Check that two gridflow source trees compute the same numbers.

    python3 scripts/equivalence.py dump SRC_DIR OUT.npz
    python3 scripts/equivalence.py compare A.npz B.npz

dump imports the gridflow package under SRC_DIR (a checkout's src/),
writing no bytecode, and saves the loss, the predictions and every
parameter gradient of all 14 variants at float32 and float64. The inputs
are fixed: LINE-SZ32-STP16-NDRP-STD0.2 at seed 0, its first 4 train pairs,
16 propagation steps, model seed 0, and every bias drawn non-zero, so that
terms that read a bias, such as MulMlp's tanh(act.b), are not zero.
It also saves the nodes, edges, pairs and splits of DATA_PRESETS at seed
0, one SZ32 preset per direction and drop kind, so that the data layer is
compared too.

compare prints the number of arrays, how many of them are not
bit-identical, and the largest relative difference,
max |a - b| / max(1, max |b|) per array. It exits 1 if the two dumps hold
different arrays or shapes.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

PRESET = "LINE-SZ32-STP16-NDRP-STD0.2"
DATA_PRESETS = tuple(f"{d}-SZ32-STP16-{drp}-STD0.2"
                     for d in ("LINE", "SINE", "LOCATION", "HISTORY")
                     for drp in ("NDRP", "EDRP"))
PAIRS = 4
STEPS = 16


def dump(src_dir: Path, out: Path) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src_dir.resolve()))
    from gridflow import data, graphnets, training

    ds = data.build_dataset(data.preset_params(PRESET, seed=0))
    gt = graphnets.GraphTensors(ds.graph)
    src, dst = (a[:PAIRS] for a in training.prepare_examples(ds, gt)["train"])
    arrays = {}
    for dtype in ("float32", "float64"):
        for name in graphnets.MODEL_NAMES:
            cfg = graphnets.ModelConfig.from_name(name, steps=STEPS,
                                                  dtype=dtype)
            model = graphnets.Model(cfg, gt, seed=0)
            rng = np.random.default_rng(1)
            for key, p in sorted(model.params.items()):
                if key.endswith(".b"):
                    p.data[...] = rng.standard_normal(p.data.shape)
            prefix = f"{dtype}/{name}/"
            arrays[prefix + "predict"] = model.predict(src)
            loss = model.loss(src, dst)
            loss.backward()
            arrays[prefix + "loss"] = loss.data
            for key, p in model.params.items():
                arrays[prefix + "grad/" + key] = p.grad
            print(f"{dtype} {name}: loss {float(loss.data):.8g}", flush=True)
    for preset in DATA_PRESETS:
        ds = data.build_dataset(data.preset_params(preset, seed=0))
        prefix = f"data/{preset}/"
        arrays[prefix + "nodes"] = ds.graph.nodes
        arrays[prefix + "edges"] = ds.graph.edges
        arrays[prefix + "pairs"] = ds.pairs
        arrays[prefix + "splits"] = ds.splits
        print(f"{preset}: {len(ds.graph.nodes)} nodes, {len(ds.pairs)} pairs",
              flush=True)
    np.savez(out, **arrays)
    print(f"{len(arrays)} arrays written to {out}")
    return 0


def compare(a_path: Path, b_path: Path) -> int:
    with np.load(a_path) as fa, np.load(b_path) as fb:
        a, b = dict(fa), dict(fb)
    if a.keys() != b.keys():
        print(f"the dumps hold different arrays: only in {a_path}: "
              f"{sorted(a.keys() - b.keys())}; only in {b_path}: "
              f"{sorted(b.keys() - a.keys())}")
        return 1
    differ, worst, worst_key = 0, 0.0, None
    for key in sorted(a):
        x, y = a[key], b[key]
        if x.shape != y.shape:
            print(f"{key}: shape {x.shape} against {y.shape}")
            return 1
        if np.array_equal(x, y):
            continue
        differ += 1
        y64 = y.astype(np.float64)
        rel = (np.abs(x.astype(np.float64) - y64).max()
               / max(1.0, np.abs(y64).max()))
        if not rel <= worst:
            worst, worst_key = rel, key
    print(f"arrays: {len(a)}")
    print(f"not bit-identical: {differ}")
    print(f"largest relative difference: {worst:.3g}"
          + (f" ({worst_key})" if worst_key else ""))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="dump one source tree's outputs")
    d.add_argument("src_dir", type=Path, help="directory holding gridflow/")
    d.add_argument("out", type=Path, help="output .npz")
    c = sub.add_parser("compare", help="compare two dumps")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    if args.command == "dump":
        if not (args.src_dir / "gridflow" / "__init__.py").is_file():
            print(f"error: no gridflow package in {args.src_dir}",
                  file=sys.stderr)
            return 2
        return dump(args.src_dir, args.out)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
