#!/usr/bin/env python3
"""Check that two gridflow source trees compute the same numbers.

    python3 scripts/equivalence.py dump SRC_DIR OUT.npz
    python3 scripts/equivalence.py compare A.npz B.npz

dump imports the gridflow package under SRC_DIR (a checkout's src/),
writing no bytecode, and saves the loss, the predictions and every
parameter gradient of all 14 variants at float32 and float64. The inputs
are fixed: LINE-SZ32-STP16-NDRP-STD0.2 at seed 0, its first 4 train pairs,
16 propagation steps, model seed 0, and every bias drawn non-zero, so that
terms that read a bias, such as MulMlp's tanh(act.b), are not zero. Each
variant also predicts a repeated, unsorted list of source nodes
(REPEATED_SOURCES), which Model.predict runs once per distinct source.
It also saves the nodes, edges, pairs, splits and the six dataset_stats
fields of every table preset (data.preset_names(), 16 SZ32 and 8 SZ64) at
seed 0: what `gridflow generate` writes to graph.json, pairs.tsv and
stats.json, so that the data layer is compared too. Last, it runs a small
`gridflow generate`, `train`, `eval --split valid` and `visualize` round
trip on LINE-SZ6-STP3-NDRP-STD0.3 for ggnn-mulmlp and rw-stationary (3
epochs, --dims 10 --attn-dims 4) and saves every file they write: the run
directory's config.json, run.log and selection.json as lines of text, the
selected epoch*.npz arrays, the eval JSON and the visualize traces and
heatmap. So refactors of training and the CLI are compared as well. A
dump takes about 12-15 s on a 2-core x86-64 host, of which the round trip
is about 1 s. numpy is loaded only after gridflow, so that
GRIDFLOW_THREADS, which gridflow applies when it is imported, reaches
BLAS.

compare prints the number of arrays, how many of them are not
bit-identical, and the largest relative difference,
max |a - b| / max(1, max |b|) per array, which is inf for text that
differs; then the same three numbers for each top-level group of array
names (data/, cli/, float32/ and float64/), one line each. It exits 0 when every array is bit-identical, and 1 when any
array differs or the two dumps hold different arrays or shapes.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

PRESET = "LINE-SZ32-STP16-NDRP-STD0.2"
PAIRS = 4
STEPS = 16
REPEATED_SOURCES = [5, 0, 5, 2, 9, 0, 3, 5]
CLI_PRESET = "LINE-SZ6-STP3-NDRP-STD0.3"
CLI_MODELS = ("ggnn-mulmlp", "rw-stationary")


def file_arrays(directory: Path, prefix: str) -> dict:
    """Every file in directory: an .npz file's arrays, any other file's
    lines of text."""
    import numpy as np

    arrays = {}
    for path in sorted(directory.iterdir()):
        if path.suffix == ".npz":
            with np.load(path) as f:
                arrays.update({f"{prefix}{path.name}/{k}": f[k]
                               for k in f.files})
        else:
            arrays[prefix + path.name] = np.array(
                path.read_text().splitlines())
    return arrays


def cli_round_trip(cli, data) -> dict:
    """The files that generate, train, eval and visualize write for each
    of CLI_MODELS on CLI_PRESET."""
    def gridflow(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([str(a) for a in argv])
        if rc:
            raise RuntimeError(f"gridflow {' '.join(map(str, argv))} "
                               f"exited {rc}")

    arrays = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        gridflow("generate", "--preset", CLI_PRESET, "--out", tmp / "data")
        data_dir = tmp / "data" / "seed0"
        nodes = data.load_dataset(data_dir).graph.nodes
        for name in CLI_MODELS:
            run_dir, out = tmp / name / "run", tmp / name / "out"
            out.mkdir(parents=True)
            gridflow("train", "--model", name, "--data", data_dir,
                     "--out", run_dir, "--epochs", 3, "--dims", 10,
                     "--attn-dims", 4)
            gridflow("eval", "--run", run_dir, "--split", "valid",
                     "--out", out / "eval-valid.json")
            gridflow("visualize", "--run", run_dir, "--src", nodes[0],
                     "--dst", nodes[-1], "--out", out)
            arrays.update(file_arrays(run_dir, f"cli/{name}/run/"))
            arrays.update(file_arrays(out, f"cli/{name}/out/"))
            print(f"cli {name}: train, eval and visualize done", flush=True)
    return arrays


def dump(src_dir: Path, out: Path) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src_dir.resolve()))
    from gridflow import cli, data, graphnets, training
    import numpy as np  # after gridflow, which caps BLAS's threads

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
            arrays[prefix + "predict_repeated"] = model.predict(
                REPEATED_SOURCES)
            loss = model.loss(src, dst)
            loss.backward()
            arrays[prefix + "loss"] = loss.data
            for key, p in model.params.items():
                arrays[prefix + "grad/" + key] = p.grad
            print(f"{dtype} {name}: loss {float(loss.data):.8g}", flush=True)
    for preset in data.preset_names():
        ds, trajectories = data.build_dataset(
            data.preset_params(preset, seed=0), return_trajectories=True)
        prefix = f"data/{preset}/"
        arrays[prefix + "nodes"] = ds.graph.nodes
        arrays[prefix + "edges"] = ds.graph.edges
        arrays[prefix + "pairs"] = ds.pairs
        arrays[prefix + "splits"] = ds.splits
        stats = data.dataset_stats(ds, trajectories).to_json_dict()
        for field, value in stats.items():
            arrays[prefix + "stats/" + field] = np.array(value)
        print(f"{preset}: {len(ds.graph.nodes)} nodes, {len(ds.pairs)} pairs",
              flush=True)
    arrays.update(cli_round_trip(cli, data))
    np.savez(out, **arrays)
    print(f"{len(arrays)} arrays written to {out}")
    return 0


def compare(a_path: Path, b_path: Path) -> int:
    import numpy as np

    with np.load(a_path) as fa, np.load(b_path) as fb:
        a, b = dict(fa), dict(fb)
    if a.keys() != b.keys():
        print(f"the dumps hold different arrays: only in {a_path}: "
              f"{sorted(a.keys() - b.keys())}; only in {b_path}: "
              f"{sorted(b.keys() - a.keys())}")
        return 1
    groups = {}  # top-level group: [arrays, not bit-identical, worst]
    differ, worst, worst_key = 0, 0.0, None
    for key in sorted(a):
        x, y = a[key], b[key]
        if x.shape != y.shape:
            print(f"{key}: shape {x.shape} against {y.shape}")
            return 1
        group = groups.setdefault(key.partition("/")[0], [0, 0, 0.0])
        group[0] += 1
        if np.array_equal(x, y):
            continue
        differ += 1
        group[1] += 1
        if x.dtype.kind == "U":
            rel = np.inf
        else:
            y64 = y.astype(np.float64)
            rel = (np.abs(x.astype(np.float64) - y64).max()
                   / max(1.0, np.abs(y64).max()))
        group[2] = max(group[2], rel)
        if not rel <= worst:
            worst, worst_key = rel, key
    print(f"arrays: {len(a)}")
    print(f"not bit-identical: {differ}")
    print(f"largest relative difference: {worst:.3g}"
          + (f" ({worst_key})" if worst_key else ""))
    for name, (count, changed, rel) in sorted(groups.items()):
        print(f"{name}/: {count} arrays, {changed} not bit-identical, "
              f"largest relative difference {rel:.3g}")
    return 1 if differ else 0


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
