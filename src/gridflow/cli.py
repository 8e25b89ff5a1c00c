"""Command line interface: generate, train, eval, visualize, reproduce.

GRIDFLOW_THREADS caps the BLAS threads; the package applies it on import,
before numpy is loaded (see gridflow/__init__.py).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import data, graphnets, training, viz
from .graphnets import ModelConfig
from .training import TrainConfig


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gridflow",
        description="Grid-world destination prediction with attention flow.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help):
        # An option left out is left out of the call too, so the command
        # function's own default applies.
        return sub.add_parser(name, help=help,
                              argument_default=argparse.SUPPRESS)

    g = command("generate", "generate trajectory datasets")
    g.add_argument("--preset", required=True, help="dataset group name "
                   f"{data.PRESET_GRAMMAR}, e.g. LINE-SZ32-STP16-NDRP-STD0.2")
    g.add_argument("--seeds", type=int,
                   help="number of generation seeds (0..seeds-1)")
    g.add_argument("--out", required=True)

    t = command("train", "train one model on one dataset")
    t.add_argument("--model", required=True)
    t.add_argument("--data", dest="data_dir", required=True,
                   help="dataset directory")
    t.add_argument("--out", dest="run_dir", required=True, help="run directory")
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch", type=int,
                   help=f"default {TrainConfig.batch_size}, or 4 when the "
                   "grid side is 64")
    t.add_argument("--dims", type=int)
    t.add_argument("--attn-dims", type=int)
    t.add_argument("--steps", type=int,
                   help="propagation steps; defaults to the dataset's T")
    t.add_argument("--seed", type=int, help="parameter init seed")
    t.add_argument("--shuffle-seed", type=int)

    e = command("eval", "evaluate selected checkpoints")
    e.add_argument("--run", required=True, help="run directory from train")
    e.add_argument("--split", choices=["train", "valid", "test"])
    e.add_argument("--out", help="optional metrics JSON path")

    v = command("visualize", "attention-flow heatmap and traces")
    v.add_argument("--run", required=True)
    v.add_argument("--src", type=int, required=True, help="source node id")
    v.add_argument("--dst", type=int, required=True, help="destination node id")
    v.add_argument("--out", required=True, help="output directory")

    r = command("reproduce", "generate, train, and eval one table cell")
    r.add_argument("--preset", required=True)
    r.add_argument("--model", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--seeds", type=int)
    r.add_argument("--epochs", type=int)
    return p


def generate(out, preset, seeds=1) -> int:
    if seeds < 1:
        print("seeds must be >= 1", file=sys.stderr)
        return 2
    try:
        data.preset_params(preset, seed=0)
    except ValueError as err:
        print(f"{err}; the paper's tables use:", file=sys.stderr)
        for name in data.preset_names():
            print(f"  {name}", file=sys.stderr)
        return 2

    header = ("seed", "nodes", "edges", "pairs", "pairs_per_node", "traj_len")
    print("\t".join(header))
    for seed in range(seeds):
        params = data.preset_params(preset, seed=seed)
        dataset, paths = data.build_dataset(params, return_trajectories=True)
        stats = data.dataset_stats(dataset, paths)
        outdir = os.path.join(out, f"seed{seed}")
        data.save_dataset(outdir, dataset, params, stats)
        print("\t".join([
            str(seed), str(stats.n_nodes), str(stats.n_edges),
            str(stats.n_pairs), f"{stats.pairs_per_node:.2f}",
            f"{stats.traj_length:.2f}",
        ]))
    return 0


def _load_run(run_dir):
    """A trained run directory's selected parameter states, read from its
    epoch*.npz files, its model, GraphTensors and examples; None after
    printing why there is no manifest, or which file is missing or
    unreadable."""
    manifest_path = os.path.join(run_dir, "selection.json")
    if not os.path.exists(manifest_path):
        print("no selection manifest in run directory; snapshots are only "
              "selected when a run of at least one epoch finishes",
              file=sys.stderr)
        return None
    try:
        manifest = data.read_json(manifest_path)
        cfg_doc = data.read_json(os.path.join(run_dir, "config.json"))
        # A relative data path is relative to the run directory; older
        # configs hold an absolute one, which join leaves as it is.
        dataset = data.load_dataset(os.path.join(run_dir, cfg_doc["data"]))
        states = []
        for epoch in manifest["selected_epochs"]:
            with np.load(os.path.join(run_dir, f"epoch{epoch}.npz")) as f:
                states.append(dict(f))
    except FileNotFoundError as err:
        print(f"the run's file {err.filename} does not exist",
              file=sys.stderr)
        return None
    except ValueError as err:
        print(err, file=sys.stderr)
        return None
    model_cfg = ModelConfig.from_name(
        cfg_doc["model"], dims=cfg_doc["dims"], attn_dims=cfg_doc["attn_dims"],
        steps=cfg_doc["steps"],
    )
    gt = graphnets.GraphTensors(dataset.graph)
    model = graphnets.Model(model_cfg, gt, seed=cfg_doc["seed"])
    examples = training.prepare_examples(dataset, gt)
    return states, model, gt, examples


def train(model, data_dir, run_dir, epochs=TrainConfig.epochs, batch=None,
          dims=ModelConfig.dims, attn_dims=ModelConfig.attn_dims, steps=None,
          seed=0, shuffle_seed=0) -> int:
    # Everything that can refuse the run does so before the run directory
    # is made.
    try:
        params = data.load_params(data_dir)
        dataset = data.load_dataset(data_dir)
        if batch is None:
            batch = 4 if params.n_side == 64 else TrainConfig.batch_size
        if steps is None:
            steps = params.max_steps
        model_cfg = ModelConfig.from_name(
            model, dims=dims, attn_dims=attn_dims, steps=steps)
        train_cfg = TrainConfig(batch_size=batch, epochs=epochs,
                                shuffle_seed=shuffle_seed)
        training.check_dataset(dataset)
    except FileNotFoundError as err:
        print(f"dataset file {err.filename} does not exist; run `gridflow "
              "generate` first and pass one of its seed directories",
              file=sys.stderr)
        return 2
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2

    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "config.json"), "w") as f:
        json.dump({
            "model": model_cfg.name, "data": os.path.relpath(data_dir, run_dir),
            "dims": dims, "attn_dims": attn_dims, "steps": steps,
            "batch": batch, "epochs": epochs, "seed": seed,
            "shuffle_seed": shuffle_seed,
        }, f, indent=1)

    log_path = os.path.join(run_dir, "run.log")
    with open(log_path, "w") as log_file:
        log_file.write("\t".join(training.LOG_COLUMNS) + "\n")
        if model_cfg.name == "rw-stationary":
            log_file.write("# constant_transition\ttrue\n")
        log_file.flush()  # the first epoch can take minutes

        def log(line):
            log_file.write(line + "\n")
            log_file.flush()
            print(line)

        _, _, selected, tests = training.run_experiment(
            model_cfg, train_cfg, dataset, model_seed=seed, log=log)

    if not selected:
        print("no snapshots (0 epochs)")
        return 0
    for snap in selected:
        np.savez(os.path.join(run_dir, f"epoch{snap.epoch}.npz"),
                 **snap.state)
    summary = training.aggregate_runs(tests)
    with open(os.path.join(run_dir, "selection.json"), "w") as f:
        json.dump({
            "model": model_cfg.name,
            "selected_epochs": [s.epoch for s in selected],
            "valid": [s.valid.to_json_dict() for s in selected],
            "test": summary,
        }, f, indent=1)
    print(json.dumps(summary["hits1"] | {"metric": "test_hits1"}))
    return 0


def evaluate(run, split="test", out=None) -> int:
    loaded = _load_run(run)
    if loaded is None:
        return 2
    states, model, gt, examples = loaded
    try:
        reports = training.evaluate_snapshots(model, states, *examples[split])
    except ValueError as err:  # a checkpoint that does not fit the model
        print(err, file=sys.stderr)
        return 2
    summary = training.aggregate_runs(reports)
    summary["split"] = split
    text = json.dumps(summary, indent=1)
    print(text)
    if out:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w") as f:
            f.write(text + "\n")
    return 0


def visualize(run, src, dst, out) -> int:
    loaded = _load_run(run)
    if loaded is None:
        return 2
    states, model, gt, examples = loaded
    try:
        model.load_state_dict(states[0])
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    try:
        src_idx, dst_idx = gt.to_indices([src, dst])
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    os.makedirs(out, exist_ok=True)
    if not model.cfg.explicit_flow:
        print("attention flow is unavailable for a regular variant; "
              "writing the implicit-readout heatmap instead")
        by_id, svg = viz.readout_heatmap(model, gt, src_idx, dst_idx)
        with open(os.path.join(out, "readout_heatmap.svg"), "w") as f:
            f.write(svg)
        return 0
    focused, flowing, by_id, svg = viz.flow_heatmap(model, gt, src_idx,
                                                    dst_idx)
    viz.write_node_trace(os.path.join(out, "trace_nodes.tsv"), gt, focused)
    viz.write_edge_trace(os.path.join(out, "trace_edges.tsv"), gt, flowing)
    with open(os.path.join(out, "heatmap.svg"), "w") as f:
        f.write(svg)
    print(f"wrote heatmap and traces to {out}")
    return 0


def reproduce(preset, model, out, seeds=1, epochs=TrainConfig.epochs) -> int:
    data_dir = os.path.join(out, "data")
    rc = generate(data_dir, preset=preset, seeds=seeds)
    if rc:
        return rc
    for seed in range(seeds):
        run_dir = os.path.join(out, f"run-seed{seed}")
        rc = (train(model, os.path.join(data_dir, f"seed{seed}"), run_dir,
                    epochs=epochs, seed=seed, shuffle_seed=seed)
              or evaluate(run_dir, out=os.path.join(run_dir, "test.json")))
        if rc:
            return rc
    return 0


COMMANDS = {"generate": generate, "train": train, "eval": evaluate,
            "visualize": visualize, "reproduce": reproduce}


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    return COMMANDS[args.pop("command")](**args)


if __name__ == "__main__":
    sys.exit(main())
