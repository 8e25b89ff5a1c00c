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

from . import _apply_thread_cap, data, graphnets, training, viz
from .dynamics import DIRECTION_PRESETS
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
    g.add_argument("--preset", help="dataset group name, e.g. "
                   "LINE-SZ32-STP16-NDRP-STD0.2")
    g.add_argument("--seeds", type=int,
                   help="number of generation seeds (0..seeds-1)")
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=int, help="grid side (custom dataset)")
    g.add_argument("--t", type=int, help="max rollout steps (custom dataset)")
    g.add_argument("--sigma", type=float, help="sampling spread (custom)")
    g.add_argument("--preset-dir", dest="direction",
                   help="direction function: line|sine|location|history")

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


def _unknown(kind, name, valid) -> int:
    print(f"unknown {kind} {name!r}; valid {kind}s:", file=sys.stderr)
    for v in valid:
        print(f"  {v}", file=sys.stderr)
    return 2


def generate(out, preset=None, seeds=1, n=None, t=None, sigma=None,
             direction="line") -> int:
    if preset:
        try:
            data.preset_params(preset, seed=0)
        except ValueError:
            return _unknown("preset", preset, data.preset_names())
    elif direction.lower() not in DIRECTION_PRESETS:
        return _unknown("direction", direction, DIRECTION_PRESETS)
    elif n is None or t is None or sigma is None:
        print("custom datasets need --n, --t and --sigma", file=sys.stderr)
        return 2

    header = ("seed", "nodes", "edges", "pairs", "pairs_per_node", "traj_len")
    print("\t".join(header))
    for seed in range(seeds):
        if preset:
            params = data.preset_params(preset, seed=seed)
        else:
            params = data.GenParams(
                n_side=n, max_steps=t, sigma=sigma, p_node_drop=0.1,
                direction=direction.lower(), seed=seed,
            )
        try:
            dataset, trajectories = data.build_dataset(
                params, return_trajectories=True)
        except ValueError as err:
            print(err, file=sys.stderr)
            return 2
        stats = data.dataset_stats(dataset, trajectories)
        outdir = os.path.join(out, f"seed{seed}")
        data.save_dataset(outdir, dataset, params, stats)
        print("\t".join([
            str(seed), str(stats.n_nodes), str(stats.n_edges),
            str(stats.n_pairs), f"{stats.pairs_per_node:.2f}",
            f"{stats.traj_length:.2f}",
        ]))
    return 0


def _load_run(run_dir):
    """A trained run directory's selection manifest, model, GraphTensors
    and examples; None after printing why there is no manifest."""
    manifest_path = os.path.join(run_dir, "selection.json")
    if not os.path.exists(manifest_path):
        print("no selection manifest in run directory; snapshots are only "
              "selected when a run of at least one epoch finishes",
              file=sys.stderr)
        return None
    with open(manifest_path) as f:
        manifest = json.load(f)
    with open(os.path.join(run_dir, "config.json")) as f:
        cfg_doc = json.load(f)
    # A relative data path is relative to the run directory; older configs
    # hold an absolute one, which join leaves as it is.
    dataset = data.load_dataset(os.path.join(run_dir, cfg_doc["data"]))
    model_cfg = ModelConfig.from_name(
        cfg_doc["model"], dims=cfg_doc["dims"], attn_dims=cfg_doc["attn_dims"],
        steps=cfg_doc["steps"],
    )
    gt = graphnets.GraphTensors(dataset.graph)
    model = graphnets.Model(model_cfg, gt, seed=cfg_doc["seed"])
    examples = training.prepare_examples(dataset, gt)
    return manifest, model, gt, examples


def train(model, data_dir, run_dir, epochs=TrainConfig.epochs, batch=None,
          dims=ModelConfig.dims, attn_dims=ModelConfig.attn_dims, steps=None,
          seed=0, shuffle_seed=0) -> int:
    if not os.path.isdir(data_dir):
        print(f"dataset directory {data_dir!r} does not exist; run "
              "`gridflow generate` first", file=sys.stderr)
        return 2
    params = data.load_params(data_dir)
    batch = batch or (4 if params.n_side == 64 else TrainConfig.batch_size)
    steps = steps or params.max_steps
    # Everything that can refuse the run does so before the run directory
    # is made.
    try:
        model_cfg = ModelConfig.from_name(
            model, dims=dims, attn_dims=attn_dims, steps=steps)
        top_k = TrainConfig.snapshot_top_k
        train_cfg = TrainConfig(
            batch_size=batch, epochs=epochs, shuffle_seed=shuffle_seed,
            snapshot_top_k=min(top_k, epochs) if epochs else top_k)
        dataset = data.load_dataset(data_dir)
        training.check_dataset(dataset)
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


def _load_checkpoint(model, run_dir, epoch) -> int:
    """Load the epoch's snapshot into model: 0, or 2 after printing why the
    snapshot does not fit the model."""
    try:
        model.load(os.path.join(run_dir, f"epoch{epoch}.npz"))
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    return 0


def evaluate(run, split="test", out=None) -> int:
    loaded = _load_run(run)
    if loaded is None:
        return 2
    manifest, model, gt, examples = loaded
    src, dst = examples[split]

    reports = []
    for epoch in manifest["selected_epochs"]:
        rc = _load_checkpoint(model, run, epoch)
        if rc:
            return rc
        reports.append(training.evaluate(model, src, dst))
    summary = training.aggregate_runs(reports)
    summary["split"] = split
    text = json.dumps(summary, indent=1)
    print(text)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    return 0


def visualize(run, src, dst, out) -> int:
    loaded = _load_run(run)
    if loaded is None:
        return 2
    manifest, model, gt, examples = loaded
    rc = _load_checkpoint(model, run, manifest["selected_epochs"][0])
    if rc:
        return rc
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
