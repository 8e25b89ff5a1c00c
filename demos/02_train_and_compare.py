"""Train a few model variants on one small dataset and compare rankings.

Uses a reduced grid and step count so the whole script runs in a couple of
minutes on one core. The point is the relative picture: the explicit-flow
variants against the regular readout and the random-walk baselines.
"""
import time

from gridflow.data import GenParams, build_dataset
from gridflow.graphnets import GraphTensors, Model, ModelConfig
from gridflow.training import (
    TrainConfig,
    evaluate_snapshots,
    prepare_examples,
    select_snapshots,
    train,
)

params = GenParams(
    n_side=10, max_steps=8, sigma=0.2, p_node_drop=0.1,
    n_rollout=10, direction="line", seed=0,
)
dataset = build_dataset(params)
gt = GraphTensors(dataset.graph)
examples = prepare_examples(dataset, gt)
print(f"{gt.n} nodes, {gt.n_edges} edges, "
      f"{len(examples['train'][0])} train pairs")

train_cfg = TrainConfig(batch_size=16, epochs=10, snapshot_top_k=3)

variants = ["rw-stationary", "ggnn", "ggnn-mul", "ggnn-mulmlp"]
print(f"\n{'model':<14} {'hits@1':>7} {'hits@5':>7} {'mrr':>7} {'time':>6}")
for name in variants:
    cfg = ModelConfig.from_name(name, dims=20, attn_dims=4,
                                steps=params.max_steps)
    model = Model(cfg, gt, seed=0)
    start = time.time()
    snapshots = train(model, train_cfg, examples)
    selected = select_snapshots(snapshots, train_cfg.snapshot_top_k)
    reports = evaluate_snapshots(model, [s.state for s in selected],
                                 *examples["test"])
    hits1 = sum(r.hits1 for r in reports) / len(reports)
    hits5 = sum(r.hits5 for r in reports) / len(reports)
    mrr = sum(r.mrr for r in reports) / len(reports)
    print(f"{name:<14} {hits1:7.3f} {hits5:7.3f} {mrr:7.3f} "
          f"{time.time() - start:5.0f}s")

print("\ntest metrics are averaged over the top-3 validation snapshots")
