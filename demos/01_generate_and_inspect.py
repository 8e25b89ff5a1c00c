"""Generate a small corrupted grid-world dataset and look at what is in it.

Walks through the data pipeline: build the full grid, corrupt it, roll out
trajectories under a latent direction preset, and keep the deduplicated
(source, destination) pairs. Writes the corrupted grid as an SVG so the
gaps are visible.
"""
import os

import numpy as np

from gridflow.data import GenParams, build_dataset, dataset_stats
from gridflow.dynamics import edge_distribution
from gridflow.viz import render_svg

out_dir = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out_dir, exist_ok=True)

params = GenParams(
    n_side=16,
    max_steps=12,
    sigma=0.2,
    p_node_drop=0.1,
    p_edge_drop=0.0,
    n_rollout=10,
    direction="line",
    seed=0,  # drives the corruption, the rollouts and the split
)

# paths holds every rollout, one row of node ids each, padded with -1.
dataset, paths = build_dataset(params, return_trajectories=True)
stats = dataset_stats(dataset, paths)

print(f"grid {params.n_side}x{params.n_side}, node drop "
      f"{params.p_node_drop}")
print(f"  surviving nodes: {stats.n_nodes}")
print(f"  directional edges: {stats.n_edges}")
print(f"  distinct (src, dst) pairs: {stats.n_pairs} "
      f"({stats.pairs_per_node:.2f} per node)")
print(f"  mean trajectory length: {stats.traj_length:.2f} nodes")

# The latent direction biases which of the 8 neighbors a walker picks.
p = edge_distribution([1.0, 0.4], params.sigma)
names = ["E", "NE", "N", "NW", "W", "SW", "S", "SE"]
print("\nedge type probabilities for direction (1, 0.4), sigma 0.2:")
for name, prob in zip(names, p):
    bar = "#" * int(round(60 * prob))
    print(f"  {name:>2} {prob:6.3f} {bar}")

# A few raw trajectories, as node id chains. One shorter than
# max_steps + 1 nodes stopped where it chose a missing edge.
print("\nsample trajectories (node ids, row-major y*N+x):")
for row in paths[:5]:
    nodes = row[row >= 0]
    tag = "blocked" if len(nodes) < params.max_steps + 1 else "max_steps"
    chain = " -> ".join(str(v) for v in nodes)
    print(f"  [{tag:>9}] {chain}")

example_src, example_dst = (int(v) for v in dataset.pairs[0])
svg = render_svg(dataset.graph, {}, example_src, example_dst)
svg_path = os.path.join(out_dir, "corrupted_grid.svg")
with open(svg_path, "w") as f:
    f.write(svg)
print(f"\nwrote {svg_path} (corrupted nodes appear as gaps)")
