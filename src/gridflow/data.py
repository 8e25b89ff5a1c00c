"""Dataset construction: corrupted graph + deduplicated source-destination
pairs with an 8:1:1 split on source nodes, plus the named generation presets.

On-disk layout (one directory per dataset):
    graph.json   selfloop-augmented graph
    pairs.tsv    src \t dst \t split  with split in {train, valid, test}
    params.json  generation parameters: GenParams' fields, which regenerate
                 graph.json and pairs.tsv
    stats.json   dataset statistics
"""
from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from .dynamics import DIRECTION_PRESETS, rollout
from .grid import CorruptionParams, GridGraph, SELFLOOP, add_selfloops, build_grid, corrupt

TRAIN, VALID, TEST = 0, 1, 2
SPLIT_NAMES = ("train", "valid", "test")


@dataclass
class GenParams:
    """Everything that determines a dataset. seed drives the corruption,
    the rollouts and the split alike."""

    n_side: int = 32
    max_steps: int = 16
    sigma: float = 0.2
    p_node_drop: float = 0.0
    p_edge_drop: float = 0.0
    n_rollout: int = 10
    direction: str = "line"  # a name in DIRECTION_PRESETS
    seed: int = 0

    def __post_init__(self):
        if self.direction not in DIRECTION_PRESETS:
            raise ValueError(f"unknown direction preset {self.direction!r}; "
                             f"expected one of {DIRECTION_PRESETS}")


def preset_params(name: str, seed: int = 0) -> GenParams:
    """Resolve a dataset-group name like LINE-SZ32-STP16-NDRP-STD0.2."""
    try:
        dname, sz, stp, drp, std = name.upper().split("-")
        p_node_drop, p_edge_drop = {"NDRP": (0.1, 0.0), "EDRP": (0.0, 0.2)}[drp]
        return GenParams(
            n_side=int(sz.removeprefix("SZ")),
            max_steps=int(stp.removeprefix("STP")),
            sigma=float(std.removeprefix("STD")),
            p_node_drop=p_node_drop, p_edge_drop=p_edge_drop,
            direction=dname.lower(), seed=seed,
        )
    except (ValueError, KeyError, AttributeError) as err:
        raise ValueError(
            f"unknown preset {name!r}; expected e.g. LINE-SZ32-STP16-NDRP-STD0.2"
        ) from err


def preset_names() -> list:
    names = []
    for d in ("LINE", "SINE", "LOCATION", "HISTORY"):
        for sz, stp in ((32, 16), (64, 32)):
            for drp in ("NDRP", "EDRP"):
                if sz == 64 and drp == "EDRP":
                    continue
                for std in ("0.2", "0.5"):
                    names.append(f"{d}-SZ{sz}-STP{stp}-{drp}-STD{std}")
    return names


@dataclass
class Dataset:
    graph: GridGraph  # selfloop-augmented
    pairs: np.ndarray  # (M, 2) of (src, dst), deduplicated
    splits: np.ndarray  # (M,) of TRAIN/VALID/TEST, a function of src


def split_sources(sources: np.ndarray, seed: int) -> dict:
    """Shuffle sorted sources with the dataset seed, take 80/10/10."""
    srcs = np.sort(np.asarray(sources))
    rng = np.random.default_rng([seed, 2])
    perm = rng.permutation(len(srcs))
    srcs = srcs[perm]
    n = len(srcs)
    n_train, n_valid = int(0.8 * n), int(0.9 * n) - int(0.8 * n)
    out = {}
    for i, s in enumerate(srcs.tolist()):
        out[s] = TRAIN if i < n_train else (VALID if i < n_train + n_valid else TEST)
    return out


def generate_trajectories(graph: GridGraph, params: GenParams) -> list:
    """n_rollout trajectories per surviving node. Each source draws from its
    own RNG stream, seeded by the dataset seed and its node id, so its
    trajectories do not depend on the other sources."""
    trajectories = []
    for src in graph.nodes.tolist():
        rng = np.random.default_rng([params.seed, 1, src])
        for _ in range(params.n_rollout):
            trajectories.append(
                rollout(graph, src, params.direction, params.sigma,
                        params.max_steps, rng)
            )
    return trajectories


def build_dataset(params: GenParams, return_trajectories: bool = False):
    """Build grid, corrupt, roll out, deduplicate pairs, split by source."""
    corrupted = corrupt(
        build_grid(params.n_side),
        CorruptionParams(params.p_node_drop, params.p_edge_drop, params.seed),
    )
    trajectories = generate_trajectories(corrupted, params)
    seen = set()
    pairs = []
    for traj in trajectories:
        key = (traj.source, traj.destination)
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    pairs = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    by_src = split_sources(np.unique(pairs[:, 0]), params.seed)
    splits = np.array([by_src[s] for s in pairs[:, 0].tolist()], dtype=np.int64)
    dataset = Dataset(add_selfloops(corrupted), pairs, splits)
    if return_trajectories:
        return dataset, trajectories
    return dataset


@dataclass
class Stats:
    n_nodes: int
    n_edges: int  # directional only, selfloops excluded
    n_pairs: int
    pairs_per_node: float
    # Mean node-sequence length over the distinct retained trajectories
    # (first rollout per distinct source-destination pair).
    traj_length: float
    # Mean transitions over all rollouts, pre-dedup.
    traj_transitions_all: float

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def dataset_stats(dataset: Dataset, trajectories) -> Stats:
    """Summary statistics; trajectories are the pre-dedup rollouts."""
    lengths_all = [t.length for t in trajectories]
    seen = {}
    for t in trajectories:
        seen.setdefault((t.source, t.destination), len(t.nodes))
    lengths_distinct = list(seen.values())
    n_nodes = dataset.graph.n_nodes
    return Stats(
        n_nodes=n_nodes,
        n_edges=dataset.graph.n_directional_edges(),
        n_pairs=len(dataset.pairs),
        pairs_per_node=len(dataset.pairs) / n_nodes if n_nodes else 0.0,
        traj_length=float(np.mean(lengths_distinct)) if lengths_distinct else 0.0,
        traj_transitions_all=float(np.mean(lengths_all)) if lengths_all else 0.0,
    )


def save_dataset(dirpath, dataset: Dataset, params: GenParams,
                 stats: Stats | None = None) -> None:
    os.makedirs(dirpath, exist_ok=True)
    dataset.graph.save(os.path.join(dirpath, "graph.json"))
    with open(os.path.join(dirpath, "pairs.tsv"), "w") as f:
        for (src, dst), sp in zip(dataset.pairs.tolist(), dataset.splits.tolist()):
            f.write(f"{src}\t{dst}\t{SPLIT_NAMES[sp]}\n")
    with open(os.path.join(dirpath, "params.json"), "w") as f:
        json.dump(dataclasses.asdict(params), f, indent=2)
    if stats is not None:
        with open(os.path.join(dirpath, "stats.json"), "w") as f:
            json.dump(stats.to_json_dict(), f, indent=2)


def load_dataset(dirpath) -> Dataset:
    graph = GridGraph.load(os.path.join(dirpath, "graph.json"))
    pairs, splits = [], []
    with open(os.path.join(dirpath, "pairs.tsv")) as f:
        for line in f:
            src, dst, sp = line.rstrip("\n").split("\t")
            pairs.append((int(src), int(dst)))
            splits.append(SPLIT_NAMES.index(sp))
    return Dataset(graph, np.array(pairs, dtype=np.int64).reshape(-1, 2),
                   np.array(splits, dtype=np.int64))


def load_params(dirpath) -> GenParams:
    with open(os.path.join(dirpath, "params.json")) as f:
        doc = json.load(f)
    if isinstance(doc["direction"], dict):  # older files nest the direction
        doc["direction"] = doc["direction"]["variant"]
    return GenParams(**doc)
