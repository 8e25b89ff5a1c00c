"""Dataset construction: corrupted graph + deduplicated source-destination
pairs with an 8:1:1 split on source nodes, plus the named generation presets.

On-disk layout (one directory per dataset):
    graph.json   selfloop-augmented graph
    pairs.tsv    src \t dst \t split  with split in {train, valid, test}
    params.json  generation parameters: GenParams' fields, which regenerate
                 graph.json and pairs.tsv
    stats.json   dataset statistics

The rollouts follow dynamics' RNG contract: one stream per source node,
seeded by the dataset seed and the node id, and one draw per step taken,
the step that chooses a missing edge included.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .dynamics import DIRECTION_PRESETS, rollout
from .grid import GridGraph, SELFLOOP, add_selfloops, build_grid, corrupt

TRAIN, VALID, TEST = 0, 1, 2
SPLIT_NAMES = ("train", "valid", "test")
PRESET_GRAMMAR = "<LINE|SINE|LOCATION|HISTORY>-SZ<n>-STP<T>-<NDRP|EDRP>-STD<sigma>"


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
        for name in ("n_side", "max_steps", "n_rollout", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.direction not in DIRECTION_PRESETS:
            raise ValueError(f"unknown direction preset {self.direction!r}; "
                             f"expected one of {DIRECTION_PRESETS}")
        if self.n_side < 2:
            raise ValueError(f"n_side must be >= 2, got {self.n_side}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("max_steps", "n_rollout"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, "
                                 f"got {getattr(self, name)}")
        # The sampler's cumulative distributions are monotone only then.
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, "
                             f"got {self.sigma}")
        for p in (self.p_node_drop, self.p_edge_drop):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"drop probability {p} outside [0, 1]")


def preset_params(name: str, seed: int = 0) -> GenParams:
    """Resolve a dataset-group name like LINE-SZ32-STP16-NDRP-STD0.2. A
    name outside the grammar and a value GenParams refuses both raise
    ValueError, each with its own message."""
    try:
        dname, sz, stp, drp, std = name.upper().split("-")
        p_node_drop, p_edge_drop = {"NDRP": (0.1, 0.0), "EDRP": (0.0, 0.2)}[drp]
        if dname.lower() not in DIRECTION_PRESETS:
            raise KeyError(dname)
        fields = dict(
            n_side=int(sz.removeprefix("SZ")),
            max_steps=int(stp.removeprefix("STP")),
            sigma=float(std.removeprefix("STD")),
            p_node_drop=p_node_drop, p_edge_drop=p_edge_drop,
            direction=dname.lower(),
        )
    except (ValueError, KeyError, AttributeError) as err:
        raise ValueError(f"unknown preset {name!r}; presets are named "
                         f"{PRESET_GRAMMAR}") from err
    return GenParams(**fields, seed=seed)


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


def split_sources(sources: np.ndarray, seed: int) -> np.ndarray:
    """The split code (TRAIN, VALID or TEST) of each of the sorted distinct
    sources: shuffle them with the dataset seed, take 80/10/10."""
    n = len(sources)
    perm = np.random.default_rng([seed, 2]).permutation(n)
    codes = np.empty(n, dtype=np.int64)
    codes[perm] = np.searchsorted([int(0.8 * n), int(0.9 * n)], np.arange(n),
                                  side="right")
    return codes


def _endpoints(paths: np.ndarray):
    """The (source, destination) pair of each rollout row of
    dynamics.rollout's -1-padded paths, and its number of nodes."""
    lengths = (paths >= 0).sum(axis=1)
    ends = paths[np.arange(len(paths)), lengths - 1]
    return np.stack([paths[:, 0], ends], axis=1), lengths


def _pair_keys(pairs: np.ndarray, n_side: int) -> np.ndarray:
    """Each (source, destination) pair of node ids as one integer, which
    sorts as the pair does."""
    return pairs[:, 0] * n_side ** 2 + pairs[:, 1]


def build_dataset(params: GenParams, return_trajectories: bool = False):
    """Build grid, corrupt, roll out, deduplicate pairs, split by source.
    With return_trajectories, also return the rollouts' paths."""
    corrupted = corrupt(build_grid(params.n_side), params.p_node_drop,
                        params.p_edge_drop, params.seed)
    paths = rollout(corrupted, params.direction, params.sigma,
                    params.max_steps, params.n_rollout, params.seed)
    keys = np.unique(_pair_keys(_endpoints(paths)[0], params.n_side))
    pairs = np.stack(np.divmod(keys, params.n_side ** 2), axis=1)
    sources, by_src = np.unique(pairs[:, 0], return_inverse=True)
    splits = split_sources(sources, params.seed)[by_src]
    dataset = Dataset(add_selfloops(corrupted), pairs, splits)
    if return_trajectories:
        return dataset, paths
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


def dataset_stats(dataset: Dataset, paths: np.ndarray) -> Stats:
    """Summary statistics; paths are the pre-dedup rollouts, as
    build_dataset(params, return_trajectories=True) returns them. A pair's
    trajectory is its first rollout, as np.unique picks it."""
    pairs, lengths = _endpoints(paths)
    first = np.unique(_pair_keys(pairs, dataset.graph.n_side),
                      return_index=True)[1]
    n_nodes = dataset.graph.n_nodes
    return Stats(
        n_nodes=n_nodes,
        n_edges=dataset.graph.n_directional_edges(),
        n_pairs=len(dataset.pairs),
        pairs_per_node=len(dataset.pairs) / n_nodes if n_nodes else 0.0,
        traj_length=float(np.mean(lengths[first])) if len(first) else 0.0,
        traj_transitions_all=float(np.mean(lengths - 1)) if len(lengths) else 0.0,
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
