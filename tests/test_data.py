import dataclasses
import re

import numpy as np
import pytest

from gridflow import data
from gridflow.data import (
    TEST,
    TRAIN,
    VALID,
    GenParams,
    build_dataset,
    dataset_stats,
    load_dataset,
    load_params,
    preset_names,
    preset_params,
    save_dataset,
    split_sources,
)
from gridflow.grid import SELFLOOP


def small_params(seed=0):
    return GenParams(
        n_side=6, max_steps=5, sigma=0.3, p_node_drop=0.1,
        n_rollout=4, direction="line", seed=seed,
    )


def test_preset_parsing():
    p = preset_params("LINE-SZ32-STP16-NDRP-STD0.2", seed=3)
    assert p.n_side == 32 and p.max_steps == 16 and p.sigma == 0.2
    assert p.p_node_drop == 0.1 and p.p_edge_drop == 0.0
    assert p.direction == "line"
    assert p.seed == 3
    q = preset_params("sine-sz64-stp32-edrp-std0.5")
    assert q.n_side == 64 and q.p_edge_drop == 0.2
    assert q.direction == "sine"


def test_preset_parsing_rejects_garbage():
    for bad in ("LINE-SZ32", "FOO-SZ32-STP16-NDRP-STD0.2",
                "LINE-SZ32-STP16-XDRP-STD0.2"):
        with pytest.raises(ValueError):
            preset_params(bad)


def test_preset_names_cover_groups():
    names = preset_names()
    assert len(names) == 24
    assert "LINE-SZ32-STP16-NDRP-STD0.2" in names
    assert "HISTORY-SZ64-STP32-NDRP-STD0.5" in names
    assert not any("SZ64" in n and "EDRP" in n for n in names)
    for n in names:
        preset_params(n)  # all resolvable


def assert_regenerates(dirpath, params):
    """save_dataset -> load_params -> build_dataset writes the same files."""
    save_dataset(dirpath / "a", build_dataset(params), params)
    again = load_params(dirpath / "a")
    assert again == params
    save_dataset(dirpath / "b", build_dataset(again), again)
    for name in ("graph.json", "pairs.tsv", "params.json"):
        assert ((dirpath / "a" / name).read_bytes()
                == (dirpath / "b" / name).read_bytes())


def test_gen_params_round_trip(tmp_path):
    assert_regenerates(tmp_path,
                       GenParams(7, 6, 0.4, 0.05, 0.1, 3, "history", 11))


def test_preset_params_round_trip(tmp_path):
    assert_regenerates(
        tmp_path, preset_params("LOCATION-SZ32-STP16-EDRP-STD0.5", seed=1))


def test_gen_params_rejects_unknown_direction():
    with pytest.raises(ValueError):
        GenParams(direction="spiral")


@pytest.mark.parametrize("field, value, message", [
    ("sigma", float("nan"), "sigma must be positive and finite"),
    ("sigma", float("inf"), "sigma must be positive and finite"),
    ("sigma", 0.0, "sigma must be positive and finite"),
    ("sigma", -0.2, "sigma must be positive and finite"),
    ("max_steps", 0, "max_steps must be >= 1"),
    ("n_rollout", 0, "n_rollout must be >= 1"),
    ("n_side", 1, "n_side must be >= 2"),
    ("p_node_drop", 1.5, "outside [0, 1]"),
    ("p_edge_drop", -0.1, "outside [0, 1]"),
    ("p_edge_drop", float("nan"), "outside [0, 1]"),
    ("n_side", 4.0, "n_side must be an int, got 4.0"),
    ("max_steps", 2.5, "max_steps must be an int, got 2.5"),
    ("n_rollout", True, "n_rollout must be an int, got True"),
    ("seed", 1.5, "seed must be an int, got 1.5"),
    ("seed", "0", "seed must be an int, got '0'"),
    ("seed", -1, "seed must be >= 0, got -1"),
])
def test_gen_params_rejects_degenerate_values(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        GenParams(**{field: value})
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(GenParams(), **{field: value})


# params.json as written before GenParams was flat: the direction was a
# nested record of a variant name and eight coefficients.
NESTED_PARAMS_JSON = """{
  "n_side": 32,
  "max_steps": 16,
  "sigma": 0.2,
  "p_node_drop": 0.1,
  "p_edge_drop": 0.0,
  "n_rollout": 10,
  "direction": {
    "variant": "sine",
    "a1": 1.0,
    "b1": 0.0,
    "a2": 1.0,
    "b2": 0.0,
    "omega": 0.0,
    "l1": 0.0,
    "l2": 0.0,
    "phi": 0.0
  },
  "seed": 3
}"""


def test_nested_params_json_loads_flat(tmp_path):
    (tmp_path / "params.json").write_text(NESTED_PARAMS_JSON)
    assert load_params(tmp_path) == preset_params(
        "SINE-SZ32-STP16-NDRP-STD0.2", seed=3)


def test_split_sources_proportions():
    sources = np.arange(100)
    splits = split_sources(sources, seed=1)
    assert splits.dtype == np.int64 and splits.shape == (100,)
    counts = np.bincount(splits, minlength=3)
    assert counts[TRAIN] == 80 and counts[VALID] == 10 and counts[TEST] == 10


def test_split_sources_deterministic_and_seed_sensitive():
    sources = np.arange(50)
    assert np.array_equal(split_sources(sources, 7), split_sources(sources, 7))
    assert not np.array_equal(split_sources(sources, 7),
                              split_sources(sources, 8))


def split_oracle(sources, seed):
    """The dict split that split_sources' array replaced: source -> code."""
    srcs = np.sort(np.asarray(sources))
    srcs = srcs[np.random.default_rng([seed, 2]).permutation(len(srcs))]
    n = len(srcs)
    n_train, n_valid = int(0.8 * n), int(0.9 * n) - int(0.8 * n)
    return {s: TRAIN if i < n_train else (VALID if i < n_train + n_valid
                                          else TEST)
            for i, s in enumerate(srcs.tolist())}


def trajectories(paths):
    """Each rollout row's node ids, without the -1 padding."""
    return [[v for v in row if v >= 0] for row in paths.tolist()]


def pairs_oracle(paths, seed):
    """The set dedup and per-pair dict lookup that build_dataset's arrays
    replaced: the sorted distinct (source, destination) pairs and their
    split codes."""
    seen, pairs = set(), []
    for nodes in trajectories(paths):
        key = (nodes[0], nodes[-1])
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    pairs = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    by_src = split_oracle(np.unique(pairs[:, 0]), seed)
    splits = np.array([by_src[s] for s in pairs[:, 0].tolist()],
                      dtype=np.int64)
    return pairs, splits


def test_split_sources_matches_dict_oracle():
    for n in list(range(12)) + [37, 100, 1023]:
        sources = np.arange(n, dtype=np.int64) * 3 + 1
        for seed in range(4):
            want = split_oracle(sources, seed)
            got = split_sources(sources, seed)
            assert got.dtype == np.int64
            assert got.tolist() == [want[s] for s in sources.tolist()]


@pytest.mark.parametrize("params", [
    small_params(seed=0), small_params(seed=5),
    GenParams(7, 6, 0.4, 0.05, 0.1, 3, "history", 11),
    GenParams(2, 2, 0.3, 0.1, 0.0, 10, "line", 0),
    GenParams(3, 4, 0.3, 1.0, 0.0, 2, "sine", 1),  # every node dropped
], ids=["small0", "small5", "history7", "grid2", "empty"])
def test_pairs_and_splits_match_set_oracle(params):
    ds, paths = build_dataset(params, return_trajectories=True)
    pairs, splits = pairs_oracle(paths, params.seed)
    for got, want in ((ds.pairs, pairs), (ds.splits, splits)):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_build_dataset_pairs_are_deduplicated():
    ds = build_dataset(small_params())
    seen = {tuple(p) for p in ds.pairs.tolist()}
    assert len(seen) == len(ds.pairs)


def test_build_dataset_graph_has_selfloops():
    ds = build_dataset(small_params())
    loops = ds.graph.edges[ds.graph.edges[:, 2] == SELFLOOP]
    assert len(loops) == ds.graph.n_nodes


def test_split_is_a_function_of_source():
    ds = build_dataset(small_params())
    by_src = {}
    for (src, _), sp in zip(ds.pairs.tolist(), ds.splits.tolist()):
        assert by_src.setdefault(src, sp) == sp


def test_build_dataset_deterministic():
    a = build_dataset(small_params(seed=2))
    b = build_dataset(small_params(seed=2))
    assert np.array_equal(a.pairs, b.pairs)
    assert np.array_equal(a.splits, b.splits)
    c = build_dataset(small_params(seed=3))
    assert not np.array_equal(a.pairs, c.pairs)


def test_pair_count_bounded_by_rollouts():
    params = small_params()
    ds = build_dataset(params)
    assert len(ds.pairs) <= ds.graph.n_nodes * params.n_rollout


def test_stats_fields():
    params = small_params()
    ds, paths = build_dataset(params, return_trajectories=True)
    stats = dataset_stats(ds, paths)
    assert stats.n_nodes == ds.graph.n_nodes
    assert stats.n_edges == ds.graph.n_directional_edges()
    assert stats.n_pairs == len(ds.pairs)
    assert stats.pairs_per_node == pytest.approx(len(ds.pairs) / ds.graph.n_nodes)
    # node-sequence lengths lie in [1, max_steps + 1]
    assert 1.0 <= stats.traj_length <= params.max_steps + 1


@pytest.mark.parametrize("preset", [
    "LINE-SZ32-STP16-NDRP-STD0.2", "HISTORY-SZ32-STP16-EDRP-STD0.5",
    "SINE-SZ8-STP6-NDRP-STD0.5", "LOCATION-SZ5-STP4-EDRP-STD0.3",
])
def test_stats_lengths_match_dict_oracle(preset):
    """traj_length is the node count of the first rollout of each distinct
    pair, as the dict that dataset_stats' np.unique replaced kept it."""
    for seed in range(3):
        ds, paths = build_dataset(preset_params(preset, seed=seed),
                                  return_trajectories=True)
        first = {}
        for nodes in trajectories(paths):
            first.setdefault((nodes[0], nodes[-1]), len(nodes))
        assert sorted(first) == [tuple(p) for p in ds.pairs.tolist()]
        stats = dataset_stats(ds, paths)
        assert stats.traj_length == float(np.mean(list(first.values())))
        assert stats.traj_transitions_all == float(
            np.mean([len(nodes) - 1 for nodes in trajectories(paths)]))


def test_save_load_round_trip(tmp_path):
    params = small_params(seed=4)
    ds, paths = build_dataset(params, return_trajectories=True)
    stats = dataset_stats(ds, paths)
    save_dataset(tmp_path, ds, params, stats)
    loaded = load_dataset(tmp_path)
    assert np.array_equal(loaded.pairs, ds.pairs)
    assert np.array_equal(loaded.splits, ds.splits)
    assert np.array_equal(loaded.graph.edges, ds.graph.edges)
    assert load_params(tmp_path) == params
