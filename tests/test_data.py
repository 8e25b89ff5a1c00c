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
from gridflow.dynamics import DirectionFunction
from gridflow.grid import CorruptionParams, SELFLOOP


def small_params(seed=0):
    return GenParams(
        n_side=6, max_steps=5, sigma=0.3,
        corruption=CorruptionParams(0.1, 0.0, seed),
        n_rollout=4, direction=DirectionFunction.preset("line"), seed=seed,
    )


def test_preset_parsing():
    p = preset_params("LINE-SZ32-STP16-NDRP-STD0.2", seed=3)
    assert p.n_side == 32 and p.max_steps == 16 and p.sigma == 0.2
    assert p.corruption.p_node_drop == 0.1 and p.corruption.p_edge_drop == 0.0
    assert p.direction.variant == "line"
    assert p.seed == 3 and p.corruption.seed == 3
    q = preset_params("sine-sz64-stp32-edrp-std0.5")
    assert q.n_side == 64 and q.corruption.p_edge_drop == 0.2
    assert q.direction.variant == "sine"


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


def test_gen_params_round_trip():
    p = small_params(seed=5)
    q = GenParams.from_json_dict(p.to_json_dict())
    assert q == p


def test_split_sources_proportions():
    sources = np.arange(100)
    splits = split_sources(sources, seed=1)
    counts = {TRAIN: 0, VALID: 0, TEST: 0}
    for s in splits.values():
        counts[s] += 1
    assert counts[TRAIN] == 80 and counts[VALID] == 10 and counts[TEST] == 10


def test_split_sources_deterministic_and_seed_sensitive():
    sources = np.arange(50)
    assert split_sources(sources, 7) == split_sources(sources, 7)
    assert split_sources(sources, 7) != split_sources(sources, 8)


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
    ds, trajs = build_dataset(params, return_trajectories=True)
    stats = dataset_stats(ds, trajs)
    assert stats.n_nodes == ds.graph.n_nodes
    assert stats.n_edges == ds.graph.n_directional_edges()
    assert stats.n_pairs == len(ds.pairs)
    assert stats.pairs_per_node == pytest.approx(len(ds.pairs) / ds.graph.n_nodes)
    # node-sequence lengths lie in [1, max_steps + 1]
    assert 1.0 <= stats.traj_length <= params.max_steps + 1


def test_save_load_round_trip(tmp_path):
    params = small_params(seed=4)
    ds, trajs = build_dataset(params, return_trajectories=True)
    stats = dataset_stats(ds, trajs)
    save_dataset(tmp_path, ds, params, stats)
    loaded = load_dataset(tmp_path)
    assert np.array_equal(loaded.pairs, ds.pairs)
    assert np.array_equal(loaded.splits, ds.splits)
    assert np.array_equal(loaded.graph.edges, ds.graph.edges)
    assert load_params(tmp_path) == params
