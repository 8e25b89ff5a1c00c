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
