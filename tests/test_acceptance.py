"""End-to-end acceptance checks: structural counts, dataset statistics,
sampling fidelity, gradient correctness, flow invariants, metric oracle,
memorization, desk-scale result bands, the LR schedule, and the
visualization contract.

The desk-scale bands read committed run manifests from artifacts/accept8;
regenerate them with scripts/run_benchmarks.sh before a full check.
"""

import json
import os
import time

import numpy as np
import pytest

from gridflow import attnflow, autodiff as ad, grid, viz
from gridflow.data import build_dataset, dataset_stats, preset_params
from gridflow.dynamics import edge_distribution
from gridflow.graphnets import MODEL_NAMES, GraphTensors, Model, ModelConfig
from gridflow.metrics import metrics, ranks_of
from gridflow.training import (
    TrainConfig,
    evaluate,
    lr_schedule,
    prepare_examples,
    train,
)

ARTIFACTS = os.path.join(os.path.dirname(__file__), "..", "artifacts", "accept8")


# -- 1. structural counts ---------------------------------------------------

def test_structural_counts():
    for n, nodes, edges in ((32, 1024, 7812), (64, 4096, 32004)):
        g = grid.build_grid(n)
        assert g.n_nodes == nodes
        assert g.n_edges == 2 * (2 * n - 1) * (2 * n - 2) == edges


# -- 2. dataset statistics --------------------------------------------------

def test_dataset_statistics_over_seeds():
    stats = []
    for seed in range(5):
        params = preset_params("LINE-SZ32-STP16-NDRP-STD0.2", seed=seed)
        ds, trajs = build_dataset(params, return_trajectories=True)
        stats.append(dataset_stats(ds, trajs))
    mean = lambda f: float(np.mean([getattr(s, f) for s in stats]))
    assert 894 <= mean("n_nodes") <= 948
    assert 6130 <= mean("n_edges") <= 6510
    assert 4.4 <= mean("pairs_per_node") <= 6.0
    assert 7.7 <= mean("traj_length") <= 10.5


# -- 3. sampling fidelity ---------------------------------------------------

def test_edge_sampling_frequencies():
    rng = np.random.default_rng(0)
    for _ in range(20):
        direction = rng.uniform(-1, 1, size=2)
        while np.linalg.norm(direction) < 1e-3:
            direction = rng.uniform(-1, 1, size=2)
        sigma = rng.uniform(0.15, 1.0)
        p = edge_distribution(direction, sigma)
        draws = rng.choice(8, size=100_000, p=p)
        freq = np.bincount(draws, minlength=8) / len(draws)
        assert np.abs(freq - p).max() < 0.01


# -- 4. gradient correctness ------------------------------------------------

def test_gradient_correctness_all_variants():
    g = grid.add_selfloops(
        grid.corrupt(grid.build_grid(4), grid.CorruptionParams(0.1, 0.0, seed=5)))
    src = np.array([0, 1])
    dst = np.array([3, 2])
    for name in MODEL_NAMES:
        model = Model(
            ModelConfig.from_name(name, dims=6, attn_dims=2, heads=3, steps=3,
                                  dtype="float64"), GraphTensors(g), seed=2)

        def f():
            return model.loss(src, dst)

        err = ad.grad_check(f, list(model.params.values()), min_coords=20,
                            seed=0)
        assert err < 1e-4, f"{name}: {err:.3g}"


# -- 5. flow invariants -----------------------------------------------------

def test_flow_invariants_on_random_graphs():
    rng = np.random.default_rng(1)
    for trial in range(100):
        n_side = int(rng.integers(3, 8))  # at most 49 nodes
        g = grid.add_selfloops(
            grid.corrupt(grid.build_grid(n_side),
                         grid.CorruptionParams(0.1, 0.1, seed=trial)))
        gt = GraphTensors(g)
        d = 4
        w1 = rng.standard_normal((d, gt.n_types))
        w2 = rng.standard_normal((d, gt.n_types))
        wo = rng.standard_normal((gt.n_types, d, d)) * 0.3
        b = rng.standard_normal(gt.n_types)
        h = rng.standard_normal((1, gt.n, d))
        # packed as in Model: W[t] = [Wo_t | w2_t], b[t] = [w1_t : b_t]
        trans = attnflow.transition_matrix(attnflow.transition_logits(
            ad.Tensor(h), gt,
            ad.Tensor(np.concatenate([wo, w2.T[:, :, None]], axis=2)),
            ad.Tensor(np.concatenate([w1.T, b[:, None]], axis=1))), gt)

        per_edge = gt.edge_values(trans.data)[0]
        row_sums = np.zeros(gt.n)
        np.add.at(row_sums, gt.src, per_edge)
        assert np.abs(row_sums - 1.0).max() < 1e-12

        dense = np.zeros((gt.n, gt.n))
        dense[gt.src, gt.dst] = per_edge
        focused = attnflow.onehot_focus(gt.n, [0], np.float64)
        a = focused.data[0].copy()
        for _ in range(3):
            flowing, focused = attnflow.flow_step(focused, trans, gt)
            a = a @ dense
            assert abs(flowing.data.sum() - 1.0) < 1e-9
            assert abs(focused.data.sum() - 1.0) < 1e-9
            assert np.abs(focused.data[0] - a).max() < 1e-10


def test_stationary_transition_is_constant():
    g = grid.add_selfloops(
        grid.corrupt(grid.build_grid(5), grid.CorruptionParams(0.1, 0.0, seed=3)))
    model = Model(ModelConfig("rw-stationary", dims=8, attn_dims=2, steps=4,
                              dtype="float64"), GraphTensors(g), seed=0)
    p = model.params
    with ad.no_grad():
        transition = attnflow.transition_matrix(attnflow.transition_logits(
            ad.Tensor(p["embed"].data[None]), model.gt, p["trans.W"],
            p["trans.b"]), model.gt)
    t = model.gt.edge_values(transition.data)[0]
    # every per-step flowing attention is exactly T * a_src, for any example
    for src_batch in ([0], [1, 2]):
        fr = model.forward(np.array(src_batch), trace=True)
        for step in range(model.cfg.steps):
            for b in range(len(src_batch)):
                a_src = fr.focused[step][b][model.gt.src]
                expect = t * a_src
                assert np.array_equal(fr.flowing[step][b], expect)


# -- 6. metric oracle -------------------------------------------------------

def test_metrics_match_sort_oracle():
    rng = np.random.default_rng(2)
    ranks = []
    oracle_ranks = []
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        scores = np.round(rng.standard_normal(n), 1)  # coarse grid forces ties
        target = int(rng.integers(0, n))
        ranks.append(int(ranks_of(scores[None], [target])[0]))
        order = np.sort(scores)[::-1]
        oracle_ranks.append(1 + int(np.searchsorted(-order, -scores[target])))
    assert ranks == oracle_ranks
    got = metrics(ranks)
    r = np.array(oracle_ranks, dtype=float)
    assert got.hits1 == np.mean(r <= 1)
    assert got.hits5 == np.mean(r <= 5)
    assert got.hits10 == np.mean(r <= 10)
    assert got.mr == np.mean(r)
    assert got.mrr == np.mean(1.0 / r)


# -- 7. memorization oracle -------------------------------------------------

def test_memorization_of_ten_pairs():
    # CPU time of this process, so that other load on the host does not
    # count against the bound.
    start = time.process_time()
    g = grid.add_selfloops(
        grid.corrupt(grid.build_grid(4), grid.CorruptionParams(0.1, 0.0, seed=0)))
    gt = GraphTensors(g)
    rng = np.random.default_rng(1)
    src = rng.choice(gt.n, size=10, replace=False)
    # destinations restricted to the source's connected component
    adjacency = np.zeros((gt.n, gt.n), dtype=np.int64)
    adjacency[gt.src, gt.dst] = 1
    reach = np.linalg.matrix_power(np.eye(gt.n, dtype=np.int64) + adjacency,
                                   gt.n - 1) > 0
    dst = np.array([rng.choice(np.flatnonzero(reach[s])) for s in src])

    model = Model(ModelConfig("ggnn-mulmlp", dims=40,
                              attn_dims=8, steps=16), gt, seed=0)
    cfg = TrainConfig(batch_size=16, epochs=300, lr_start=0.0005,
                      lr_end=0.0005, snapshot_top_k=1)
    examples = {"train": (src, dst), "valid": (src, dst)}
    result = train(model, cfg, examples)
    best = max(s.valid.hits1 for s in result)
    assert best == 1.0
    assert time.process_time() - start < 120


# -- 8. desk-scale result bands ---------------------------------------------

def _load_manifest(run_name):
    path = os.path.join(ARTIFACTS, run_name, "selection.json")
    if not os.path.exists(path):
        pytest.fail(
            f"missing benchmark manifest {path}; regenerate the committed "
            "runs with scripts/run_benchmarks.sh"
        )
    with open(path) as f:
        return json.load(f)


def test_line_mulmlp_bands():
    doc = _load_manifest("line-ggnn-mulmlp")
    assert doc["model"] == "ggnn-mulmlp"
    hits1 = doc["test"]["hits1"]["mean"]
    mrr = doc["test"]["mrr"]["mean"]
    assert 0.140 <= hits1 <= 0.202, f"test hits@1 {hits1:.4f} out of band"
    assert 0.33 <= mrr <= 0.40, f"test MRR {mrr:.4f} out of band"


def test_sine_ggnn_band():
    doc = _load_manifest("sine-ggnn")
    assert doc["model"] == "ggnn"
    hits1 = doc["test"]["hits1"]["mean"]
    assert hits1 >= 0.35, f"test hits@1 {hits1:.4f} below band"


def test_mulmlp_orders_above_mul():
    mulmlp = _load_manifest("line-ggnn-mulmlp")["test"]["mrr"]["mean"]
    mul = _load_manifest("line-ggnn-mul")["test"]["mrr"]["mean"]
    assert mulmlp >= mul - 0.005


# -- 9. learning-rate schedule ----------------------------------------------

def test_lr_schedule_acceptance_points():
    for epoch, lr in ((0, 0.0005), (10, 0.0004), (20, 0.0003),
                      (30, 0.0002), (40, 0.0001)):
        assert lr_schedule(epoch, TrainConfig()) == lr


# -- 10. visualization contract ---------------------------------------------

def test_visualization_contract_on_trained_model():
    from gridflow.data import GenParams

    params = GenParams(n_side=8, max_steps=6, sigma=0.2, p_node_drop=0.1,
                       n_rollout=4, direction="line", seed=0)
    ds = build_dataset(params)
    gt = GraphTensors(ds.graph)
    model = Model(ModelConfig("ggnn-mulmlp", dims=12,
                              attn_dims=4, steps=6), gt, seed=0)
    examples = prepare_examples(ds, gt)
    train(model, TrainConfig(batch_size=16, epochs=2, snapshot_top_k=2),
          examples)

    src_idx = int(examples["train"][0][0])
    focused, flowing = viz.attention_trace(model, src_idx)
    expect0 = np.zeros(gt.n)
    expect0[src_idx] = 1.0
    assert np.array_equal(focused[0], expect0)
    assert np.abs(focused.sum(axis=1) - 1.0).max() < 1e-9
    values = viz.heatmap_values(focused)
    assert values[src_idx] == 1.0
