import numpy as np
import pytest

from gridflow.data import GenParams, build_dataset
from gridflow.graphnets import GraphTensors, Model, ModelConfig
from gridflow.metrics import MetricsReport
from gridflow.training import (
    Snapshot,
    TrainConfig,
    aggregate_runs,
    evaluate,
    lr_schedule,
    prepare_examples,
    run_experiment,
    select_snapshots,
    train,
)


def report(mrr, hits1=0.0):
    return MetricsReport(hits1=hits1, hits5=0.0, hits10=0.0, mr=1.0,
                         mrr=mrr, n=1)


def run_with(mrrs, hits1=None):
    run = []
    for i, m in enumerate(mrrs):
        h = 0.0 if hits1 is None else hits1[i]
        run.append(Snapshot(epoch=i, lr=0.0, train_loss=0.0,
                            valid=report(m, h), state={}))
    return run


def test_lr_schedule_values():
    expect = {0: 0.0005, 9: 0.0005, 10: 0.0004, 19: 0.0004, 20: 0.0003,
              30: 0.0002, 39: 0.0002, 40: 0.0001, 49: 0.0001, 100: 0.0001}
    for epoch, lr in expect.items():
        assert lr_schedule(epoch, TrainConfig()) == pytest.approx(lr)
    with pytest.raises(ValueError):
        lr_schedule(-1, TrainConfig())


def test_lr_schedule_floor():
    cfg = TrainConfig(lr_start=0.001, lr_end=0.0005, lr_step=0.0002,
                      lr_step_epochs=5)
    assert lr_schedule(0, cfg) == pytest.approx(0.001)
    assert lr_schedule(5, cfg) == pytest.approx(0.0008)
    assert lr_schedule(50, cfg) == pytest.approx(0.0005)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr_start=0.0001, lr_end=0.0005)
    with pytest.raises(ValueError):
        TrainConfig(epochs=2, snapshot_top_k=3)
    TrainConfig(epochs=0)  # allowed: no training, no snapshots


def test_select_snapshots_by_mrr():
    run = run_with([0.1, 0.3, 0.2, 0.25])
    picked = select_snapshots(run, k=3)
    assert [s.valid.mrr for s in picked] == [0.3, 0.25, 0.2]
    assert [s.epoch for s in picked] == [1, 3, 2]


def test_select_snapshots_tie_breaks():
    run = run_with([0.2, 0.2, 0.2], hits1=[0.1, 0.5, 0.5])
    picked = select_snapshots(run, k=2)
    # higher hits@1 first, then the earlier epoch
    assert [s.epoch for s in picked] == [1, 2]


def test_select_snapshots_fewer_than_k_warns():
    run = run_with([0.4])
    with pytest.warns(UserWarning):
        picked = select_snapshots(run, k=3)
    assert len(picked) == 1


def test_aggregate_runs():
    out = aggregate_runs([report(0.3), report(0.5)])
    assert out["mrr"]["mean"] == pytest.approx(0.4)
    assert out["mrr"]["std"] == pytest.approx(0.1)
    assert out["n_snapshots"] == 2


def test_aggregate_pools_all_snapshots():
    reports = [report(0.1 * i) for _ in range(10) for i in range(3)]
    out = aggregate_runs(reports)
    assert out["n_snapshots"] == 30
    assert out["mrr"]["mean"] == pytest.approx(0.1)
    with pytest.raises(ValueError):
        aggregate_runs([])


def tiny_dataset(seed=0):
    params = GenParams(
        n_side=5, max_steps=4, sigma=0.3, p_node_drop=0.1,
        n_rollout=3, direction="line", seed=seed,
    )
    return build_dataset(params)


def test_prepare_examples_covers_all_pairs():
    ds = tiny_dataset()
    gt = GraphTensors(ds.graph)
    ex = prepare_examples(ds, gt)
    total = sum(len(src) for src, _ in ex.values())
    assert total == len(ds.pairs)
    for src, dst in ex.values():
        assert np.all(src < gt.n) and np.all(dst < gt.n)


def test_train_loss_decreases():
    ds = tiny_dataset()
    gt = GraphTensors(ds.graph)
    model = Model(ModelConfig("ggnn-mul", dims=10, attn_dims=4,
                              steps=3, dtype="float64"), gt, seed=0)
    cfg = TrainConfig(batch_size=8, epochs=4, snapshot_top_k=2,
                      lr_start=0.01, lr_end=0.01)
    lines = []
    result = train(model, cfg, prepare_examples(ds, gt), log=lines.append)
    assert len(result) == 4
    assert len(lines) == 4
    assert result[-1].train_loss < result[0].train_loss
    # each log line carries epoch, lr, loss, and five validation metrics
    assert all(len(line.split("\t")) == 8 for line in lines)


def test_train_is_deterministic():
    ds = tiny_dataset()

    def go():
        gt = GraphTensors(ds.graph)
        model = Model(ModelConfig("ggnn-noact", dims=8,
                                  attn_dims=2, steps=2, dtype="float64"),
                      gt, seed=1)
        cfg = TrainConfig(batch_size=8, epochs=2, snapshot_top_k=1)
        return train(model, cfg, prepare_examples(ds, gt))

    a, b = go(), go()
    assert a[-1].train_loss == b[-1].train_loss
    for k in a[-1].state:
        assert np.array_equal(a[-1].state[k], b[-1].state[k])


def test_train_rejects_empty_split():
    ds = tiny_dataset()
    gt = GraphTensors(ds.graph)
    model = Model(ModelConfig(dims=8, attn_dims=2, steps=2), gt, seed=0)
    ex = prepare_examples(ds, gt)
    ex["valid"] = (np.array([], dtype=int), np.array([], dtype=int))
    with pytest.raises(ValueError):
        train(model, TrainConfig(epochs=1, snapshot_top_k=1), ex)


def test_train_names_the_non_finite_loss():
    """rw-stationary with a NaN transition weight has no node state to
    check, so its first loss is NaN; train stops there and names the
    epoch, the batch and the parameter."""
    ds = tiny_dataset()
    gt = GraphTensors(ds.graph)
    model = Model(ModelConfig("rw-stationary", dims=8, attn_dims=2, steps=2),
                  gt, seed=0)
    model.params["trans.W"].data[0, 0, 0] = np.nan
    with pytest.raises(FloatingPointError,
                       match=r"epoch 0, batch 0;.*trans\.W=nan"):
        train(model, TrainConfig(epochs=1, snapshot_top_k=1),
              prepare_examples(ds, gt))


def test_evaluate_batches_consistently():
    ds = tiny_dataset()
    gt = GraphTensors(ds.graph)
    model = Model(ModelConfig(dims=8, attn_dims=2, steps=2, dtype="float64"),
                  gt, seed=0)
    src, dst = prepare_examples(ds, gt)["train"]
    a = evaluate(model, src, dst, batch_size=3)
    b = evaluate(model, src, dst, batch_size=len(src))
    assert a == b


def test_run_experiment_zero_epochs():
    ds = tiny_dataset()
    model, result, selected, tests = run_experiment(
        ModelConfig(dims=8, attn_dims=2, steps=2),
        TrainConfig(epochs=0, snapshot_top_k=3), ds, model_seed=0)
    assert result == [] and selected == [] and tests == []


def test_run_experiment_end_to_end():
    ds = tiny_dataset()
    model, result, selected, tests = run_experiment(
        ModelConfig("rw-stationary", dims=8, attn_dims=2,
                    steps=3, dtype="float64"),
        TrainConfig(batch_size=8, epochs=3, snapshot_top_k=2), ds, model_seed=0)
    assert len(result) == 3
    assert len(selected) == 2 and len(tests) == 2
    mrrs = [s.valid.mrr for s in selected]
    assert mrrs == sorted(mrrs, reverse=True)
    assert all(isinstance(t, MetricsReport) for t in tests)
