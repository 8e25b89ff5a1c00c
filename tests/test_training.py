import warnings

import numpy as np
import pytest

from gridflow import autodiff as ad, training
from gridflow.data import GenParams, build_dataset
from gridflow.graphnets import (
    MICROBATCH_SIZE,
    MODEL_NAMES,
    GraphTensors,
    Model,
    ModelConfig,
)
from gridflow.metrics import MetricsReport
from gridflow.optim import Adam
from gridflow.training import (
    WEIGHT_DECAY,
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
        assert lr_schedule(epoch) == pytest.approx(lr)
    with pytest.raises(ValueError):
        lr_schedule(-1)


def test_config_validation():
    TrainConfig(epochs=0)  # allowed: no training, no snapshots
    for batch_size in (0, -1):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            TrainConfig(batch_size=batch_size)
    with pytest.raises(ValueError, match="epochs must be >= 0"):
        TrainConfig(epochs=-1)
    for k in (0, -1):
        with pytest.raises(ValueError, match="snapshot_top_k must be >= 1"):
            TrainConfig(snapshot_top_k=k)


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


def test_top_k_above_epochs_selects_every_epoch():
    """snapshot_top_k may exceed epochs: every epoch is selected, with no
    warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, result, selected, tests = run_experiment(
            ModelConfig("rw-stationary", dims=8, attn_dims=2, steps=2),
            TrainConfig(batch_size=8, epochs=2, snapshot_top_k=3),
            tiny_dataset(), model_seed=0)
    assert len(result) == 2
    assert sorted(s.epoch for s in selected) == [0, 1]
    assert len(tests) == 2


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


def test_train_loss_decreases(monkeypatch):
    monkeypatch.setattr(training, "lr_schedule", lambda epoch: 0.01)
    ds = tiny_dataset()
    gt = GraphTensors(ds.graph)
    model = Model(ModelConfig("ggnn-mul", dims=10, attn_dims=4,
                              steps=3, dtype="float64"), gt, seed=0)
    cfg = TrainConfig(batch_size=8, epochs=4, snapshot_top_k=2)
    lines = []
    result = train(model, cfg, prepare_examples(ds, gt), log=lines.append)
    assert len(result) == 4
    assert len(lines) == 4
    assert result[-1].train_loss < result[0].train_loss
    # each log line carries epoch, lr, loss, and five validation metrics
    assert all(len(line.split("\t")) == 8 for line in lines)


def test_decoupled_decay_only_on_embed(monkeypatch):
    """At the entry of each Adam step, embed equals its value before the
    batch minus lr * WEIGHT_DECAY times that value, and every other
    parameter is untouched."""
    ds = tiny_dataset()
    gt = GraphTensors(ds.graph)
    model = Model(ModelConfig("ggnn-mul", dims=10, attn_dims=4,
                              steps=3, dtype="float64"), gt, seed=0)
    zero_grad, step = Adam.zero_grad, Adam.step
    before, lrs = {}, []

    def recording_zero_grad(self):
        before.update(model.state_dict())
        zero_grad(self)

    def checking_step(self, lr):
        state = model.state_dict()
        embed = before["embed"]
        assert np.array_equal(state["embed"],
                              embed - lr * WEIGHT_DECAY * embed)
        assert not np.array_equal(state["embed"], embed)
        for name, value in state.items():
            if name != "embed":
                assert np.array_equal(value, before[name]), name
        lrs.append(lr)
        step(self, lr)

    monkeypatch.setattr(Adam, "zero_grad", recording_zero_grad)
    monkeypatch.setattr(Adam, "step", checking_step)
    ex = prepare_examples(ds, gt)
    train(model, TrainConfig(batch_size=8, epochs=2, snapshot_top_k=1), ex)
    assert len(lrs) == 2 * -(-len(ex["train"][0]) // 8)


def test_train_is_deterministic():
    ds = tiny_dataset()

    def go():
        gt = GraphTensors(ds.graph)
        model = Model(ModelConfig("ggnn-noact", dims=8,
                                  attn_dims=2, steps=2, dtype="float64"),
                      gt, seed=1)
        cfg = TrainConfig(batch_size=8, epochs=2, snapshot_top_k=1)
        return train(model, cfg, prepare_examples(ds, gt)), model.state_dict()

    (a, a_state), (b, b_state) = go(), go()
    assert a[-1].train_loss == b[-1].train_loss
    for k in a_state:
        assert np.array_equal(a_state[k], b_state[k])


def test_train_keeps_only_the_top_k_states(monkeypatch):
    """Each epoch has a snapshot, but only the k that select_snapshots
    returns hold a state: the parameters at the end of their epoch."""
    monkeypatch.setattr(training, "lr_schedule", lambda epoch: 0.01)
    ds = tiny_dataset()
    gt = GraphTensors(ds.graph)
    model = Model(ModelConfig("ggnn-mul", dims=10, attn_dims=4,
                              steps=3, dtype="float64"), gt, seed=0)
    at_epoch_end = []
    snapshots = train(model, TrainConfig(batch_size=8, epochs=5,
                                         snapshot_top_k=2),
                      prepare_examples(ds, gt),
                      log=lambda line: at_epoch_end.append(model.state_dict()))
    assert len(snapshots) == 5
    kept = [s.epoch for s in snapshots if s.state is not None]
    assert kept == sorted(s.epoch for s in select_snapshots(snapshots, 2))
    assert len(kept) == 2
    for epoch in kept:
        state = snapshots[epoch].state
        assert state.keys() == at_epoch_end[epoch].keys()
        for name, value in state.items():
            assert np.array_equal(value, at_epoch_end[epoch][name]), name


class StepReached(Exception):
    pass


def batch_of_16(name, dtype):
    """One batch of 16 train pairs, 4 microbatches, through train's batch
    path, stopped at Adam's step: the model with its parameters as before
    the batch, each microbatch's (src, dst, loss), and every parameter's
    grad at the step. Biases are drawn non-zero."""
    ds = tiny_dataset()
    gt = GraphTensors(ds.graph)
    model = Model(ModelConfig.from_name(name, dims=10, attn_dims=4, steps=3,
                                        dtype=dtype), gt, seed=0)
    rng = np.random.default_rng(1)
    for key, p in sorted(model.params.items()):
        if key.endswith(".b"):
            p.data[...] = rng.standard_normal(p.data.shape)
    ex = prepare_examples(ds, gt)
    tr_src, tr_dst = ex["train"]
    ex["train"] = (tr_src[:16], tr_dst[:16])
    micro, grads, loss = [], {}, model.loss

    def recording(src, dst, background=None):
        out = loss(src, dst, background)
        micro.append((src, dst, out.data.copy()))
        return out

    def step(self, lr):
        grads.update({k: p.grad.copy() for k, p in model.params.items()})
        raise StepReached

    state = model.state_dict()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "loss", recording)
        mp.setattr(Adam, "step", step)
        with pytest.raises(StepReached):
            train(model, TrainConfig(batch_size=16, epochs=1), ex)
    model.load_state_dict(state)  # undo the weight decay on embed
    return model, micro, grads


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_batch_shares_one_background(name):
    """train builds the batch's background once and its microbatches read
    it. Each microbatch's loss is bit for bit that of a forward that
    builds its own background; at float64 the batch's grads are those of
    recomputing the background per microbatch, each loss backward on its
    own, within 1e-10; at float32 they are within 1e-5 of float64's."""
    by_dtype = {}
    for dtype in ("float64", "float32"):
        model, micro, grads = batch_of_16(name, dtype)
        assert [len(src) for src, _, _ in micro] == [MICROBATCH_SIZE] * 4
        for p in model.params.values():
            p.grad = None
        for src, dst, value in micro:
            loss = model.loss(src, dst)
            assert np.array_equal(loss.data, value), (dtype, name)
            ad.mul(loss, len(src) / 16).backward()
        if dtype == "float64":
            for key, p in model.params.items():
                scale = max(1.0, np.abs(p.grad).max())
                assert np.abs(grads[key] - p.grad).max() <= 1e-10 * scale, key
        by_dtype[dtype] = grads
    for key, g64 in by_dtype["float64"].items():
        g32 = by_dtype["float32"][key]
        assert g32.dtype == np.float32, key
        assert np.abs(g32 - g64).max() <= 1e-5 * np.abs(g64).max(), key


@pytest.mark.parametrize("name", ["ggnn-mulmlp", "gat", "fullgn",
                                  "rw-dynamic", "rw-stationary"])
def test_train_builds_one_background_per_step(monkeypatch, name):
    """Model.background runs once per optimizer step, whatever the number
    of microbatches, and once per predict call of each evaluate."""
    ds = tiny_dataset()
    gt = GraphTensors(ds.graph)
    model = Model(ModelConfig.from_name(name, dims=10, attn_dims=4, steps=2),
                  gt, seed=0)
    calls = {"background": 0, "predict": 0, "step": 0}

    def counting(attr, fn):
        def wrapped(*args, **kw):
            calls[attr] += 1
            return fn(*args, **kw)
        return wrapped

    for attr in ("background", "predict"):
        monkeypatch.setattr(model, attr, counting(attr, getattr(model, attr)))
    monkeypatch.setattr(Adam, "step", counting("step", Adam.step))
    ex = prepare_examples(ds, gt)
    train(model, TrainConfig(batch_size=12, epochs=2, snapshot_top_k=1), ex)
    assert calls["step"] == 2 * -(-len(ex["train"][0]) // 12)
    assert calls["predict"] == 2
    assert calls["background"] == calls["step"] + calls["predict"]


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
