"""Training loop: batching, LR schedule, per-epoch validation snapshots,
snapshot selection, and multi-run aggregation.

Batches are split into microbatches of MICROBATCH_SIZE examples whose
gradients accumulate before a single optimizer step; this bounds the live
computation-graph memory without changing the update (contributions are
weighted by microbatch size). Snapshots are kept in memory as parameter
state dicts; callers persist the selected ones.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from . import autodiff as ad
from .data import TRAIN, VALID, Dataset
from .metrics import MetricsReport, metrics as compute_metrics, ranks_of
from .graphnets import MICROBATCH_SIZE, GraphTensors, Model, ModelConfig
from .optim import Adam

# Decoupled weight decay on the node embeddings.
WEIGHT_DECAY = 1e-5


@dataclass
class TrainConfig:
    batch_size: int = 16
    epochs: int = 50
    lr_start: float = 0.0005
    lr_end: float = 0.0001
    lr_step: float = 0.0001
    lr_step_epochs: int = 10
    snapshot_top_k: int = 3
    shuffle_seed: int = 0
    eval_batch_size: int = 64

    def __post_init__(self):
        if self.lr_start < self.lr_end:
            raise ValueError("lr schedule must be non-increasing")
        if self.epochs and self.snapshot_top_k > self.epochs:
            raise ValueError("snapshot_top_k cannot exceed epochs")


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    # Decimal arithmetic on the configured values, so that two drops of
    # 0.0001 from 0.0005 give 0.0003 and not 0.00030000000000000003.
    drops = epoch // cfg.lr_step_epochs
    lr = Decimal(str(cfg.lr_start)) - Decimal(str(cfg.lr_step)) * drops
    return max(cfg.lr_end, float(lr))


# run.log's columns: the header above the rows that Snapshot.log_line makes.
LOG_COLUMNS = ("epoch", "lr", "train_loss", "valid_hits1", "valid_hits5",
               "valid_hits10", "valid_mr", "valid_mrr")


@dataclass
class Snapshot:
    epoch: int
    lr: float
    train_loss: float
    valid: MetricsReport
    state: dict  # parameter name -> array

    def log_line(self) -> str:
        v = self.valid
        return "\t".join(
            [str(self.epoch), f"{self.lr:.6g}", f"{self.train_loss:.6f}",
             f"{v.hits1:.6f}", f"{v.hits5:.6f}", f"{v.hits10:.6f}",
             f"{v.mr:.4f}", f"{v.mrr:.6f}"]
        )


def prepare_examples(dataset: Dataset, gt: GraphTensors) -> dict:
    """Map (src, dst) node-id pairs to compact index arrays per split."""
    src = gt.to_indices(dataset.pairs[:, 0])
    dst = gt.to_indices(dataset.pairs[:, 1])
    out = {}
    for name, code in (("train", 0), ("valid", 1), ("test", 2)):
        mask = dataset.splits == code
        out[name] = (src[mask], dst[mask])
    return out


def check_dataset(dataset: Dataset) -> None:
    """ValueError unless the dataset has the train and valid pairs that
    train needs."""
    n_train, n_valid = (int(np.sum(dataset.splits == code))
                        for code in (TRAIN, VALID))
    if not (n_train and n_valid):
        raise ValueError(f"the dataset has {n_train} train and {n_valid} "
                         "valid pairs; training needs at least one of each")


def evaluate(model: Model, src, dst,
             batch_size: int = TrainConfig.eval_batch_size) -> MetricsReport:
    """Ranking metrics of the model's predictions over (src, dst) pairs."""
    ranks = []
    for lo in range(0, len(src), batch_size):
        probs = model.predict(src[lo:lo + batch_size])
        ranks.append(ranks_of(probs, dst[lo:lo + batch_size]))
    return compute_metrics(np.concatenate(ranks))


def _param_norms(model: Model) -> str:
    return ", ".join(
        f"{k}={float(np.linalg.norm(v.data)):.3g}" for k, v in model.params.items()
    )


def train(model: Model, cfg: TrainConfig, examples: dict,
          log=None) -> list:
    """Run the full epoch loop; returns the Snapshot of each epoch.

    examples: {"train": (src, dst), "valid": (src, dst), ...} compact indices.
    log: optional callable receiving one tab-separated line per epoch.
    """
    tr_src, tr_dst = examples["train"]
    va_src, va_dst = examples["valid"]
    if len(tr_src) == 0 or len(va_src) == 0:
        raise ValueError("train and valid splits must be non-empty")

    opt = Adam(model.params, weight_decay=WEIGHT_DECAY, decay_names=("embed",))
    rng = np.random.default_rng(cfg.shuffle_seed)
    snapshots = []

    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg)
        order = rng.permutation(len(tr_src))
        losses, sizes = [], []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            opt.zero_grad()
            batch_loss = 0.0
            for mlo in range(0, len(batch), MICROBATCH_SIZE):
                micro = batch[mlo:mlo + MICROBATCH_SIZE]
                weight = len(micro) / len(batch)
                loss = ad.mul(model.loss(tr_src[micro], tr_dst[micro]), weight)
                value = float(loss.data)
                if not np.isfinite(value):
                    raise FloatingPointError(
                        f"non-finite loss at epoch {epoch}, batch "
                        f"{start // cfg.batch_size}; parameter norms: "
                        f"{_param_norms(model)}"
                    )
                loss.backward()
                batch_loss += value
            opt.step(lr=lr)
            losses.append(batch_loss)
            sizes.append(len(batch))
        train_loss = float(np.average(losses, weights=sizes))
        valid = evaluate(model, va_src, va_dst, cfg.eval_batch_size)
        snap = Snapshot(epoch=epoch, lr=lr, train_loss=train_loss,
                        valid=valid, state=model.state_dict())
        snapshots.append(snap)
        if log is not None:
            log(snap.log_line())
    return snapshots


def select_snapshots(snaps: list, k: int) -> list:
    """Top-k snapshots by validation MRR; ties favor higher Hits@1, then
    the earlier epoch."""
    if len(snaps) < k:
        warnings.warn(
            f"only {len(snaps)} snapshots available, selecting all", stacklevel=2
        )
        k = len(snaps)
    ordered = sorted(snaps, key=lambda s: (-s.valid.mrr, -s.valid.hits1, s.epoch))
    return ordered[:k]


def evaluate_snapshots(model: Model, snapshots, src, dst,
                       batch_size: int) -> list:
    """MetricsReport per snapshot on the given pairs (restores each state)."""
    reports = []
    for snap in snapshots:
        model.load_state_dict(snap.state)
        reports.append(evaluate(model, src, dst, batch_size))
    return reports


METRIC_FIELDS = ("hits1", "hits5", "hits10", "mr", "mrr")


def aggregate_runs(reports) -> dict:
    """Mean and population std per metric over per-snapshot metric
    reports."""
    if not reports:
        raise ValueError("nothing to aggregate")
    out = {}
    for name in METRIC_FIELDS:
        values = np.array([getattr(r, name) for r in reports], dtype=np.float64)
        out[name] = {"mean": float(values.mean()), "std": float(values.std())}
    out["n_snapshots"] = len(reports)
    return out


def run_experiment(model_cfg: ModelConfig, train_cfg: TrainConfig,
                   dataset: Dataset, model_seed: int = 0, log=None):
    """Train one model on one dataset; returns (model, the Snapshot of
    each epoch, selected snapshots, test MetricsReports for the
    selection)."""
    gt = GraphTensors(dataset.graph)
    model = Model(model_cfg, gt, seed=model_seed)
    examples = prepare_examples(dataset, gt)
    snapshots = train(model, train_cfg, examples, log=log)
    if not snapshots:
        return model, snapshots, [], []
    selected = select_snapshots(snapshots, train_cfg.snapshot_top_k)
    te_src, te_dst = examples["test"]
    tests = evaluate_snapshots(model, selected, te_src, te_dst,
                               train_cfg.eval_batch_size)
    return model, snapshots, selected, tests
