"""The three benchmark workloads.

Each one has a set-up (dataset build, GraphTensors, prepare_examples and
Model init, all from the seed) and a unit of work: one call into the
library that the run repeats while it has time. All use library defaults,
TrainConfig() and ModelConfig.from_name(name, steps=16), except for the
amount of work, which is sized here to fit the run time on a 2-core
machine. See README.md for why each workload exists.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from gridflow import data, graphnets, training

LINE = "LINE-SZ32-STP16-NDRP-STD0.2"
SINE = "SINE-SZ32-STP16-NDRP-STD0.2"
STEPS = 16


@dataclass
class Setup:
    dataset: data.Dataset
    examples: dict
    model: graphnets.Model


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    model: str
    main_op: str  # "step" or "batch": what op_s.p50 and ex_per_s time
    # Sizes; smoke runs shrink them.
    steps: int = STEPS
    train_pairs: int = 0  # train-mulmlp: shuffled prefix, 2 steps of 16
    valid_pairs: int = 0  # train-mulmlp: valid subset
    epochs: int = 0  # train-rw

    def setup(self, seed: int) -> Setup:
        ds = data.build_dataset(data.preset_params(self.preset, seed=seed))
        gt = graphnets.GraphTensors(ds.graph)
        examples = training.prepare_examples(ds, gt)
        cfg = graphnets.ModelConfig.from_name(self.model, steps=self.steps)
        return Setup(ds, examples, graphnets.Model(cfg, gt, seed=seed))

    def units(self, s: Setup, seed: int):
        """Returns (unit(k), ref_index(k)): the k-th unit of work, and the
        index of the earlier unit whose outputs it must reproduce (units
        that repeat the same inputs on the same state share one)."""
        rng = np.random.default_rng([seed, 7])
        if self.name == "train-mulmlp":
            tr_src, tr_dst = s.examples["train"]
            va_src, va_dst = s.examples["valid"]
            tr = rng.permutation(len(tr_src))[:self.train_pairs]
            va = rng.permutation(len(va_src))[:self.valid_pairs]
            sub = {"train": (tr_src[tr], tr_dst[tr]),
                   "valid": (va_src[va], va_dst[va])}
            cfg = training.TrainConfig(epochs=1, snapshot_top_k=1,
                                       shuffle_seed=seed)
            # Units keep training the same model, so each is distinct.
            return (lambda k: training.train(s.model, cfg, sub)), (lambda k: k)
        if self.name == "eval-gat":
            va_src, va_dst = s.examples["valid"]
            order = rng.permutation(len(va_src))
            size = training.TrainConfig().eval_batch_size
            n = max(1, len(order) // size)
            batches = [order[i * size:(i + 1) * size] for i in range(n)]

            def unit(k):
                b = batches[k % n]
                return training.evaluate(s.model, va_src[b], va_dst[b], size)

            return unit, (lambda k: k % n)
        if self.name == "train-rw":
            cfg = training.TrainConfig(epochs=self.epochs,
                                       snapshot_top_k=self.epochs,
                                       shuffle_seed=seed)
            mcfg = graphnets.ModelConfig.from_name(self.model, steps=self.steps)

            def unit(k):
                return training.run_experiment(mcfg, cfg, s.dataset,
                                               model_seed=seed)

            return unit, (lambda k: 0)
        raise ValueError(f"unknown workload {self.name!r}")


WORKLOADS = {
    "train-mulmlp": Workload("train-mulmlp", LINE, "ggnn-mulmlp", "step",
                             train_pairs=32, valid_pairs=8),
    "eval-gat": Workload("eval-gat", SINE, "gat", "batch"),
    "train-rw": Workload("train-rw", LINE, "rw-stationary", "step", epochs=2),
}


def smoke(w: Workload) -> Workload:
    """A seconds-long variant for the self-test: two propagation steps and
    one epoch; its outputs are not compared with the reference."""
    return replace(w, steps=2, train_pairs=min(w.train_pairs, 16),
                   valid_pairs=min(w.valid_pairs, 4), epochs=min(w.epochs, 1))
