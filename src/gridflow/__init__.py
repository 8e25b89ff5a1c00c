"""Grid-world destination prediction with explicit attention flow.

GRIDFLOW_THREADS caps the BLAS threads. It is applied here, before the
imports below load numpy, because the BLAS pools are sized when numpy is
first imported; so it holds for every entry point, `python -m gridflow.cli`
and the `gridflow` script alike.
"""
import os as _os


def _apply_thread_cap():
    cap = _os.environ.get("GRIDFLOW_THREADS")
    if not cap:
        return None
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(var, cap)
    return max(1, int(cap))


_apply_thread_cap()

from .grid import GridGraph, add_selfloops, build_grid, corrupt
from .dynamics import edge_distribution, rollout
from .data import (
    Dataset,
    GenParams,
    build_dataset,
    dataset_stats,
    load_dataset,
    preset_names,
    preset_params,
    save_dataset,
)
from .graphnets import GraphTensors, Model, ModelConfig, MODEL_NAMES
from .metrics import MetricsReport, metrics, ranks_of
from .training import (
    TrainConfig,
    aggregate_runs,
    evaluate,
    lr_schedule,
    prepare_examples,
    run_experiment,
    select_snapshots,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "GridGraph", "add_selfloops", "build_grid", "corrupt",
    "edge_distribution", "rollout",
    "Dataset", "GenParams", "build_dataset", "dataset_stats", "load_dataset",
    "preset_names", "preset_params", "save_dataset",
    "GraphTensors", "Model", "ModelConfig", "MODEL_NAMES",
    "MetricsReport", "metrics", "ranks_of",
    "TrainConfig", "aggregate_runs", "evaluate", "lr_schedule",
    "prepare_examples", "run_experiment", "select_snapshots", "train",
]
