"""Grid-world destination prediction with explicit attention flow."""

from .grid import (
    CorruptionParams,
    GridGraph,
    add_selfloops,
    build_grid,
    corrupt,
)
from .dynamics import DirectionFunction, Trajectory, edge_distribution, rollout
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
    RunResult,
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
    "CorruptionParams", "GridGraph", "add_selfloops", "build_grid", "corrupt",
    "DirectionFunction", "Trajectory", "edge_distribution", "rollout",
    "Dataset", "GenParams", "build_dataset", "dataset_stats", "load_dataset",
    "preset_names", "preset_params", "save_dataset",
    "GraphTensors", "Model", "ModelConfig", "MODEL_NAMES",
    "MetricsReport", "metrics", "ranks_of",
    "RunResult", "TrainConfig", "aggregate_runs", "evaluate", "lr_schedule",
    "prepare_examples", "run_experiment", "select_snapshots", "train",
]
