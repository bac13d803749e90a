"""Training harness: composite objective, staged schedule, ablations,
checkpoints, and the CLI."""

from .config import TrainConfig, load_config, parse_config
from .losses import LossBundle, total_loss
from .model import InteractionModel
from .optim import Adam
from .train import MetricsReport, evaluate, evaluate_clips, load_model, run_phase, train
from .ablate import AblationRow, ablate, parse_variants, write_report
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "TrainConfig", "load_config", "parse_config",
    "LossBundle", "total_loss",
    "InteractionModel", "Adam",
    "MetricsReport", "train", "evaluate", "evaluate_clips", "run_phase", "load_model",
    "AblationRow", "ablate", "parse_variants", "write_report",
    "save_checkpoint", "load_checkpoint",
]
