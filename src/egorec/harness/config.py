"""Training configuration and the ``key=value`` config file format."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass
class TrainConfig:
    # loss weights
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 0.1
    # optimizer
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 1e-4
    # schedule
    epochs_attention: int = 20
    epochs_motion: int = 20
    epochs_interaction: int = 60
    epochs_joint: int = 60
    batch_size: int = 8
    # model
    proj_dim: int = 32
    hidden_dim: int = 32
    num_classes: int = 4
    frame_height: int = 32
    frame_width: int = 64
    num_frames: int = 20
    channels: int = 24
    motion_dim: int = 16
    max_displacement: int = 5
    dropout: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "lr", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("alpha", "beta", "gamma", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        for name in ("beta1", "beta2", "dropout"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        for name, low in (("batch_size", 1), ("epochs_attention", 0), ("epochs_motion", 0),
                          ("epochs_interaction", 0), ("epochs_joint", 0), ("proj_dim", 1),
                          ("hidden_dim", 1), ("num_classes", 2), ("frame_height", 16),
                          ("frame_width", 16), ("num_frames", 2), ("channels", 2),
                          ("motion_dim", 1), ("max_displacement", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        # the backbone and the decoders work at a stride of 8
        for name in ("frame_height", "frame_width"):
            if getattr(self, name) % 8:
                raise ValueError(f"{name} must be a multiple of 8, got {getattr(self, name)}")

    def to_text(self) -> str:
        lines = [f"{f.name}={getattr(self, f.name)}" for f in dataclasses.fields(self)]
        return "\n".join(lines) + "\n"


def parse_config(text: str) -> TrainConfig:
    """Parse ``key=value`` lines; ``#`` starts a comment; unknown keys error."""
    fields = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        if key not in fields:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        is_float = fields[key] == "float"
        try:
            values[key] = float(value) if is_float else int(value)
        except ValueError:
            raise ValueError(f"config line {lineno}: {key}={value!r} is not "
                             f"{'a number' if is_float else 'an integer'}") from None
    return TrainConfig(**values)


def load_config(path) -> TrainConfig:
    """``parse_config`` of the file at ``path``; its errors name the file."""
    try:
        return parse_config(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
