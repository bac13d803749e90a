"""Interaction-variant ablations under a shared per-seed budget.

For each seed the shared front end (mask decoder, then motion module) is
trained once by phases 1a and 1b and frozen; every variant head then
trains on identical cached stream features, with the head trainer of phase
1c, and is scored as ``evaluate_clips`` scores a trained model
(``train.extract_features``, ``train.train_head`` and ``train.eval_head``).
Every phase and head draws from ``train.phase_rng``, so a seed's front end
is bitwise the one ``train`` trains with that ``config.seed``.
This isolates what the comparison is about, the recurrent interaction
structure, and keeps the matrix cheap enough to run on a CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..interact import FEATURE_SETS, VARIANTS
from ..synthdata import DatasetManifest
from .config import TrainConfig
from .model import InteractionModel, interaction_head
from .train import (eval_head, extract_features, load_clips, phase_rng, run_phase,
                    train_head)


@dataclass
class AblationRow:
    variant: str
    features: str
    accuracy: float
    seed: int


def parse_variants(spec: str) -> list[tuple[str, str]]:
    """Parse ``"ego,full"`` or ``"ego:motion,full:both"`` into (variant, features)."""
    out = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, feats = item.partition(":")
        feats = feats or "both"
        if name not in VARIANTS:
            raise ValueError(f"unknown variant {name!r}; choose from {VARIANTS}")
        if feats not in FEATURE_SETS:
            raise ValueError(f"unknown feature set {feats!r}; choose from {FEATURE_SETS}")
        out.append((name, feats))
    if not out:
        raise ValueError("no variants given")
    return out


def ablate(manifest: DatasetManifest, config: TrainConfig,
           variants: list[tuple[str, str]], seeds: list[int] | None = None,
           log=None) -> list[AblationRow]:
    """Train/evaluate each (variant, feature-set) under identical budgets."""
    seeds = list(seeds) if seeds is not None else [config.seed]
    if any(seed < 0 for seed in seeds):
        raise ValueError(f"seeds must be nonnegative, got {seeds}")
    train_clips, test_clips = (load_clips(manifest, split, config) for split in ("train", "test"))
    rows = []
    for seed in seeds:
        model = InteractionModel(config, np.random.default_rng(seed))
        for phase in ("1a", "1b"):
            run_phase(model, phase, train_clips, config, phase_rng(seed, phase), log=log)
        feats_tr, labels_tr = extract_features(model, train_clips, config)
        feats_te, labels_te = extract_features(model, test_clips, config)
        for variant, featset in variants:
            head_rng = phase_rng(seed, "1c")
            head = interaction_head(config, head_rng, model.motion.global_dim, variant, featset)
            train_head(head, feats_tr, labels_tr, config, head_rng)
            acc = eval_head(head, feats_te, labels_te).accuracy
            rows.append(AblationRow(variant=variant, features=featset,
                                    accuracy=acc, seed=seed))
            if log:
                log(f"seed {seed} variant {variant}:{featset} accuracy {acc:.3f}")
    return rows


def write_report(path, rows: list[AblationRow]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("variant\tfeatures\taccuracy\tseed\n")
        for r in rows:
            f.write(f"{r.variant}\t{r.features}\t{r.accuracy:.6f}\t{r.seed}\n")
