"""Interaction-variant ablations under a shared per-seed budget.

For each seed the shared front end (mask decoder, then motion module) is
trained once in the stage-1 style and frozen; every variant head then
trains on identical cached stream features. This isolates what the
comparison is about, the recurrent interaction structure, and keeps the
matrix cheap enough to run on a CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diffcore import Tape, Tensor, backward
from ..interact import FEATURE_SETS, VARIANTS, InteractiveClassifier, classification_loss
from ..synthdata import DatasetManifest, load_split, sample_frames
from .config import TrainConfig
from .model import InteractionModel, interaction_head
from .optim import Adam
from .train import run_phase


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


def extract_features(model: InteractionModel, clips, config: TrainConfig,
                     batch_size: int = 16):
    """Deterministic per-clip stream features from the frozen front end."""
    gas, gms, las, lms, labels = [], [], [], [], []
    for start in range(0, len(clips), batch_size):
        batch = clips[start:start + batch_size]
        frames = np.stack([sample_frames(c, config.num_frames).frames for c in batch])
        f_ga, f_gm, f_la, f_lm = model.stream_features(frames)
        gas.append(f_ga)
        gms.append(f_gm)
        las.append(f_la)
        lms.append(f_lm)
        labels.extend(c.label for c in batch)
    cat = lambda parts: np.concatenate(parts).astype(np.float32)
    return (cat(gas), cat(gms), cat(las), cat(lms)), np.asarray(labels, dtype=np.int64)


def train_head(head: InteractiveClassifier, feats, labels, config: TrainConfig,
               rng: np.random.Generator, epochs: int | None = None) -> None:
    f_ga, f_gm, f_la, f_lm = feats
    epochs = epochs if epochs is not None else config.epochs_interaction
    params = head.parameters()
    opt = Adam([(params, config.lr, config.weight_decay)], beta1=config.beta1,
               beta2=config.beta2)
    n = labels.shape[0]
    bs = max(config.batch_size * 8, 64)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, bs):
            idx = order[start:start + bs]
            with Tape() as tape:
                _, probs = head.classify(Tensor(f_ga[idx]), Tensor(f_gm[idx]),
                                         Tensor(f_la[idx]), Tensor(f_lm[idx]), rng)
                loss = classification_loss(probs, labels[idx])
            backward(tape, loss, params=params)
            opt.step()
            head.zero_grad()


def eval_head(head: InteractiveClassifier, feats, labels) -> float:
    f_ga, f_gm, f_la, f_lm = feats
    _, probs = head.classify(Tensor(f_ga), Tensor(f_gm), Tensor(f_la), Tensor(f_lm), rng=None)
    pred = np.argmax(probs.numpy(), axis=1)
    return float((pred == labels).mean())


def ablate(manifest: DatasetManifest, config: TrainConfig,
           variants: list[tuple[str, str]], seeds: list[int] | None = None,
           log=None) -> list[AblationRow]:
    """Train/evaluate each (variant, feature-set) under identical budgets."""
    seeds = list(seeds) if seeds is not None else [config.seed]
    train_clips = load_split(manifest, "train")
    test_clips = load_split(manifest, "test")
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        model = InteractionModel(config, rng)
        run_phase(model, "1a", train_clips, config, rng, log=log)
        run_phase(model, "1b", train_clips, config, rng, log=log)
        feats_tr, labels_tr = extract_features(model, train_clips, config)
        feats_te, labels_te = extract_features(model, test_clips, config)
        for variant, featset in variants:
            head_rng = np.random.default_rng(seed + 1)
            head = interaction_head(config, head_rng, model.motion.global_dim, variant, featset)
            train_head(head, feats_tr, labels_tr, config, head_rng)
            acc = eval_head(head, feats_te, labels_te)
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
