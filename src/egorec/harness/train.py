"""Two-stage training schedule, evaluation, and checkpoint round trips.

Every phase minimises ``losses.total_loss``, the sum ``l_cls + alpha·l_seg
+ beta·l_rec + gamma·l_smooth`` over the terms its forward pass computes.
``SCHEDULE`` gives each front-end phase the module it trains, its forward
flags and epochs field: 1a trains the mask decoder on ``alpha·l_seg``, 1b the
motion module on ``beta·l_rec + gamma·l_smooth``, and stage 2 everything on
all four terms. Phase 1c, like every ablation head, trains the recurrent
classifier on ``l_cls`` over stream features the frozen front end computed
once (``extract_features``, no tape). Every phase and head runs the same
epoch loop (``_fit``) with one Adam over the parameters it trains, at
``config.lr`` and ``config.weight_decay`` for all its epochs. While a
front-end phase runs, the parameters outside its group do not require
grad, so their ops are not taped and they get no gradient. Every phase
runs all its epochs and keeps its last parameters: training reads only the
train split. ``train`` draws each phase's batch order, augmentation and
dropout from a generator of its own, seeded by ``config.seed`` and the
phase, so a stage 2 run on a stage-1 checkpoint writes the bytes ``--stage
all`` writes. A non-finite pass loss or cached feature raises a
``NonFiniteError`` naming the first op whose output was not finite.

The front end runs on at most ``model.FRONT_END_CLIPS`` clips per pass.
Every loss is a mean over clips and no layer couples the clips of a batch,
so a front-end phase accumulates each optimizer batch's gradient over
passes of that many clips, each on its own tape, and Adam steps once per
batch: with one clip a pass, a phase-2 step holds the tape of one clip at
a time. The heads' tape is small, so phase 1c and the ablation heads run
one pass per batch.

``evaluate_clips`` scores ``model.interact`` as the ablation heads are
scored (``eval_head`` on ``extract_features``). Only training batches
(``_batch_arrays``) take a random frame per segment and augment each clip;
``extract_features`` takes each segment's first frame, unaugmented.
"""

from __future__ import annotations

import contextlib
import copy
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..diffcore import NonFiniteError, ShapeError, Tape, Tensor, backward, set_debug_nan
from ..diffcore.tensor import debug_nan_enabled
from ..interact import InteractiveClassifier, classification_loss
from ..synthdata import DatasetManifest, VideoClip, augment, load_split, sample_frames
from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig, parse_config
from .losses import LossBundle, total_loss
from .model import FRONT_END_CLIPS, InteractionModel
from .optim import Adam

PHASES = ("1a", "1b", "1c", "2")

# phase -> (model attribute whose parameters it trains, or None for all;
#           forward flags; epochs field)
SCHEDULE = {
    "1a": ("attention", dict(need_seg=True), "epochs_attention"),
    "1b": ("motion", dict(need_rec=True), "epochs_motion"),
    "2": (None, dict(need_seg=True, need_rec=True, need_cls=True), "epochs_joint"),
}


@dataclass
class MetricsReport:
    accuracy: float
    confusion: np.ndarray
    count: int
    mean_loss: float


@dataclass
class TrainState:
    model: InteractionModel
    stage: str


def _batch_arrays(clips: list[VideoClip], config: TrainConfig, rng: np.random.Generator):
    """A training batch as stacked arrays: each clip's sampling is jittered
    and the clip augmented right after its sampling."""
    frames, masks, labels = [], [], []
    for clip in clips:
        sampled = augment(sample_frames(clip, config.num_frames, rng), rng)
        frames.append(sampled.frames)
        masks.append(sampled.ref_masks)
        labels.append(sampled.label)
    return np.stack(frames), np.stack(masks), np.asarray(labels, dtype=np.int64)


def _fit(phase: str, params, batch_loss, n: int, clips_per_pass: int, epochs: int,
         config: TrainConfig, rng: np.random.Generator, log=None) -> None:
    """The epoch loop of every phase and head: each epoch batches a fresh
    permutation of ``n`` items and splits each batch into passes of at most
    ``clips_per_pass`` items. ``batch_loss(idx, rng)`` returns a pass's
    (loss Tensor, LossBundle), each a mean over its items. Each pass is
    recorded on its own tape and differentiated at once, weighted by its
    share of the batch's items (a weight of exactly 1.0 adds no op), so the
    gradients of ``params`` sum to the batch's; one Adam over ``params``
    then steps once per batch, at ``config.lr`` for every epoch, and their
    gradients are cleared for the next batch. A batch's
    logged loss and components are the item-weighted means over its
    passes, averaged over the epoch's batches. A non-finite pass loss is
    replayed from the generator as it was before that pass, to name its
    first non-finite op."""
    opt = Adam(params, config.lr, config.weight_decay, config.beta1, config.beta2)

    for epoch in range(epochs):
        order = rng.permutation(n)
        sums = dict.fromkeys(vars(LossBundle()), 0.0)
        nb = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            for first in range(0, len(idx), clips_per_pass):
                part = idx[first:first + clips_per_pass]
                weight = len(part) / len(idx)
                rng_before = copy.deepcopy(rng)
                with Tape() as tape:
                    loss, bundle = batch_loss(part, rng)
                    if weight != 1.0:
                        loss = loss * weight
                if not np.isfinite(bundle.l_final):
                    # replaying from the generator as it was repeats every draw
                    op = _first_non_finite_op(lambda: batch_loss(part, rng_before))
                    raise NonFiniteError(f"phase {phase} epoch {epoch + 1}/{epochs}: loss is "
                                         f"{bundle.l_final}; first non-finite op: {op}")
                backward(tape, loss, params=params)
                for name, value in vars(bundle).items():
                    sums[name] += weight * value
            opt.step()
            for p in params:
                p.grad = None
            nb += 1
        means = {name: total / max(nb, 1) for name, total in sums.items()}
        epoch_loss = means.pop("l_final")
        if log:
            log(f"phase {phase} epoch {epoch + 1}/{epochs} loss {epoch_loss:.5f} "
                + " ".join(f"{name} {value:.5f}" for name, value in means.items()))


def _first_non_finite_op(run) -> str:
    """Call ``run`` again with every op's output checked; returns the first
    failing op's message."""
    was_on = debug_nan_enabled()
    set_debug_nan(True)
    try:
        run()
    except NonFiniteError as exc:
        return str(exc)
    finally:
        set_debug_nan(was_on)
    return "none on replay"


def extract_features(model: InteractionModel, clips, config: TrainConfig):
    """Deterministic per-clip stream features from the frozen front end:
    ((f_ga, f_gm, f_la, f_lm), labels). A non-finite feature raises a
    ``NonFiniteError`` naming the first op whose output was not finite."""
    if not clips:
        raise ValueError("extract_features: no clips")

    def run():
        parts = []
        # sampled a pass at a time: only one pass's frames are held at once
        for start in range(0, len(clips), FRONT_END_CLIPS):
            batch = clips[start:start + FRONT_END_CLIPS]
            frames = np.stack([sample_frames(c, config.num_frames).frames for c in batch])
            parts.append(model.stream_features(frames))
        return tuple(np.concatenate(p).astype(np.float32) for p in zip(*parts))

    feats = run()
    if not all(np.isfinite(f).all() for f in feats):
        raise NonFiniteError(f"stream features are not finite; first non-finite op: "
                             f"{_first_non_finite_op(run)}")
    return feats, np.asarray([c.label for c in clips], dtype=np.int64)


def train_head(head: InteractiveClassifier, feats, labels, config: TrainConfig,
               rng: np.random.Generator, log=None) -> None:
    """Fit ``head`` for ``epochs_interaction`` epochs on cached stream
    features (``extract_features``), as phase 1c."""
    def batch_loss(idx, rng):
        _, probs = head.classify(*(Tensor(f[idx]) for f in feats), rng)
        return total_loss(config, l_cls=classification_loss(probs, labels[idx]))
    _fit("1c", head.parameters(), batch_loss, len(labels),
         config.batch_size, config.epochs_interaction, config, rng, log)


def eval_head(head: InteractiveClassifier, feats, labels) -> MetricsReport:
    """Score ``head`` on cached stream features, without dropout."""
    _, probs = head.classify(*(Tensor(f) for f in feats), rng=None)
    mean_loss = classification_loss(probs, labels).item()
    pred = np.argmax(probs.numpy(), axis=1)
    k = probs.shape[1]
    confusion = np.bincount(labels * k + pred, minlength=k * k).reshape(k, k)
    return MetricsReport(accuracy=float((pred == labels).mean()), confusion=confusion,
                         count=len(labels), mean_loss=mean_loss)


@contextlib.contextmanager
def _training_only(model: InteractionModel, params):
    """Mark every parameter of ``model`` outside ``params`` as not requiring
    grad, and restore the flags on exit, also when the body raises."""
    trained = {id(p) for p in params}
    frozen = [p for p in model.parameters() if p.requires_grad and id(p) not in trained]
    for p in frozen:
        p.requires_grad = False
    try:
        yield
    finally:
        for p in frozen:
            p.requires_grad = True


def run_phase(model: InteractionModel, phase: str, clips: list[VideoClip],
              config: TrainConfig, rng: np.random.Generator, log=None) -> None:
    """Train one phase of the schedule on the train ``clips``. While a
    front-end phase runs, only its group requires grad: no op of a frozen
    group is taped and no frozen parameter gets a gradient. (Phase 1c tapes
    only the head, on features extracted without a tape.)"""
    if phase == "1c":
        try:
            feats, labels = extract_features(model, clips, config)
        except NonFiniteError as exc:
            raise NonFiniteError(f"phase 1c: {exc}") from None
        train_head(model.interact, feats, labels, config, rng, log=log)
        return
    if phase not in SCHEDULE:
        raise ValueError(f"unknown phase {phase!r}")
    group, needs, epochs_field = SCHEDULE[phase]

    def batch_loss(idx, rng):
        frames, masks, labels = _batch_arrays([clips[i] for i in idx], config, rng)
        res = model.forward(frames, masks, labels, rng=rng, **needs)
        return total_loss(config, res.l_cls, res.l_seg, res.l_rec, res.l_smooth)
    params = (model if group is None else getattr(model, group)).parameters()
    with _training_only(model, params):
        _fit(phase, params, batch_loss, len(clips), FRONT_END_CLIPS,
             getattr(config, epochs_field), config, rng, log)


def phase_rng(seed: int, phase: str) -> np.random.Generator:
    """The generator of ``phase``'s batch order, augmentation and dropout in
    ``train`` and ``ablate`` (which also draws each head's initial weights
    from a fresh "1c" one): a stream of its own per seed and phase, so that
    stage 2 after stage 1 draws what ``--stage all`` draws."""
    return np.random.default_rng([seed, 2, PHASES.index(phase)])


def _read_checkpoint(ckpt_path) -> tuple[dict[str, np.ndarray], str, str]:
    """``load_checkpoint`` refusing a stage marker that no phase writes."""
    table, cfg_text, marker = load_checkpoint(ckpt_path)
    if marker not in PHASES:
        raise ValueError(f"unexpected stage marker {marker!r} in {ckpt_path}")
    return table, cfg_text, marker


def _load_params(model: InteractionModel, table, ckpt_path) -> None:
    """``model.load_state_arrays`` with the checkpoint's path in its errors."""
    try:
        model.load_state_arrays(table)
    except KeyError as exc:
        raise KeyError(f"{ckpt_path}: {exc.args[0]}") from None
    except ShapeError as exc:
        raise ShapeError(f"{ckpt_path}: {exc}") from None


def load_clips(manifest: DatasetManifest, split: str, config: TrainConfig,
               source: str = "config") -> list[VideoClip]:
    """``split``'s clips for a run under ``config``, which ``source`` names.
    A dataset of another class count is refused before a clip is loaded,
    one of another frame size (read from the film strips' headers) before
    any phase runs, each with a ``ValueError`` naming the dataset."""
    if manifest.num_classes != config.num_classes:
        raise ValueError(f"{manifest.root}: dataset has K={manifest.num_classes}, "
                         f"{source} expects {config.num_classes}")
    clips = load_split(manifest, split)
    want = (config.frame_height, config.frame_width)
    for clip in clips:
        if clip.frames.shape[1:3] != want:
            raise ValueError(f"{manifest.root}: dataset has {clip.frames.shape[1]}x"
                             f"{clip.frames.shape[2]} frames, {source} expects "
                             f"{want[0]}x{want[1]} (height x width)")
    return clips


def train(manifest: DatasetManifest, config: TrainConfig, stage: str,
          ckpt_path, log=None) -> TrainState:
    """Run the requested stage(s) and write a checkpoint after each phase."""
    if stage not in ("1", "2", "all"):
        raise ValueError(f"stage must be 1, 2 or all, got {stage!r}")
    clips = load_clips(manifest, "train", config)
    model = InteractionModel(config, np.random.default_rng(config.seed))
    ckpt_path = Path(ckpt_path)

    if stage == "2":
        if not ckpt_path.exists():
            raise FileNotFoundError(
                f"stage 2 needs the stage-1 checkpoint at {ckpt_path}")
        table, _, marker = _read_checkpoint(ckpt_path)
        if marker in ("1a", "1b"):
            raise ValueError(f"{ckpt_path}: unfinished stage 1 (stage marker {marker!r})")
        _load_params(model, table, ckpt_path)
        phases = ["2"]
    else:
        phases = list(PHASES if stage == "all" else PHASES[:3])

    for phase in phases:
        run_phase(model, phase, clips, config, phase_rng(config.seed, phase), log=log)
        save_checkpoint(ckpt_path, model.state_arrays(), config.to_text(), phase)
    return TrainState(model=model, stage=phases[-1])


def load_model(ckpt_path) -> tuple[InteractionModel, TrainConfig, str]:
    table, cfg_text, stage = _read_checkpoint(ckpt_path)
    try:
        config = parse_config(cfg_text)
    except ValueError as exc:
        raise ValueError(f"{ckpt_path}: {exc}") from None
    model = InteractionModel(config, np.random.default_rng(config.seed))
    _load_params(model, table, ckpt_path)
    return model, config, stage


def evaluate_clips(model: InteractionModel, clips: list[VideoClip],
                   config: TrainConfig) -> MetricsReport:
    """Deterministic evaluation on the path of phase 1c and the ablation
    heads: ``model.interact`` scored on ``extract_features``' features."""
    return eval_head(model.interact, *extract_features(model, clips, config))


def evaluate(manifest: DatasetManifest, ckpt_path, split: str) -> MetricsReport:
    model, config, _ = load_model(ckpt_path)
    clips = load_clips(manifest, split, config, f"checkpoint {ckpt_path}")
    return evaluate_clips(model, clips, config)
