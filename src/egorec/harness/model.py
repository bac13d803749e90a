"""Full pipeline assembly: frames in, losses and class probabilities out.

The front end runs a pass's frames through the backbone and mask decoder,
its consecutive-frame pairs through the motion estimator, and pools the
per-step stream features. Under a tape the pass is the whole batch, which
the tape keeps until ``backward`` anyway; without one, passes of at most
``FRONT_END_CLIPS`` clips run in turn and the stages ``forward`` reads are
concatenated, bitwise the same since no front-end layer couples clips. The
losses and the recurrent classifier run once over the batch.

``forward`` computes and keeps only what its ``need_*`` flags ask for, with
or without a tape: the masks (with m1 and m2 only for the segmentation
loss) under ``need_seg`` or ``need_rec``, the motion estimate and
reconstruction under ``need_rec``, the stream features and probabilities
under ``need_cls``. A pass drops every stage ``forward`` does not read once
the pass is done with it, so a tape-less ``need_cls`` forward holds one
pass and the small stream features of the rest; ``egorec viz`` reads the
masks, motion estimate and reconstruction of ``need_rec``.
``stream_features`` stops at the stream features, which phase 1c, the
ablation heads and evaluation classify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import diffcore as dc
from ..attention import MaskDecoder, global_pool, segmentation_loss, weighted_pool
from ..backbone import ConvBackbone
from ..diffcore import ShapeError, Tensor
from ..interact import InteractiveClassifier, classification_loss
from ..motion import MotionEstimator, reconstruction_loss, smoothness_loss, warp_previous
from ..nn import Module
from .config import TrainConfig

# Clips per front-end pass, in training, extract_features and a tape-less
# forward. A pass's tape grows with its clips; a default phase-2 step of 8
# clips at 8/4/2/1 clips a pass peaked at 115/82/67/57 MiB and took
# 0.56/0.53/0.54/0.58 s (2 vCPU, one BLAS thread).
FRONT_END_CLIPS = 1


@dataclass
class ForwardResult:
    """What ``forward`` computed. A field is None unless a flag asks for it:
    ``masks_m3`` under ``need_seg`` or ``need_rec``; ``l_seg`` under
    ``need_seg``; ``motion_est``, ``recon``, ``l_rec`` and ``l_smooth`` under
    ``need_rec``; ``probs`` under ``need_cls``, and ``l_cls`` with it when
    labels are given. A kept motion estimate has its dense field: the field
    heads run only under ``need_rec``, so a ``need_cls``-only pass
    (``stream_features`` included) does not run them."""

    probs: Tensor | None = None
    l_cls: Tensor | None = None
    l_seg: Tensor | None = None
    l_rec: Tensor | None = None
    l_smooth: Tensor | None = None
    masks_m3: Tensor | None = None
    recon: Tensor | None = None
    motion_est: object = None


def interaction_head(config: TrainConfig, rng: np.random.Generator, motion_dim_ego: int,
                     variant: str = "full", features: str = "both") -> InteractiveClassifier:
    """The recurrent classifier at ``config``'s sizes; ``motion_dim_ego`` is the
    motion module's global embedding width."""
    return InteractiveClassifier(
        appear_dim=config.channels, motion_dim=config.motion_dim,
        num_classes=config.num_classes, rng=rng, proj_dim=config.proj_dim,
        hidden=config.hidden_dim, variant=variant, features=features,
        dropout_ratio=config.dropout, motion_dim_ego=motion_dim_ego)


def _pairs(x: Tensor, batch: int, take_prev: bool) -> Tensor:
    """(B*N, ...) per-frame rows -> (B*(N-1), ...) rows of each consecutive
    pair's earlier (``take_prev``) or later frame."""
    n = x.shape[0] // batch
    full = dc.reshape(x, (batch, n) + x.shape[1:])
    sl = full[:, :-1] if take_prev else full[:, 1:]
    return dc.reshape(sl, (batch * (n - 1),) + x.shape[1:])


def _cat(parts):
    """Per-pass outputs (Tensors, or tuples or dataclasses of them, or None)
    joined by batch."""
    first = parts[0]
    if first is None:
        return None
    if isinstance(first, Tensor):
        return Tensor(np.concatenate([p.data for p in parts]))
    if isinstance(first, tuple):
        return tuple(map(_cat, zip(*parts)))
    return type(first)(*map(_cat, zip(*(vars(p).values() for p in parts))))


def _streams(feats: Tensor, m0: Tensor, est, batch: int):
    """Per-step (f_ga, f_gm, f_la, f_lm), each (B, S, dim)."""
    # weighted_pool is recorded before global_pool: the order in which
    # backward sums the features' gradients depends on it
    f_la = weighted_pool(feats, m0)
    f_ga = global_pool(feats)
    seq = lambda x: dc.reshape(x, (batch, x.shape[0] // batch, x.shape[-1]))
    return (seq(_pairs(f_ga, batch, False)), seq(est.f_gm),
            seq(_pairs(f_la, batch, False)), seq(est.f_lm))


class InteractionModel(Module):
    def __init__(self, config: TrainConfig, rng: np.random.Generator):
        self.config = config
        self.backbone = ConvBackbone(config.channels, (config.frame_height, config.frame_width),
                                     rng)
        self.attention = MaskDecoder(config.channels, rng)
        self.motion = MotionEstimator(config.channels,
                                      (config.frame_height, config.frame_width),
                                      rng, max_displacement=config.max_displacement,
                                      embed_dim=config.motion_dim)
        self.interact = interaction_head(config, rng, self.motion.global_dim)

    def all_named(self):
        return list(self.named_parameters())

    # front end shared by forward and stream_features

    def _front_end(self, frames: np.ndarray, need_seg: bool, need_rec: bool, need_cls: bool):
        """One pass: (masks, motion estimate, stream features). The masks are
        kept under ``need_seg`` or ``need_rec``, the motion estimate under
        ``need_rec``, the stream features under ``need_cls``; the rest is
        None and dies with the pass."""
        b, n, h, w, _ = frames.shape
        feats = self.backbone.extract(Tensor(frames.reshape(b * n, h, w, 3)))
        masks = self.attention.predict_masks(feats, need_seg)
        m0 = masks.m0
        if not (need_seg or need_rec):
            masks = None
        if not (need_rec or need_cls):
            return masks, None, None
        est = self.motion.estimate(_pairs(feats, b, True), _pairs(feats, b, False),
                                   _pairs(m0, b, False), need_field=need_rec)
        streams = _streams(feats, m0, est, b) if need_cls else None
        return masks, est if need_rec else None, streams

    def _passes(self, frames: np.ndarray, need_seg: bool, need_rec: bool, need_cls: bool):
        """``_front_end``'s stages: one pass under a tape, else each stage
        joined over passes."""
        if frames.ndim != 5 or frames.shape[0] < 1 or frames.shape[1] < 2:
            raise ShapeError(f"model: frames must be (B >= 1, N >= 2, H, W, 3), "
                             f"got {frames.shape}")
        needs = (need_seg, need_rec, need_cls)
        if dc.active_tape() is not None or len(frames) <= FRONT_END_CLIPS:
            return self._front_end(frames, *needs)
        return _cat([self._front_end(frames[i:i + FRONT_END_CLIPS], *needs)
                     for i in range(0, len(frames), FRONT_END_CLIPS)])

    def forward(self, frames: np.ndarray, ref_masks: np.ndarray | None,
                labels: np.ndarray | None, rng: np.random.Generator | None = None,
                need_seg: bool = False, need_rec: bool = False,
                need_cls: bool = False) -> ForwardResult:
        """Run the pipeline on (B, N, H, W, 3) sampled frames in [0, 1], as
        far as the flags ask (see ``ForwardResult``)."""
        masks, est, streams = self._passes(frames, need_seg, need_rec, need_cls)
        b, n, h, w, _ = frames.shape
        res = ForwardResult(masks_m3=masks and masks.m3, motion_est=est)
        if need_seg:
            res.l_seg = segmentation_loss(masks, ref_masks.reshape(b * n, h, w))

        if need_rec:
            m3_cur = _pairs(masks.m3, b, False)
            # the warp reads each pair's earlier frame by its row of the flat
            # frames, and the loss the later frames in place: neither is copied
            prev_rows = (n * np.arange(b)[:, None] + np.arange(n - 1)).reshape(-1)
            res.recon = warp_previous(frames.reshape(b * n, h, w, 3), prev_rows, est, m3_cur)
            res.l_rec = reconstruction_loss(Tensor(frames[:, 1:]),
                                            dc.reshape(res.recon, (b, n - 1, h, w, 3)))
            res.l_smooth = smoothness_loss(est.field, m3_cur)

        if need_cls:
            _, res.probs = self.interact.classify(*streams, rng)
            if labels is not None:
                res.l_cls = classification_loss(res.probs, labels)
        return res

    def stream_features(self, frames: np.ndarray):
        """The per-step stream features ``forward`` classifies, as numpy, for
        cached-feature training. Returns (f_ga, f_gm, f_la, f_lm), each (B, S, dim).
        """
        _, _, streams = self._passes(frames, False, False, True)
        return tuple(x.numpy() for x in streams)
