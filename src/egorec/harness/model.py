"""Full pipeline assembly: frames in, losses and class probabilities out.

One forward pass consumes a batch of sampled clips. Frames run through the
backbone and mask decoder as one flat batch; consecutive-frame pairs run
through the motion estimator as another flat batch; the per-step stream
features then drive the recurrent classifier. The ``need_*`` flags of
``forward`` skip whole branches, so the staged training phases only pay for
what they use; the result keeps the masks, motion estimate and
reconstruction it computed for ``egorec viz``. ``stream_features`` runs the
same front end and stops at the stream features, on which phase 1c, every
ablation head and evaluation train or score the recurrent classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import diffcore as dc
from ..attention import MaskDecoder, global_pool, segmentation_loss, weighted_pool
from ..backbone import ConvBackbone
from ..diffcore import Tensor
from ..interact import InteractiveClassifier, classification_loss
from ..motion import MotionEstimator, reconstruction_loss, smoothness_loss, warp_previous
from ..nn import Module
from .config import TrainConfig


@dataclass
class ForwardResult:
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


def _streams(feats: Tensor, masks, est, batch: int):
    """Per-step (f_ga, f_gm, f_la, f_lm), each (B, S, dim)."""
    # weighted_pool is recorded before global_pool: the order in which
    # backward sums the features' gradients depends on it
    f_la = weighted_pool(feats, masks.m0)
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

    # parameter groups for the staged schedule
    def group(self, name: str):
        mod = {"backbone": self.backbone, "attention": self.attention,
               "motion": self.motion, "interact": self.interact}[name]
        return [(f"{name}.{n}", p) for n, p in mod.named_parameters()]

    def all_named(self):
        return (self.group("backbone") + self.group("attention")
                + self.group("motion") + self.group("interact"))

    # front end shared by forward and stream_features

    def _features_and_masks(self, frames: np.ndarray):
        b, n, h, w, _ = frames.shape
        feats = self.backbone.extract(Tensor(frames.reshape(b * n, h, w, 3)))
        return feats, self.attention.predict_masks(feats)

    def _pair_motion(self, feats: Tensor, masks, batch: int):
        return self.motion.estimate(_pairs(feats, batch, True), _pairs(feats, batch, False),
                                    _pairs(masks.m0, batch, False))

    def forward(self, frames: np.ndarray, ref_masks: np.ndarray | None,
                labels: np.ndarray | None, rng: np.random.Generator | None = None,
                need_seg: bool = False, need_rec: bool = False,
                need_cls: bool = False) -> ForwardResult:
        """Run the pipeline on (B, N, H, W, 3) sampled frames in [0, 1]."""
        b, n, h, w, _ = frames.shape
        feats, masks = self._features_and_masks(frames)
        res = ForwardResult(masks_m3=masks.m3)
        if need_seg:
            res.l_seg = segmentation_loss(masks, ref_masks.reshape(b * n, h, w))
        if not (need_rec or need_cls):
            return res
        est = res.motion_est = self._pair_motion(feats, masks, b)

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
            _, res.probs = self.interact.classify(*_streams(feats, masks, est, b), rng)
            if labels is not None:
                res.l_cls = classification_loss(res.probs, labels)
        return res

    def stream_features(self, frames: np.ndarray):
        """The per-step stream features ``forward`` classifies, as numpy, for
        cached-feature training. Returns (f_ga, f_gm, f_la, f_lm), each (B, S, dim).
        """
        b = frames.shape[0]
        feats, masks = self._features_and_masks(frames)
        est = self._pair_motion(feats, masks, b)
        return tuple(x.numpy() for x in _streams(feats, masks, est, b))
