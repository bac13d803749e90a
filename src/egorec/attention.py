"""Interactor localization and appearance feature pooling.

A transposed-conv decoder on top of the backbone features produces sigmoid
masks at three upsampled scales, the finest at the input frame's size, each
supervised with a pixel-wise cross entropy against a reference mask resized
by area averaging. The coarsest mask m0, at the feature map's size, is the
finest mask's average over each feature cell: one mask, trained through
m3's supervision, that both the warp and the appearance pooling read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import ShapeError, Tensor
from .nn import Conv2d, ConvTranspose2d, Module

MASK_EPS = 1e-7


@dataclass
class MultiScaleMasks:
    """Masks m0..m3; m{k} has spatial size (2^k H0, 2^k W0). m1..m3 are
    sigmoid heads, m0 is m3's cell average. m1 and m2, which only the
    segmentation loss reads, are None when they were not asked for."""

    m0: Tensor
    m1: Tensor | None
    m2: Tensor | None
    m3: Tensor


class MaskDecoder(Module):
    """Three x2 upsampling stages with a sigmoid head per scale, and m3
    box-averaged back to the feature grid."""

    def __init__(self, channels_in: int, rng: np.random.Generator,
                 widths: tuple[int, int, int] = (16, 12, 8)):
        self.channels_in = channels_in
        self.up = [
            ConvTranspose2d(channels_in, widths[0], 4, rng, stride=2, pad=1),
            ConvTranspose2d(widths[0], widths[1], 4, rng, stride=2, pad=1),
            ConvTranspose2d(widths[1], widths[2], 4, rng, stride=2, pad=1),
        ]
        self.heads = [Conv2d(w, 1, 1, rng) for w in widths]

    def predict_masks(self, feats: Tensor, need_seg: bool = True) -> MultiScaleMasks:
        """(N, H0, W0, C) features -> masks at H0, 2H0, 4H0, 8H0. Without
        ``need_seg`` the heads of m1 and m2 do not run; the upsampling
        stages, which m3 needs, always do."""
        if feats.ndim != 4 or feats.shape[3] != self.channels_in:
            raise ShapeError(
                f"mask decoder: expected (N, H0, W0, {self.channels_in}), got {feats.shape}"
            )
        masks = []
        x = feats
        for up, head in zip(self.up, self.heads):
            x = up(x, relu=True)
            run = need_seg or head is self.heads[-1]
            masks.append(dc.sigmoid(_drop_channel(head(x))) if run else None)
        (n, h0, w0), (h, w) = feats.shape[:3], x.shape[1:3]
        cells = dc.reshape(masks[-1], (n, h0, h // h0, w0, w // w0))
        return MultiScaleMasks(dc.mean(cells, axis=(2, 4)), *masks)


def _drop_channel(x: Tensor) -> Tensor:
    return dc.reshape(x, x.shape[:3])


def resize_area(mask: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Box-average a (..., H, W) mask down to (..., out_h, out_w).

    H and W must be integer multiples of the target; soft values are kept
    (no thresholding), which matches cross entropy with soft targets. The
    means run on a C-contiguous copy, so their bits do not depend on layout.
    """
    h, w = mask.shape[-2:]
    if h % out_h or w % out_w:
        raise ShapeError(f"resize_area: {h}x{w} not divisible by {out_h}x{out_w}")
    fh, fw = h // out_h, w // out_w
    lead = mask.shape[:-2]
    return np.ascontiguousarray(mask).reshape(*lead, out_h, fh, out_w, fw).mean(axis=(-3, -1))


def segmentation_loss(masks: MultiScaleMasks, ref: np.ndarray) -> Tensor:
    """Pixel-wise cross entropy of the upsampled mask scales against ``ref``.

    ``ref`` is (N, H, W) in [0, 1] at frame resolution; each supervised
    scale sees an area-averaged resize of it. Every scale term is averaged
    over its own pixel count, the scale terms are summed, and the result is
    averaged over the batch. Mask values are clamped to
    [MASK_EPS, 1 - MASK_EPS] before entering the logs.
    """
    h, w = masks.m3.shape[1:3]
    if ref.shape[1:] != (h, w):
        raise ShapeError(f"reference mask {ref.shape} does not match frame size {h}x{w}")
    total = None
    for m in (masks.m1, masks.m2, masks.m3):
        mh, mw = m.shape[1:3]
        term = dc.binary_cross_entropy(m, resize_area(ref, mh, mw).astype(m.dtype), MASK_EPS)
        total = term if total is None else total + term
    return dc.mean(total)


def weighted_pool(feats: Tensor, m0: Tensor) -> Tensor:
    """Mask-weighted spatial average: (N, H0, W0, C) x (N, H0, W0) -> (N, C)."""
    if feats.shape[:3] != m0.shape:
        raise ShapeError(f"weighted_pool: features {feats.shape} vs mask {m0.shape}")
    m = dc.reshape(m0, m0.shape + (1,))
    num = dc.sum_(feats * m, axis=(1, 2))
    den = dc.sum_(m, axis=(1, 2))
    return num / den


def global_pool(feats: Tensor) -> Tensor:
    """Per-channel spatial mean: (N, H0, W0, C) -> (N, C)."""
    return dc.mean(feats, axis=(1, 2))


def mask_iou(pred: np.ndarray, ref: np.ndarray, threshold: float = 0.5) -> float:
    """Mean IoU of thresholded masks over the batch."""
    p = pred >= threshold
    r = ref >= threshold
    inter = (p & r).sum(axis=(-2, -1)).astype(np.float64)
    union = (p | r).sum(axis=(-2, -1)).astype(np.float64)
    return float(np.mean(np.where(union > 0, inter / np.maximum(union, 1), 1.0)))
