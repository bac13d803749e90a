"""Per-frame feature extraction.

A small stack of conv blocks (3x3 conv, relu, 2x2 average pool) stands in
for a large pretrained CNN. Three blocks of widths (C/2, C/2, C) map
H x W x 3 frames to H/8 x W/8 x C feature maps; the mask decoder's three x2
stages and the motion field head's x2·x4 upsampling assume this stride of 8.
Each block is one ``conv2d`` op with the ReLU and the pool fused in
(``relu=True, pool=2``), so the tape never holds a block's full-resolution
activation.
"""

from __future__ import annotations

import numpy as np

from .diffcore import ShapeError, Tensor
from .nn import Conv2d, Module


def _front_kernels(width: int, rng: np.random.Generator) -> np.ndarray:
    """First-layer 3x3 kernels: luminance, color opponents, and +/-
    rectified oriented differences; extra channels fall back to noise."""
    w = np.zeros((3, 3, 3, width), np.float32)
    gray = np.full(3, 1.0 / 3.0, np.float32)

    def set_spatial(idx, kernel, color):
        if idx < width:
            w[:, :, :, idx] = kernel[:, :, None] * color[None, None, :]

    dx = np.array([[0, 0, 0], [-0.5, 0, 0.5], [0, 0, 0]], np.float32)
    dy = dx.T
    cs = np.array([[-0.125] * 3, [-0.125, 1.0, -0.125], [-0.125] * 3], np.float32)
    center = np.zeros((3, 3), np.float32)
    center[1, 1] = 1.0
    bank = [
        (center, gray),                                   # luminance
        (center, np.array([1.0, -1.0, 0.0], np.float32)),  # R-G
        (center, np.array([-1.0, 1.0, 0.0], np.float32)),
        (center, np.array([-0.5, -0.5, 1.0], np.float32)),  # B-Y
        (center, np.array([0.5, 0.5, -1.0], np.float32)),
        (dx, gray), (-dx, gray),                          # +/- horizontal edges
        (dy, gray), (-dy, gray),                          # +/- vertical edges
        (cs, gray), (-cs, gray),                          # center-surround
    ]
    for i, (kernel, color) in enumerate(bank):
        set_spatial(i, 2.0 * kernel, color)
    for i in range(len(bank), width):
        w[:, :, :, i] = rng.uniform(-1, 1, size=(3, 3, 3)).astype(np.float32) * (6.0 / 27) ** 0.5
    return w


class ConvBackbone(Module):
    """Stateless (given parameters) frame encoder.

    The first block starts from fixed luminance, color-opponent, and
    rectified oriented-difference kernels (a stand-in for the oriented
    filters a pretrained first layer would provide; purely random first
    layers leave frame motion invisible to the correlation readout for
    many seeds). Later blocks start near channel passthrough plus noise.
    All parameters remain trainable.
    """

    def __init__(self, channels: int, frame_hw: tuple[int, int], rng: np.random.Generator):
        self.frame_hw = frame_hw
        blocks = []
        c_in = 3
        for i, width in enumerate((channels // 2, channels // 2, channels)):
            conv = Conv2d(c_in, width, 3, rng, pad=1)
            if i == 0:
                conv.w.data = _front_kernels(width, rng)
            else:
                w = 0.25 * conv.w.data
                for c in range(min(c_in, width)):
                    w[1, 1, c, c] += 1.0
                conv.w.data = w
            conv.b.data = np.zeros(width, np.float32)
            blocks.append(conv)
            c_in = width
        self.blocks = blocks

    def extract(self, frames: Tensor) -> Tensor:
        """Map (N, H, W, 3) frames in [0, 1] to (N, H0, W0, C) features."""
        h, w = self.frame_hw
        if frames.ndim != 4 or frames.shape[1:] != (h, w, 3):
            raise ShapeError(f"backbone: expected (N, {h}, {w}, 3), got {frames.shape}")
        x = frames
        for conv in self.blocks:
            x = conv(x, relu=True, pool=2)
        return x
