"""Joint global/local motion estimation with differentiable warping.

For each feature pair the module predicts an affine transform for
whole-frame (camera) motion and a dense field for the masked interactor
motion. Pixel coordinates are normalized to [-1, 1] with align-corners
semantics, so predicted magnitudes are resolution independent. The current
frame is reconstructed by bilinear sampling of the previous frame at the
transformed coordinates, trained with a photometric L1 loss plus a
smoothness penalty on the masked field. The warp is one op
(``dc.grid_sample``) that recomputes the displaced points and their
coordinates in forward and backward, so they are never stored.

The affine transform is a 2x3 matrix [A | t] acting on (x, y) as A p + t.
It is predicted as a residual from the identity and both output heads are
zero-initialized, so a fresh model starts exactly at A = I, t = 0, D = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import ShapeError, Tensor
from .nn import Conv2d, ConvTranspose2d, Linear, Module
from .attention import global_pool, weighted_pool


@dataclass
class MotionEstimate:
    """What ``MotionEstimator.estimate`` predicts; ``field`` is None unless
    its ``need_field`` asked for it."""

    transform: Tensor   # (N, 2, 3) affine [A | t], rows [a11 a12 tx], [a21 a22 ty]
    field: Tensor | None  # (N, H, W, 2) in normalized coordinates
    f_gm: Tensor        # (N, embed_dim) global motion embedding
    f_lm: Tensor        # (N, embed_dim) local motion embedding


class MotionEstimator(Module):
    def __init__(self, feat_channels: int, frame_hw: tuple[int, int],
                 rng: np.random.Generator, max_displacement: int = 5,
                 embed_dim: int = 16):
        self.d = max_displacement
        self.embed_dim = embed_dim
        self.frame_hw = frame_hw
        corr_ch = (2 * max_displacement + 1) ** 2
        # the global embedding is at least as wide as the correlation
        # profile, so the linear head alone can realize any profile readout
        # without waiting for the conv to rotate
        self.global_dim = max(corr_ch + 7, embed_dim)
        self.global_conv = Conv2d(corr_ch, self.global_dim, 3, rng, pad=1, gain=1.0)
        self.affine_head = Linear(self.global_dim, 6, rng, zero_init=True)
        self.local_conv = Conv2d(corr_ch + feat_channels, embed_dim, 3, rng, pad=1)
        self.field_up1 = ConvTranspose2d(embed_dim, 8, 4, rng, stride=2, pad=1)
        self.field_up2 = ConvTranspose2d(8, 2, 8, rng, stride=4, pad=2, zero_init=True)

    def estimate(self, f_prev: Tensor, f_cur: Tensor, m0: Tensor,
                 need_field: bool = True) -> MotionEstimate:
        """Predict per-pair transform, dense field, and motion embeddings.

        ``f_prev``/``f_cur`` are (N, H0, W0, C) from the same backbone;
        ``m0`` is the coarsest interactor mask, (N, H0, W0). Without
        ``need_field`` the field heads do not run and the estimate's
        ``field`` is None; only the reconstruction reads the field.
        """
        if f_prev.shape != f_cur.shape:
            raise ShapeError(f"motion: feature shapes differ, {f_prev.shape} vs {f_cur.shape}")
        if m0.shape != f_cur.shape[:3]:
            raise ShapeError(f"motion: mask {m0.shape} does not match features {f_cur.shape}")
        n = f_cur.shape[0]
        corr = dc.correlate(f_prev, f_cur, self.d)

        # the displacement signal is close to linear in the correlation
        # profile; a relu here only worsens conditioning
        g = self.global_conv(corr)
        f_gm = global_pool(g)
        delta = self.affine_head(f_gm)  # (N, 6)
        transform = Tensor(np.eye(2, 3, dtype=delta.dtype.type)) + dc.reshape(delta, (n, 2, 3))

        gate = dc.reshape(m0, m0.shape + (1,))
        local_in = dc.concat([corr, f_cur], axis=3) * gate
        l = self.local_conv(local_in)
        # weighted pooling keeps the embedding independent of how many
        # cells the interactor covers
        f_lm = weighted_pool(l, m0)
        field = None
        if need_field:
            field = self.field_up2(self.field_up1(dc.relu(l), relu=True))
            fh, fw = field.shape[1:3]
            if (fh, fw) != self.frame_hw:
                raise ShapeError(
                    f"motion: field head produced {fh}x{fw}, expected {self.frame_hw}; "
                    "feature stride must be 8"
                )
        return MotionEstimate(transform=transform, field=field, f_gm=f_gm, f_lm=f_lm)


def reconstruction_loss(target: Tensor, rebuilt: Tensor) -> Tensor:
    """Photometric L1 of (..., H, W, 3) frames, summed over channels and
    averaged over every pixel of every frame."""
    return dc.abs_diff_sum(target, rebuilt) * (1.0 / (target.size // target.shape[-1]))


def smoothness_loss(field: Tensor, m3: Tensor) -> Tensor:
    """Mean absolute spatial difference of the masked field, both axes."""
    return dc.total_variation(field, m3)


def warp_previous(frames: np.ndarray, prev_rows: np.ndarray, est: MotionEstimate,
                  m3: Tensor) -> Tensor:
    """Reconstruct each pair's current frame from its previous one, the row
    ``prev_rows[i]`` of the (M, H, W, 3) ``frames``, read in place."""
    return dc.grid_sample(frames, prev_rows, est.transform, est.field, m3)
