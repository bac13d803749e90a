"""The one training objective and its bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass

from .config import TrainConfig


@dataclass
class LossBundle:
    """Per-batch loss components; ``l_final`` is their weighted sum."""

    l_cls: float = 0.0
    l_seg: float = 0.0
    l_rec: float = 0.0
    l_smooth: float = 0.0
    l_final: float = 0.0


def total_loss(config: TrainConfig, l_cls=None, l_seg=None, l_rec=None, l_smooth=None):
    """``l_cls + alpha·l_seg + beta·l_rec + gamma·l_smooth`` over the terms given.

    Terms are scalar Tensors; an absent one counts as zero and is recorded
    as 0.0. A weight of exactly 1.0 adds no op to the tape. Returns (total
    Tensor, LossBundle of floats) with ``l_final = total.item()``, the value
    backward differentiates.
    """
    total = None
    vals = {}
    for name, term, weight in (("l_cls", l_cls, 1.0), ("l_seg", l_seg, config.alpha),
                               ("l_rec", l_rec, config.beta), ("l_smooth", l_smooth, config.gamma)):
        if term is None:
            continue
        vals[name] = term.item()
        weighted = term if weight == 1.0 else term * weight
        total = weighted if total is None else total + weighted
    if total is None:
        raise ValueError("total_loss needs at least one component")
    return total, LossBundle(**vals, l_final=total.item())
