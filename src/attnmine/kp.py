"""Feature-drift regularization against a frozen reference network.

During masked fine-tuning a mini-batch is split: the leading fraction is
used for erasure training, the remainder only feeds the drift penalty.
The penalty is the l2 distance between GAP features of the frozen and
the updating network at a fixed set of layers, averaged over layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "KPConfig",
    "partition_batch",
    "kp_layer_loss",
    "kp_total_loss",
    "combined_loss",
    "gap_drift",
]

DEFAULT_LAYERS = ["stage_penultimate", "stage_last", "aggregated", "logits"]


@dataclass
class KPConfig:
    am_fraction: float = 0.125
    weight: float = 0.5
    layers: list = field(default_factory=lambda: list(DEFAULT_LAYERS))
    mode: str = "full"  # off | vanilla | full

    def __post_init__(self):
        if not (0.0 < self.am_fraction < 1.0):
            raise ValueError("am_fraction must lie in (0, 1)")
        if self.weight < 0:
            raise ValueError("weight must be >= 0")
        if self.mode not in ("off", "vanilla", "full"):
            raise ValueError(f"unknown KP mode {self.mode!r}")
        if self.mode == "full" and not self.layers:
            raise ValueError("layer set must be non-empty in full mode")


def partition_batch(batch_size, am_fraction):
    """Split indices into (leading erasure part, trailing untouched part).

    n = round(am_fraction * N), clamped to [1, N-1].
    """
    n_total = int(batch_size)
    if n_total < 2:
        raise ValueError("batch must contain at least 2 samples to partition")
    n = int(round(am_fraction * n_total))
    n = max(1, min(n_total - 1, n))
    return list(range(n)), list(range(n, n_total))


def kp_layer_loss(feat_frozen, feat_updating):
    """l2 distance of stacked GAP features, scaled by 1/batch.

    Both inputs are (N, W, H, D) Tensors (the frozen one carries no
    gradient) or (N, D) logit matrices, which are used as-is.
    """
    if feat_frozen.shape != feat_updating.shape:
        raise ValueError(
            f"shape mismatch: {feat_frozen.shape} vs {feat_updating.shape}"
        )
    if len(feat_frozen.shape) == 4:
        ga = ad.gap(feat_frozen)
        gb = ad.gap(feat_updating)
    else:
        ga, gb = feat_frozen, feat_updating
    n = feat_frozen.shape[0]
    return ad.l2_norm(ad.sub(ga, gb), scale_factor=1.0 / n)


def kp_total_loss(layer_losses):
    """Mean of per-layer drift losses."""
    if not layer_losses:
        raise ValueError("layer set must be non-empty")
    return ad.mean_of(layer_losses)


def combined_loss(cls_loss, kp_loss, weight):
    """cls_loss + weight * kp_loss."""
    if kp_loss is None or weight == 0:
        return cls_loss
    return ad.add(cls_loss, ad.scale(kp_loss, weight))


def gap_drift(net_frozen, net_updating, images, layers=None):
    """Held-out GAP feature drift per layer: ||g(X_frozen) - g(X_updating)||_2.

    Returns {layer_name: float}; used to quantify how far fine-tuning
    moved the network from its snapshot.
    """
    layers = layers or DEFAULT_LAYERS
    if not isinstance(images, Tensor):
        images = np.asarray(images, dtype=np.float64)
        if images.ndim == 3:
            images = images[..., None]
    cap_a, cap_b = {}, {}
    net_frozen.forward_features(images, capture=cap_a)
    net_updating.forward_features(images, capture=cap_b)
    out = {}
    for name in layers:
        da, db = cap_a[name].data, cap_b[name].data
        if da.ndim == 4:
            da = da.mean(axis=(1, 2))
            db = db.mean(axis=(1, 2))
        out[name] = float(np.linalg.norm(da - db))
    return out
