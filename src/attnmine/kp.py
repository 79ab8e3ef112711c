"""Feature-drift regularization against a frozen reference network.

During masked fine-tuning a mini-batch is split: the leading fraction is
used for erasure training, the remainder only feeds the drift penalty.
The penalty is the l2 distance between GAP features of the frozen and
the updating network at a fixed set of layers, averaged over layers.
Fine-tuning passes the frozen side as GAP rows it computed once per run.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .model import pooled

# the capture keys of `Network.forward_features` that the drift penalty compares
DEFAULT_LAYERS = ("stage_penultimate", "stage_last", "aggregated", "logits")


@dataclass
class KPConfig:
    am_fraction: float = 0.125
    weight: float = 0.5
    mode: str = "full"  # off | vanilla | full

    def __post_init__(self):
        if not (0.0 < self.am_fraction < 1.0):
            raise ValueError("am_fraction must lie in (0, 1)")
        if self.weight < 0:
            raise ValueError("weight must be >= 0")
        if self.mode not in ("off", "vanilla", "full"):
            raise ValueError(f"unknown KP mode {self.mode!r}")


def partition_batch(batch_size, kp_config: KPConfig):
    """How many leading samples of a batch take the erasure loss; the rest stay untouched.

    All of them in ``off`` mode or in a one-sample batch, else
    round(am_fraction * N) clamped to [1, N-1].
    """
    if kp_config.mode == "off" or batch_size < 2:
        return batch_size
    return max(1, min(batch_size - 1, round(kp_config.am_fraction * batch_size)))


def _gap_distance(a, b):
    """||a - b||_2 of two (N, D) matrices; a side that is an (N, W, H, D) map is GAP'd first.

    Each side is GAP'd on its own, so cached (N, D) frozen rows can be held
    to a live map; the two (N, D) results must then have equal shapes.
    """
    a, b = pooled(a), pooled(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return ad.l2_norm(ad.sub(a, b))


def kp_layer_loss(feat_frozen, feat_updating):
    """l2 distance of stacked GAP features, scaled by 1/batch.

    Each input is an (N, W, H, D) map Tensor or an (N, D) matrix: GAP
    rows or logits.  The frozen side carries no gradient.
    """
    return ad.scale(_gap_distance(feat_frozen, feat_updating), 1.0 / feat_frozen.shape[0])


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


def gap_drift(net_frozen, net_updating, images):
    """Held-out GAP feature drift per layer: ||g(X_frozen) - g(X_updating)||_2.

    `images` is an (N, W, H) array, forwarded in `Network.gap_rows` chunks.
    Returns {layer_name: float} over DEFAULT_LAYERS; used to quantify how
    far fine-tuning moved the network from its snapshot.
    """
    a, b = (net.gap_rows(images, DEFAULT_LAYERS) for net in (net_frozen, net_updating))
    return {name: float(_gap_distance(a[name], b[name]).data) for name in DEFAULT_LAYERS}
