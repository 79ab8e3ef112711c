"""Feature-drift regularization against a frozen reference network.

During masked fine-tuning a mini-batch is split: the leading fraction is
used for erasure training, the remainder only feeds the drift penalty.
The penalty is the l2 distance between GAP features of the frozen and
the updating network at a fixed set of layers, averaged over layers.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad

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


def _gap_distance(a, b):
    """||gap(a) - gap(b)||_2 of two (N, W, H, D) maps; (N, D) logit matrices are used as-is."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if len(a.shape) == 4:
        a, b = ad.gap(a), ad.gap(b)
    return ad.l2_norm(ad.sub(a, b))


def kp_layer_loss(feat_frozen, feat_updating):
    """l2 distance of stacked GAP features, scaled by 1/batch.

    Both inputs are (N, W, H, D) Tensors (the frozen one carries no
    gradient) or (N, D) logit matrices.
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

    `images` is an (N, W, H) array.  Returns {layer_name: float} over
    DEFAULT_LAYERS; used to quantify how far fine-tuning moved the
    network from its snapshot.
    """
    cap_a, cap_b = {}, {}
    net_frozen.forward_features(images[..., None], capture=cap_a)
    net_updating.forward_features(images[..., None], capture=cap_b)
    return {name: float(_gap_distance(cap_a[name], cap_b[name]).data) for name in DEFAULT_LAYERS}
