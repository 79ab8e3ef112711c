"""Tiny multi-stage CNN with a multi-scale aggregation head and per-class branches.

The backbone is four plain 3x3 conv + ReLU stages.  The aggregation head
reduces the last two stage outputs with 1x1 convolutions, upsamples the
deeper one 2x bilinearly and concatenates (deep stream first).  Each
class owns a bias-free weight vector applied to the GAP feature of the
(optionally erased) aggregated map.
"""

from __future__ import annotations

import io
import json
import math
import zipfile
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import atomic_write_bytes, autodiff as ad
from .autodiff import Tensor

CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class BackboneConfig:
    stage_channels: list = field(default_factory=lambda: [8, 16, 32, 64])
    stage_strides: list = field(default_factory=lambda: [1, 2, 2, 2])
    msa_reduced_channels: tuple = (32, 16)
    num_classes: int = 4
    use_msa: bool = True

    def __post_init__(self):
        self.msa_reduced_channels = tuple(self.msa_reduced_channels)
        self.use_msa = bool(self.use_msa)
        if len(self.stage_channels) != len(self.stage_strides):
            raise ValueError("stage_channels and stage_strides must have equal length")
        if len(self.stage_channels) < 2:
            raise ValueError("need at least two stages")
        if min(self.stage_strides) < 1:
            raise ValueError("stage strides must be >= 1")
        if min(self.stage_channels) < 1:
            raise ValueError(f"stage_channels must all be >= 1, not {self.stage_channels}")
        if self.use_msa and self.stage_strides[-1] != 2:
            # the aggregation head upsamples the last stage's map exactly 2x
            raise ValueError(f"stage_strides must end in 2 with use_msa, not {self.stage_strides}")
        if len(self.msa_reduced_channels) != 2:
            channels = list(self.msa_reduced_channels)
            raise ValueError(f"msa_reduced_channels must hold 2 values, not {channels}")
        if min(self.msa_reduced_channels) < 1 or self.num_classes < 1:
            raise ValueError("reduced channels and num_classes must be >= 1")

    @property
    def stride_product(self):
        return math.prod(self.stage_strides)

    def check_input_dims(self, dims, what="input"):
        """ValueError unless spatial `dims` are positive multiples of the stride product.

        Then every stride-2 stage halves its input exactly, so the deep map
        is half the penultimate one.
        """
        stride = self.stride_product
        if any(d < 1 or d % stride for d in dims):
            raise ValueError(f"{what} spatial dims {dims} must be positive multiples of {stride}")

    @property
    def feature_channels(self):
        if self.use_msa:
            return sum(self.msa_reduced_channels)
        return self.stage_channels[-1]


def pooled(x):
    """The GAP of an (N, W, H, D) map Tensor, or `x` itself when it is already (N, D) rows."""
    return ad.gap(x) if len(x.shape) == 4 else x


def _he_uniform(rng, shape, fan_in):
    # fan-in-only scaling keeps activation variance stable under ReLU;
    # symmetric-fan scaling attenuates ~3x per stage in this stack
    s = np.sqrt(6.0 / fan_in)
    return rng.uniform(-s, s, size=shape)


class Network:
    """Backbone + aggregation head + C classification branches.

    Parameters are held as named Tensors; `snapshot()` produces the
    immutable copy used as the frozen reference during fine-tuning.
    """

    def __init__(self, config: BackboneConfig, seed=0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.params = {}
        d_in = 1
        for i, (d_out, _) in enumerate(zip(config.stage_channels, config.stage_strides)):
            self.params[f"stage{i}_w"] = Tensor(
                _he_uniform(rng, (3, 3, d_in, d_out), 9 * d_in),
                requires_grad=True,
            )
            self.params[f"stage{i}_b"] = Tensor(np.zeros(d_out), requires_grad=True)
            d_in = d_out
        if config.use_msa:
            ck, ck1 = config.msa_reduced_channels
            dk = config.stage_channels[-1]
            dk1 = config.stage_channels[-2]
            self.params["msa_deep_w"] = Tensor(
                _he_uniform(rng, (1, 1, dk, ck), dk), requires_grad=True
            )
            self.params["msa_deep_b"] = Tensor(np.zeros(ck), requires_grad=True)
            self.params["msa_shallow_w"] = Tensor(
                _he_uniform(rng, (1, 1, dk1, ck1), dk1), requires_grad=True
            )
            self.params["msa_shallow_b"] = Tensor(np.zeros(ck1), requires_grad=True)
        d_feat = config.feature_channels
        for c in range(config.num_classes):
            self.params[f"branch{c}_w"] = Tensor(
                np.zeros(d_feat), requires_grad=True
            )

    @property
    def num_classes(self):
        return self.config.num_classes

    def param_list(self):
        return list(self.params.values())

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def snapshot(self):
        """Immutable parameter copy (frozen reference network)."""
        frozen = Network.__new__(Network)
        frozen.config = self.config
        frozen.params = {
            k: Tensor(v.data.copy(), requires_grad=False)
            for k, v in self.params.items()
        }
        return frozen

    def branch_weight(self, c):
        return self.params[f"branch{c}_w"]

    def forward_stages(self, image, capture=None):
        """Run the conv stages; returns (penultimate, last) stage outputs.

        Input spatial dims must pass `BackboneConfig.check_input_dims`.
        When `capture` is a dict, stage i's raw conv output (before ReLU)
        is stored under ``stage<i>_preact``.
        """
        x = image if isinstance(image, Tensor) else Tensor(image)
        if x.data.ndim != 4 or x.shape[3] != 1:
            raise ValueError(f"expected (N, W, H, 1) input, got {x.shape}")
        self.config.check_input_dims(x.shape[1:3])
        outs = []
        n_stages = len(self.config.stage_channels)
        for i in range(n_stages):
            pre = ad.conv2d(
                x,
                self.params[f"stage{i}_w"],
                self.params[f"stage{i}_b"],
                stride=self.config.stage_strides[i],
            )
            if capture is not None:
                capture[f"stage{i}_preact"] = pre
            x = ad.relu(pre)
            outs.append(x)
        return outs[-2], outs[-1]

    def msa_aggregate(self, x_deep, x_shallow):
        """Reduce, upsample the deep stream 2x and concatenate (deep first)."""
        deep = ad.bilinear_upsample2x(
            ad.conv2d(x_deep, self.params["msa_deep_w"], self.params["msa_deep_b"])
        )
        shallow = ad.conv2d(
            x_shallow, self.params["msa_shallow_w"], self.params["msa_shallow_b"]
        )
        return ad.concat_channels(deep, shallow)

    def forward_features(self, image, capture=None):
        """Full forward to the aggregated feature map X.

        When `capture` is a dict, the stage pre-activations (see
        `forward_stages`), and the activations and (N, C) logits that the
        feature-matching regularizer reads, are stored under stable keys.
        """
        x_shallow, x_deep = self.forward_stages(image, capture)
        if self.config.use_msa:
            feat = self.msa_aggregate(x_deep, x_shallow)
        else:
            feat = x_deep
        if capture is not None:
            capture["stage_penultimate"] = x_shallow
            capture["stage_last"] = x_deep
            capture["aggregated"] = feat
            capture["logits"] = ad.stack_vectors(self.all_logits(feat))
        return feat

    def gap_rows(self, images, names, batch_size=16):
        """{name: (N, D) pooled rows} of the `forward_features` captures `names`.

        `images` (N, W, H) are forwarded `batch_size` at a time.  An image's
        map rows do not depend on the batch it is forwarded in; its logits
        do, as an (N, D) @ (D,) product depends on N.
        """
        rows = {name: [] for name in names}
        for start in range(0, len(images), batch_size):
            cap = {}
            self.forward_features(images[start : start + batch_size][..., None], capture=cap)
            for name in names:
                rows[name].append(pooled(cap[name]).data)
        return {name: np.concatenate(chunks) for name, chunks in rows.items()}

    def branch_logits(self, feat, c):
        """logit[n] = w_c . gap(feat)[n] for one class branch; `feat` is a map or its GAP rows."""
        w = self.branch_weight(c)
        if feat.shape[-1] != w.shape[0]:
            raise ValueError(
                f"feature channels {feat.shape[-1]} != branch weight length {w.shape[0]}"
            )
        return ad.matvec(pooled(feat), w)

    def all_logits(self, feat):
        """(N, C) logits as a list of per-class Tensors."""
        return [self.branch_logits(feat, c) for c in range(self.num_classes)]

    def classification_loss(self, feat, masks, labels):
        """Mean over classes of per-branch BCE on the erased feature map.

        masks: (C, N, W, H) binary arrays, replicated over channels before
        the elementwise product; gradients treat them as constants.
        labels: (N, C) in {0, 1}.
        """
        labels = np.asarray(labels, dtype=np.float64)
        n = feat.shape[0]
        c_total = self.num_classes
        if labels.shape != (n, c_total):
            raise ValueError(f"labels shape {labels.shape} != ({n}, {c_total})")
        losses = []
        for c in range(c_total):
            mask = np.asarray(masks[c], dtype=np.float64)
            if mask.shape != feat.shape[:3]:
                raise ValueError(
                    f"mask shape {mask.shape} != feature spatial shape {feat.shape[:3]}"
                )
            if not np.all((mask == 0) | (mask == 1)):
                raise ValueError("erasure mask must be binary")
            # an all-ones mask erases nothing: feat * 1.0 and g * 1.0 are feat and g
            erased = feat if mask.all() else ad.mul_const(feat, mask[..., None])
            logits = self.branch_logits(erased, c)
            losses.append(ad.sigmoid_bce(logits, labels[:, c]))
        return ad.mean_of(losses)


def save_checkpoint(path, network):
    """Write `network` to `path`; a non-finite parameter raises ValueError and writes nothing."""
    arrays = {k: v.data for k, v in network.params.items()}
    for k, arr in arrays.items():
        ad.check_finite(f"parameter {k}", arr)
    config = network.config
    # format 1 stores use_msa as 0/1
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        **asdict(config),
        "use_msa": int(config.use_msa),
    }
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    atomic_write_bytes(path, buf.getvalue())


def load_checkpoint(path):
    """The network a checkpoint holds; a file that is not one raises ValueError."""
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"]).decode())
            if meta["format_version"] != CHECKPOINT_FORMAT_VERSION:
                raise ValueError(
                    f"unsupported checkpoint format version {meta['format_version']}"
                )
            config = BackboneConfig(**{f.name: meta[f.name] for f in fields(BackboneConfig)})
            net = Network(config, seed=0)
            for k, p in net.params.items():
                stored = data[k]
                if stored.shape != p.data.shape:
                    raise ValueError(f"{k} has shape {stored.shape}, expected {p.data.shape}")
                ad.check_finite(f"parameter {k}", stored)
                net.params[k] = Tensor(stored.astype(np.float64), requires_grad=True)
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a usable checkpoint: {exc}") from None
    return net
