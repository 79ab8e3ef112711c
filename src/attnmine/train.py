"""Training loops: baseline classification and masked fine-tuning with drift control.

Fine-tuning proceeds in phases, one per mining step: in phase t the
erasure masks fed to the classification loss come from running t-1
erase-and-remine iterations with the current (frozen-for-masking)
weights.  Phase 1 therefore trains with all-ones masks, which is the
plain baseline.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import autodiff as ad
from .kp import (
    DEFAULT_LAYERS,
    KPConfig,
    combined_loss,
    kp_layer_loss,
    kp_total_loss,
    partition_batch,
)
from .mining import MiningConfig, aggregate_final_heatmap, normalize01, run_am

# the drift layers whose frozen side is a feature map; the last, "logits", is not
MAP_LAYERS = DEFAULT_LAYERS[:-1]


def roc_auc(scores, labels):
    """Rank-based ROC AUC for one binary column."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        return float("nan")
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (
        pos[:, None] == neg[None, :]
    ).sum()
    return float(wins / (len(pos) * len(neg)))


def mean_auc(logit_matrix, label_matrix):
    aucs = [
        roc_auc(logit_matrix[:, c], label_matrix[:, c])
        for c in range(label_matrix.shape[1])
    ]
    aucs = [a for a in aucs if not np.isnan(a)]
    return float(np.mean(aucs)) if aucs else float("nan")


def _batches(count, batch_size):
    for start in range(0, count, batch_size):
        yield slice(start, start + batch_size)


def _step(net, loss, lr):
    net.zero_grad()
    loss.backward()
    ad.sgd_step(net.param_list(), lr)


def predict_logits(net, images, batch_size=16):
    """(N, C) logits, forwarded `batch_size` images at a time."""
    return net.gap_rows(images, ("logits",), batch_size)["logits"]


def train_baseline(net, images, labels, epochs=200, lr=0.5, batch_size=16):
    """Plain multi-label training with all-ones masks; returns per-epoch losses."""
    labels = np.asarray(labels, dtype=np.float64)
    history = []
    for _ in range(epochs):
        epoch_losses = []
        for batch in _batches(len(images), batch_size):
            feat = net.forward_features(images[batch][..., None])
            masks = np.ones((net.num_classes, *feat.shape[:3]))
            loss = net.classification_loss(feat, masks, labels[batch])
            _step(net, loss, lr)
            epoch_losses.append(float(loss.data))
        history.append(float(np.mean(epoch_losses)))
    return history


def _positive_runs(net, feat_data, labels, mining_config):
    """(i, c, run_am result) for every positive (image, class) pair, image by image."""
    for i, c in np.argwhere(np.asarray(labels) == 1).tolist():
        yield i, c, run_am(feat_data[i], net.branch_weight(c).data, mining_config)


def masks_for_batch(net, feat_data, labels, erase_steps, mining_config):
    """Per-class erasure masks for one batch, detached from the graph.

    For each sample and each positive class the erase-and-remine loop is
    run `erase_steps` times; negative classes keep all-ones masks.  The
    loop runs without `min_peak_ratio`, so unlike eval-time mining it
    never stops early on a collapsed peak; the acceptance goldens pin
    this behaviour.
    """
    n, w, h, _ = feat_data.shape
    masks = np.ones((net.num_classes, n, w, h))
    if erase_steps == 0:
        return masks
    cfg = dataclasses.replace(mining_config, num_steps=erase_steps, min_peak_ratio=0.0)
    for i, c, run in _positive_runs(net, feat_data, labels, cfg):
        masks[c, i] = run.masks[-1]
    return masks


def am_finetune(
    net,
    images,
    labels,
    mining_config: MiningConfig,
    kp_config: KPConfig,
    epochs=24,
    lr=0.05,
    batch_size=16,
    shuffle_seed=0,
):
    """Masked fine-tuning with optional drift regularization.

    Batches are drawn in a seeded per-epoch shuffled order so the
    partitioned AM subset rotates over the dataset instead of pinning
    the same few samples every epoch.  In ``full`` mode the snapshot is
    forwarded once, before the first epoch (`Network.gap_rows`).  Returns
    the per-step loss log.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if kp_config.mode == "full":
        frozen = net.snapshot()
        frozen_rows = frozen.gap_rows(images, MAP_LAYERS, batch_size)
    rng = np.random.default_rng(shuffle_seed)
    log = []
    # phase t runs epochs // T epochs, plus one for each of the first epochs % T phases
    for phase, epoch_ids in enumerate(np.array_split(range(epochs), mining_config.num_steps), 1):
        for _ in epoch_ids:
            order = rng.permutation(len(images))
            for batch in _batches(len(images), batch_size):
                idx = order[batch].tolist()
                batch_images = images[idx][..., None]
                batch_labels = labels[idx]
                n = partition_batch(len(idx), kp_config)

                feat = net.forward_features(batch_images[:n])
                masks = masks_for_batch(net, feat.data, batch_labels[:n], phase - 1, mining_config)
                cls_loss = net.classification_loss(feat, masks, batch_labels[:n])
                kp_loss = None
                if n < len(idx):
                    # normalize over the full batch slot: untouched partition
                    # samples contribute zero classification loss
                    cls_loss = ad.scale(cls_loss, n / len(idx))
                    if kp_config.mode == "full":
                        held = {k: ad.Tensor(rows[idx[n:]]) for k, rows in frozen_rows.items()}
                        held["logits"] = ad.stack_vectors(frozen.all_logits(held["aggregated"]))
                        cap = {}
                        net.forward_features(batch_images[n:], capture=cap)
                        kp_loss = kp_total_loss(
                            [kp_layer_loss(held[name], cap[name]) for name in DEFAULT_LAYERS]
                        )

                loss = combined_loss(cls_loss, kp_loss, kp_config.weight)
                _step(net, loss, lr)
                log.append(
                    {
                        "phase": phase,
                        "loss": float(loss.data),
                        "cls_loss": float(cls_loss.data),
                        "kp_loss": None if kp_loss is None else float(kp_loss.data),
                    }
                )
    return log


def mine_final_heatmaps(net, images, labels, mining_config: MiningConfig, batch_size=16):
    """Final aggregated heatmap and last mask per image per positive class.

    Returns a list of (image index, class, heatmap normalized to [0, 1],
    the run's last erasure mask) in index-then-class order; classes whose
    mining degenerates immediately are omitted.  Images are forwarded
    `batch_size` at a time.
    """
    out = []
    for batch in _batches(len(images), batch_size):
        # keep the array alone, so the chunk's tape is freed before mining
        feat_data = net.forward_features(images[batch][..., None]).data
        for i, c, run in _positive_runs(net, feat_data, labels[batch], mining_config):
            if run.steps_completed == 0:
                continue
            final = aggregate_final_heatmap(run.heatmaps, run.masks)
            norm, degenerate = normalize01(final)
            if not degenerate:
                out.append((batch.start + i, c, norm, run.masks[-1]))
    return out
