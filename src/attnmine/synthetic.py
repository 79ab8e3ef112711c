"""Seeded generator of grayscale images with planted patterns and exact boxes.

Each of the four classes has a distinct pattern family: a broad blob, a
ring, an elongated bar, and a small nodule-like spot (<= 5 px support).
Positive classes plant one or, for a configurable fraction of images,
two instances; the second instance is dimmed to 0.7 of the first so the
stronger one dominates the initial saliency map.  A second instance's
centre is redrawn until `_separated` passes, at most 200 times; when no
draw passes the last is kept, so two instances can overlap, more often
on small images.  Ground-truth boxes are tight around each pattern's
half-max support.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evalloc, read_pgm, write_pgm

PATTERN_NAMES = ["blob", "ring", "bar", "nodule"]
SECOND_INSTANCE_RATIO = 0.7
BACKGROUND_AMPLITUDE = 0.08
PRESENT_PROB = 0.5


@dataclass
class DatasetConfig:
    image_size: int = 64
    num_classes: int = 4
    multi_instance_fraction: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.multi_instance_fraction <= 1.0):
            raise ValueError("multi_instance_fraction must lie in [0, 1]")
        if self.num_classes < 1 or self.num_classes > len(PATTERN_NAMES):
            raise ValueError(f"num_classes must be in [1, {len(PATTERN_NAMES)}]")
        # every pattern centre must fit between its two border margins
        min_size = 2 * max(_MARGIN[kind] for kind in PATTERN_NAMES[: self.num_classes]) + 1
        if self.image_size < min_size:
            raise ValueError(f"image_size must be >= {min_size}, not {self.image_size}")


def _render_pattern(size, kind, cx, cy, amplitude):
    """Render one pattern instance; returns (image_delta, half-max bbox).
    Each squared offset is a row (x) or column (y) vector broadcast into the field."""
    dx2 = (np.arange(size) - cx) ** 2
    dy2 = ((np.arange(size) - cy) ** 2)[:, None]
    if kind == "blob":
        field_ = np.exp(-(dx2 + dy2) / (2 * 4.0**2))
    elif kind == "ring":
        r = np.sqrt(dx2 + dy2)
        field_ = np.exp(-((r - 10.0) ** 2) / (2 * 1.3**2))
    elif kind == "bar":
        field_ = np.exp(-dx2 / (2 * 16.0**2) - dy2 / (2 * 1.1**2))
    elif kind == "nodule":
        field_ = np.exp(-(dx2 + dy2) / (2 * 1.0**2))
    else:
        raise ValueError(f"unknown pattern kind {kind!r}")
    field_ = field_ * amplitude
    support = field_ >= field_.max() / 2.0
    rows = np.flatnonzero(support.any(axis=1))
    cols = np.flatnonzero(support.any(axis=0))
    box = [int(cols[0]), int(rows[0]), int(cols[-1] - cols[0] + 1), int(rows[-1] - rows[0] + 1)]
    return field_, box


def _blowup(size):
    """(i0, i1, 1 - f, f): source indices and weights of the bilinear
    blow-up of an 8x8 grid to `size` px, the same along both axes."""
    xs = np.linspace(0, 7, size)
    i0 = np.clip(np.floor(xs).astype(int), 0, 6)
    f = xs - i0
    return i0, i0 + 1, 1 - f, f


def _background(rng, blowup, amplitude):
    """Smooth low-frequency noise field in [0, amplitude], `blowup` from `_blowup`."""
    i0, i1, g, f = blowup
    coarse = rng.uniform(0.0, 1.0, size=(8, 8))
    rows = coarse[i0] * g[:, None] + coarse[i1] * f[:, None]
    field_ = rows[:, i0] * g + rows[:, i1] * f
    return field_ * amplitude


# Keep pattern support away from the border.
_MARGIN = {"blob": 8, "ring": 14, "bar": 20, "nodule": 4}
# Least centre distance of two instances; bars are separated vertically.
_MIN_DIST = {"blob": 16.0, "ring": 24.0, "nodule": 10.0}


def _separated(kind, a, b):
    """Instance placement rule: whether centres `a` and `b` lie far enough
    apart for the two supports to be disjoint.  `generate_image` keeps the
    last of its 200 draws even when none passes."""
    if kind == "bar":
        # bars span nearly the full width; only vertical offset separates them
        return abs(a[1] - b[1]) > 10.0
    d2 = (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
    return d2 > _MIN_DIST[kind] ** 2


def generate_image(rng, config: DatasetConfig, blowup, force_multi=False):
    """One image: (pixels in [0,1], labels, per-class GT boxes); `blowup` from `_blowup`."""
    size = config.image_size
    img = _background(rng, blowup, BACKGROUND_AMPLITUDE)
    labels = np.zeros(config.num_classes, dtype=int)
    boxes = {c: [] for c in range(config.num_classes)}
    present = [c for c in range(config.num_classes) if rng.random() < PRESENT_PROB]
    if not present:
        present = [int(rng.integers(config.num_classes))]
    for c in present:
        kind = PATTERN_NAMES[c]
        labels[c] = 1
        n_inst = 2 if force_multi else 1
        m = _MARGIN[kind]
        centers = []
        for inst in range(n_inst):
            for _ in range(200):
                cx = float(rng.uniform(m, size - 1 - m))
                cy = float(rng.uniform(m, size - 1 - m))
                if all(
                    _separated(kind, (cx, cy), prev) for prev in centers
                ):
                    break
            centers.append((cx, cy))
            amp = 0.9 if inst == 0 else 0.9 * SECOND_INSTANCE_RATIO
            delta, box = _render_pattern(size, kind, cx, cy, amp)
            img = img + delta
            boxes[c].append(box)
    img = np.clip(img, 0.0, 1.0)
    return img, labels, boxes


def generate_dataset(seed, count, config: DatasetConfig):
    """Deterministic dataset: (images (count, S, S), manifest records).

    Roughly multi_instance_fraction of the images carry two instances of
    each present class; which images is decided by a seeded draw.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    images = np.empty((count, config.image_size, config.image_size))
    blowup = _blowup(config.image_size)
    manifest = []
    for idx in range(count):
        multi = rng.random() < config.multi_instance_fraction
        img, labels, boxes = generate_image(rng, config, blowup, force_multi=multi)
        images[idx] = img
        image_id = f"img{idx:04d}"
        for c in range(config.num_classes):
            manifest.append(
                {
                    "image_id": image_id,
                    "class": c,
                    "boxes": boxes[c],
                    "labels": labels.tolist(),
                }
            )
    return images, manifest


def save_dataset(out_dir, images, manifest):
    """Write `images[k]` as 8-bit PGM under the k-th distinct image id in manifest order."""
    out_dir = Path(out_dir)
    img_dir = out_dir / "images"
    ids = dict.fromkeys(rec["image_id"] for rec in manifest)
    for image, image_id in zip(images, ids):
        write_pgm(img_dir / f"{image_id}.pgm", image, 255)
    evalloc.write_ground_truth(out_dir / "manifest.jsonl", manifest)


def load_dataset(data_dir, num_classes):
    """(sorted image ids, images, label matrix, manifest records) of one split.

    Every record of an image must carry the same labels, `num_classes` of
    them, and the manifest must hold a record; else ValueError naming it.
    Images of more than one size raise ValueError naming the split.
    """
    data_dir = Path(data_dir)
    path = data_dir / "manifest.jsonl"
    manifest = evalloc.read_ground_truth(path)
    labels = {}
    for rec in manifest:
        seen = labels.setdefault(rec["image_id"], rec["labels"])
        if seen != rec["labels"]:
            raise ValueError(f"{path}: image {rec['image_id']} has inconsistent labels")
        if len(seen) != num_classes:
            raise ValueError(
                f"{path}: image {rec['image_id']} has {len(seen)} labels, not {num_classes}"
            )
    if not labels:
        raise ValueError(f"{path}: no records")
    ids = sorted(labels)
    images = [read_pgm(data_dir / "images" / f"{iid}.pgm") for iid in ids]
    for iid, image in zip(ids, images):
        if image.shape != images[0].shape:
            raise ValueError(
                f"{data_dir}: image {iid} is {image.shape}, image {ids[0]} is {images[0].shape}"
            )
    images = np.stack(images)
    label_matrix = np.array([labels[iid] for iid in ids], dtype=np.float64)
    return ids, images, label_matrix, manifest
