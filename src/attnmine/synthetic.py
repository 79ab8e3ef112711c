"""Seeded generator of grayscale images with planted patterns and exact boxes.

Each of the four classes has a distinct pattern family: a broad blob, a
ring, an elongated bar, and a small nodule-like spot (<= 5 px support).
Positive classes plant one or, for a configurable fraction of images,
two instances; the second instance is dimmed to 0.7 of the first so the
stronger one dominates the initial saliency map.  Ground-truth boxes are
tight around each pattern's half-max support.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evalloc, write_pgm
from . import read_pgm as read_image_pgm

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
        min_size = 2 * max(_margin(kind) for kind in PATTERN_NAMES[: self.num_classes]) + 1
        if self.image_size < min_size:
            raise ValueError(f"image_size must be >= {min_size}, not {self.image_size}")


def _render_pattern(size, kind, cx, cy, amplitude):
    """Render one pattern instance; returns (image_delta, half-max bbox)."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    dx, dy = xx - cx, yy - cy
    if kind == "blob":
        field_ = np.exp(-(dx**2 + dy**2) / (2 * 4.0**2))
    elif kind == "ring":
        r = np.sqrt(dx**2 + dy**2)
        field_ = np.exp(-((r - 10.0) ** 2) / (2 * 1.3**2))
    elif kind == "bar":
        field_ = np.exp(-(dx**2) / (2 * 16.0**2) - (dy**2) / (2 * 1.1**2))
    elif kind == "nodule":
        field_ = np.exp(-(dx**2 + dy**2) / (2 * 1.0**2))
    else:
        raise ValueError(f"unknown pattern kind {kind!r}")
    field_ = field_ * amplitude
    support = field_ >= field_.max() / 2.0
    ii, jj = np.nonzero(support)
    box = [int(jj.min()), int(ii.min()), int(jj.max() - jj.min() + 1), int(ii.max() - ii.min() + 1)]
    return field_, box


def _background(rng, size, amplitude):
    """Smooth low-frequency noise field in [0, amplitude]."""
    coarse = rng.uniform(0.0, 1.0, size=(8, 8))
    # Bilinear blow-up of the coarse grid to full resolution.
    xs = np.linspace(0, 7, size)
    i0 = np.clip(np.floor(xs).astype(int), 0, 6)
    f = xs - i0
    rows = coarse[i0] * (1 - f)[:, None] + coarse[i0 + 1] * f[:, None]
    field_ = rows[:, i0] * (1 - f)[None, :] + rows[:, i0 + 1] * f[None, :]
    return field_ * amplitude


def _margin(kind):
    # Keep pattern support away from the border.
    return {"blob": 8, "ring": 14, "bar": 20, "nodule": 4}[kind]


def _separated(kind, a, b):
    """Instance placement rule: keep two instances' supports disjoint."""
    d2 = (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
    if kind == "bar":
        # bars span nearly the full width; only vertical offset separates them
        return abs(a[1] - b[1]) > 10.0
    min_dist = {"blob": 16.0, "ring": 24.0, "nodule": 10.0}[kind]
    return d2 > min_dist**2


def generate_image(rng, config: DatasetConfig, force_multi=False):
    """One image: (pixels in [0,1], labels, per-class GT boxes)."""
    size = config.image_size
    img = _background(rng, size, BACKGROUND_AMPLITUDE)
    labels = np.zeros(config.num_classes, dtype=int)
    boxes = {c: [] for c in range(config.num_classes)}
    present = [c for c in range(config.num_classes) if rng.random() < PRESENT_PROB]
    if not present:
        present = [int(rng.integers(config.num_classes))]
    for c in present:
        kind = PATTERN_NAMES[c]
        labels[c] = 1
        n_inst = 2 if force_multi else 1
        m = _margin(kind)
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
    manifest = []
    for idx in range(count):
        multi = rng.random() < config.multi_instance_fraction
        img, labels, boxes = generate_image(rng, config, force_multi=multi)
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


def write_image_pgm(path, image):
    """8-bit grayscale binary PGM from a [0,1] image."""
    write_pgm(path, image, 255)


def save_dataset(out_dir, images, manifest):
    """Write `images[k]` under the k-th distinct image id in manifest order, as generated."""
    out_dir = Path(out_dir)
    img_dir = out_dir / "images"
    ids = dict.fromkeys(rec["image_id"] for rec in manifest)
    for image, image_id in zip(images, ids):
        write_image_pgm(img_dir / f"{image_id}.pgm", image)
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
    images = [read_image_pgm(data_dir / "images" / f"{iid}.pgm") for iid in ids]
    for iid, image in zip(ids, images):
        if image.shape != images[0].shape:
            raise ValueError(
                f"{data_dir}: image {iid} is {image.shape}, image {ids[0]} is {images[0].shape}"
            )
    images = np.stack(images)
    label_matrix = np.array([labels[iid] for iid in ids], dtype=np.float64)
    return ids, images, label_matrix, manifest
