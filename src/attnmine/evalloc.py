"""Heatmap-to-box conversion and the ranked-pool localization metrics.

Boxes are axis-aligned, half-open, origin at the top-left, in pixel
units.  Per image up to three boxes come from thresholding the final
heatmap at decreasing intensity fractions; across images they are
arranged rank-major into a pool that is consumed in order until the
average-false-positive budget is exhausted.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import atomic_write_bytes, read_jsonl, write_jsonl
from .mining import flood_fill_component, normalize01


@dataclass(frozen=True)
class BBox:
    image_id: str
    cls: int
    x: int
    y: int
    w: int
    h: int
    score: float = 0.0

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError(f"degenerate box {self.x, self.y, self.w, self.h}")

    def area(self):
        return self.w * self.h

    def same_extent(self, other):
        return (self.x, self.y, self.w, self.h) == (other.x, other.y, other.w, other.h)


@dataclass
class EvalConfig:
    iou_thresholds: list = field(
        default_factory=lambda: [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    )
    bbox_thresholds: list = field(default_factory=lambda: [0.75, 0.5, 0.25])
    afp_upper_bound: float = 10.0

    def __post_init__(self):
        t = list(self.bbox_thresholds)
        if any(a <= b for a, b in zip(t, t[1:])):
            raise ValueError("bbox_thresholds must be strictly decreasing")
        if any(not 0 < v <= 1 for v in t):
            raise ValueError(f"bbox_thresholds must lie in (0, 1], not {t}")
        ious = list(self.iou_thresholds)
        if not ious or any(not 0 < v <= 1 for v in ious):
            raise ValueError(f"iou_thresholds must be non-empty and lie in (0, 1], not {ious}")
        if self.afp_upper_bound < 0:
            raise ValueError(f"afp_upper_bound must be >= 0, not {self.afp_upper_bound}")


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union with pixel-area (half-open interval) semantics."""
    ix = max(0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    union = a.area() + b.area() - inter
    return inter / union if union > 0 else 0.0


def extract_bboxes(heatmap, image_id, cls, config: EvalConfig, scale=1):
    """Up to len(bbox_thresholds) boxes from one normalized final heatmap.

    For each threshold the box tightly encloses the connected component
    (8-conn) of pixels >= threshold that contains the global maximum.
    The score is the mean heatmap intensity inside the box.  Duplicate
    extents collapse; coordinates are scaled by `scale` to map the
    heatmap grid back to image pixels.  Returns ([], True) on constant
    heatmaps.
    """
    h, degenerate = normalize01(heatmap)
    if degenerate:
        return [], True
    max_loc = np.unravel_index(int(np.argmax(h)), h.shape)
    boxes = []
    for tau in config.bbox_thresholds:
        binary = h >= tau
        comp = flood_fill_component(binary, max_loc, connectivity=8)
        ii, jj = np.nonzero(comp)
        x0, x1 = int(jj.min()), int(jj.max()) + 1
        y0, y1 = int(ii.min()), int(ii.max()) + 1
        score = float(h[y0:y1, x0:x1].mean())
        box = BBox(
            image_id,
            cls,
            x0 * scale,
            y0 * scale,
            (x1 - x0) * scale,
            (y1 - y0) * scale,
            score,
        )
        if not any(box.same_extent(b) for b in boxes):
            boxes.append(box)
    return build_pool(boxes), False


def build_pool(boxes):
    """Rank-major pool of one class's boxes, given in any order.

    Each image's boxes are ranked by descending score (ties keep their
    input order); the pool holds every image's rank-1 box in image-id
    order, then the rank-2 boxes, and so on.
    """
    per_image = {}
    for box in boxes:
        per_image.setdefault(box.image_id, []).append(box)
    ranked = [sorted(per_image[iid], key=lambda b: -b.score) for iid in sorted(per_image)]
    max_rank = max((len(b) for b in ranked), default=0)
    pool = []
    for rank in range(max_rank):
        for image_boxes in ranked:
            if rank < len(image_boxes):
                pool.append(image_boxes[rank])
    return pool


@dataclass
class EvalRow:
    cls: int
    t_iou: float
    acc: float
    afp: float
    boxes_used: int


def evaluate(pool, ground_truth, t_iou, afp_upper_bound):
    """Consume the pool in order; stop before AFP would exceed the bound.

    ground_truth: {image_id: [BBox, ...]} for one class.  A consumed box
    is a hit when it reaches IoU >= t_iou with any ground-truth box of
    its image.  Acc counts images with at least one hit over images with
    ground truth; AFP counts consumed misses per evaluated image.
    """
    gt_images = {iid for iid, boxes in ground_truth.items() if boxes}
    if not gt_images:
        raise ValueError("no ground truth for this class")
    n_images = len(gt_images)
    hit_images = set()
    misses = 0
    used = 0
    for box in pool:
        gt_boxes = ground_truth.get(box.image_id, [])
        hit = any(iou(box, g) >= t_iou for g in gt_boxes)
        if not hit and (misses + 1) / n_images > afp_upper_bound:
            break
        used += 1
        if hit:
            hit_images.add(box.image_id)
        else:
            misses += 1
    acc = len(hit_images & gt_images) / n_images
    afp = misses / n_images
    return acc, afp, used


def evaluate_report(pools_by_class, gt_by_class, config: EvalConfig):
    """Full per-class x per-threshold grid; classes without GT are skipped."""
    rows = []
    skipped = []
    for cls in sorted(pools_by_class):
        gt = gt_by_class.get(cls, {})
        if not any(boxes for boxes in gt.values()):
            skipped.append(cls)
            continue
        for t in config.iou_thresholds:
            acc, afp, used = evaluate(
                pools_by_class[cls], gt, t, config.afp_upper_bound
            )
            rows.append(EvalRow(cls, t, acc, afp, used))
    return rows, skipped


def write_predictions(path, boxes):
    """JSON-lines, one record per box."""
    records = (
        {"image_id": b.image_id, "class": b.cls, "x": b.x, "y": b.y, "w": b.w, "h": b.h,
         "score": b.score}
        for b in boxes
    )
    write_jsonl(path, records)


def read_predictions(path):
    return read_jsonl(path, "prediction", _prediction)


def _prediction(rec):
    coords = [int(rec[k]) for k in ("class", "x", "y", "w", "h")]
    return BBox(str(rec["image_id"]), *coords, float(rec.get("score", 0.0)))


# JSON-lines: {image_id, class, boxes: [[x,y,w,h],...], labels: [0/1,...]}
write_ground_truth = write_jsonl


def read_ground_truth(path):
    return read_jsonl(path, "ground-truth", _ground_truth)


def _ground_truth(rec):
    rec["image_id"] = str(rec["image_id"])
    rec["class"] = int(rec["class"])
    rec["boxes"] = [[int(v) for v in b] for b in rec["boxes"]]
    for x, y, w, h in rec["boxes"]:  # each box must make a BBox for ground_truth_by_class
        BBox(rec["image_id"], rec["class"], x, y, w, h)
    labels = rec["labels"]
    if not isinstance(labels, list) or any(type(v) is not int or v not in (0, 1) for v in labels):
        raise ValueError(f"labels must be a list of 0/1 ints, not {labels!r}")
    return rec


def ground_truth_by_class(records):
    """{class: {image_id: [BBox, ...]}} from manifest records."""
    out = {}
    for rec in records:
        cls = rec["class"]
        per_img = out.setdefault(cls, {})
        boxes = per_img.setdefault(rec["image_id"], [])
        for x, y, w, h in rec["boxes"]:
            boxes.append(BBox(rec["image_id"], cls, x, y, w, h))
    return out


def write_report_csv(path, rows):
    """One CSV row per report row (csv-module line ends), written atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["class", "t_iou", "acc", "afp", "boxes_used"])
    for r in rows:
        writer.writerow(
            [r.cls, f"{r.t_iou:.2f}", f"{r.acc:.6f}", f"{r.afp:.6f}", r.boxes_used]
        )
    atomic_write_bytes(path, buf.getvalue().encode())
