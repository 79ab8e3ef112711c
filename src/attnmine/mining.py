"""Iterative saliency mining: masked CAMs, component erasure, heatmap aggregation.

For one class branch the procedure is: project the (erased) feature map
onto the branch weights to get a heatmap, min-max normalize, binarize at
a threshold, zero out the connected component holding the global
maximum, and repeat.  The final heatmap averages all step heatmaps,
filling pixels erased at earlier steps from those steps' own responses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import atomic_write_bytes, read_jsonl, read_pgm, write_pgm


@dataclass
class MiningConfig:
    num_steps: int = 3
    binarize_threshold: float = 0.5
    connectivity: int = 8
    min_peak_ratio: float = 0.0

    def __post_init__(self):
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        if not (0.0 < self.binarize_threshold < 1.0):
            raise ValueError("binarize_threshold must lie in (0, 1)")
        if self.connectivity not in (4, 8):
            raise ValueError("connectivity must be 4 or 8")
        if not (0.0 <= self.min_peak_ratio < 1.0):
            raise ValueError("min_peak_ratio must lie in [0, 1)")


def compute_cam(feat, mask, weights):
    """Heatmap H[w,h] = sum_d feat[w,h,d] * mask[w,h] * weights[d].

    feat: (W, H, D) single-image feature map (plain array); mask binary (W, H).
    """
    feat = np.asarray(feat, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if feat.ndim != 3 or mask.shape != feat.shape[:2] or weights.shape != (feat.shape[2],):
        raise ValueError(
            f"shape mismatch: feat {feat.shape}, mask {mask.shape}, weights {weights.shape}"
        )
    if not np.all((mask == 0) | (mask == 1)):
        raise ValueError("mask must be binary")
    return (feat @ weights) * mask


def binarize_cam(heatmap, threshold=0.5):
    """Min-max normalize and threshold; returns (normalized, binary, max_loc, degenerate).

    A constant heatmap cannot be normalized: the degenerate flag is set
    and binary/max_loc are None.  Global-max ties break at the smallest
    row-major index.
    """
    h = np.asarray(heatmap, dtype=np.float64)
    if not np.all(np.isfinite(h)):
        raise ValueError("heatmap contains non-finite values")
    norm, degenerate = normalize01(h)
    if degenerate:
        return None, None, None, True
    binary = norm >= threshold
    max_loc = np.unravel_index(int(np.argmax(h)), h.shape)
    return norm, binary, max_loc, False


def flood_fill_component(binary, seed, connectivity=8):
    """Boolean mask of the connected component of `seed` in `binary`."""
    binary = np.asarray(binary, dtype=bool)
    w, h = binary.shape
    if not binary[seed]:
        raise ValueError(f"seed {seed} is not set in the binary map")
    if connectivity == 8:
        neigh = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        neigh = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    comp = np.zeros_like(binary)
    stack = [seed]
    comp[seed] = True
    while stack:
        i, j = stack.pop()
        for di, dj in neigh:
            ni, nj = i + di, j + dj
            if 0 <= ni < w and 0 <= nj < h and binary[ni, nj] and not comp[ni, nj]:
                comp[ni, nj] = True
                stack.append((ni, nj))
    return comp


def erase_component(mask_prev, binary, max_loc, connectivity=8):
    """Zero the connected component of max_loc on top of the previous mask."""
    mask_prev = np.asarray(mask_prev, dtype=np.float64)
    comp = flood_fill_component(binary, max_loc, connectivity)
    out = mask_prev.copy()
    out[comp] = 0.0
    return out


@dataclass
class MiningRun:
    """Per-step heatmaps (normalized) and masks for one image and class.

    masks[0] is the all-ones starting mask; masks[t] is the state after
    step t.  heatmaps[t-1] was computed under masks[t-1].  A run may
    finish with fewer steps than requested when the heatmap degenerates
    or the mask empties.
    """

    heatmaps: list = field(default_factory=list)
    masks: list = field(default_factory=list)
    raw_heatmaps: list = field(default_factory=list)

    @property
    def steps_completed(self):
        return len(self.heatmaps)


def run_am(feat, weights, config: MiningConfig):
    """Iterate the erase-and-remine loop up to config.num_steps times."""
    feat = np.asarray(feat, dtype=np.float64)
    run = MiningRun()
    mask = np.ones(feat.shape[:2])
    run.masks.append(mask)
    for _ in range(config.num_steps):
        if mask.sum() == 0:
            break
        raw = compute_cam(feat, mask, weights)
        norm, binary, max_loc, degenerate = binarize_cam(raw, config.binarize_threshold)
        if degenerate:
            break
        # stop once the remaining response has collapsed relative to the
        # first step's peak: further erasure would only mine noise
        if run.raw_heatmaps:
            first_max = run.raw_heatmaps[0].max()
            if first_max > 0 and raw.max() < config.min_peak_ratio * first_max:
                break
        run.raw_heatmaps.append(raw)
        run.heatmaps.append(norm)
        mask = erase_component(mask, binary, max_loc, config.connectivity)
        run.masks.append(mask)
    return run


def aggregate_final_heatmap(heatmaps, masks):
    """Average step heatmaps, restoring erased pixels from their own step.

    For the step-t term, every step t' < t adds back its heatmap on the
    region its own erasure removed (complement of masks[t']).  The 1/T
    factor uses the number of steps actually completed.
    """
    t_total = len(heatmaps)
    if t_total == 0:
        raise ValueError("no heatmaps to aggregate")
    if len(masks) != t_total + 1:
        raise ValueError(
            f"expected {t_total + 1} masks for {t_total} heatmaps, got {len(masks)}"
        )
    acc = np.zeros_like(np.asarray(heatmaps[0], dtype=np.float64))
    for t in range(1, t_total + 1):
        term = np.asarray(heatmaps[t - 1], dtype=np.float64).copy()
        for tp in range(1, t):
            complement = 1.0 - np.asarray(masks[tp], dtype=np.float64)
            term = term + heatmaps[tp - 1] * complement
        acc += term
    return acc / t_total


def normalize01(heatmap):
    """Min-max normalize to [0, 1]; returns (normalized, degenerate_flag)."""
    h = np.asarray(heatmap, dtype=np.float64)
    lo, hi = h.min(), h.max()
    if hi == lo:
        return np.zeros_like(h), True
    return (h - lo) / (hi - lo), False


def write_heatmap_pgm(path, heatmap):
    """16-bit grayscale PGM scaled from [0,1] plus a JSON sidecar of min/max."""
    h = np.asarray(heatmap, dtype=np.float64)
    norm, _ = normalize01(h)
    write_pgm(path, norm, 65535)
    sidecar = {"min": float(h.min()), "max": float(h.max())}
    atomic_write_bytes(f"{path}.json", json.dumps(sidecar).encode())


def read_heatmap_pgm(path):
    [(lo, hi)] = read_jsonl(
        f"{path}.json", "heatmap range", lambda m: (float(m["min"]), float(m["max"]))
    )
    if not np.isfinite(hi - lo):
        raise ValueError(f"{path}.json: heatmap range {lo}..{hi} is not finite")
    return read_pgm(path) * (hi - lo) + lo


def write_mask_pgm(path, mask):
    """Binary mask as a maxval-1 (1-bit depth) ASCII PGM."""
    m = np.asarray(mask)
    if not np.all((m == 0) | (m == 1)):
        raise ValueError("mask must be binary")
    lines = [f"P2\n{m.shape[1]} {m.shape[0]}\n1"]
    lines += [" ".join(map(str, row)) for row in m.astype(int)]
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def read_mask_pgm(path):
    tokens = Path(path).read_text().split()
    if tokens[:1] != ["P2"] or len(tokens) < 4:
        raise ValueError(f"{path}: not an ASCII PGM")
    cols, rows, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 1:
        raise ValueError("mask PGM must have maxval 1")
    return np.array(tokens[4:], dtype=np.float64).reshape(rows, cols)
