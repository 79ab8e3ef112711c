"""Iterative saliency mining: masked CAMs, component erasure, heatmap aggregation.

For one class branch the procedure is: project the feature map onto the
branch weights once, then per step mask that heatmap with the erasure
mask, min-max normalize, binarize at a threshold, zero out the connected
component holding the global maximum, and repeat.  The final heatmap
averages all step heatmaps, filling pixels erased at earlier steps from
those steps' own responses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import atomic_write_bytes, write_pgm


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


def flood_fill_component(binary, seed, connectivity=8):
    """Boolean mask of the connected component of `seed` in `binary`."""
    binary = np.asarray(binary, dtype=bool)
    w, h = binary.shape
    if not binary[seed]:
        raise ValueError(f"seed {seed} is not set in the binary map")
    # the map with a False border, as a flat list of Python bools: every
    # neighbour of an inner cell is its index plus a fixed offset, and no
    # neighbour needs a bounds check
    stride = h + 2
    padded = np.zeros((w + 2, stride), dtype=bool)
    padded[1:-1, 1:-1] = binary
    if connectivity == 8:
        offsets = (-stride - 1, -stride, -stride + 1, -1, 1, stride - 1, stride, stride + 1)
    else:
        offsets = (-stride, -1, 1, stride)
    unreached = padded.ravel().tolist()  # set cells not yet in the component
    first = (int(seed[0]) + 1) * stride + int(seed[1]) + 1
    unreached[first] = False
    stack = [first]
    while stack:
        k = stack.pop()
        for d in offsets:
            n = k + d
            if unreached[n]:
                unreached[n] = False
                stack.append(n)
    comp = padded & ~np.array(unreached).reshape(padded.shape)
    return comp[1:-1, 1:-1]


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
    """Iterate the erase-and-remine loop up to config.num_steps times.

    feat: (W, H, D) single-image feature map (plain array).  Step t's raw
    heatmap is `feat @ weights` times masks[t-1]; global-max ties break at
    the smallest row-major index.
    """
    cam = np.asarray(feat, dtype=np.float64) @ weights
    if not np.all(np.isfinite(cam)):
        raise ValueError("heatmap contains non-finite values")
    run = MiningRun()
    mask = np.ones(cam.shape)
    run.masks.append(mask)
    for _ in range(config.num_steps):
        if mask.sum() == 0:
            break
        raw = cam * mask
        norm, degenerate = normalize01(raw)
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
        peak = np.unravel_index(int(np.argmax(raw)), raw.shape)
        mask = mask.copy()
        mask[flood_fill_component(norm >= config.binarize_threshold, peak, config.connectivity)] = 0.0
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


def write_mask_pgm(path, mask):
    """Binary mask as a maxval-1 (1-bit depth) ASCII PGM."""
    m = np.asarray(mask)
    if not np.all((m == 0) | (m == 1)):
        raise ValueError("mask must be binary")
    lines = [f"P2\n{m.shape[1]} {m.shape[0]}\n1"]
    lines += [" ".join(map(str, row)) for row in m.astype(int)]
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())
