"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_coord: tuple
    passed: bool


def _rel_err(a, f):
    return abs(a - f) / max(abs(a), abs(f), 1e-6)


def finite_diff_check(loss_fn, params, epsilon=1e-5, tolerance=1e-4, max_coords=None, rng=None):
    """Compare analytic gradients of a scalar loss against central differences.

    loss_fn(params) must return a Tensor scalar built from the given
    parameter Tensors; it is called repeatedly and must be deterministic.
    When max_coords is set, coordinates are subsampled per parameter
    (seeded via rng) instead of checked exhaustively.
    """
    if not (1e-5 <= epsilon <= 1e-3):
        raise ValueError("epsilon must lie in [1e-5, 1e-3]")
    for p in params:
        p.zero_grad()
    loss = loss_fn(params)
    loss.backward()
    analytic = [
        np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params
    ]

    report = GradCheckReport(0.0, (), True)
    for pi, p in enumerate(params):
        coords = list(np.ndindex(*p.data.shape)) if p.data.ndim else [()]
        if max_coords is not None and len(coords) > max_coords:
            rng = rng or np.random.default_rng(0)
            picks = rng.choice(len(coords), size=max_coords, replace=False)
            coords = [coords[i] for i in picks]
        for c in coords:
            orig = p.data[c]
            p.data[c] = orig + epsilon
            lp = float(np.asarray(loss_fn(params).data).reshape(()))
            p.data[c] = orig - epsilon
            lm = float(np.asarray(loss_fn(params).data).reshape(()))
            p.data[c] = orig
            fd = (lp - lm) / (2 * epsilon)
            err = _rel_err(float(analytic[pi][c]), fd)
            if err > report.max_rel_error:
                report.max_rel_error = err
                report.worst_coord = c
    report.passed = report.max_rel_error <= tolerance
    return report
