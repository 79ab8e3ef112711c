"""Forward and backward time of each autodiff op at the network's real shapes.

The shapes follow one training batch through the backbone: the four
3x3 conv stages, the two 1x1 aggregation convs and the 2x bilinear
upsample of the deep stream.  Backward is timed through
``Tensor.backward(grad)`` on the op's output, so it includes the tape
walk.  An op's input carries a gradient exactly when it does inside the
network, that is for every op but the first conv on the image.

Flop and byte counts are computed from the shapes, not measured: flops
of the arithmetic the op's math needs (gradients only where required),
bytes of its operands and results read or written once (float64).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from attnmine import autodiff as ad
from attnmine.autodiff import Tensor
from attnmine.model import Network

REPEATS = 15


def _cases(net, batch, size):
    cfg = net.config
    cases, w, d_in = [], size, 1
    for i, (d_out, stride) in enumerate(zip(cfg.stage_channels, cfg.stage_strides)):
        cases.append((f"stage{i}", (batch, w, w, d_in), stride, i > 0))
        w, d_in = -(-w // stride), d_out
    cases.append(("msa_deep", (batch, w, w, cfg.stage_channels[-1]), 1, True))
    cases.append(("msa_shallow", (batch, 2 * w, 2 * w, cfg.stage_channels[-2]), 1, True))
    return cases, (batch, w, w, cfg.msa_reduced_channels[0])


def _time(op, x, params):
    out = op(x)
    grad = np.random.default_rng(1).standard_normal(out.shape)
    fwd, bwd = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = op(x)
        t1 = time.perf_counter()
        out.backward(grad)
        t2 = time.perf_counter()
        for t in (x, *params):
            t.zero_grad()
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
    return statistics.median(fwd) * 1e3, statistics.median(bwd) * 1e3


def op_metrics(backbone_config, batch, size, seed):
    """{metric name: (value, detail)} for every conv and the upsample."""
    net = Network(backbone_config, seed=seed)
    rng = np.random.default_rng(seed)
    cases, up_shape = _cases(net, batch, size)
    metrics = {}
    for name, x_shape, stride, x_grad in cases:
        k, b = net.params[f"{name}_w"], net.params[f"{name}_b"]
        x = Tensor(rng.standard_normal(x_shape), requires_grad=x_grad)
        fwd, bwd = _time(lambda t: ad.conv2d(t, k, b, stride=stride), x, (k, b))
        n, w, h, d_in = x_shape
        kw, kh, _, d_out = k.shape
        outs = n * -(-w // stride) * -(-h // stride)
        macs = outs * kw * kh * d_in * d_out
        flop = 2 * macs + outs * d_out                     # forward + bias
        flop += 2 * macs + outs * d_out                    # kernel and bias grads
        sizes = x.data.size + k.data.size + b.data.size    # forward reads
        sizes += 2 * outs * d_out                          # output write, grad read
        sizes += x.data.size + k.data.size + b.data.size   # x read, kernel/bias grads
        if x_grad:
            flop += 2 * macs + outs * kw * kh * d_in       # input grad + col2im adds
            sizes += k.data.size + x.data.size             # kernel read, input grad
        metrics.update(_op_entries(f"autodiff.conv2d.{name}", fwd, bwd, flop, sizes, x_shape))
    x = Tensor(rng.standard_normal(up_shape), requires_grad=True)
    fwd, bwd = _time(ad.bilinear_upsample2x, x, ())
    outs = 4 * x.data.size
    # 4 taps: 4 mul + 3 add forward, 4 mul + 4 add backward per output
    flop = 7 * outs + 8 * outs
    sizes = 2 * (x.data.size + outs)
    metrics.update(_op_entries("autodiff.upsample", fwd, bwd, flop, sizes, up_shape))
    return metrics


def _op_entries(prefix, fwd, bwd, flop, sizes, shape):
    detail = f"input {shape}, median of {REPEATS}"
    return {
        f"{prefix}.fwd_p50_ms": (fwd, detail),
        f"{prefix}.bwd_p50_ms": (bwd, detail),
        f"{prefix}.mflop": (flop / 1e6, "computed, forward + backward"),
        f"{prefix}.mb_moved": (8 * sizes / 1e6, "computed, forward + backward operands"),
    }
