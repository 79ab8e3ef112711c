"""Minimal reverse-mode autodiff on float64 numpy arrays.

Only the operations the mining pipeline needs are provided: 2-d
convolution with "same" zero padding, global average pooling, 2x
bilinear upsampling, ReLU, channel concatenation, elementwise
arithmetic and the numerically stable sigmoid cross-entropy.  Every
operation carries an analytic gradient, which the tests verify against
central differences with tests/gradcheck.py.

Ops take Tensors and never wrap an array: a constant input is passed
as `Tensor(array)`, except the documented constant arguments.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A float64 array plus the tape machinery for backpropagation.

    Layout convention for feature maps is (N, W, H, D): batch, width,
    height, channels.  All values must stay finite; operations validate
    their inputs and raise ValueError on shape mismatches.

    A tensor requires a gradient when it is a `requires_grad` leaf or
    has a parent that requires one.  One that does not keeps no parents
    and no backward closure, so a forward that no gradient reaches builds
    no tape and an op's saved buffers are freed as soon as its output is.

    A Tensor argument of an op is a node of the graph, and a constant is
    an explicit array argument (`mul_const`'s `const`, `sigmoid_bce`'s
    `labels`).  An array passed where a Tensor belongs raises at the op
    call: a TypeError naming its type, unless the op's forward fails first.
    """

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        parents = tuple(parents)
        for p in parents:
            if not isinstance(p, Tensor):
                raise TypeError(f"an autodiff op takes Tensors, not {type(p).__name__}")
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self.grad = None
        self._parents = parents if self.requires_grad else ()
        self._backward_fn = backward_fn if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def backward(self, grad=None):
        """Accumulate gradients into every reachable requires_grad leaf.

        Only leaves store `.grad`; parents that require no gradient are
        skipped.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        order = []
        _post_order(self, set(), order)
        grads = {id(self): np.asarray(grad, dtype=np.float64)}
        for t in reversed(order):
            g = grads.pop(id(t), None)
            if g is None:
                continue
            if t._backward_fn is None:
                if t.requires_grad:
                    t.grad = g.copy() if t.grad is None else t.grad + g
                continue
            for parent, pg in zip(t._parents, t._backward_fn(g)):
                if pg is None or not parent.requires_grad:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg


def _post_order(t, seen, order):
    """Append the tape below `t` to `order`, parents before children.

    Not a closure: a self-referencing one keeps the tape alive in a
    reference cycle until the cyclic garbage collector runs.
    """
    if id(t) in seen:
        return
    seen.add(id(t))
    for p in t._parents:
        _post_order(p, seen, order)
    order.append(t)


def check_finite(name, arr):
    """ValueError naming `name` unless every value of `arr` is finite."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")


def _pad_same(x, kw, kh):
    """`x` zero-padded for a "same" kw x kh kernel, and its pads; `x` itself for a 1x1 kernel."""
    pw0 = (kw - 1) // 2
    ph0 = (kh - 1) // 2
    pads = (pw0, kw - 1 - pw0, ph0, kh - 1 - ph0)
    if kw == kh == 1:
        return x, pads
    n, w, h, d = x.shape
    xp = np.zeros((n, w + kw - 1, h + kh - 1, d), dtype=x.dtype)
    xp[:, pw0 : pw0 + w, ph0 : ph0 + h] = x
    return xp, pads


def _im2col(xp, kw, kh, stride, ow, oh):
    """(N, ow, oh, kw*kh*d) patch matrix of a padded map, built in one copy."""
    n, _, _, d = xp.shape
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kw, kh), axis=(1, 2))
    taps = windows[:, : ow * stride : stride, : oh * stride : stride].transpose(0, 1, 2, 4, 5, 3)
    return np.ascontiguousarray(taps).reshape(n, ow, oh, kw * kh * d)


def conv2d(x, kernel, bias=None, stride=1):
    """2-d convolution, zero "same" padding, output (N, ceil(W/s), ceil(H/s), d_out).

    kernel has shape (kw, kh, d_in, d_out); bias, when given, shape (d_out,).
    """
    if x.data.ndim != 4:
        raise ValueError(f"conv2d input must be rank 4, got shape {x.shape}")
    if kernel.data.ndim != 4:
        raise ValueError(f"conv2d kernel must be rank 4, got shape {kernel.shape}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n, w, h, d_in = x.shape
    kw, kh, kd_in, d_out = kernel.shape
    if kd_in != d_in:
        raise ValueError(
            f"channel mismatch: input shape {x.shape} vs kernel shape {kernel.shape}"
        )
    ow = -(-w // stride)
    oh = -(-h // stride)
    xp, pads = _pad_same(x.data, kw, kh)
    if kw > xp.shape[1] or kh > xp.shape[2]:
        raise ValueError(
            f"kernel spatial dims {kernel.shape[:2]} exceed padded input {xp.shape[1:3]}"
        )
    cols = _im2col(xp, kw, kh, stride, ow, oh)
    kmat = kernel.data.reshape(kw * kh * d_in, d_out)
    out = cols @ kmat
    parents = [x, kernel]
    if bias is not None:
        if bias.shape != (d_out,):
            raise ValueError(f"bias shape {bias.shape} != ({d_out},)")
        out += bias.data
        parents.append(bias)

    def backward(g):
        gc = g.reshape(n * ow * oh, d_out)
        colmat = cols.reshape(n * ow * oh, kw * kh * d_in)
        gk = (colmat.T @ gc).reshape(kernel.shape)
        grads = [None, gk]
        if x.requires_grad:
            gcols = (gc @ kmat.T).reshape(n, ow, oh, kw, kh, d_in)
            gxp = np.zeros_like(xp)
            for i in range(kw):
                for j in range(kh):
                    gxp[
                        :, i : i + ow * stride : stride, j : j + oh * stride : stride, :
                    ] += gcols[:, :, :, i, j, :]
            pw0, pw1, ph0, ph1 = pads
            grads[0] = gxp[:, pw0 : xp.shape[1] - pw1, ph0 : xp.shape[2] - ph1, :]
        if bias is not None:
            grads.append(g.sum(axis=(0, 1, 2)))
        return grads

    return Tensor(out, parents=parents, backward_fn=backward)


def gap(x):
    """Global average pooling over the spatial dims: (N, W, H, D) -> (N, D)."""
    if x.data.ndim != 4:
        raise ValueError(f"gap input must be rank 4, got shape {x.shape}")
    n, w, h, d = x.shape
    out = x.data.mean(axis=(1, 2))

    def backward(g):
        return [np.broadcast_to((g / (w * h))[:, None, None, :], (n, w, h, d)).copy()]

    return Tensor(out, parents=[x], backward_fn=backward)


def _upsample_indices(size):
    # Half-pixel source centers with edge clamping: for output pixel i the
    # source coordinate is (i + 0.5) / 2 - 0.5.
    src = (np.arange(2 * size, dtype=np.float64) + 0.5) / 2.0 - 0.5
    src = np.clip(src, 0.0, size - 1)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, size - 1)
    frac = src - i0
    return i0, i1, frac


def _rank_groups(idx):
    """Positions of the non-decreasing `idx` grouped by rank, the count of
    earlier positions with the same value: [rank 0 positions, rank 1, ...]."""
    rank = np.arange(len(idx)) - np.searchsorted(idx, idx)
    return [np.flatnonzero(rank == r) for r in range(rank.max() + 1)]


def bilinear_upsample2x(x):
    """Double the spatial dims by bilinear interpolation (half-pixel centers)."""
    if x.data.ndim != 4:
        raise ValueError(f"upsample input must be rank 4, got shape {x.shape}")
    n, w, h, d = x.shape
    wi0, wi1, wf = _upsample_indices(w)
    hi0, hi1, hf = _upsample_indices(h)
    wf = wf[:, None, None]
    hf = hf[None, :, None]

    def sample(arr):
        a = arr[:, wi0][:, :, hi0]
        b = arr[:, wi0][:, :, hi1]
        c = arr[:, wi1][:, :, hi0]
        e = arr[:, wi1][:, :, hi1]
        top = a * (1 - hf) + b * hf
        bot = c * (1 - hf) + e * hf
        return top * (1 - wf) + bot * wf

    out = sample(x.data)

    def backward(g):
        # the adds reach each input pixel in row-major order of the output
        # pixels that sample it, as np.add.at would: rank groups have unique
        # targets, and visiting (w rank, h rank) in row-major order keeps
        # each pixel's (i, j) order
        gx = np.zeros_like(x.data)
        ww = [(wi0, 1 - wf), (wi1, wf)]
        hh = [(hi0, 1 - hf), (hi1, hf)]
        for widx, wwt in ww:
            for hidx, hwt in hh:
                contrib = g * wwt * hwt
                for rw in _rank_groups(widx):
                    for rh in _rank_groups(hidx):
                        gx[:, widx[rw][:, None], hidx[rh]] += contrib[:, rw[:, None], rh]
        return [gx]

    return Tensor(out, parents=[x], backward_fn=backward)


def relu(x):
    mask = x.data > 0
    return Tensor(
        x.data * mask,
        parents=[x],
        backward_fn=lambda g: [g * mask],
    )


def concat_channels(a, b):
    """Concatenate two (N, W, H, D) maps along the channel axis."""
    if a.shape[:3] != b.shape[:3]:
        raise ValueError(f"spatial mismatch: {a.shape} vs {b.shape}")
    da = a.shape[3]
    out = np.concatenate([a.data, b.data], axis=3)
    return Tensor(
        out,
        parents=[a, b],
        backward_fn=lambda g: [g[..., :da], g[..., da:]],
    )


def mul_const(x, const):
    """Multiply by a constant array (no gradient flows into the constant)."""
    c = np.asarray(const, dtype=np.float64)
    return Tensor(x.data * c, parents=[x], backward_fn=lambda g: [g * c])


def matvec(x, w):
    """Per-sample dot product: (N, D) @ (D,) -> (N,)."""
    if x.data.ndim != 2 or w.data.ndim != 1 or x.shape[1] != w.shape[0]:
        raise ValueError(f"matvec shape mismatch: {x.shape} vs {w.shape}")
    out = x.data @ w.data
    return Tensor(
        out,
        parents=[x, w],
        backward_fn=lambda g: [np.outer(g, w.data), x.data.T @ g],
    )


def sigmoid_bce(logits, labels):
    """Mean sigmoid cross-entropy over a batch of logits, stable form.

    loss_i = max(z, 0) - z*y + log(1 + exp(-|z|)); gradient sigma(z) - y.
    """
    check_finite("logits", logits.data)
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != logits.shape:
        raise ValueError(f"label shape {y.shape} != logit shape {logits.shape}")
    z = logits.data
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    n = max(loss.size, 1)
    out = loss.sum() / n

    def backward(g):
        sig = 1.0 / (1.0 + np.exp(-z))
        return [g * (sig - y) / n]

    return Tensor(out, parents=[logits], backward_fn=backward)


def l2_norm(x):
    """||x||_2 over all elements, with zero subgradient at the origin."""
    norm = float(np.sqrt(np.sum(x.data**2)))

    def backward(g):
        if norm == 0.0:
            return [np.zeros_like(x.data)]
        return [g * x.data / norm]

    return Tensor(norm, parents=[x], backward_fn=backward)


def sub(a, b):
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return Tensor(a.data - b.data, parents=[a, b], backward_fn=lambda g: [g, -g])


def add(a, b):
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return Tensor(a.data + b.data, parents=[a, b], backward_fn=lambda g: [g, g])


def scale(x, alpha):
    alpha = float(alpha)
    return Tensor(x.data * alpha, parents=[x], backward_fn=lambda g: [g * alpha])


def mean_of(tensors):
    """Arithmetic mean of equally shaped tensors (used for loss averaging)."""
    if not tensors:
        raise ValueError("mean_of requires at least one tensor")
    k = len(tensors)
    out = sum(t.data for t in tensors) / k
    return Tensor(
        out,
        parents=tensors,
        backward_fn=lambda g: [g / k for _ in tensors],
    )


def stack_vectors(tensors):
    """Stack K same-length (N,) tensors into an (N, K) matrix."""
    if not tensors:
        raise ValueError("stack_vectors requires at least one tensor")
    out = np.stack([t.data for t in tensors], axis=1)
    return Tensor(
        out,
        parents=tensors,
        backward_fn=lambda g: [g[:, k] for k in range(len(tensors))],
    )


def sgd_step(params, lr):
    """In-place p <- p - lr * p.grad; a parameter with no gradient is left unchanged."""
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    for p in params:
        if p.grad is None:
            continue
        if p.data.shape != p.grad.shape:
            raise ValueError(f"shape mismatch: param {p.data.shape} vs grad {p.grad.shape}")
        p.data -= lr * p.grad
