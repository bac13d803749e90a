"""Primitive differentiable ops on :class:`Tensor`.

Every op computes a numpy forward result and, when a tape is active and an
input requires grad, appends a node whose backward closure maps the output
gradient to per-input gradients. add/mul/div/concat, matmul, conv2d,
conv_transpose2d, grid_sample and lstm_cell return None for an input that
does not require grad (a dropout mask, a one-hot label, a first step's zero
state, a frozen group's features) instead of computing it. Shapes are
validated eagerly; shape errors name the op and the offending shapes.

Dtypes: a Python or numpy scalar operand of add/mul/div takes the dtype
of its tensor partner, so ``1.0 + x`` or ``x * 0.5`` stays float32 for a
float32 ``x`` (NEP 50 would make the scalar a float64 operand); other
operands follow numpy promotion. ``mean`` divides by a Python int.

Tape memory: a closure keeps only what its backward reads. conv2d and
conv_transpose2d take ``relu=True`` to apply a ReLU in place and mask the
gradient by ``out > 0``, so the pre-activation output is not kept. conv2d
also takes ``pool=k``, a k-by-k average pool after the ReLU: the tape then
keeps the pooled output and the full-resolution ReLU mask packed to one
bit per value (``np.packbits``, per item), not the full-resolution output;
the mask is built only when the op is recorded. grid_sample, the
reconstruction warp, keeps only its transform, field and mask: forward
and backward recompute the displaced points, their coordinates and the
taps, and read the image rows in place by index, so no per-pixel array of
the warp and no copy of the frames is on the tape.
correlate re-pads ``f_prev`` in backward. The per-pixel losses
(binary_cross_entropy, abs_diff_sum, total_variation) are one node each
with a per-item or scalar output; their backward recomputes the clamp
mask, differences and signs, so no per-pixel intermediate of a loss stays
on the tape. lstm_cell, one LSTM step, keeps its four gate activations,
the tanh of the new cell state and, when cross-gated, a boolean mask of
the cross-gate's positive pre-activations; it reads the previous states
in place. ``backward`` hands a node's gradient to its closure without
keeping a reference, and conv_transpose2d drops it once its last batch
slice is copied into the padded buffer. ``recompute`` records a per-item
function as one node that keeps the function's input and its outputs
packed per item, and none of its activations: its backward runs the
function again, taped, on batch slices of at most ``_SCRATCH_BYTES`` of
tape with each item counted twice, as the other backwards that run on top
of a pass's tape count it. A default phase-2 pass sends the mask decoder
through it, which takes the decoder's activations off the tape for one
more decoder forward per pass: a one-clip pass holds 3.8 MiB at the start
of its backward instead of 5.9.

Scratch memory: both conv ops run on one kernel pair. ``_gather`` builds
im2col columns one batch slice at a time, in slices of at most
``_SCRATCH_BYTES`` whatever the batch size; results are bitwise the same
as from one full-batch product. A slice's budget counts all the slice
allocates: its padded input, its columns and the products its caller
builds from them (``_subpixel``'s product and that product shuffled,
conv2d's full-resolution output before a pool), each freed before the
next slice is built. It runs conv2d's forward and kernel gradient
directly, and conv_transpose2d's forward and conv2d's input gradient as a
sub-pixel convolution (``_subpixel``). conv_transpose2d adds its bias in
place; its backward is one loop over batch slices, each of which writes
its ReLU-masked gradient into the interior of one zeroed padded buffer of
a slice's size and builds the slice's im2col columns once, for the input
gradient (``cols @ w^T``) and the kernel gradient. A slice's budget there
counts its padded gradient, ReLU mask and columns. Both ops sum their
kernel gradient item by item in item order (``_add_item_products``: each
item's ``cols^T`` times its output gradient for conv2d, its input for
conv_transpose2d), through one kernel-sized product buffer, and
conv_transpose2d sums its bias gradient item by item too, so the slicing
changes no bit of them. No Python loop runs over kernel taps.
grid_sample runs its forward and its backward over batch slices,
recomputing each slice's points, coordinates and taps (one take per corner
from a flat view of the image's pixels), so neither holds a full-batch
per-pixel buffer besides its output or gradients; its backward
builds its coordinate-gradient terms in place in two reused buffers and
writes the transform, field and mask gradients slice by slice.
The backwards of conv_transpose2d and grid_sample count each item twice,
so their slices take half of ``_SCRATCH_BYTES``: they run on top of the
whole live tape of a front-end pass, where a training step's memory peaks,
while the forwards run before most of that tape exists.

Conventions:
  - images and feature maps are NHWC;
  - conv kernels are (kh, kw, c_in, c_out), for transposed conv as well;
  - linear weights are (d_in, d_out) so forward is ``x @ w``;
  - sampling coordinates are normalized to [-1, 1] with align-corners
    semantics (-1 is the center of the first pixel, +1 the last).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import (
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    _propagate,
    active_tape,
    as_tensor,
    debug_nan_enabled,
)


def _result(op_name: str, data: np.ndarray, inputs: tuple[Tensor, ...], bwd) -> Tensor:
    if debug_nan_enabled() and not np.all(np.isfinite(data)):
        raise NonFiniteError(f"{op_name}: non-finite values in output")
    track = _tracked(inputs)
    out = Tensor(data, requires_grad=track)
    if track:
        active_tape().nodes.append((out, inputs, bwd, op_name))
    return out


def _tracked(inputs: tuple[Tensor, ...]) -> bool:
    """Whether ``_result`` records an op: a tape is active and an input requires grad."""
    return active_tape() is not None and any(t.requires_grad for t in inputs)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


_SCALARS = (int, float, np.generic)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors; a Python or numpy scalar takes the dtype of
    its tensor partner (under NEP 50 it would otherwise be a float64 operand
    that promotes a float32 partner)."""
    if isinstance(a, Tensor) and isinstance(b, _SCALARS):
        return a, as_tensor(b, dtype=a.dtype)
    if isinstance(b, Tensor) and isinstance(a, _SCALARS):
        return as_tensor(a, dtype=b.dtype), b
    return as_tensor(a), as_tensor(b)


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    _check_broadcast("add", a, b)
    return _result(
        "add", a.data + b.data, (a, b),
        lambda g: (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                   _unbroadcast(g, b.data.shape) if b.requires_grad else None),
    )


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    _check_broadcast("mul", a, b)
    return _result(
        "mul", a.data * b.data, (a, b),
        lambda g: (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                   _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None),
    )


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    _check_broadcast("div", a, b)
    inv = 1.0 / b.data
    out = a.data * inv

    def bwd(g):
        return (
            _unbroadcast(g * inv, a.data.shape) if a.requires_grad else None,
            _unbroadcast(-g * out * inv, b.data.shape) if b.requires_grad else None,
        )

    return _result("div", out, (a, b), bwd)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def bwd(g):
        return (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
                if a.requires_grad else None,
                _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
                if b.requires_grad else None)

    return _result("matmul", out, (a, b), bwd)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _result("reshape", a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def concat(tensors, axis: int = 0) -> Tensor:
    ts = tuple(as_tensor(t) for t in tensors)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        sl = [slice(None)] * g.ndim
        outs = []
        for i, t in enumerate(ts):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            outs.append(g[tuple(sl)] if t.requires_grad else None)
        return tuple(outs)

    return _result("concat", np.concatenate([t.data for t in ts], axis=axis), ts, bwd)


def slice_(a, index) -> Tensor:
    """Basic (non-fancy) slicing; gradient scatters back into zeros."""
    a = as_tensor(a)

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[index] = g
        return (ga,)

    return _result("slice", a.data[index], (a,), bwd)


# ---------------------------------------------------------------------------
# reductions


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    return _result("sum", a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else math.prod(
        a.data.shape[i] for i in np.atleast_1d(axis)
    )

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, a.data.shape),)

    return _result("mean", a.data.mean(axis=axis, keepdims=keepdims), (a,), bwd)


# ---------------------------------------------------------------------------
# activations and pointwise nonlinearities


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, from one exp of
    -|x|, so no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid(a.data)
    return _result("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh_(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _result("tanh", out, (a,), lambda g: (g * (1.0 - out * out),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    # subgradient at 0 is defined as 0 (strict inequality)
    return _result("relu", np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0),))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _result("log", np.log(a.data), (a,), lambda g: (g / a.data,))


def clip(a, lo: float, hi: float) -> Tensor:
    a = as_tensor(a)
    keep = (a.data >= lo) & (a.data <= hi)
    return _result("clip", np.clip(a.data, lo, hi), (a,), lambda g: (g * keep,))


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _result("softmax", out, (a,), bwd)


# ---------------------------------------------------------------------------
# recurrent cell


def lstm_cell(xw, hc, u, b, hc_other=None, v=None, vb=None) -> Tensor:
    """One LSTM step with the [i; o; g; a] gate layout, as one node.

    ``xw`` (B, 4H) is the step's input term x·W, ``hc`` (B, 2H) the cell's
    previous state packed as [h | c], ``u`` (H, 4H) and ``b`` (4H,). A
    cross-gated cell also passes the other cell's previous packed state
    ``hc_other`` and its own ``v`` (H, 4H) and ``vb`` (4H,). The
    pre-activation is ``xw + h·U``, plus ``relu(h_other·V + vb)`` when
    cross-gated, plus ``b``; i, o and g are its sigmoids and a its tanh.
    Returns the packed new state [o·tanh(c) | c], c = i·a + g·c_prev.
    Forward and backward do the arithmetic, in the same order, of the
    equivalent chain of generic ops (matmul, add, relu, slicing, sigmoid,
    tanh, mul), so values and gradients are bitwise that chain's."""
    cross = (hc_other, v, vb)
    if all(t is None for t in cross):
        cross = ()
    elif any(t is None for t in cross):
        raise ShapeError("lstm_cell: hc_other, v and vb come together")
    inputs = tuple(as_tensor(t) for t in (xw, hc, u, b) + cross)
    xw, hc, u, b = inputs[:4]
    n, hid = (xw.data.shape[0] if xw.ndim else 0), (u.data.shape[0] if u.ndim else 0)
    want = [(n, 4 * hid), (n, 2 * hid), (hid, 4 * hid), (4 * hid,)]
    if [t.data.shape for t in inputs] != (want + want[1:])[:len(inputs)]:
        raise ShapeError(f"lstm_cell: shapes {[t.data.shape for t in inputs]} are not "
                         "xw (B, 4H), hc (B, 2H), u (H, 4H), b (4H,), hc_other (B, 2H), "
                         "v (H, 4H), vb (4H,)")
    h_prev, c_prev = hc.data[:, :hid], hc.data[:, hid:]
    pre = xw.data + h_prev @ u.data
    if cross:
        hc_other, v, vb = inputs[4:]
        h_other = hc_other.data[:, :hid]
        j = h_other @ v.data + vb.data
        pre += np.maximum(j, 0.0)
        j_pos = j > 0
    pre += b.data
    # [i | o | g | a]; tanh reads the gate's strided view, as the chain does
    gates = np.empty_like(pre)
    gates[:, :3 * hid] = _sigmoid(pre[:, :3 * hid])
    gates[:, 3 * hid:] = np.tanh(pre[:, 3 * hid:])
    i, o, g, a = (gates[:, k * hid:(k + 1) * hid] for k in range(4))
    c = i * a + g * c_prev
    tc = np.tanh(c)

    def bwd(grad):
        gh = grad[:, :hid]
        gc = grad[:, hid:] + gh * o * (1.0 - tc * tc)
        # summed into zeros, as the chain sums the gradients of its slices,
        # so that a -0.0 there becomes +0.0
        gpre = np.zeros_like(gates)
        sig = gates[:, :3 * hid]
        gsig = np.concatenate([gc * a, gh * tc, gc * c_prev], axis=1)  # at i, o and g
        gpre[:, :3 * hid] += gsig * sig * (1.0 - sig)
        gpre[:, 3 * hid:] += gc * i * (1.0 - a * a)
        ghc = None
        if hc.requires_grad:
            ghc = np.zeros_like(hc.data)
            ghc[:, :hid] += gpre @ u.data.T
            ghc[:, hid:] += gc * g
        grads = [gpre if xw.requires_grad else None, ghc,
                 h_prev.T @ gpre if u.requires_grad else None,
                 gpre.sum(axis=0) if b.requires_grad else None]
        if cross:
            gj = gpre * j_pos
            gho = None
            if hc_other.requires_grad:
                gho = np.zeros_like(hc_other.data)
                gho[:, :hid] = gj @ v.data.T
            grads += [gho, h_other.T @ gj if v.requires_grad else None,
                      gj.sum(axis=0) if vb.requires_grad else None]
        return tuple(grads)

    return _result("lstm_cell", np.concatenate([o * tc, c], axis=1), inputs, bwd)


# ---------------------------------------------------------------------------
# per-pixel losses, one node each: the closure keeps the inputs, and backward
# recomputes the clamp mask, differences and signs it reads. Forward and
# backward do the float32 arithmetic, in the same order, of the equivalent
# chain of generic ops (clip, log, add, mul, abs, mean, slicing), so values
# and gradients, signed zeros included, are bitwise that chain's.


def binary_cross_entropy(p, target, eps: float) -> Tensor:
    """Per-item mean binary cross entropy of ``p`` against ``target``,
    (N, ...) -> (N,). ``p`` is clamped to [eps, 1 - eps] before the logs: a
    pixel beyond a bound gets a zero gradient, one exactly at a bound keeps
    its gradient. ``target`` gets no gradient."""
    p, target = as_tensor(p), as_tensor(target)
    if p.data.shape != target.data.shape:
        raise ShapeError(f"binary_cross_entropy: shapes {p.data.shape} and "
                         f"{target.data.shape} differ")
    axes = tuple(range(1, p.ndim))
    count = math.prod(p.data.shape[1:])
    t = target.data
    pc = np.clip(p.data, eps, 1.0 - eps)
    loglik = t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc)

    def bwd(g):
        pc = np.clip(p.data, eps, 1.0 - eps)
        g = np.expand_dims(g, axes) / count
        gp = g * (1.0 - t)
        gp /= 1.0 - pc
        gt = g * t
        gt /= pc
        gp -= gt
        del gt
        gp *= (p.data >= eps) & (p.data <= 1.0 - eps)
        return gp, None

    return _result("binary_cross_entropy", -loglik.mean(axis=axes), (p, target), bwd)


def abs_diff_sum(a, b) -> Tensor:
    """Sum of ``|a - b|`` over every element, as a scalar."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"abs_diff_sum: shapes {a.data.shape} and {b.data.shape} differ")

    def bwd(g):
        ga = np.sign(a.data - b.data)  # in place, np.sign runs several times slower
        ga *= g
        if not b.requires_grad:
            return ga, None
        if not a.requires_grad:
            return None, np.negative(ga, out=ga)
        return ga, -ga

    d = np.subtract(a.data, b.data)
    out = np.abs(d, out=d).sum()
    del d
    return _result("abs_diff_sum", out, (a, b), bwd)


def total_variation(x, mask) -> Tensor:
    """Mean ``|difference|`` of horizontal neighbours plus that of vertical
    neighbours in ``x * mask``, for ``x`` (N, H, W, C) and a per-pixel
    ``mask`` (N, H, W), as a scalar."""
    x, mask = as_tensor(x), as_tensor(mask)
    if x.ndim != 4 or mask.data.shape != x.data.shape[:3]:
        raise ShapeError(f"total_variation: mask {mask.data.shape} does not match "
                         f"input {x.data.shape}")

    def diffs():
        xm = x.data * mask.data[..., None]
        return xm[:, :, 1:] - xm[:, :, :-1], xm[:, 1:] - xm[:, :-1]

    dx, dy = diffs()
    out = np.abs(dx).mean() + np.abs(dy).mean()
    del dx, dy

    def bwd(g):
        dx, dy = diffs()
        dx = np.sign(dx)
        dx *= g / dx.size
        dy = np.sign(dy)
        dy *= g / dy.size
        # the gradient at x * mask, summed in the chain's order: each vertical
        # difference onto its two pixels, then each horizontal one
        m = mask.data[..., None]
        gxm = np.zeros(x.data.shape, np.result_type(x.data, m))
        np.negative(dy, out=gxm[:, :-1])
        gxm[:, 1:] += dy
        gxm[:, :, :-1] -= dx
        gxm[:, :, 1:] += dx
        del dx, dy
        # the chain adds a zero for each difference a border pixel lacks,
        # which turns -0.0 there into +0.0
        for edge in (gxm[:, 0], gxm[:, -1], gxm[:, :, 0], gxm[:, :, -1]):
            edge += 0.0
        return (gxm * m if x.requires_grad else None,
                _unbroadcast(gxm * x.data, m.shape).reshape(mask.data.shape)
                if mask.requires_grad else None)

    return _result("total_variation", out, (x, mask), bwd)


# ---------------------------------------------------------------------------
# convolution family (NHWC, kernels (kh, kw, c_in, c_out))


# Bytes of scratch one batch slice may allocate, counting all it allocates
# (the module docstring lists what each op counts). Smaller slices cost more
# calls; at 1 MiB the benchmark's peak RSS also jumped by 3-4 MiB in some
# runs, as glibc placed later large arrays on fresh pages (CHANGES.md).
_SCRATCH_BYTES = 2 << 20


def _batch_slices(n: int, item_bytes: int) -> list[slice]:
    """Split a batch of ``n`` items into the fewest slices of at most
    ``_SCRATCH_BYTES`` each (one item if an item alone is larger), with
    sizes that differ by at most one.

    A row of a ``_gather`` product, of which every conv is made, does not
    depend on the product's row count, except that BLAS may switch to
    another kernel, with another summation order, for a very small product.
    Equal slices keep each one near half the budget or more, so none is that small."""
    cap = max(1, _SCRATCH_BYTES // item_bytes)
    count = max(1, -(-n // cap))
    bounds = [i * n // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _gather(x: np.ndarray, w: np.ndarray, stride: int, pad: int, size: tuple[int, int],
            products: int = 0):
    """Yields ``(s, cols, wmat)`` per batch slice, where ``cols @ wmat`` is
    the cross-correlation of ``x[s]`` with ``w``, of spatial ``size``, as
    (-1, c_out) rows; conv2d's kernel gradient reads ``cols`` alone, one
    item's rows at a time. A slice's budget counts its padded input, its
    columns and ``products`` arrays of the product's size that the caller
    allocates per slice. The caller deletes ``cols`` before the next slice."""
    kh, kw, ci, co = w.shape
    wmat = w.reshape(kh * kw * ci, co)
    padded = (x.shape[1] + 2 * pad) * (x.shape[2] + 2 * pad) * ci if pad else 0
    item_bytes = ((math.prod(size) * (kh * kw * ci + products * co) + padded)
                  * np.result_type(x, w).itemsize)
    for s in _batch_slices(len(x), item_bytes):
        yield s, _columns(x[s], kh, kw, stride, pad), wmat


def _columns(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """im2col rows of ``x``, one per output position. The padded copy dies
    here, so ``_gather`` does not hold it while its caller multiplies. A 1x1,
    stride-1, unpadded window is the input itself, so its rows are ``x``'s."""
    if kh == kw == stride == 1 and not pad:
        return x.reshape(-1, x.shape[3])
    xs = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x
    win = sliding_window_view(xs, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * x.shape[3])


def _subpixel(x: np.ndarray, w: np.ndarray, stride: int, pad: int,
              size: tuple[int, int]) -> np.ndarray:
    """Sum over taps (u, v) of ``x[:, i, j] @ w[u, v]`` placed at
    ``(u + stride * i - pad, v + stride * j - pad)`` in an output of spatial
    ``size``, zero where no tap lands, as a sub-pixel convolution
    (arXiv:1609.05158): output ``stride * q + r - pad`` takes the taps
    ``stride * m + r`` of the inputs ``q - m``, so one stride-1 ``_gather``
    with the flipped a x a sub-kernels of all stride^2 phases r, stacked on
    the output channels, computes every cell q; each slice's product is then
    shuffled into its phases. a covers w and the last cell ``size`` needs."""
    kh, kw, ci, co = w.shape
    s = stride
    skip, crop = divmod(pad, s)
    need = [-(-(n + crop) // s) for n in size]  # cells, per axis
    a = max(-(-max(kh, kw) // s), skip + 1,
            *(q - e + 1 + 2 * skip for q, e in zip(need, x.shape[1:3])))
    sub = np.pad(w, ((0, a * s - kh), (0, a * s - kw), (0, 0), (0, 0))).reshape(a, s, a, s, ci, co)
    # one contiguous copy, which _gather reshapes in place
    sub = np.ascontiguousarray(sub[::-1, :, ::-1].transpose(0, 2, 4, 1, 3, 5)).reshape(a, a, ci, -1)
    cells = tuple(e + a - 1 - 2 * skip for e in x.shape[1:3])
    out = np.empty((len(x), *size, co), np.result_type(x, w))
    # each slice builds its product and that product shuffled
    for sl, cols, wmat in _gather(x, sub, 1, a - 1 - skip, cells, products=2):
        # np.dot: matmul runs an outer product (a 1x1 conv's) without BLAS
        prod = np.dot(cols, wmat).reshape(-1, *cells, s, s, co)
        del cols  # free this slice's scratch before the next is built
        shuffled = prod.transpose(0, 1, 3, 2, 4, 5).reshape(-1, s * cells[0], s * cells[1], co)
        out[sl] = shuffled[:, crop:crop + size[0], crop:crop + size[1]]
        del prod, shuffled
    return out


def _add_item_products(gw: np.ndarray, cols: np.ndarray, rows: np.ndarray) -> None:
    """Add ``cols_i^T rows_i`` into the (K, c) kernel gradient ``gw`` for
    each item i of a batch slice's im2col ``cols`` and (ns, ..., c) ``rows``,
    in item order, through one kernel-sized product buffer; the loop indexes,
    so no loop variable keeps a view of the columns alive."""
    cols = cols.reshape(len(rows), -1, gw.shape[0])
    prod = np.empty_like(gw)
    for i in range(len(rows)):
        np.matmul(cols[i].T, rows[i].reshape(-1, gw.shape[1]), out=prod)
        gw += prod


def conv2d(x, w, b=None, stride: int = 1, pad: int = 0, relu: bool = False,
           pool: int = 1) -> Tensor:
    """Cross-correlation, then optionally a ReLU and a ``pool``-by-``pool``
    average pool, each applied in place per batch slice.

    With ``relu`` and no pool the tape keeps the output, which backward
    masks the gradient by; with a pool it keeps the full-resolution ReLU
    mask as bits, packed per item so that any batch slice writes whole
    bytes, a 32nd of that output's float32 bytes, built only when the op
    will be recorded."""
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 4 or w.ndim != 4 or x.data.shape[3] != w.data.shape[2]:
        raise ShapeError(f"conv2d: input {x.data.shape} incompatible with kernel {w.data.shape}")
    kh, kw, ci, co = w.data.shape
    n, h, wd, _ = x.data.shape
    if h + 2 * pad < kh or wd + 2 * pad < kw:
        raise ShapeError(f"conv2d: input {x.data.shape} smaller than kernel {w.data.shape}")
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    if pool < 1 or ho % pool or wo % pool:
        raise ShapeError(f"conv2d: output {ho}x{wo} not divisible by pool {pool}")
    inputs = (x, w) if b is None else (x, w, as_tensor(b))
    dtype = np.result_type(x.data, w.data)
    out = np.empty((n, ho // pool, wo // pool, co), dtype)
    bits = ho * wo * co
    mask = (np.empty((n, -(-bits // 8)), np.uint8)
            if relu and pool > 1 and _tracked(inputs) else None)
    for s, cols, wmat in _gather(x.data, w.data, stride, pad, (ho, wo), products=int(pool > 1)):
        full = np.empty((s.stop - s.start, ho, wo, co), dtype) if pool > 1 else out[s]
        np.matmul(cols, wmat, out=full.reshape(-1, co))
        if b is not None:
            full += inputs[2].data
        if relu:
            np.maximum(full, 0, out=full)
        if mask is not None:
            mask[s] = np.packbits(full.reshape(len(full), bits) > 0, axis=1)
        if pool > 1:
            full.reshape(-1, ho // pool, pool, wo // pool, pool, co).mean(axis=(2, 4), out=out[s])
        del cols, full  # free this slice's scratch before the next is built

    def bwd(g):
        if pool > 1:
            # spread g / pool^2 over each window, straight into one buffer
            up = np.empty((n, ho, wo, co), g.dtype)
            np.divide(g[:, :, None, :, None], pool * pool,
                      out=up.reshape(n, ho // pool, pool, wo // pool, pool, co))
            if relu:
                keep = np.unpackbits(mask, axis=1, count=bits).view(bool).reshape(up.shape)
                np.multiply(up, keep, out=up)
                del keep  # a byte per value: free it before the input and kernel gradients
            g = up
        elif relu:
            g = g * (out > 0)
        gx = (_subpixel(g, w.data.transpose(0, 1, 3, 2), stride, pad, (h, wd))
              if x.requires_grad else None)
        gw = np.zeros((kh * kw * ci, co), np.result_type(x.data, g))
        for s, cols, _ in _gather(x.data, w.data, stride, pad, (ho, wo)):
            _add_item_products(gw, cols, g[s])
            del cols  # free this slice's scratch before the next is built
        gw = gw.reshape(w.data.shape)
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 1, 2))

    return _result("conv2d", out, inputs, bwd)


def conv_transpose2d(x, w, b=None, stride: int = 1, pad: int = 0,
                     relu: bool = False) -> Tensor:
    """Adjoint of a strided conv2d, run on conv2d's kernels with the channel
    axes of ``w`` swapped; ``relu`` as in ``conv2d``."""
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 4 or w.ndim != 4 or x.data.shape[3] != w.data.shape[2]:
        raise ShapeError(
            f"conv_transpose2d: input {x.data.shape} incompatible with kernel {w.data.shape}"
        )
    kh, kw, ci, co = w.data.shape
    n, h, wd, _ = x.data.shape
    oh = (h - 1) * stride + kh - 2 * pad
    ow = (wd - 1) * stride + kw - 2 * pad
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"conv_transpose2d: empty output for input {x.data.shape}")
    out = _subpixel(x.data, w.data, stride, pad, (oh, ow))
    inputs = (x, w) if b is None else (x, w, as_tensor(b))
    if b is not None:
        out += inputs[2].data
    if relu:
        np.maximum(out, 0, out=out)

    def bwd(g):
        wmat = w.data.transpose(0, 1, 3, 2).reshape(kh * kw * co, ci)
        gx = np.empty(x.data.shape, x.data.dtype) if x.requires_grad else None
        gw = np.zeros((kh * kw * co, ci), np.result_type(g, x.data))
        gb = np.zeros(co, g.dtype)
        padded = (oh + 2 * pad, ow + 2 * pad, co)
        # a slice holds its padded gradient, the ReLU mask and its columns;
        # each item counts twice, as backward runs on top of the pass's tape
        item_bytes = (math.prod(padded) + h * wd * kh * kw * co) * g.itemsize + oh * ow * co
        slices = _batch_slices(n, 2 * item_bytes)
        # one zeroed padded buffer for every slice: a slice writes its
        # (ReLU-masked) gradient into the interior, and the border stays zero
        gpad = np.zeros((max(s.stop - s.start for s in slices), *padded), g.dtype)
        for s in slices:
            ns = s.stop - s.start
            inner = gpad[:ns, pad:pad + oh, pad:pad + ow]
            if relu:
                np.multiply(g[s], out[s] > 0, out=inner)
            else:
                inner[...] = g[s]
            if s.stop == n:
                del g  # the padded buffer is all the rest reads
            # the bias gradient is summed item by item, in order, as the
            # kernel gradient is, so the slicing changes no bit of either
            for i in range(ns):
                gb += inner[i].sum(axis=(0, 1))
            cols = _columns(gpad[:ns], kh, kw, stride, 0)
            if gx is not None:
                np.matmul(cols, wmat, out=gx[s].reshape(-1, ci))
            _add_item_products(gw, cols, x.data[s])
            del cols  # free this slice's columns before the next are built
        gw = gw.reshape(kh, kw, co, ci).transpose(0, 1, 3, 2)
        if b is None:
            return gx, gw
        return gx, gw, gb

    return _result("conv_transpose2d", out, inputs, bwd)


# ---------------------------------------------------------------------------
# sampling and correlation


def _identity_grid(h: int, w: int, dtype) -> np.ndarray:
    """Pixel-center coordinates (h, w, 2), (x, y) spanning [-1, 1]^2."""
    grid = np.empty((h, w, 2), dtype=dtype)
    grid[..., 0] = np.linspace(-1.0, 1.0, w).astype(dtype)[None, :]
    grid[..., 1] = np.linspace(-1.0, 1.0, h).astype(dtype)[:, None]
    return grid


def _bilinear_taps(img: np.ndarray, rows: np.ndarray, xy: np.ndarray):
    """Everything bilinear sampling of the rows ``img[rows]`` at the
    normalized coordinates ``xy`` (ns, P, 2) reads: fractional offsets,
    in-range masks and the four taps, each (ns, P, ...). The taps are
    gathered from a flat view of ``img``'s pixels, not from a copy of the
    rows."""
    _, h, w, _ = img.shape
    # pixel coordinates in float64: the only remaining identity-warp error
    # is the float32 storage error of the coordinates themselves (< 1e-6 at
    # desk sizes)
    gx = (xy[..., 0].astype(np.float64) + 1.0) * 0.5 * (w - 1)
    gy = (xy[..., 1].astype(np.float64) + 1.0) * 0.5 * (h - 1)
    inx = (gx > 0.0) & (gx < w - 1.0)
    iny = (gy > 0.0) & (gy < h - 1.0)
    gx = np.clip(gx, 0.0, w - 1.0)
    gy = np.clip(gy, 0.0, h - 1.0)
    # a NaN coordinate reads the first corner, so its output is NaN, not an
    # out-of-range index
    x0 = np.minimum(np.fmax(gx, 0.0).astype(np.int64), w - 2)
    y0 = np.minimum(np.fmax(gy, 0.0).astype(np.int64), h - 2)
    fx = (gx - x0).astype(img.dtype)[..., None]
    fy = (gy - y0).astype(img.dtype)[..., None]
    # one take per corner from the (M * H * W, C) pixel table: several times
    # faster than indexing (row, y, x) arrays
    corner = (rows[:, None] * h + y0) * w + x0
    pixels = img.reshape(-1, img.shape[3])
    taps = tuple(np.take(pixels, corner + k, axis=0) for k in (0, 1, w, w + 1))
    return fx, fy, inx, iny, taps


def grid_sample(img, index, transform, field, mask) -> Tensor:
    """Warp of image rows: bilinear sampling of ``img[index[i]]`` at the
    coordinates ``A p + t`` of the points ``p = X + mask * field``.

    ``img`` is a constant (M, Hi, Wi, C) array, read in place by the row
    ``index[i]`` of each batch item and given no gradient. ``transform`` is
    (N, 2, 3) [A | t], ``field`` (N, H, W, 2) and ``mask`` (N, H, W); X is
    the identity grid of H x W, the output (N, H, W, C). Coordinates are
    (x, y) normalized to [-1, 1] (align-corners); out-of-range ones clamp
    to the border. Forward and backward run one batch slice at a time and
    recompute each slice's points, coordinates and taps from the inputs, so
    the tape keeps no per-pixel buffer of the warp.
    """
    transform, field, mask = as_tensor(transform), as_tensor(field), as_tensor(mask)
    img, index = np.asarray(img), np.asarray(index)
    if img.ndim != 4 or field.ndim != 4 or field.data.shape[3] != 2:
        raise ShapeError(f"grid_sample: image rows {img.shape} and field {field.data.shape} "
                         "are not (M, H, W, C) and (N, H, W, 2)")
    n, h, w, _ = field.data.shape
    if (transform.data.shape != (n, 2, 3) or mask.data.shape != (n, h, w)
            or index.shape != (n,)):
        raise ShapeError(f"grid_sample: transform {transform.data.shape}, mask "
                         f"{mask.data.shape} and index {index.shape} do not match field "
                         f"{field.data.shape}")
    if index.dtype.kind not in "iu" or (n and not 0 <= index.min() <= index.max() < len(img)):
        raise ShapeError(f"grid_sample: index must hold rows of the {len(img)} image rows")
    _, hi, wi, c = img.shape

    def coords(s):
        """The points and their coordinates for batch slice ``s``, each
        (ns, H * W, 2), computed as the chain ``reshape(X + field * mask)``,
        ``matmul`` with the stacked A^T, ``+ t``."""
        ns = s.stop - s.start
        base = _identity_grid(h, w, field.data.dtype.type)
        pts = (base + field.data[s] * mask.data[s, ..., None]).reshape(ns, h * w, 2)
        a_t = transform.data[s, :, :2].transpose(0, 2, 1)
        return pts, pts @ a_t + transform.data[s, None, :, 2]

    # per sampled pixel: points and coordinates, float64 coordinates, int64
    # corners, and the four taps with as many products of their size
    item_bytes = h * w * (32 + 8 * field.data.itemsize + 8 * c * img.itemsize)
    out = np.empty((n, h, w, c), img.dtype)
    for s in _batch_slices(n, item_bytes):
        fx, fy, _, _, (i00, i01, i10, i11) = _bilinear_taps(img, index[s], coords(s)[1])
        top = i00 * (1 - fx) + i01 * fx
        bot = i10 * (1 - fx) + i11 * fx
        out[s] = (top * (1 - fy) + bot * fy).reshape(-1, h, w, c)
        del fx, fy, i00, i01, i10, i11, top, bot  # free this slice's scratch before the next

    def bwd(g):
        gt = np.zeros_like(transform.data) if transform.requires_grad else None
        gf = np.empty_like(field.data) if field.requires_grad else None
        gm = np.empty_like(mask.data) if mask.requires_grad else None
        # each item counts twice, as backward runs on top of the pass's tape
        for s in _batch_slices(n, 2 * item_bytes):
            pts, xy = coords(s)
            fx, fy, inx, iny, (i00, i01, i10, i11) = _bilinear_taps(img, index[s], xy)
            gs = g[s].reshape(i00.shape)

            # ((a - b) * fa + (c - d) * fc) * g for the x and then the y term,
            # built in place in two buffers the two terms share
            term, tmp = np.empty_like(i00), np.empty_like(i00)

            def slope(a, b, fa, c, d, fc):
                np.multiply(np.subtract(a, b, out=term), fa, out=term)
                np.multiply(np.subtract(c, d, out=tmp), fc, out=tmp)
                np.multiply(np.add(term, tmp, out=term), gs, out=term)
                return term.sum(axis=-1)

            gxy = np.empty_like(xy)
            gxy[..., 0] = slope(i01, i00, 1 - fy, i11, i10, fy) * inx * (0.5 * (wi - 1))
            gxy[..., 1] = slope(i10, i00, 1 - fx, i11, i01, fx) * iny * (0.5 * (hi - 1))
            del fx, fy, inx, iny, i00, i01, i10, i11, term, tmp
            # the chain's matmul and ``+ t`` gradients, then those of the points
            if gt is not None:
                # added into zeros, as the chain sums the gradients of its two
                # slices of the transform, so that a -0.0 there becomes +0.0
                gt[s, :, :2] += (np.swapaxes(pts, -1, -2) @ gxy).transpose(0, 2, 1)
                gt[s, :, 2] += gxy.sum(axis=1)
            if gf is None and gm is None:
                continue
            gp = (gxy @ transform.data[s, :, :2]).reshape(-1, h, w, 2)
            if gf is not None:
                np.multiply(gp, mask.data[s, ..., None], out=gf[s])
            if gm is not None:
                gm[s] = np.multiply(gp, field.data[s], out=gp).sum(axis=-1)
        return gt, gf, gm

    return _result("grid_sample", out, (transform, field, mask), bwd)


def correlate(f_prev, f_cur, d: int) -> Tensor:
    """Channel-mean patch correlation over displacements in [-d, d]^2.

    ``out[n, i, j, q]`` with ``q = (dy+d)*(2d+1) + (dx+d)`` equals
    ``mean_c f_cur[n, i, j, c] * f_prev[n, i+dy, j+dx, c]``; displaced
    positions outside the map contribute zero.
    """
    f_prev, f_cur = as_tensor(f_prev), as_tensor(f_cur)
    if f_prev.data.shape != f_cur.data.shape:
        raise ShapeError(
            f"correlate: shapes {f_prev.data.shape} and {f_cur.data.shape} differ"
        )
    if d < 1:
        raise ShapeError(f"correlate: max displacement must be >= 1, got {d}")
    n, h, w, c = f_cur.data.shape
    k = 2 * d + 1
    widths = ((0, 0), (d, d), (d, d), (0, 0))
    prev_pad = np.pad(f_prev.data, widths)
    out = np.empty((n, h, w, k * k), dtype=f_cur.data.dtype)
    for q in range(k * k):
        dy, dx = q // k - d, q % k - d
        shifted = prev_pad[:, d + dy:d + dy + h, d + dx:d + dx + w]
        out[..., q] = (f_cur.data * shifted).mean(axis=-1)

    def bwd(g):
        g = g / c
        prev_pad = np.pad(f_prev.data, widths)
        gcur = np.zeros_like(f_cur.data)
        gprev_pad = np.zeros_like(prev_pad)
        for q in range(k * k):
            dy, dx = q // k - d, q % k - d
            shifted = prev_pad[:, d + dy:d + dy + h, d + dx:d + dx + w]
            gq = g[..., q:q + 1]
            gcur += gq * shifted
            gprev_pad[:, d + dy:d + dy + h, d + dx:d + dx + w] += gq * f_cur.data
        return gprev_pad[:, d:d + h, d:d + w], gcur

    return _result("correlate", out, (f_prev, f_cur), bwd)


# ---------------------------------------------------------------------------
# recomputation


class _Sizer(list):
    """A tape's node list that keeps no node: it adds up the bytes of the
    outputs that a tape would keep."""

    nbytes = 0

    def append(self, node):
        self.nbytes += node[0].data.nbytes


def recompute(fn, x, params) -> tuple:
    """``fn(x)``, a tuple of Tensors or None, recorded as one node that keeps
    only ``x`` and the outputs; backward runs ``fn`` again, taped, on batch
    slices (gradient checkpointing, arXiv:1604.06174).

    ``fn`` maps the (N, ...) items of ``x`` to outputs whose first axis is
    the item axis, and reads no tensor that needs a gradient besides ``x``
    and ``params``. It must not couple items or draw random numbers: the
    replay runs it on slices of the items and has to reproduce the forward's
    outputs. Without a recorded input this is the plain call.

    The forward runs ``fn`` once and records nothing: its ops append to a
    node list that keeps no node and counts the bytes of their outputs, the
    tape one item's replay keeps. The node's output packs the outputs item
    by item, (N, L), and each output returned is a view of it (``slice_``,
    then ``reshape``). Backward replays ``fn`` on ``_batch_slices`` of the
    items, each item counted twice as in the other backwards that run on top
    of a pass's tape, seeds each slice's tape with that slice's share of the
    output gradients, and returns the gradient of ``x`` slice by slice and
    those of ``params`` summed over the slices."""
    x = as_tensor(x)
    params = tuple(params)
    inputs = (x, *params)
    if not _tracked(inputs):
        return tuple(fn(x))
    sizer = Tape()
    sizer.nodes = _Sizer()
    with sizer:
        outs = tuple(fn(x))
    n = len(x.data)
    shapes = [None if t is None else t.shape for t in outs]
    if any(shape[:1] != (n,) for shape in shapes if shape is not None):
        raise ShapeError(f"recompute: outputs {shapes} are not {n} items each")
    kept = [t.data.reshape(n, -1) for t in outs if t is not None]
    bounds = np.cumsum([0] + [k.shape[1] for k in kept]).tolist()
    packed = np.concatenate(kept, axis=1)
    item_bytes = -(-sizer.nodes.nbytes // n)
    del sizer, outs, kept  # the outputs live on as views of ``packed``

    def bwd(g):
        gx = np.empty_like(x.data) if x.requires_grad else None
        gps = [None] * len(params)
        for s in _batch_slices(n, 2 * item_bytes):
            xs = Tensor(x.data[s], requires_grad=x.requires_grad)
            with Tape() as tape:
                replayed = [t for t in fn(xs) if t is not None]
            grads = {id(t): g[s, a:b].reshape(t.shape)
                     for t, a, b in zip(replayed, bounds, bounds[1:])}
            hold = {id(t): t for t in replayed}
            del replayed
            _propagate(tape.nodes, grads, hold)
            if gx is not None:
                gx[s] = grads.get(id(xs), 0.0)
            for i, p in enumerate(params):
                gp = grads.get(id(p))
                if gp is not None:
                    gps[i] = gp if gps[i] is None else gps[i] + gp
            del grads, hold
        return (gx, *gps)

    node = _result("recompute", packed, inputs, bwd)
    spans = iter(zip(bounds, bounds[1:]))
    return tuple(None if shape is None
                 else reshape(slice_(node, (slice(None), slice(*next(spans)))), shape)
                 for shape in shapes)


# ---------------------------------------------------------------------------
# operator sugar on Tensor

Tensor.__add__ = lambda self, other: add(self, other)
Tensor.__radd__ = lambda self, other: add(other, self)
Tensor.__mul__ = lambda self, other: mul(self, other)
Tensor.__rmul__ = lambda self, other: mul(other, self)
Tensor.__truediv__ = lambda self, other: div(self, other)
Tensor.__rtruediv__ = lambda self, other: div(other, self)
Tensor.__matmul__ = lambda self, other: matmul(self, other)
Tensor.__getitem__ = lambda self, index: slice_(self, index)
