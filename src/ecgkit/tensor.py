"""Reverse-mode autodiff on numpy arrays, sized for small 1D signal models.

Every op that sees a tracked input returns a Tensor with a tape node
behind it.  The node is not the value: it links to its inputs' nodes and
holds a closure mapping the output gradient to one gradient per input,
and that closure captures only the arrays, shapes and flags its formula
reads.  The tape holds what backward reads; a forward value lives while
you hold its Tensor.  A conv output that feeds batch norm, say, is freed
as soon as the caller drops it, because batch norm's backward reads its
normalized input, not the conv output.

backward() walks the tape iteratively in reverse topological order, so
deep graphs never touch Python's recursion limit, and releases each node
as soon as its closure has run.  After backward() only tensors with
requires_grad hold a .grad, and the released graph cannot be walked
again.  A leaf's requires_grad counts when an op reads it; an interior
tensor's counts when backward() reaches it, so setting it after the
forward pass still keeps that tensor's gradient.

Recurrent layers are fused: lstm_sequence runs a whole LSTM direction as one
tape node (one input-projection GEMM over all steps, the recurrence in
preallocated buffers, and backpropagation through time inside its backward
closure), so a sequence of any length adds one node per direction, not a
graph per step.

Batch norm is fused with its activation: batch_norm1d(..., activation=None,
"relu" or "swish") is one tape node, and no separate swish or relu op
exists.  In training, or when taped in eval (Grad-CAM), its tape keeps only
the normalized input xhat; backward recomputes xhat * gamma + beta and the
activation from it.  Everything after the per-channel statistics runs in
blocks of rows, and eval under no_grad never builds a full xhat.

Sequences are channels-last: every time-series op (conv1d, batch_norm1d,
max_pool1d, lstm_sequence, bilstm, attention_pool) takes and returns
[batch, time, channels], so the whole tape runs on one memory layout and no
op works through transposed views.  Parameters keep their usual shapes
(conv weights [c_out, c_in, k], norm scales [channels]).

Training runs in 32-bit floats; the gradient-check suite feeds 64-bit arrays
and every op preserves the input dtype.
"""

from __future__ import annotations

import ctypes
import os
import threading
import warnings
import weakref
from contextlib import contextmanager

import numpy as np

from .errors import ShapeError, UsageError


def _keep_freed_heap():
    """Keep the heap that a released tape frees for the next step.

    backward() frees a whole step's graph at once, which leaves a large
    free block at the top of the heap.  glibc's default trim threshold
    hands that block back to the kernel, and the next forward faults every
    page of it in again, a cost that varies with the load on the machine.
    A 1 GiB trim threshold keeps the block.  Fixing one threshold turns off
    glibc's dynamic adjustment of both, so the mmap threshold is fixed at
    32 MiB, the largest glibc accepts and where the dynamic one ends up.
    Other C libraries are left alone.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 1 << 30)


_keep_freed_heap()

# per-thread so concurrent training loops cannot untape each other
_tape_state = threading.local()


def _grad_enabled():
    return getattr(_tape_state, "enabled", True)


@contextmanager
def no_grad():
    """Disable taping inside the block; forward values are unaffected."""
    prev = _grad_enabled()
    _tape_state.enabled = False
    try:
        yield
    finally:
        _tape_state.enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    def item(self):
        return float(self.data.reshape(-1)[0])

    def backward(self):
        """Accumulate d(self)/d(t) into t.grad for every tensor t with
        requires_grad set, then release the graph behind self.

        .grad is kept exactly on tensors with requires_grad; every other
        tensor on the tape ends with .grad None, and a second backward()
        on the same graph raises UsageError.  To read an interior
        gradient, set requires_grad on that tensor before the call.
        """
        root = self._node
        if root is None:
            raise UsageError(
                "backward called on a tensor with no tape behind it: it was "
                "produced outside any taped computation, or an earlier "
                "backward() already released its graph")
        if self.data.size != 1:
            raise UsageError(
                f"backward needs a scalar loss, got shape {self.data.shape}")
        topo = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for parent in node.parents:
                if type(parent) is _Node and parent not in visited:
                    stack.append((parent, False))
        root.grad = np.ones_like(self.data)
        # every consumer of a node comes after it in topo, so once it is
        # popped its gradient is complete and nothing reads it again
        while topo:
            node = topo.pop()
            grad, step, parents = node.grad, node.backward, node.parents
            node.grad = node.backward = None
            node.parents = ()
            if grad is not None and step is not None:
                grads = step(grad)
                step = None  # drop what the closure captured before summing
                for parent, g in zip(parents, grads):
                    if parent is not None and g is not None:
                        _accum(parent, g)
                grads = g = None  # not held while the next closure runs
            out = node.tensor()
            if out is not None:
                out._node = None
                if out.requires_grad:
                    out.grad = grad

    def sum(self, axis=None, keepdims=False):
        return _reduce(self, "sum", axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return _reduce(self, "mean", axis, keepdims)


class _Node:
    """One taped op: its backward closure and where its gradient goes.

    parents holds one entry per op input: the input's own _Node, the input
    itself when it is a leaf with requires_grad, or None when no gradient
    is wanted for it.  backward(g) returns one gradient (or None) per
    input, computed only from what it captured at forward time.  The node
    reaches its output Tensor through a weak reference, so it never keeps
    the output's data alive.
    """

    __slots__ = ("parents", "backward", "grad", "dtype", "tensor")

    def __init__(self, parents, backward, out):
        self.parents = parents
        self.backward = backward
        self.grad = None
        self.dtype = out.data.dtype
        self.tensor = weakref.ref(out)


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else np.float32
    return Tensor(np.asarray(x, dtype=dtype))


def _tracked(t):
    return t.requires_grad or t._node is not None


def _record(data, inputs, backward):
    """Wrap an op's result; tape it when grad is on and an input is tracked."""
    out = Tensor(data)
    if _grad_enabled():
        links = tuple(t._node if t._node is not None
                      else (t if t.requires_grad else None) for t in inputs)
        if any(link is not None for link in links):
            out._node = _Node(links, backward, out)
    return out


def _accum(target, g):
    """Add g into a _Node's or a leaf Tensor's .grad; the first is copied."""
    if target.grad is None:
        dtype = target.dtype if type(target) is _Node else target.data.dtype
        target.grad = np.array(g, dtype=dtype)
    else:
        target.grad += g


def _unbroadcast(g, shape):
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- elementwise and linear primitives --------------------------------------
#
# A backward closure reads only arrays, shapes and flags bound at forward
# time, never an input Tensor, so the tape keeps no value that backward
# does not read.  A binary op keeps an operand's array only when the other
# operand's gradient needs it.

def add(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    a_shape = a.data.shape if _tracked(a) else None
    b_shape = b.data.shape if _tracked(b) else None

    def backward(g):
        return (None if a_shape is None else _unbroadcast(g, a_shape),
                None if b_shape is None else _unbroadcast(g, b_shape))

    return _record(a.data + b.data, (a, b), backward)


def neg(a):
    def backward(g):
        return (-g,)

    return _record(-a.data, (a,), backward)


def mul(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    a_shape, b_shape = a.data.shape, b.data.shape
    bd = b.data if _tracked(a) else None
    ad = a.data if _tracked(b) else None

    def backward(g):
        return (None if bd is None else _unbroadcast(g * bd, a_shape),
                None if ad is None else _unbroadcast(g * ad, b_shape))

    return _record(a.data * b.data, (a, b), backward)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}")
    bd = b.data if _tracked(a) else None
    ad = a.data if _tracked(b) else None

    def backward(g):
        return (None if bd is None else g @ bd.T,
                None if ad is None else ad.T @ g)

    return _record(a.data @ b.data, (a, b), backward)


def log(a):
    ad = a.data

    def backward(g):
        return (g / ad,)

    return _record(np.log(ad), (a,), backward)


def pow_const(a, exponent):
    e = float(exponent)
    ad = a.data

    def backward(g):
        return (g * e * ad ** (e - 1.0),)

    return _record(ad ** e, (a,), backward)


def clamp_min(a, floor):
    mask = a.data >= floor

    def backward(g):
        return (g * mask,)

    return _record(np.maximum(a.data, floor), (a,), backward)


def _reduce(a, kind, axis, keepdims):
    if kind == "sum":
        data = a.data.sum(axis=axis, keepdims=keepdims)
    else:
        data = a.data.mean(axis=axis, keepdims=keepdims)
    scale = a.data.size / data.size if kind == "mean" else 1.0
    shape = a.data.shape

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        gg = np.broadcast_to(gg, shape)
        return (gg / scale if kind == "mean" else gg,)

    return _record(data, (a,), backward)


def reshape(a, shape):
    old = a.data.shape

    def backward(g):
        return (g.reshape(old),)

    return _record(a.data.reshape(shape), (a,), backward)


def concat(tensors, axis):
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        grads = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            grads.append(g[tuple(idx)])
        return grads

    return _record(np.concatenate([t.data for t in tensors], axis=axis),
                   tensors, backward)


def narrow(a, axis, start, length):
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    shape, dtype = a.data.shape, a.data.dtype

    def backward(g):
        gx = np.zeros(shape, dtype=dtype)
        gx[idx] = g
        return (gx,)

    return _record(a.data[idx], (a,), backward)


def gather_rows(a, indices):
    """out[i] = a[i, indices[i]] for a 2-D tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows expects 2-D input, got {a.data.shape}")
    indices = np.asarray(indices, dtype=np.int64)
    rows = np.arange(a.data.shape[0])
    shape, dtype = a.data.shape, a.data.dtype

    def backward(g):
        gx = np.zeros(shape, dtype=dtype)
        gx[rows, indices] = g
        return (gx,)

    return _record(a.data[rows, indices], (a,), backward)


def dropout(x, p, training, rng):
    """Inverted dropout; identity when not training or p == 0."""
    if not 0.0 <= p < 1.0:
        raise UsageError(f"dropout rate must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)

    def backward(g):
        return (g * mask,)

    return _record(x.data * mask, (x,), backward)


# -- activations -------------------------------------------------------------

def _sigmoid_values(x, out=None, scratch=None):
    """Logistic sigmoid of x, written into out when given (out may be x).

    1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, from e = exp(-|x|): the
    numerator max(x >= 0, e) is exactly 1 or e^x, so the bits match the
    two-branch form (the tanh form does not, and that moves training
    trajectories).  scratch, shaped like x, takes e, then the denominator.
    """
    e = np.abs(x, out=scratch)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(x >= 0, e, out=out)
    np.add(1.0, e, out=e)
    return np.divide(num, e, out=num)


def sigmoid(a):
    y = _sigmoid_values(a.data)

    def backward(g):
        return (g * y * (1.0 - y),)

    return _record(y, (a,), backward)


def tanh(a):
    y = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - y * y),)

    return _record(y, (a,), backward)


_LEAKY_SLOPE = 0.2


def leaky_relu(a):
    mask = a.data > 0

    def backward(g):
        return (g * np.where(mask, 1.0, _LEAKY_SLOPE),)

    return _record(np.where(mask, a.data, _LEAKY_SLOPE * a.data), (a,),
                   backward)


def softmax(a, axis=-1):
    # row-max subtraction keeps exp() in range on large logits
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record(y, (a,), backward)


# -- layers ------------------------------------------------------------------

def dense(x, weight, bias=None):
    """Affine map x @ W.T + b for x[batch, d_in], W[d_out, d_in]."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError(f"dense expects 2-D input and weight, got "
                         f"{x.data.shape} and {weight.data.shape}")
    if x.data.shape[1] != weight.data.shape[1]:
        raise ShapeError(f"dense input width {x.data.shape[1]} != "
                         f"weight fan-in {weight.data.shape[1]}")
    out = x.data @ weight.data.T
    inputs = [x, weight]
    if bias is not None:
        out = out + bias.data
        inputs.append(bias)
    wd = weight.data if _tracked(x) else None
    xd = x.data if _tracked(weight) else None
    need_bias = bias is not None and _tracked(bias)

    def backward(g):
        return (None if wd is None else g @ wd,
                None if xd is None else g.T @ xd,
                g.sum(axis=0) if need_bias else None)

    return _record(out, inputs, backward)


# output rows per conv1d block: a tap's partial product and the running sum
# stay in cache instead of streaming one full activation per tap
_CONV_BLOCK_ROWS = 512


def conv1d(x, weight, bias=None, stride=1, padding=0):
    """Cross-correlation of x[b, len, c_in] with weight[c_out, c_in, k].

    Returns [b, out_len, c_out].  The input is zero-padded once into a row
    buffer flat[b * pitch + k, c_in], pitch being the padded length rounded
    up to a multiple of stride.  Tap j of every window is then the strided
    row view flat[j::stride], and the output is the sum over taps of that
    view times the tap's [c_in, c_out] weight slice: k GEMMs that BLAS reads
    through its leading dimension, with no im2col matrix.  The rows of a
    view that straddle two batch elements are computed and dropped.  The
    sum runs in blocks of whole batch elements; backward keeps only flat.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"conv1d input must be [batch, len, ch], "
                         f"got {x.data.shape}")
    if weight.data.ndim != 3:
        raise ShapeError(f"conv1d weight must be [out, in, k], "
                         f"got {weight.data.shape}")
    batch, length, c_in = x.data.shape
    c_out, c_w, k = weight.data.shape
    if c_w != c_in:
        raise ShapeError(f"conv1d channel mismatch: input has {c_in}, "
                         f"weight expects {c_w}")
    if stride < 1:
        raise ShapeError(f"conv1d stride must be >= 1, got {stride}")
    padded_len = length + 2 * padding
    if not 1 <= k <= padded_len:
        raise ShapeError(f"kernel size {k} exceeds padded length {padded_len}")
    out_len = (padded_len - k) // stride + 1
    per = -(-padded_len // stride)            # view rows per batch element
    pitch = per * stride
    rows = batch * per
    dtype = np.result_type(x.data, weight.data)
    flat = np.zeros((rows * stride + k, c_in), dtype=dtype)
    flat[:rows * stride].reshape(batch, pitch, c_in)[
        :, padding:padding + length] = x.data
    wt = np.ascontiguousarray(weight.data.transpose(2, 1, 0))  # [k, ci, co]
    bias_data = bias.data if bias is not None else 0

    group = max(1, _CONV_BLOCK_ROWS // per)   # batch elements per block
    blocks = [(b0, min(b0 + group, batch)) for b0 in range(0, batch, group)]

    # with one input channel each tap is an outer product [n, 1] x [1, c_out]:
    # a broadcast multiply gives the same values as a K=1 GEMM, faster
    tap_product = np.multiply if c_in == 1 else np.matmul
    out = np.empty((batch, out_len, c_out), dtype=dtype)
    acc = np.empty((min(group, batch) * per, c_out), dtype=dtype)
    part = np.empty_like(acc)
    for b0, b1 in blocks:
        n, lo = (b1 - b0) * per, b0 * pitch
        tap_product(flat[lo:lo + n * stride:stride], wt[0], out=acc[:n])
        for j in range(1, k):
            tap_product(flat[lo + j:lo + j + n * stride:stride], wt[j],
                        out=part[:n])
            acc[:n] += part[:n]
        np.add(acc[:n].reshape(b1 - b0, per, c_out)[:, :out_len], bias_data,
               out=out[b0:b1])
    inputs = (x, weight) if bias is None else (x, weight, bias)
    need_x, need_w = _tracked(x), _tracked(weight)
    need_bias = bias is not None and _tracked(bias)

    def backward(g):
        grad_rows = np.zeros((batch, per, c_out), dtype=g.dtype)
        grad_rows[:, :out_len] = g
        grad_rows = grad_rows.reshape(rows, c_out)
        db = g.sum(axis=(0, 1)) if need_bias else None
        dw = dx = None
        if need_w:
            dwt = np.empty_like(wt)
            for j in range(k):
                np.matmul(flat[j:j + rows * stride:stride].T, grad_rows,
                          out=dwt[j])
            # C order like the weight itself: optimizer updates that mix a
            # transposed gradient into C-order state run markedly slower
            dw = dwt.transpose(2, 1, 0).copy()
        if need_x:
            # tap j of output row r came from flat row r * stride + j
            gflat = np.zeros_like(flat)
            tap = np.empty((min(group, batch) * per, c_in), dtype=g.dtype)
            for b0, b1 in blocks:
                n, lo = (b1 - b0) * per, b0 * pitch
                for j in range(k):
                    np.matmul(grad_rows[b0 * per:b1 * per], wt[j].T,
                              out=tap[:n])
                    gflat[lo + j:lo + j + n * stride:stride] += tap[:n]
            dx = gflat[:rows * stride].reshape(batch, pitch, c_in)[
                :, padding:padding + length]
        return dx, dw, db

    return _record(out, inputs, backward)


class RunningStats:
    """Running mean/variance buffers for one batch-norm layer."""

    def __init__(self, channels, dtype=np.float32):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)


# rows per batch-norm block: the affine map, the activation and their
# scratch stay in cache instead of streaming one full array per step
_NORM_BLOCK_ROWS = 2048

_NORM_ACTIVATIONS = (None, "relu", "swish")

# running-buffer weight of each batch's statistics, and the variance guard
_NORM_MOMENTUM = 0.1
_NORM_EPS = 1e-5


def batch_norm1d(x, gamma, beta, stats, training, activation=None):
    """Normalize each channel (the last axis) over all other axes, then
    apply activation (None, "relu" or "swish") in the same tape node.

    x is [batch, channels] or [batch, time, channels]; both are handled as
    one [rows, channels] matrix.  Train mode normalizes by batch statistics
    (biased variance) and folds an unbiased variance estimate into the
    running buffers; eval mode uses the buffers.
    """
    if x.data.ndim not in (2, 3):
        raise ShapeError(f"batch_norm1d expects 2-D or 3-D input, "
                         f"got {x.data.shape}")
    channels = x.data.shape[-1]
    if gamma.data.shape != (channels,) or beta.data.shape != (channels,):
        raise ShapeError(f"norm parameters must have shape ({channels},)")
    if activation not in _NORM_ACTIVATIONS:
        raise UsageError(f"batch_norm1d activation must be one of "
                         f"{_NORM_ACTIVATIONS}, got {activation!r}")
    xm = x.data.reshape(-1, channels)
    n = xm.shape[0]
    gd, bd = gamma.data, beta.data
    if training:
        if n == 1:
            warnings.warn(
                "batch normalization saw one value per channel; statistics "
                "are degenerate and only the eps guard keeps them finite",
                RuntimeWarning)
        mean = xm.mean(axis=0)
        xhat = xm - mean
        var = np.square(xhat).mean(axis=0)
        momentum = _NORM_MOMENTUM
        stats.mean[...] = (1.0 - momentum) * stats.mean + momentum * mean
        unbiased = var * (n / (n - 1)) if n > 1 else var
        stats.var[...] = (1.0 - momentum) * stats.var + momentum * unbiased
        inv = 1.0 / np.sqrt(var + _NORM_EPS)
        xhat *= inv
    else:
        mean = stats.mean
        inv = 1.0 / np.sqrt(stats.var + _NORM_EPS)
        # untaped, each block normalizes its own rows: no full xhat
        taped = _grad_enabled() and any(map(_tracked, (x, gamma, beta)))
        xhat = (xm - mean) * inv if taped else None
    out = np.empty(xm.shape, dtype=np.result_type(xm, mean, inv, gd))
    blocks = [(r0, min(r0 + _NORM_BLOCK_ROWS, n))
              for r0 in range(0, n, _NORM_BLOCK_ROWS)]
    if activation == "swish":
        s = np.empty((min(n, _NORM_BLOCK_ROWS), channels), dtype=out.dtype)
        t = np.empty_like(s)
    for r0, r1 in blocks:
        ob = out[r0:r1]
        if xhat is None:
            np.subtract(xm[r0:r1], mean, out=ob)
            ob *= inv
            ob *= gd
        else:
            np.multiply(xhat[r0:r1], gd, out=ob)
        ob += bd
        if activation == "swish":
            ob *= _sigmoid_values(ob, out=s[:r1 - r0], scratch=t[:r1 - r0])
        elif activation == "relu":
            # where(y > 0, y, 0) without a branch: NaN and -0.0 become +0.0
            bits = ob.view(_uint_like(ob))
            bits &= _all_ones(ob > 0, bits.dtype)
    shape = x.data.shape
    need_x = _tracked(x)

    def backward(g):
        gm = g.reshape(-1, channels)
        if activation is not None:
            gm = _activation_grad(gm, xhat, gd, bd, activation, blocks)
        sum_g = gm.sum(axis=0)
        prod = gm * xhat
        sum_gx = prod.sum(axis=0)
        gx = None
        if need_x:
            scale = gd * inv
            gx = np.multiply(gm, scale, out=prod)
            if training:
                coef = scale * sum_gx / n
                for r0, r1 in blocks:
                    gx[r0:r1] -= xhat[r0:r1] * coef
                gx -= scale * sum_g / n
            gx = gx.reshape(shape)
        return gx, sum_gx, sum_g

    return _record(out.reshape(shape), (x, gamma, beta), backward)


def _activation_grad(g, xhat, gd, bd, activation, blocks):
    """g through the activation, recomputing y = xhat*gd + bd by blocks."""
    dy = np.empty_like(g)
    y = np.empty((min(len(g), _NORM_BLOCK_ROWS), g.shape[1]), dtype=g.dtype)
    if activation == "swish":
        s, t = np.empty_like(y), np.empty_like(y)
    else:
        mask = np.empty(y.shape, dtype=bool)
    for r0, r1 in blocks:
        m = r1 - r0
        yb = y[:m]
        np.multiply(xhat[r0:r1], gd, out=yb)
        yb += bd
        if activation == "swish":
            sb, tb = s[:m], t[:m]
            _sigmoid_values(yb, out=sb, scratch=tb)
            # g * (s + y * s * (1 - s)), in the order the terms associate
            yb *= sb
            np.subtract(1.0, sb, out=tb)
            yb *= tb
            np.add(sb, yb, out=yb)
            np.multiply(g[r0:r1], yb, out=dy[r0:r1])
        else:
            np.greater(yb, 0, out=mask[:m])
            np.multiply(g[r0:r1], mask[:m], out=dy[r0:r1])
    return dy


def _uint_like(a):
    return np.dtype(f"u{a.dtype.itemsize}")


def _all_ones(mask, dtype):
    """Bit mask of an unsigned dtype: all ones where mask holds, else zero.

    ANDing a float's bits with it selects the value or +0.0 exactly.  That
    blend has no per-element branch; np.where does, and on max-pooling's
    unpredictable masks it runs several times slower.
    """
    ones = mask.astype(dtype)
    np.negative(ones, out=ones)
    return ones


def max_pool1d(x, kernel, stride):
    """Windowed maximum over time for x[batch, len, ch].

    The kernel strided time slices are compared in order, so a window's
    first maximum wins a tie and its first NaN wins outright, as argmax
    would pick; that window offset routes the gradient.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"max_pool1d expects [batch, len, ch], "
                         f"got {x.data.shape}")
    length = x.data.shape[1]
    if not 1 <= kernel <= length:
        raise ShapeError(f"pool kernel {kernel} exceeds length {length}")
    out_len = (length - kernel) // stride + 1
    span = (out_len - 1) * stride + 1
    out = x.data[:, 0:span:stride].copy()
    bits = out.view(_uint_like(out))
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(kernel - 1))
    for j in range(1, kernel):
        cand = x.data[:, j:j + span:stride]
        # greater or NaN, unless the window already holds a NaN (out != out)
        better = ~(cand <= out)
        better &= out == out
        # out ^ ((cand ^ out) & mask) takes cand's exact bits where better
        flip = cand.view(bits.dtype) ^ bits
        flip &= _all_ones(better, bits.dtype)
        bits ^= flip
        # the last offset that replaced the running maximum is the winner
        np.maximum(arg, better * arg.dtype.type(j), out=arg)

    shape, dtype = x.data.shape, x.data.dtype

    def backward(g):
        gx = np.zeros(shape, dtype=dtype)
        gbits = g.view(_uint_like(g))
        # descending offsets add overlapping windows in window order, the
        # order a scatter-add over the windows would use
        for j in reversed(range(kernel)):
            routed = gbits & _all_ones(arg == j, gbits.dtype)
            gx[:, j:j + span:stride] += routed.view(g.dtype)
        return (gx,)

    return _record(out, (x,), backward)


# -- recurrent and attention layers ------------------------------------------

def lstm_sequence(x, w_ih, w_hh, b, reverse=False):
    """One LSTM direction over x[batch, time, d] as a single tape node.

    Weights hold four gate blocks of `hidden` rows each, in the order
    (input, forget, cell, output): w_ih [4h, d], w_hh [4h, h], b [4h].  The
    state starts at zero.  With reverse=True the sequence is read from the
    last step to the first; out[:, t] is still the state at step t.
    Returns h[batch, time, hidden].

    The input projection is one GEMM over all steps; the recurrence fills
    preallocated gate, cell and tanh(cell) buffers, and backward runs BPTT
    in one loop before forming each parameter gradient with one GEMM.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"lstm_sequence expects [batch, time, features], "
                         f"got {x.data.shape}")
    batch, length, feat = x.data.shape
    hidden = w_hh.data.shape[-1]
    if (w_ih.data.shape != (4 * hidden, feat)
            or w_hh.data.shape != (4 * hidden, hidden)
            or b.data.shape != (4 * hidden,)):
        raise ShapeError(
            f"lstm_sequence weights {w_ih.data.shape}, {w_hh.data.shape}, "
            f"{b.data.shape} do not fit input width {feat} and hidden size "
            f"{hidden}")
    if length < 1:
        raise ShapeError("lstm_sequence needs at least one time step")
    wi, wh = w_ih.data, w_hh.data
    # every buffer below is indexed in processing order, not time order
    xs = x.data.transpose(1, 0, 2)
    xs = np.ascontiguousarray(xs[::-1] if reverse else xs)
    rows = length * batch
    gates = (xs.reshape(rows, feat) @ wi.T + b.data).reshape(
        length, batch, 4, hidden)
    cells = np.empty((length, batch, hidden), dtype=gates.dtype)
    tanh_cells = np.empty_like(cells)
    hs = np.empty_like(cells)
    h_prev = np.zeros((batch, hidden), dtype=gates.dtype)
    c_prev = np.zeros_like(h_prev)
    sig_scratch = np.empty_like(gates[0])
    for s in range(length):
        z = gates[s]
        z += (h_prev @ wh.T).reshape(batch, 4, hidden)
        candidate = np.tanh(z[:, 2])
        _sigmoid_values(z, out=z, scratch=sig_scratch)
        z[:, 2] = candidate
        i, f, g, o = z[:, 0], z[:, 1], z[:, 2], z[:, 3]
        np.multiply(f, c_prev, out=cells[s])
        cells[s] += i * g
        np.tanh(cells[s], out=tanh_cells[s])
        np.multiply(o, tanh_cells[s], out=hs[s])
        h_prev, c_prev = hs[s], cells[s]
    out = hs[::-1] if reverse else hs
    need_x = _tracked(x)
    need_w_ih, need_w_hh, need_b = _tracked(w_ih), _tracked(w_hh), _tracked(b)
    # the weight gradients are the only readers of the inputs and states
    xs_saved = xs if need_w_ih else None
    hs_saved = hs if need_w_hh else None

    def backward(grad):
        gh = grad.transpose(1, 0, 2)
        if reverse:
            gh = gh[::-1]
        i, f, g, o = (gates[:, :, k] for k in range(4))
        c_before = np.concatenate([np.zeros_like(cells[:1]), cells[:-1]])
        # dz = dc * coeff for the i, f, g gates and dh * coeff for o
        coeff = np.empty_like(gates)
        coeff[:, :, 0] = g * i * (1.0 - i)
        coeff[:, :, 1] = c_before * f * (1.0 - f)
        coeff[:, :, 2] = i * (1.0 - g * g)
        coeff[:, :, 3] = tanh_cells * o * (1.0 - o)
        dcell = o * (1.0 - tanh_cells * tanh_cells)
        dz = np.empty_like(gates)
        dh_next = np.zeros((batch, hidden), dtype=gates.dtype)
        dc_next = np.zeros_like(dh_next)
        for s in range(length - 1, -1, -1):
            dh = gh[s] + dh_next
            dc = dh * dcell[s]
            dc += dc_next
            np.multiply(coeff[s, :, :3], dc[:, None, :], out=dz[s, :, :3])
            np.multiply(coeff[s, :, 3], dh, out=dz[s, :, 3])
            dc_next = dc * f[s]
            dh_next = dz[s].reshape(batch, 4 * hidden) @ wh
        dzm = dz.reshape(rows, 4 * hidden)
        dx = dw_ih = dw_hh = db = None
        if need_w_ih:
            dw_ih = dzm.T @ xs_saved.reshape(rows, feat)
        if need_w_hh:
            dw_hh = (dz[1:].reshape(rows - batch, 4 * hidden).T
                     @ hs_saved[:-1].reshape(rows - batch, hidden))
        if need_b:
            db = dzm.sum(axis=0)
        if need_x:
            dx = (dzm @ wi).reshape(length, batch, feat)
            dx = (dx[::-1] if reverse else dx).transpose(1, 0, 2)
        return dx, dw_ih, dw_hh, db

    return _record(out.transpose(1, 0, 2), (x, w_ih, w_hh, b), backward)


def bilstm(x, layer_params, dropout_rate=0.0, training=False, rng=None):
    """Stacked bidirectional LSTM over x[batch, time, features].

    layer_params is a list of {"fwd": gates, "bwd": gates} dicts, one per
    layer, each gate set holding w_ih [4h, d], w_hh [4h, h] and b [4h] in
    lstm_sequence's (i, f, g, o) layout.  Each direction is one fused
    lstm_sequence node; a layer's output concatenates the forward and
    backward states into [batch, time, 2 * hidden].  Dropout applies
    between layers only, in train mode.
    """
    current = x
    for depth, params in enumerate(layer_params):
        if depth > 0 and dropout_rate > 0.0:
            current = dropout(current, dropout_rate, training, rng)
        current = concat(
            [lstm_sequence(current, **params["fwd"]),
             lstm_sequence(current, **params["bwd"], reverse=True)], 2)
    return current


def attention_pool(h, w_h, b_h, v):
    """Additive attention over time.

    Scores are v . tanh(W_h h_t + b_h), softmax-normalized over time; the
    pooled context is the score-weighted sum of hidden states.  Returns
    (context [batch, d], weights [batch, time]).
    """
    batch, length, dim = h.data.shape
    flat = reshape(h, (batch * length, dim))
    u = tanh(dense(flat, w_h, b_h))
    scores = matmul(u, reshape(v, (v.data.shape[0], 1)))
    alpha = softmax(reshape(scores, (batch, length)), axis=1)
    weighted = mul(h, reshape(alpha, (batch, length, 1)))
    context = weighted.sum(axis=1)
    return context, alpha
