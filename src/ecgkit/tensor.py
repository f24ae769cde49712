"""Reverse-mode autodiff on numpy arrays, sized for small 1D signal models.

Every op that sees a tracked input returns a Tensor carrying its parents and
a closure mapping the output gradient to parent gradients.  backward() walks
the tape iteratively in reverse topological order, so deep graphs never
touch Python's recursion limit, and releases each node as soon as its
closure has run: the closure (with the forward buffers it captured), the
parent links and, unless the tensor has requires_grad set, the gradient.
After backward() only tensors with requires_grad hold a .grad, and the
released graph cannot be walked again.

Recurrent layers are fused: lstm_sequence runs a whole LSTM direction as one
tape node (one input-projection GEMM over all steps, the recurrence in
preallocated buffers, and backpropagation through time inside its backward
closure), so a sequence of any length adds one node per direction, not a
graph per step.

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
    __slots__ = ("data", "grad", "requires_grad", "name",
                 "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False, name=None):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"

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
        if self._backward is None and not self.requires_grad:
            raise UsageError(
                "backward called on a tensor with no tape behind it: it was "
                "produced outside any taped computation, or an earlier "
                "backward() already released its graph")
        if self.data.size != 1:
            raise UsageError(
                f"backward needs a scalar loss, got shape {self.data.shape}")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        # every consumer of a node comes after it in topo, so once it is
        # popped its gradient is complete and nothing reads it again
        while topo:
            node = topo.pop()
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)
            node._backward = None
            node._parents = ()
            if not node.requires_grad:
                node.grad = None

    # arithmetic sugar; heavy ops stay module-level functions
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return _reduce(self, "sum", axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return _reduce(self, "mean", axis, keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else np.float32
    return Tensor(np.asarray(x, dtype=dtype))


def _tracked(t):
    return t.requires_grad or t._parents


def _node(data, parents, backward):
    out = Tensor(data)
    if _grad_enabled() and any(_tracked(p) for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t, g):
    if not _tracked(t):
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _unbroadcast(g, shape):
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- elementwise and linear primitives --------------------------------------

def add(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), backward)


def neg(a):
    def backward(g):
        _accum(a, -g)

    return _node(-a.data, (a,), backward)


def mul(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    ad, bd = a.data, b.data

    def backward(g):
        _accum(a, _unbroadcast(g * bd, ad.shape))
        _accum(b, _unbroadcast(g * ad, bd.shape))

    return _node(ad * bd, (a, b), backward)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data

    def backward(g):
        _accum(a, g @ bd.T)
        _accum(b, ad.T @ g)

    return _node(ad @ bd, (a, b), backward)


def log(a):
    ad = a.data

    def backward(g):
        _accum(a, g / ad)

    return _node(np.log(ad), (a,), backward)


def pow_const(a, exponent):
    e = float(exponent)
    ad = a.data

    def backward(g):
        _accum(a, g * e * ad ** (e - 1.0))

    return _node(ad ** e, (a,), backward)


def clamp_min(a, floor):
    mask = a.data >= floor

    def backward(g):
        _accum(a, g * mask)

    return _node(np.maximum(a.data, floor), (a,), backward)


def _reduce(a, kind, axis, keepdims):
    if kind == "sum":
        data = a.data.sum(axis=axis, keepdims=keepdims)
    else:
        data = a.data.mean(axis=axis, keepdims=keepdims)
    scale = a.data.size / data.size if kind == "mean" else 1.0

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        gg = np.broadcast_to(gg, a.data.shape)
        _accum(a, gg / scale if kind == "mean" else gg)

    return _node(data, (a,), backward)


def reshape(a, shape):
    old = a.data.shape

    def backward(g):
        _accum(a, g.reshape(old))

    return _node(a.data.reshape(shape), (a,), backward)


def concat(tensors, axis):
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _node(np.concatenate([t.data for t in tensors], axis=axis),
                 tuple(tensors), backward)


def narrow(a, axis, start, length):
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward(g):
        gx = np.zeros_like(a.data)
        gx[idx] = g
        _accum(a, gx)

    return _node(a.data[idx], (a,), backward)


def gather_rows(a, indices):
    """out[i] = a[i, indices[i]] for a 2-D tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows expects 2-D input, got {a.data.shape}")
    indices = np.asarray(indices, dtype=np.int64)
    rows = np.arange(a.data.shape[0])

    def backward(g):
        gx = np.zeros_like(a.data)
        gx[rows, indices] = g
        _accum(a, gx)

    return _node(a.data[rows, indices], (a,), backward)


def dropout(x, p, training, rng):
    """Inverted dropout; identity when not training or p == 0."""
    if not 0.0 <= p < 1.0:
        raise UsageError(f"dropout rate must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)

    def backward(g):
        _accum(x, g * mask)

    return _node(x.data * mask, (x,), backward)


# -- activations -------------------------------------------------------------

def _sigmoid_values(x):
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, without boolean masks:
    # exp(min(x, 0)) is exactly 1 or e^x, so the bits match the two-branch
    # form (the tanh form does not, and that moves training trajectories)
    return np.exp(np.minimum(x, 0)) / (1.0 + np.exp(-np.abs(x)))


def sigmoid(a):
    y = _sigmoid_values(a.data)

    def backward(g):
        _accum(a, g * y * (1.0 - y))

    return _node(y, (a,), backward)


def tanh(a):
    y = np.tanh(a.data)

    def backward(g):
        _accum(a, g * (1.0 - y * y))

    return _node(y, (a,), backward)


def relu(a):
    mask = a.data > 0

    def backward(g):
        _accum(a, g * mask)

    return _node(np.where(mask, a.data, 0.0), (a,), backward)


def leaky_relu(a, slope=0.2):
    mask = a.data > 0

    def backward(g):
        _accum(a, g * np.where(mask, 1.0, slope))

    return _node(np.where(mask, a.data, slope * a.data), (a,), backward)


def swish(a):
    s = _sigmoid_values(a.data)
    ad = a.data

    def backward(g):
        _accum(a, g * (s + ad * s * (1.0 - s)))

    return _node(ad * s, (a,), backward)


def softmax(a, axis=-1):
    # row-max subtraction keeps exp() in range on large logits
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(a, y * (g - dot))

    return _node(y, (a,), backward)


# -- layers ------------------------------------------------------------------

def dense(x, weight, bias=None):
    """Affine map x @ W.T + b for x[batch, d_in], W[d_out, d_in]."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError(f"dense expects 2-D input and weight, got "
                         f"{x.data.shape} and {weight.data.shape}")
    if x.data.shape[1] != weight.data.shape[1]:
        raise ShapeError(f"dense input width {x.data.shape[1]} != "
                         f"weight fan-in {weight.data.shape[1]}")
    xd, wd = x.data, weight.data
    out = xd @ wd.T
    parents = [x, weight]
    if bias is not None:
        out = out + bias.data
        parents.append(bias)

    def backward(g):
        _accum(x, g @ wd)
        _accum(weight, g.T @ xd)
        if bias is not None:
            _accum(bias, g.sum(axis=0))

    return _node(out, tuple(parents), backward)


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
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        grad_rows = np.zeros((batch, per, c_out), dtype=g.dtype)
        grad_rows[:, :out_len] = g
        grad_rows = grad_rows.reshape(rows, c_out)
        if bias is not None:
            _accum(bias, g.sum(axis=(0, 1)))
        dwt = np.empty_like(wt)
        for j in range(k):
            np.matmul(flat[j:j + rows * stride:stride].T, grad_rows,
                      out=dwt[j])
        # C order like the weight itself: optimizer updates that mix a
        # transposed gradient into C-order state run markedly slower
        _accum(weight, dwt.transpose(2, 1, 0).copy())
        if _tracked(x):
            # tap j of output row r came from flat row r * stride + j
            gflat = np.zeros_like(flat)
            tap = np.empty((min(group, batch) * per, c_in), dtype=g.dtype)
            for b0, b1 in blocks:
                n, lo = (b1 - b0) * per, b0 * pitch
                for j in range(k):
                    np.matmul(grad_rows[b0 * per:b1 * per], wt[j].T,
                              out=tap[:n])
                    gflat[lo + j:lo + j + n * stride:stride] += tap[:n]
            _accum(x, gflat[:rows * stride].reshape(batch, pitch, c_in)[
                :, padding:padding + length])

    return _node(out, parents, backward)


class RunningStats:
    """Running mean/variance buffers for one batch-norm layer."""

    def __init__(self, channels, dtype=np.float32):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)


def batch_norm1d(x, gamma, beta, stats, training, momentum=0.1, eps=1e-5):
    """Normalize each channel (the last axis) over all other axes.

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
    xm = x.data.reshape(-1, channels)
    n = xm.shape[0]
    if training:
        if n == 1:
            warnings.warn(
                "batch normalization saw one value per channel; statistics "
                "are degenerate and only the eps guard keeps them finite",
                RuntimeWarning)
        mean = xm.mean(axis=0)
        xhat = xm - mean
        var = np.square(xhat).mean(axis=0)
        stats.mean[...] = (1.0 - momentum) * stats.mean + momentum * mean
        unbiased = var * (n / (n - 1)) if n > 1 else var
        stats.var[...] = (1.0 - momentum) * stats.var + momentum * unbiased
        inv = 1.0 / np.sqrt(var + eps)
        xhat *= inv
    else:
        inv = 1.0 / np.sqrt(stats.var + eps)
        xhat = (xm - stats.mean) * inv
    gd = gamma.data
    out = xhat * gd
    out += beta.data

    def backward(g):
        gm = g.reshape(-1, channels)
        sum_g = gm.sum(axis=0)
        sum_gx = (gm * xhat).sum(axis=0)
        _accum(gamma, sum_gx)
        _accum(beta, sum_g)
        if _tracked(x):
            scale = gd * inv
            gx = gm * scale
            if training:
                gx -= xhat * (scale * sum_gx / n)
                gx -= scale * sum_g / n
            _accum(x, gx.reshape(x.data.shape))

    return _node(out.reshape(x.data.shape), (x, gamma, beta), backward)


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


def max_pool1d(x, kernel, stride=None):
    """Windowed maximum over time for x[batch, len, ch].

    The kernel strided time slices are compared in order, so a window's
    first maximum wins a tie and its first NaN wins outright, as argmax
    would pick; that window offset routes the gradient.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"max_pool1d expects [batch, len, ch], "
                         f"got {x.data.shape}")
    if stride is None:
        stride = kernel
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

    def backward(g):
        gx = np.zeros_like(x.data)
        gbits = g.view(_uint_like(g))
        # descending offsets add overlapping windows in window order, the
        # order a scatter-add over the windows would use
        for j in reversed(range(kernel)):
            routed = gbits & _all_ones(arg == j, gbits.dtype)
            gx[:, j:j + span:stride] += routed.view(g.dtype)
        _accum(x, gx)

    return _node(out, (x,), backward)


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
    for s in range(length):
        z = gates[s]
        z += (h_prev @ wh.T).reshape(batch, 4, hidden)
        candidate = np.tanh(z[:, 2])
        z[...] = _sigmoid_values(z)
        z[:, 2] = candidate
        i, f, g, o = z[:, 0], z[:, 1], z[:, 2], z[:, 3]
        np.multiply(f, c_prev, out=cells[s])
        cells[s] += i * g
        np.tanh(cells[s], out=tanh_cells[s])
        np.multiply(o, tanh_cells[s], out=hs[s])
        h_prev, c_prev = hs[s], cells[s]
    out = hs[::-1] if reverse else hs

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
        _accum(w_ih, dzm.T @ xs.reshape(rows, feat))
        _accum(w_hh, dz[1:].reshape(rows - batch, 4 * hidden).T
               @ hs[:-1].reshape(rows - batch, hidden))
        _accum(b, dzm.sum(axis=0))
        if _tracked(x):
            dx = (dzm @ wi).reshape(length, batch, feat)
            _accum(x, (dx[::-1] if reverse else dx).transpose(1, 0, 2))

    return _node(out.transpose(1, 0, 2), (x, w_ih, w_hh, b), backward)


def bilstm(x, layer_params, hidden, dropout_rate=0.0, training=False,
           rng=None):
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
        fwd, bwd = params["fwd"], params["bwd"]
        sizes = {fwd["w_hh"].data.shape[-1], bwd["w_hh"].data.shape[-1]}
        if sizes != {hidden}:
            raise ShapeError(f"bilstm layer {depth} weights do not have "
                             f"hidden size {hidden}")
        current = concat([lstm_sequence(current, **fwd),
                          lstm_sequence(current, **bwd, reverse=True)], 2)
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
