"""Central-difference gradient checks for every differentiable kernel op.

Each case builds a forward function from 64-bit inputs, projects the output
onto a fixed random direction to get a scalar, and compares the taped
gradient of every input against (f(x+h) - f(x-h)) / 2h with h = 1e-3.
"""

import numpy as np
import pytest

from ecgkit import tensor as tk
from ecgkit.tensor import RunningStats, Tensor

from helpers import lstm_step

H = 1e-3
TOL = 1e-4
N_SEEDS = 20


def numeric_gradient(scalar_fn, arrays, index):
    arrays = [a.copy() for a in arrays]
    flat = arrays[index].reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + H
        fp = scalar_fn(arrays)
        flat[i] = orig - H
        fm = scalar_fn(arrays)
        flat[i] = orig
        grad[i] = (fp - fm) / (2.0 * H)
    return grad.reshape(arrays[index].shape)


def assert_gradients_match(build, arrays, seed):
    probe = build([Tensor(a) for a in arrays])
    direction = np.random.default_rng(seed + 99_991).normal(
        size=probe.data.shape)

    def scalar_fn(arrs):
        out = build([Tensor(a) for a in arrs])
        return float((out.data * direction).sum())

    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    tk.mul(build(tensors), Tensor(direction)).sum().backward()
    for i, tensor in enumerate(tensors):
        analytic = tensor.grad
        if analytic is None:
            analytic = np.zeros_like(tensor.data)
        numeric = numeric_gradient(scalar_fn, arrays, i)
        err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        assert err.max() < TOL, (
            f"input {i}: max relative gradient error {err.max():.3e}")


def spaced(rng, shape, gap=0.1):
    """Distinct values with pairwise gaps >> 2H, for max/relu-style kinks."""
    n = int(np.prod(shape))
    vals = (rng.permutation(n) - n / 2.0) * gap
    return vals.reshape(shape).astype(np.float64)


def away_from_zero(rng, shape, margin=0.05):
    x = rng.normal(size=shape)
    return x + margin * np.sign(x)


def small_shape(rng):
    return (int(rng.integers(1, 5)), int(rng.integers(1, 4)),
            int(rng.integers(2, 9)))


# Each factory: rng -> (build([tensors]) -> Tensor, input arrays).
def case_add_broadcast(rng):
    b, c, l = small_shape(rng)
    return (lambda ts: tk.add(ts[0], ts[1]),
            [rng.normal(size=(b, c, l)), rng.normal(size=(1, c, 1))])


def case_mul_broadcast(rng):
    b, c, l = small_shape(rng)
    return (lambda ts: tk.mul(ts[0], ts[1]),
            [rng.normal(size=(b, c, l)), rng.normal(size=(c, l))])


def case_neg(rng):
    return lambda ts: tk.neg(ts[0]), [rng.normal(size=(3, 4))]


def case_matmul(rng):
    m, k, n = (int(rng.integers(1, 5)) for _ in range(3))
    return (lambda ts: tk.matmul(ts[0], ts[1]),
            [rng.normal(size=(m, k)), rng.normal(size=(k, n))])


def case_log(rng):
    return lambda ts: tk.log(ts[0]), [rng.uniform(0.5, 2.0, size=(3, 5))]


def case_pow_const(rng):
    e = float(rng.integers(2, 4))
    return lambda ts: tk.pow_const(ts[0], e), [rng.uniform(0.5, 2.0, (3, 5))]


def case_clamp_min(rng):
    return (lambda ts: tk.clamp_min(ts[0], 0.0),
            [away_from_zero(rng, (3, 5))])


def case_sum_all(rng):
    return lambda ts: ts[0].sum(), [rng.normal(size=small_shape(rng))]


def case_sum_axis(rng):
    axis = int(rng.integers(0, 3))
    return (lambda ts: ts[0].sum(axis=axis),
            [rng.normal(size=small_shape(rng))])


def case_mean_axis(rng):
    axis = int(rng.integers(0, 3))
    keep = bool(rng.integers(0, 2))
    return (lambda ts: ts[0].mean(axis=axis, keepdims=keep),
            [rng.normal(size=small_shape(rng))])


def case_reshape(rng):
    return (lambda ts: tk.reshape(ts[0], (4, 6)), [rng.normal(size=(2, 3, 4))])


def case_concat(rng):
    c, l = int(rng.integers(1, 4)), int(rng.integers(2, 6))
    return (lambda ts: tk.concat(ts, axis=1),
            [rng.normal(size=(2, c, l)), rng.normal(size=(2, c + 1, l)),
             rng.normal(size=(2, 1, l))])


def case_narrow(rng):
    l = int(rng.integers(4, 9))
    start = int(rng.integers(0, l - 2))
    return (lambda ts: tk.narrow(ts[0], 2, start, 2),
            [rng.normal(size=(2, 3, l))])


def case_gather_rows(rng):
    n, c = int(rng.integers(2, 5)), int(rng.integers(2, 6))
    idx = rng.integers(0, c, size=n)
    return (lambda ts: tk.gather_rows(ts[0], idx),
            [rng.normal(size=(n, c))])


def case_sigmoid(rng):
    return lambda ts: tk.sigmoid(ts[0]), [rng.normal(scale=2, size=(3, 5))]


def case_tanh(rng):
    return lambda ts: tk.tanh(ts[0]), [rng.normal(scale=2, size=(3, 5))]


def case_leaky_relu(rng):
    return (lambda ts: tk.leaky_relu(ts[0]),
            [away_from_zero(rng, (3, 5))])


def case_softmax(rng):
    return (lambda ts: tk.softmax(ts[0], axis=-1),
            [rng.normal(scale=2, size=(4, 5))])


def case_dense(rng):
    b, din, dout = (int(rng.integers(1, 5)) for _ in range(3))
    return (lambda ts: tk.dense(ts[0], ts[1], ts[2]),
            [rng.normal(size=(b, din)), rng.normal(size=(dout, din)),
             rng.normal(size=dout)])


def case_conv1d(rng):
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 3))
    k = int(rng.integers(1, 4))
    return (lambda ts: tk.conv1d(ts[0], ts[1], ts[2], stride=stride,
                                 padding=padding),
            [rng.normal(size=(2, 3, 8)).transpose(0, 2, 1),
             rng.normal(size=(2, 3, k)), rng.normal(size=2)])


def case_batch_norm_train_3d(rng):
    def build(ts):
        stats = RunningStats(2, dtype=np.float64)
        return tk.batch_norm1d(ts[0], ts[1], ts[2], stats, training=True)
    return build, [rng.normal(size=(4, 2, 5)).transpose(0, 2, 1),
                   rng.uniform(0.5, 1.5, 2), rng.normal(size=2)]


def case_batch_norm_train_2d(rng):
    def build(ts):
        stats = RunningStats(3, dtype=np.float64)
        return tk.batch_norm1d(ts[0], ts[1], ts[2], stats, training=True)
    return build, [rng.normal(size=(4, 3)), rng.uniform(0.5, 1.5, 3),
                   rng.normal(size=3)]


def case_batch_norm_eval(rng):
    mean = rng.normal(size=2)
    var = rng.uniform(0.5, 2.0, size=2)

    def build(ts):
        stats = RunningStats(2, dtype=np.float64)
        stats.mean[...] = mean
        stats.var[...] = var
        return tk.batch_norm1d(ts[0], ts[1], ts[2], stats, training=False)
    return build, [rng.normal(size=(3, 2, 4)).transpose(0, 2, 1),
                   rng.uniform(0.5, 1.5, 2), rng.normal(size=2)]


def clear_of_kink(xhat, gamma):
    """Per-channel beta that puts 0 mid-way across the widest gap between
    the values of xhat * gamma, so no relu input lies near the kink."""
    y = np.sort(xhat.reshape(-1, xhat.shape[-1]) * gamma, axis=0)
    widest = np.diff(y, axis=0).argmax(axis=0)
    cols = np.arange(y.shape[1])
    return -(y[widest, cols] + y[widest + 1, cols]) / 2.0


def norm_activation_case(rng, shape, training, activation):
    """batch_norm1d with a fused activation on channels-last input.

    For relu, x is spaced and beta is chosen clear of the kink (see
    clear_of_kink), which also bounds 1/std in train mode.
    """
    c = shape[-1]
    x = spaced(rng, shape) if activation == "relu" else rng.normal(size=shape)
    gamma = rng.uniform(0.5, 1.5, c)
    beta = rng.normal(size=c)
    mean, var = rng.normal(size=c), rng.uniform(0.5, 2.0, c)
    if activation == "relu":
        xm = x.reshape(-1, c)
        if training:
            xhat = (xm - xm.mean(axis=0)) / np.sqrt(xm.var(axis=0) + 1e-5)
        else:
            xhat = (xm - mean) / np.sqrt(var + 1e-5)
        beta = clear_of_kink(xhat, gamma)

    def build(ts):
        stats = RunningStats(c, dtype=np.float64)
        stats.mean[...] = mean
        stats.var[...] = var
        return tk.batch_norm1d(ts[0], ts[1], ts[2], stats, training,
                               activation=activation)
    return build, [x, gamma, beta]


def case_relu(rng):
    # relu as the models apply it: fused into batch norm, here in eval form
    return norm_activation_case(rng, (3, 4, 2), False, "relu")


def case_swish(rng):
    # swish as the models apply it: fused into batch norm, here in eval form
    return norm_activation_case(rng, (3, 4, 2), False, "swish")


def case_batch_norm_train_2d_relu(rng):
    return norm_activation_case(rng, (4, 3), True, "relu")


def case_batch_norm_train_2d_swish(rng):
    return norm_activation_case(rng, (4, 3), True, "swish")


def case_batch_norm_train_3d_relu(rng):
    return norm_activation_case(rng, (4, 5, 2), True, "relu")


def case_batch_norm_train_3d_swish(rng):
    return norm_activation_case(rng, (4, 5, 2), True, "swish")


def case_max_pool(rng):
    kernel = int(rng.integers(2, 4))
    stride = int(rng.integers(1, 3))
    return (lambda ts: tk.max_pool1d(ts[0], kernel, stride),
            [spaced(rng, (2, 2, 8)).transpose(0, 2, 1)])


def case_dropout(rng):
    seed = int(rng.integers(1 << 30))

    def build(ts):
        return tk.dropout(ts[0], 0.3, True, np.random.default_rng(seed))
    return build, [rng.normal(size=(3, 6))]


def case_lstm_step(rng):
    hidden, din = 2, 3

    def build(ts):
        h, _ = lstm_step(ts[0], ts[1], ts[2], ts[3], ts[4], ts[5])
        return h
    return build, [rng.normal(size=(2, din)), rng.normal(size=(2, hidden)),
                   rng.normal(size=(2, hidden)),
                   rng.normal(scale=0.5, size=(4 * hidden, din)),
                   rng.normal(scale=0.5, size=(4 * hidden, hidden)),
                   rng.normal(scale=0.5, size=4 * hidden)]


def case_lstm_cell_state(rng):
    hidden, din = 2, 2

    def build(ts):
        _, c = lstm_step(ts[0], ts[1], ts[2], ts[3], ts[4], ts[5])
        return c
    return build, [rng.normal(size=(2, din)), rng.normal(size=(2, hidden)),
                   rng.normal(size=(2, hidden)),
                   rng.normal(scale=0.5, size=(4 * hidden, din)),
                   rng.normal(scale=0.5, size=(4 * hidden, hidden)),
                   rng.normal(scale=0.5, size=4 * hidden)]


def case_lstm_sequence_reverse(rng):
    hidden, din = 2, 2
    return (lambda ts: tk.lstm_sequence(*ts, reverse=True),
            [rng.normal(size=(2, 3, din)),
             rng.normal(scale=0.5, size=(4 * hidden, din)),
             rng.normal(scale=0.5, size=(4 * hidden, hidden)),
             rng.normal(scale=0.5, size=4 * hidden)])


def case_bilstm(rng):
    hidden, din = 2, 2

    def build(ts):
        layer = {"fwd": {"w_ih": ts[1], "w_hh": ts[2], "b": ts[3]},
                 "bwd": {"w_ih": ts[4], "w_hh": ts[5], "b": ts[6]}}
        return tk.bilstm(ts[0], [layer])
    return build, [rng.normal(size=(2, 3, din)),
                   rng.normal(scale=0.5, size=(4 * hidden, din)),
                   rng.normal(scale=0.5, size=(4 * hidden, hidden)),
                   rng.normal(scale=0.5, size=4 * hidden),
                   rng.normal(scale=0.5, size=(4 * hidden, din)),
                   rng.normal(scale=0.5, size=(4 * hidden, hidden)),
                   rng.normal(scale=0.5, size=4 * hidden)]


def case_attention_context(rng):
    def build(ts):
        context, _ = tk.attention_pool(ts[0], ts[1], ts[2], ts[3])
        return context
    return build, [rng.normal(size=(2, 3, 4)),
                   rng.normal(scale=0.5, size=(3, 4)),
                   rng.normal(scale=0.5, size=3),
                   rng.normal(scale=0.5, size=3)]


def case_attention_weights(rng):
    def build(ts):
        _, alpha = tk.attention_pool(ts[0], ts[1], ts[2], ts[3])
        return alpha
    return build, [rng.normal(size=(2, 3, 4)),
                   rng.normal(scale=0.5, size=(3, 4)),
                   rng.normal(scale=0.5, size=3),
                   rng.normal(scale=0.5, size=3)]


def case_loss_chain(rng):
    # the exact op chain the focal loss uses: softmax, gather, clamp, log, pow
    n, c = 4, 5
    idx = rng.integers(0, c, size=n)

    def build(ts):
        p = tk.gather_rows(tk.softmax(ts[0], axis=-1), idx)
        p = tk.clamp_min(p, 1e-12)
        mod = tk.pow_const(tk.add(tk.neg(p), 1.0), 2.0)
        return tk.neg(tk.mul(mod, tk.log(p))).mean()
    return build, [rng.normal(scale=2, size=(n, c))]


CASES = {
    "add_broadcast": case_add_broadcast,
    "mul_broadcast": case_mul_broadcast,
    "neg": case_neg,
    "matmul": case_matmul,
    "log": case_log,
    "pow_const": case_pow_const,
    "clamp_min": case_clamp_min,
    "sum_all": case_sum_all,
    "sum_axis": case_sum_axis,
    "mean_axis": case_mean_axis,
    "reshape": case_reshape,
    "concat": case_concat,
    "narrow": case_narrow,
    "gather_rows": case_gather_rows,
    "sigmoid": case_sigmoid,
    "tanh": case_tanh,
    "relu": case_relu,
    "leaky_relu": case_leaky_relu,
    "swish": case_swish,
    "softmax": case_softmax,
    "dense": case_dense,
    "conv1d": case_conv1d,
    "batch_norm_train_3d": case_batch_norm_train_3d,
    "batch_norm_train_2d": case_batch_norm_train_2d,
    "batch_norm_eval": case_batch_norm_eval,
    "batch_norm_train_2d_relu": case_batch_norm_train_2d_relu,
    "batch_norm_train_2d_swish": case_batch_norm_train_2d_swish,
    "batch_norm_train_3d_relu": case_batch_norm_train_3d_relu,
    "batch_norm_train_3d_swish": case_batch_norm_train_3d_swish,
    "max_pool": case_max_pool,
    "dropout": case_dropout,
    "lstm_step": case_lstm_step,
    "lstm_cell_state": case_lstm_cell_state,
    "lstm_sequence_reverse": case_lstm_sequence_reverse,
    "bilstm": case_bilstm,
    "attention_context": case_attention_context,
    "attention_weights": case_attention_weights,
    "loss_chain": case_loss_chain,
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_gradient_matches_finite_differences(name, seed):
    rng = np.random.default_rng(seed * 7919 + 13)
    build, arrays = CASES[name](rng)
    assert_gradients_match(build, arrays, seed)


def test_two_layer_bilstm_gradients():
    # deeper stack checked on fewer seeds; the per-element loop is pricey
    hidden = 2
    for seed in range(5):
        rng = np.random.default_rng(seed + 555)

        def build(ts):
            layers = [
                {"fwd": {"w_ih": ts[1], "w_hh": ts[2], "b": ts[3]},
                 "bwd": {"w_ih": ts[4], "w_hh": ts[5], "b": ts[6]}},
                {"fwd": {"w_ih": ts[7], "w_hh": ts[8], "b": ts[9]},
                 "bwd": {"w_ih": ts[10], "w_hh": ts[11], "b": ts[12]}},
            ]
            return tk.bilstm(ts[0], layers)

        def gates(din):
            return [rng.normal(scale=0.5, size=(4 * hidden, din)),
                    rng.normal(scale=0.5, size=(4 * hidden, hidden)),
                    rng.normal(scale=0.5, size=4 * hidden)]

        arrays = [rng.normal(size=(2, 3, 2))]
        arrays += gates(2) + gates(2)            # layer 1, both directions
        arrays += gates(2 * hidden) + gates(2 * hidden)   # layer 2
        assert_gradients_match(build, arrays, seed)
