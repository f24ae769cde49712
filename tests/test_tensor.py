import tracemalloc
import warnings
import weakref
from contextlib import nullcontext

import numpy as np
import pytest

from ecgkit import tensor as tk
from ecgkit.errors import ShapeError, UsageError
from ecgkit.tensor import RunningStats, Tensor

import helpers
from helpers import lstm_step


def t(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad)


class TestAutodiffCore:
    def test_sum_gradient_is_ones(self):
        x = t(np.arange(6).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gradient(self):
        x = t([1.0, -2.0, 3.0], requires_grad=True)
        tk.mul(x, x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, -4.0, 6.0])

    def test_gradients_accumulate_across_reuse(self):
        x = t([2.0], requires_grad=True)
        y = tk.add(tk.mul(x, x), x)  # x^2 + x
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_backward_requires_scalar(self):
        x = t([1.0, 2.0], requires_grad=True)
        with pytest.raises(UsageError):
            tk.mul(x, x).backward()

    def test_backward_on_untaped_tensor(self):
        with pytest.raises(UsageError):
            t([1.0]).backward()

    def test_backward_on_leaf_with_requires_grad_is_untaped(self):
        leaf = t([1.0], requires_grad=True)
        with pytest.raises(UsageError, match="no tape behind it"):
            leaf.backward()
        assert leaf.grad is None

    def test_second_backward_raises_and_keeps_leaf_grads(self):
        x = t([1.0, 2.0], requires_grad=True)
        y = tk.mul(x, x)
        loss = tk.mul(y, t([3.0, 3.0])).sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, [6.0, 12.0])
        with pytest.raises(UsageError, match="already released"):
            loss.backward()
        np.testing.assert_allclose(x.grad, [6.0, 12.0])

    def test_backward_releases_the_tape(self):
        def graph():
            x = t([1.0, 2.0], requires_grad=True)
            y = tk.mul(x, x)
            kept = tk.mul(y, t([3.0, 3.0]))
            kept.requires_grad = True
            loss = tk.add(y.sum(), kept.sum())
            return x, kept, weakref.ref(y._node.backward), loss

        x, kept, y_step_ref, loss = graph()
        assert y_step_ref() is not None  # the tape holds y's closure
        loss.backward()
        assert y_step_ref() is None
        assert loss._node is None
        assert loss.grad is None
        np.testing.assert_allclose(x.grad, [8.0, 16.0])
        np.testing.assert_allclose(kept.grad, [1.0, 1.0])

    def test_tape_drops_values_backward_does_not_read(self):
        rng = np.random.default_rng(0)
        x = t(rng.standard_normal((2, 8, 3)))
        w = t(rng.standard_normal((4, 3, 3)), requires_grad=True)
        bias = t(np.zeros(4), requires_grad=True)
        gamma = t(np.ones(4), requires_grad=True)
        beta = t(np.zeros(4), requires_grad=True)
        h = tk.conv1d(x, w, bias, padding=1)
        conv_out = weakref.ref(h.data)
        h = tk.batch_norm1d(h, gamma, beta, RunningStats(4, np.float64), True,
                            activation="swish")
        loss = h.sum()
        # batch norm keeps its normalized input, not the conv output
        assert conv_out() is None
        loss.backward()
        assert w.grad is not None and gamma.grad is not None

    def test_caller_held_output_keeps_its_value_after_backward(self):
        x = t([1.0, -2.0], requires_grad=True)
        y = tk.mul(x, x)
        loss = tk.mul(y, t([3.0, 3.0])).sum()
        loss.backward()
        np.testing.assert_array_equal(y.data, [1.0, 4.0])
        np.testing.assert_array_equal(loss.data, 15.0)
        assert y.grad is None

    def test_no_grad_blocks_taping(self):
        x = t([1.0], requires_grad=True)
        with tk.no_grad():
            y = tk.mul(x, x)
        assert y._node is None
        with pytest.raises(UsageError):
            y.backward()

    def test_no_grad_is_thread_local(self):
        import threading
        entered, release = threading.Event(), threading.Event()

        def hold_no_grad():
            with tk.no_grad():
                entered.set()
                release.wait(timeout=10)

        worker = threading.Thread(target=hold_no_grad)
        worker.start()
        assert entered.wait(timeout=10)
        try:
            x = t([1.0], requires_grad=True)
            assert tk.mul(x, x)._node is not None  # this thread still tapes
        finally:
            release.set()
            worker.join()

    def test_fan_out_grad_sums_every_consumer(self):
        x = t([1.0, 2.0], requires_grad=True)
        y = tk.mul(x, x)
        y.requires_grad = True  # keep the interior gradient past backward
        # y feeds two consumers; its grad must hold both contributions
        tk.add(y.sum(), tk.mul(y, t([3.0, 3.0])).sum()).backward()
        np.testing.assert_allclose(y.grad, [4.0, 4.0])

    def test_deep_chain_does_not_recurse(self):
        x = t([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = tk.add(y, t([0.0]))
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_unused_parameter_gets_no_gradient(self):
        x = t([1.0], requires_grad=True)
        unused = t([1.0], requires_grad=True)
        tk.mul(x, x).backward()
        assert unused.grad is None

    def test_int_input_promoted_to_float(self):
        x = Tensor(np.array([1, 2, 3]))
        assert np.issubdtype(x.data.dtype, np.floating)


class TestElementwise:
    def test_broadcast_add_unbroadcasts_gradient(self):
        a = t(np.ones((2, 3)), requires_grad=True)
        b = t(np.ones((1, 3)), requires_grad=True)
        tk.add(a, b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, [[2.0, 2.0, 2.0]])

    def test_scalar_operand_keeps_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = tk.mul(x, 2.5)
        assert y.data.dtype == np.float32

    def test_clamp_min(self):
        x = t([-1.0, 0.5, 2.0], requires_grad=True)
        y = tk.clamp_min(x, 0.0)
        np.testing.assert_allclose(y.data, [0.0, 0.5, 2.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 1.0])

    def test_gather_rows(self):
        x = t([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], requires_grad=True)
        y = tk.gather_rows(x, [1, 0, 1])
        np.testing.assert_allclose(y.data, [2.0, 3.0, 6.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 1], [1, 0], [0, 1]])

    def test_narrow_and_concat_invert(self):
        x = t(np.arange(12.0).reshape(3, 4), requires_grad=True)
        parts = [tk.narrow(x, 1, i, 2) for i in (0, 2)]
        y = tk.concat(parts, 1)
        np.testing.assert_array_equal(y.data, x.data)
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def identity_norm(x, activation):
    """activation(x) through batch_norm1d's eval form, normalized by mean 0
    and a running variance that eps tops up to exactly 1, scaled by 1 and
    shifted by -0.0: an exact identity before the activation."""
    c = x.shape[-1]
    gamma = Tensor(np.ones(c, dtype=x.dtype))
    beta = Tensor(np.full(c, -0.0, dtype=x.dtype))
    stats = RunningStats(c, x.dtype)
    stats.var -= tk._NORM_EPS
    assert (stats.var + tk._NORM_EPS == 1.0).all()
    return tk.batch_norm1d(Tensor(x), gamma, beta, stats, False,
                           activation=activation).data


class TestActivations:
    def test_swish_values(self):
        y = identity_norm(np.array([[0.0, 1.0]]), "swish")
        assert y[0, 0] == 0.0
        assert y[0, 1] == pytest.approx(0.731059, abs=1e-6)

    def test_relu(self):
        np.testing.assert_allclose(
            identity_norm(np.array([[-2.0, 0.0, 3.0]]), "relu"),
            [[0.0, 0.0, 3.0]])

    def test_leaky_relu_slope(self):
        y = tk.leaky_relu(t([-1.0, 2.0]))
        np.testing.assert_allclose(y.data, [-0.2, 2.0])

    def test_sigmoid_extremes_are_stable(self):
        y = tk.sigmoid(t([-1000.0, 0.0, 1000.0]))
        np.testing.assert_allclose(y.data, [0.0, 0.5, 1.0], atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_and_swish_match_two_branch_form_bit_for_bit(self, dtype):
        # training trajectories (and the saliency acceptance test) depend on
        # these exact bits; a faster formula must not change them
        x = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, 88.0, -88.0, 1e4, -1e4],
            np.random.default_rng(3).normal(scale=8.0, size=500),
        ]).astype(dtype)
        ref = np.empty_like(x)
        pos = x >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        ref[~pos] = ex / (1.0 + ex)
        # the out= form as lstm_sequence runs it, overwriting its input
        in_place = x.copy()
        tk._sigmoid_values(in_place, out=in_place,
                           scratch=np.empty_like(x))
        with np.errstate(invalid="ignore"):   # swish(-inf) is -inf * 0
            pairs = ((tk.sigmoid(Tensor(x)).data, ref),
                     (in_place, ref),
                     (identity_norm(x[None, :], "swish")[0], x * ref))
        for got, want in pairs:
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            keep = ~np.isnan(want)
            np.testing.assert_array_equal(got[keep].view(np.uint8),
                                          want[keep].view(np.uint8))


def sigmoid_sample(dtype):
    """Specials, the exp overflow and underflow edges with their neighbours,
    normal draws and random bit patterns (NaNs and subnormals included)."""
    info = np.finfo(dtype)
    rng = np.random.default_rng(11)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, info.max, info.tiny,
                info.smallest_subnormal]
    edges = np.log([info.max, info.tiny, info.smallest_subnormal])
    near = [edge + step for edge in edges
            for step in np.linspace(-2.0, 2.0, 4001)]
    x = np.concatenate([specials, near,
                        rng.normal(scale=8.0, size=200_000)]).astype(dtype)
    x = np.concatenate([x, -x])
    bits = rng.integers(0, np.iinfo(_uint_of(dtype)).max, size=200_000,
                        dtype=_uint_of(dtype), endpoint=True)
    return np.concatenate([x, bits.view(dtype)])


def _uint_of(dtype):
    return np.dtype(f"u{np.dtype(dtype).itemsize}")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_values_match_two_exponential_form_bit_for_bit(dtype):
    x = sigmoid_sample(dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        want = helpers.sigmoid_values(x)
        fresh = tk._sigmoid_values(x)
        in_place = x.copy()
        tk._sigmoid_values(in_place, out=in_place, scratch=np.empty_like(x))
    for got in (fresh, in_place):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        keep = ~np.isnan(want)
        np.testing.assert_array_equal(got[keep].view(_uint_of(dtype)),
                                      want[keep].view(_uint_of(dtype)))


class TestSoftmax:
    def test_symmetric_logits(self):
        np.testing.assert_allclose(tk.softmax(t([[0.0, 0.0]])).data,
                                   [[0.5, 0.5]])

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 4))
        a = tk.softmax(t(x)).data
        b = tk.softmax(t(x + 123.456)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one_and_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.normal(scale=50, size=(8, 5))
            y = tk.softmax(t(x)).data
            assert (y >= 0).all()
            np.testing.assert_allclose(y.sum(axis=1), np.ones(8), atol=1e-9)

    def test_huge_logits_do_not_overflow(self):
        y = tk.softmax(t([[1e4, 0.0, -1e4]])).data
        assert np.isfinite(y).all()
        assert y[0, 0] == pytest.approx(1.0)


class TestDense:
    def test_identity(self):
        x = t(np.eye(3))
        w = t(np.eye(3))
        b = t(np.zeros(3))
        np.testing.assert_array_equal(tk.dense(x, w, b).data, np.eye(3))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tk.dense(t(np.ones((2, 3))), t(np.ones((4, 5))))


def direct_conv1d(x, w, b, stride, padding):
    """conv1d on [batch, len, c_in] one output window at a time."""
    xp = np.pad(x, ((0, 0), (padding, padding), (0, 0)))
    k = w.shape[2]
    out_len = (xp.shape[1] - k) // stride + 1
    out = np.empty((x.shape[0], out_len, w.shape[0]))
    for o in range(out_len):
        window = xp[:, o * stride:o * stride + k]               # [b, k, ci]
        out[:, o] = np.einsum("bki,cik->bc", window, w) + b
    return out


def direct_conv1d_grads(x, w, g, stride, padding):
    """x, w and b gradients of direct_conv1d for output gradient g."""
    xp = np.pad(x, ((0, 0), (padding, padding), (0, 0)))
    k = w.shape[2]
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for o in range(g.shape[1]):
        window = xp[:, o * stride:o * stride + k]
        gxp[:, o * stride:o * stride + k] += np.einsum("bc,cik->bki",
                                                       g[:, o], w)
        gw += np.einsum("bc,bki->cik", g[:, o], window)
    return gxp[:, padding:padding + x.shape[1]], gw, g.sum(axis=(0, 1))


class TestConv1d:
    def test_identity_kernel(self):
        x = t(np.arange(8.0).reshape(1, 1, 8).transpose(0, 2, 1))
        w = t(np.ones((1, 1, 1)))
        np.testing.assert_array_equal(tk.conv1d(x, w).data, x.data)

    def test_edge_detector(self):
        x = t([[[1.0], [2.0], [3.0], [4.0]]])
        w = t([[[1.0, 0.0, -1.0]]])
        np.testing.assert_allclose(tk.conv1d(x, w).data, [[[-2.0], [-2.0]]])

    def test_zero_kernel_with_bias(self):
        x = t(np.random.default_rng(0).normal(size=(2, 3, 6)).transpose(
            0, 2, 1))
        w = t(np.zeros((4, 3, 3)))
        b = t(np.full(4, 3.0))
        out = tk.conv1d(x, w, b)
        np.testing.assert_allclose(out.data, np.full((2, 4, 4), 3.0))

    def test_output_length_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            length = int(rng.integers(4, 40))
            kernel = int(rng.integers(1, 8))
            stride = int(rng.integers(1, 4))
            padding = int(rng.integers(0, 4))
            if kernel > length + 2 * padding:
                continue
            x = t(rng.normal(size=(2, 2, length)).transpose(0, 2, 1))
            w = t(rng.normal(size=(3, 2, kernel)))
            out = tk.conv1d(x, w, stride=stride, padding=padding)
            expected = (length + 2 * padding - kernel) // stride + 1
            assert out.data.shape == (2, expected, 3)

    def test_matches_direct_cross_correlation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 10))
        w = rng.normal(size=(4, 3, 3))
        out = tk.conv1d(t(x.transpose(0, 2, 1)), t(w), stride=2,
                        padding=1).data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
        for b in range(2):
            for co in range(4):
                for o in range(out.shape[1]):
                    ref = (xp[b, :, 2 * o:2 * o + 3] * w[co]).sum()
                    assert out[b, o, co] == pytest.approx(ref, rel=1e-10)

    def test_input_gradient_matches_per_window_reference(self):
        rng = np.random.default_rng(5)
        for stride, padding, k in ((1, 0, 3), (2, 1, 3), (3, 2, 2),
                                   (2, 0, 1), (1, 4, 2)):
            x = t(rng.normal(size=(2, 3, 11)).transpose(0, 2, 1),
                  requires_grad=True)
            w = rng.normal(size=(4, 3, k))
            out = tk.conv1d(x, t(w), stride=stride, padding=padding)
            g = rng.normal(size=out.data.shape)
            tk.mul(out, t(g)).sum().backward()
            ref = np.zeros((2, 3, 11 + 2 * padding))
            for o in range(out.data.shape[1]):
                ref[:, :, o * stride:o * stride + k] += np.einsum(
                    "bo,oik->bik", g[:, o, :], w)
            np.testing.assert_allclose(
                x.grad, ref[:, :, padding:11 + padding].transpose(0, 2, 1),
                rtol=1e-12, atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            tk.conv1d(t(np.ones((1, 5, 2))), t(np.ones((3, 4, 3))))

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(ShapeError):
            tk.conv1d(t(np.ones((1, 3, 1))), t(np.ones((1, 1, 9))))

    @staticmethod
    def check_per_window_reference_with_gradients(rng, c_in, k, stride):
        for padding in range(4):
            x, w, b = (rng.normal(size=(2, 11, c_in)),
                       rng.normal(size=(4, c_in, k)), rng.normal(size=4))
            tensors = [t(a, requires_grad=True) for a in (x, w, b)]
            out = tk.conv1d(*tensors, stride=stride, padding=padding)
            ref = direct_conv1d(x, w, b, stride, padding)
            g = rng.normal(size=ref.shape)
            tk.mul(out, t(g)).sum().backward()
            np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)
            for tensor, ref_grad in zip(tensors, direct_conv1d_grads(
                    x, w, g, stride, padding)):
                np.testing.assert_allclose(tensor.grad, ref_grad,
                                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 5, 7])
    def test_matches_per_window_reference_with_gradients(self, k, stride):
        self.check_per_window_reference_with_gradients(
            np.random.default_rng(50 + 3 * k + stride), 3, k, stride)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 5, 7])
    def test_one_input_channel_matches_per_window_reference_with_gradients(
            self, k, stride):
        # one input channel takes the broadcast-multiply tap product
        self.check_per_window_reference_with_gradients(
            np.random.default_rng(150 + 3 * k + stride), 1, k, stride)

    @pytest.mark.parametrize("c_out,k,stride,padding", [
        (128, 5, 1, 2),   # cnn block0.conv1
        (32, 7, 2, 3),    # resnet1d stem
    ])
    def test_one_input_channel_float32_bit_equal_to_tap_gemms(
            self, c_out, k, stride, padding):
        rng = np.random.default_rng(70 + k)
        x = rng.normal(size=(6, 187, 1)).astype(np.float32)
        w = rng.normal(scale=0.3, size=(c_out, 1, k)).astype(np.float32)
        b = rng.normal(size=c_out).astype(np.float32)
        out = tk.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                        padding=padding).data
        xp = np.pad(x, ((0, 0), (padding, padding), (0, 0)))
        out_len = (xp.shape[1] - k) // stride + 1
        wt = w.transpose(2, 1, 0)                        # [k, 1, c_out]
        acc = np.matmul(xp[:, 0:stride * out_len:stride], wt[0])
        for j in range(1, k):
            acc += np.matmul(xp[:, j:j + stride * out_len:stride], wt[j])
        ref = acc + b
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.view(np.uint32),
                                      ref.view(np.uint32))

    def test_untracked_input_still_trains_weights(self):
        rng = np.random.default_rng(60)
        x, w, b = (rng.normal(size=(3, 9, 2)), rng.normal(size=(5, 2, 3)),
                   rng.normal(size=5))
        xt = t(x)
        wt, bt = t(w, requires_grad=True), t(b, requires_grad=True)
        out = tk.conv1d(xt, wt, bt, stride=2, padding=1)
        g = rng.normal(size=out.data.shape)
        tk.mul(out, t(g)).sum().backward()
        assert xt.grad is None
        _, ref_w, ref_b = direct_conv1d_grads(x, w, g, 2, 1)
        np.testing.assert_allclose(wt.grad, ref_w, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(bt.grad, ref_b, rtol=1e-12, atol=1e-12)

    def test_forward_allocates_no_im2col_buffer(self):
        # an im2col matrix alone would take k = 5 times the input's bytes
        rng = np.random.default_rng(61)
        x = Tensor(rng.normal(size=(32, 187, 64)).astype(np.float32))
        w = Tensor(rng.normal(scale=0.1, size=(64, 64, 5)).astype(np.float32))
        b = Tensor(np.zeros(64, dtype=np.float32))
        tracemalloc.start()
        try:
            tk.conv1d(x, w, b, padding=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * x.data.nbytes


class TestBatchNorm:
    def test_eval_identity_with_unit_stats(self):
        x = np.random.default_rng(5).normal(size=(4, 3, 6)).transpose(0, 2, 1)
        stats = RunningStats(3, dtype=np.float64)
        out = tk.batch_norm1d(t(x), t(np.ones(3)), t(np.zeros(3)), stats,
                              training=False)
        # eps inflates the denominator by 1e-5, so identity holds to ~5e-6
        np.testing.assert_allclose(out.data, x, rtol=1e-5, atol=1e-5)

    def test_train_constant_channel_is_zeroed(self):
        x = np.full((4, 5, 2), 7.0)
        stats = RunningStats(2, dtype=np.float64)
        out = tk.batch_norm1d(t(x), t(np.ones(2)), t(np.zeros(2)), stats,
                              training=True)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_train_two_point_batch(self):
        x = np.array([[0.0], [2.0]])
        stats = RunningStats(1, dtype=np.float64)
        out = tk.batch_norm1d(t(x), t(np.ones(1)), t(np.zeros(1)), stats,
                              training=True)
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-4)

    def test_running_stats_update(self):
        rng = np.random.default_rng(6)
        x = rng.normal(loc=2.0, scale=3.0, size=(64, 1, 32)).transpose(0, 2, 1)
        stats = RunningStats(1, dtype=np.float64)
        tk.batch_norm1d(t(x), t(np.ones(1)), t(np.zeros(1)), stats,
                        training=True)
        # the buffers start at mean 0, variance 1 and move by momentum 0.1
        assert stats.mean[0] == pytest.approx(0.1 * x.mean(), rel=1e-6)
        n = x.size
        assert stats.var[0] == pytest.approx(
            0.9 + 0.1 * x.var() * n / (n - 1), rel=1e-6)

    def test_single_value_batch_warns(self):
        stats = RunningStats(2, dtype=np.float64)
        with pytest.warns(RuntimeWarning):
            tk.batch_norm1d(t(np.ones((1, 2))), t(np.ones(2)), t(np.zeros(2)),
                            stats, training=True)

    @pytest.mark.parametrize("training", [True, False])
    def test_2d_input_equals_one_step_3d_input(self, training):
        rng = np.random.default_rng(62)
        x = rng.normal(size=(6, 3))
        gamma, beta = rng.uniform(0.5, 1.5, 3), rng.normal(size=3)
        g = rng.normal(size=(6, 3))
        results = []
        for shape in ((6, 3), (6, 1, 3)):
            stats = RunningStats(3, dtype=np.float64)
            stats.var[...] = [0.5, 1.0, 2.0]
            tensors = [t(x.reshape(shape), requires_grad=True),
                       t(gamma, requires_grad=True),
                       t(beta, requires_grad=True)]
            out = tk.batch_norm1d(*tensors, stats, training=training)
            tk.mul(out, t(g.reshape(shape))).sum().backward()
            results.append([out.data.reshape(6, 3),
                            tensors[0].grad.reshape(6, 3), tensors[1].grad,
                            tensors[2].grad, stats.mean, stats.var])
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)


REFERENCE_ACTIVATIONS = {None: lambda h: h, "relu": helpers.relu,
                         "swish": helpers.swish}


def norm_inputs(shape, dtype, special):
    """x, gamma, beta, upstream gradient and running buffers for a fused
    norm test.  With special set, channel 0 of x holds +-0, +-inf and NaN,
    channel 1 has gamma 0 and beta -0.0 (outputs of both zero signs), and
    channel 2 has gamma inf (infinite outputs, NaN where xhat is 0)."""
    rng = np.random.default_rng(len(shape) * 10_007 + shape[0])
    c = shape[-1]
    x = rng.normal(scale=2.0, size=shape)
    gamma = rng.uniform(0.5, 1.5, c)
    beta = rng.normal(size=c)
    g = rng.normal(size=shape)
    mean, var = rng.normal(size=c), rng.uniform(0.5, 2.0, c)
    if special:
        flat = x.reshape(-1, c)
        values = [0.0, -0.0, np.inf, -np.inf, np.nan]
        flat[:len(values), 0] = values[:len(flat)]
        gamma[1], beta[1] = 0.0, -0.0
        gamma[2] = np.inf
    return [a.astype(dtype) for a in (x, gamma, beta, g, mean, var)]


def run_norm(fused, shape, mode, activation, dtype, special):
    """Forward values, running buffers, warning flag and (when taped) the
    x, gamma and beta gradients of one batch-norm-plus-activation call."""
    x, gamma, beta, g, mean, var = norm_inputs(shape, dtype, special)
    stats = RunningStats(shape[-1], dtype)
    stats.mean[...], stats.var[...] = mean, var
    training = mode.startswith("train")
    taped = mode in ("train", "eval_taped")
    tensors = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
    with warnings.catch_warnings(record=True) as caught, \
            np.errstate(all="ignore"):
        warnings.simplefilter("always")
        with nullcontext() if taped else tk.no_grad():
            if fused:
                out = tk.batch_norm1d(*tensors, stats, training,
                                      activation=activation)
            else:
                out = REFERENCE_ACTIVATIONS[activation](
                    helpers.batch_norm1d(*tensors, stats, training))
        if taped:
            tk.mul(out, Tensor(g)).sum().backward()
    warned = any("one value per channel" in str(w.message) for w in caught)
    results = [out.data, stats.mean, stats.var]
    if taped:
        results += [tensor.grad for tensor in tensors]
    return results, warned


BLOCK = tk._NORM_BLOCK_ROWS


class TestFusedNormActivation:
    # one row, part of a block, one block, one block plus a row, and
    # several blocks of a 3-D input
    SHAPES = [(1, 6), (7, 6), (BLOCK, 6), (BLOCK + 1, 6), (3, BLOCK + 1, 6)]

    @pytest.mark.parametrize("special", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", [None, "relu", "swish"])
    @pytest.mark.parametrize("mode",
                             ["train", "train_no_grad", "eval", "eval_taped"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bytes_equal_unfused_norm_then_activation(
            self, shape, mode, activation, dtype, special):
        got, got_warned = run_norm(True, shape, mode, activation, dtype,
                                   special)
        want, want_warned = run_norm(False, shape, mode, activation, dtype,
                                     special)
        assert got_warned == want_warned
        assert got_warned == (mode.startswith("train") and
                              int(np.prod(shape[:-1])) == 1)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            # a NaN's sign bit is not part of the contract: when both
            # operands of a product are NaN, NumPy's loops return either
            # one depending on where the element sits in the array
            nan = np.isnan(b)
            np.testing.assert_array_equal(np.isnan(a), nan)
            np.testing.assert_array_equal(a[~nan].view(np.uint8),
                                          b[~nan].view(np.uint8))

    def test_unknown_activation_is_refused(self):
        with pytest.raises(UsageError, match="activation"):
            tk.batch_norm1d(t(np.ones((2, 2))), t(np.ones(2)), t(np.zeros(2)),
                            RunningStats(2, np.float64), True,
                            activation="tanh")

    def test_tape_keeps_xhat_and_output_only(self):
        # one taped conv -> norm + swish at a TABLE1 cnn layer size: beyond
        # the conv's padded row buffer, only xhat and the output stay live
        rng = np.random.default_rng(63)
        batch, length, c = 32, 187, 64
        x = Tensor(rng.normal(size=(batch, length, c)).astype(np.float32))
        w = Tensor(rng.normal(scale=0.1, size=(c, c, 5)).astype(np.float32),
                   requires_grad=True)
        b = Tensor(np.zeros(c, dtype=np.float32), requires_grad=True)
        gamma = Tensor(np.ones(c, dtype=np.float32), requires_grad=True)
        beta = Tensor(np.zeros(c, dtype=np.float32), requires_grad=True)
        stats = RunningStats(c)
        flat_bytes = (batch * (length + 4) + 5) * c * 4
        activation_bytes = batch * length * c * 4
        tracemalloc.start()
        try:
            out = tk.batch_norm1d(tk.conv1d(x, w, b, padding=2), gamma, beta,
                                  stats, True, activation="swish")
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out._node is not None
        assert live - flat_bytes <= 2 * activation_bytes + (1 << 20)


class TestPooling:
    def test_max_pool_known(self):
        x = t([[[1.0], [3.0], [2.0], [5.0]]])
        np.testing.assert_allclose(tk.max_pool1d(x, 2, 2).data,
                                   [[[3.0], [5.0]]])

    def test_max_pool_overlapping(self):
        x = t([[[4.0], [1.0], [1.0], [1.0]]])
        np.testing.assert_allclose(tk.max_pool1d(x, 3, 1).data,
                                   [[[4.0], [1.0]]])

    def test_max_pool_constant(self):
        x = t(np.full((2, 6, 2), 1.5))
        np.testing.assert_allclose(tk.max_pool1d(x, 2, 2).data,
                                   np.full((2, 3, 2), 1.5))

    def test_max_pool_length_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            length = int(rng.integers(2, 40))
            kernel = int(rng.integers(1, min(length, 6) + 1))
            stride = int(rng.integers(1, 4))
            out = tk.max_pool1d(t(rng.normal(size=(1, length, 1))), kernel,
                                stride)
            assert out.data.shape[1] == (length - kernel) // stride + 1

    def test_max_pool_gradient_matches_scatter_add(self):
        rng = np.random.default_rng(6)
        for kernel, stride in ((2, 2), (3, 1), (3, 2), (4, 3)):
            xn = rng.permutation(2 * 3 * 13).reshape(2, 3, 13) * 0.1
            x = t(xn.transpose(0, 2, 1), requires_grad=True)
            out = tk.max_pool1d(x, kernel, stride)
            g = rng.normal(size=out.data.shape)
            tk.mul(out, t(g)).sum().backward()
            windows = np.lib.stride_tricks.sliding_window_view(
                xn, kernel, axis=2)[:, :, ::stride]
            pos = (np.arange(out.data.shape[1]) * stride
                   + windows.argmax(axis=-1))
            ref = np.zeros_like(xn)
            bi, ci, _ = np.indices(pos.shape)
            np.add.at(ref, (bi, ci, pos), g.transpose(0, 2, 1))
            np.testing.assert_array_equal(x.grad, ref.transpose(0, 2, 1))

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1), (3, 2), (4, 3)])
    def test_max_pool_matches_argmax_bit_for_bit(self, kernel, stride):
        # argmax picks a window's first maximum and its first NaN; signed
        # zeros tie, so only the first of 0.0 and -0.0 may come out
        rng = np.random.default_rng(63 + kernel * stride)
        x = rng.integers(-2, 3, size=(3, 17, 4)).astype(np.float64)
        x[rng.random(x.shape) < 0.2] = -0.0
        x[rng.random(x.shape) < 0.1] = np.nan
        xt = t(x, requires_grad=True)
        out = tk.max_pool1d(xt, kernel, stride)
        g = rng.normal(size=out.data.shape)
        tk.mul(out, t(g)).sum().backward()
        windows = np.lib.stride_tricks.sliding_window_view(
            x, kernel, axis=1)[:, ::stride]                   # [b, o, c, k]
        arg = windows.argmax(axis=-1)
        ref = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
        np.testing.assert_array_equal(out.data.view(np.uint64),
                                      ref.view(np.uint64))
        ref_grad = np.zeros_like(x)
        bi, oi, ci = np.indices(arg.shape)
        np.add.at(ref_grad, (bi, oi * stride + arg, ci), g)
        np.testing.assert_array_equal(xt.grad, ref_grad)


def ref_lstm_step(x, h, c, w_ih, w_hh, b):
    z = x @ w_ih.T + h @ w_hh.T + b
    hid = h.shape[1]
    i = 1.0 / (1.0 + np.exp(-z[:, :hid]))
    f = 1.0 / (1.0 + np.exp(-z[:, hid:2 * hid]))
    g = np.tanh(z[:, 2 * hid:3 * hid])
    o = 1.0 / (1.0 + np.exp(-z[:, 3 * hid:]))
    c2 = f * c + i * g
    return o * np.tanh(c2), c2


class TestLstm:
    def gates(self, rng, d_in, hidden, forget_bias=0.0):
        return {
            "w_ih": t(rng.normal(scale=0.4, size=(4 * hidden, d_in))),
            "w_hh": t(rng.normal(scale=0.4, size=(4 * hidden, hidden))),
            "b": t(np.concatenate([np.zeros(hidden),
                                   np.full(hidden, forget_bias),
                                   np.zeros(2 * hidden)])),
        }

    def test_zero_everything_gives_zero_state(self):
        z = t(np.zeros((2, 3)))
        p = {"w_ih": t(np.zeros((8, 3))), "w_hh": t(np.zeros((8, 2))),
             "b": t(np.zeros(8))}
        h, c = lstm_step(z, t(np.zeros((2, 2))), t(np.zeros((2, 2))),
                         p["w_ih"], p["w_hh"], p["b"])
        np.testing.assert_array_equal(h.data, 0.0)
        np.testing.assert_array_equal(c.data, 0.0)

    def test_saturated_forget_gate_preserves_cell(self):
        rng = np.random.default_rng(9)
        p = self.gates(rng, 3, 4, forget_bias=50.0)
        p["w_ih"] = t(np.zeros((16, 3)))
        p["w_hh"] = t(np.zeros((16, 4)))
        c_prev = rng.normal(size=(2, 4)) * 0.5
        _, c = lstm_step(t(np.zeros((2, 3))), t(np.zeros((2, 4))),
                         t(c_prev), p["w_ih"], p["w_hh"], p["b"])
        np.testing.assert_allclose(c.data, c_prev, atol=1e-9)

    def test_matches_reference_arithmetic(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            p = self.gates(rng, 3, 4)
            x = rng.normal(size=(2, 3))
            h0 = rng.normal(size=(2, 4))
            c0 = rng.normal(size=(2, 4))
            h, c = lstm_step(t(x), t(h0), t(c0), p["w_ih"], p["w_hh"],
                             p["b"])
            rh, rc = ref_lstm_step(x, h0, c0, p["w_ih"].data, p["w_hh"].data,
                                   p["b"].data)
            np.testing.assert_allclose(h.data, rh, atol=1e-12)
            np.testing.assert_allclose(c.data, rc, atol=1e-12)

    def test_hidden_state_bounded(self):
        rng = np.random.default_rng(11)
        p = self.gates(rng, 3, 4)
        h = t(np.zeros((2, 4)))
        c = t(np.zeros((2, 4)))
        for _ in range(50):
            h, c = lstm_step(t(rng.normal(size=(2, 3)) * 5), h, c,
                             p["w_ih"], p["w_hh"], p["b"])
        assert np.abs(h.data).max() <= 1.0


def unrolled_lstm(x, w_ih, w_hh, b, reverse=False):
    """lstm_step applied step by step: the reference for lstm_sequence."""
    batch, length, feat = x.data.shape
    hidden = w_hh.data.shape[1]
    h = t(np.zeros((batch, hidden)))
    c = t(np.zeros((batch, hidden)))
    outs = [None] * length
    for step in (range(length - 1, -1, -1) if reverse else range(length)):
        x_t = tk.reshape(tk.narrow(x, 1, step, 1), (batch, feat))
        h, c = lstm_step(x_t, h, c, w_ih, w_hh, b)
        outs[step] = tk.reshape(h, (batch, 1, hidden))
    return tk.concat(outs, 1)


class TestLstmSequence:
    def arrays(self, rng, length, feat=3, hidden=4):
        return [rng.normal(size=(2, length, feat)),
                rng.normal(scale=0.5, size=(4 * hidden, feat)),
                rng.normal(scale=0.5, size=(4 * hidden, hidden)),
                rng.normal(scale=0.5, size=4 * hidden)]

    def run(self, fn, arrays, direction, reverse, track_x=True):
        x, *weights = arrays
        tensors = [t(x, requires_grad=track_x)]
        tensors += [t(a, requires_grad=True) for a in weights]
        out = fn(*tensors, reverse=reverse)
        tk.mul(out, t(direction)).sum().backward()
        return out.data, [tensor.grad for tensor in tensors]

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("length", [1, 7])
    def test_matches_unrolled_lstm_step(self, reverse, length):
        rng = np.random.default_rng(30 + length + reverse)
        arrays = self.arrays(rng, length)
        direction = rng.normal(size=(2, length, 4))
        out, grads = self.run(tk.lstm_sequence, arrays, direction, reverse)
        ref, ref_grads = self.run(unrolled_lstm, arrays, direction, reverse)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
        for grad, ref_grad in zip(grads, ref_grads):
            np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_untracked_input_still_trains_weights(self, reverse):
        rng = np.random.default_rng(40)
        arrays = self.arrays(rng, 5)
        direction = rng.normal(size=(2, 5, 4))
        _, grads = self.run(tk.lstm_sequence, arrays, direction, reverse,
                            track_x=False)
        _, ref_grads = self.run(unrolled_lstm, arrays, direction, reverse)
        assert grads[0] is None
        for grad, ref_grad in zip(grads[1:], ref_grads[1:]):
            np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-10)

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(41)
        arrays = [a.astype(np.float32) for a in self.arrays(rng, 4)]
        out = tk.lstm_sequence(*(Tensor(a) for a in arrays))
        assert out.data.dtype == np.float32
        assert out.data.shape == (2, 4, 4)

    def test_mismatched_weights_rejected(self):
        rng = np.random.default_rng(42)
        x, w_ih, w_hh, b = self.arrays(rng, 3)
        with pytest.raises(ShapeError):
            tk.lstm_sequence(t(x), t(w_ih[:, :2]), t(w_hh), t(b))
        with pytest.raises(ShapeError):
            tk.lstm_sequence(t(x[:, :0]), t(w_ih), t(w_hh), t(b))


class TestBilstm:
    def layer(self, rng, d_in, hidden, shared=False):
        def gates():
            return {
                "w_ih": t(rng.normal(scale=0.5, size=(4 * hidden, d_in))),
                "w_hh": t(rng.normal(scale=0.5, size=(4 * hidden, hidden))),
                "b": t(rng.normal(scale=0.5, size=4 * hidden)),
            }
        fwd = gates()
        return {"fwd": fwd, "bwd": fwd if shared else gates()}

    def test_single_step_halves_agree(self):
        rng = np.random.default_rng(12)
        layer = self.layer(rng, 3, 4, shared=True)
        out = tk.bilstm(t(rng.normal(size=(2, 1, 3))), [layer])
        np.testing.assert_allclose(out.data[:, 0, :4], out.data[:, 0, 4:])

    def test_palindrome_symmetry_with_shared_weights(self):
        rng = np.random.default_rng(13)
        layer = self.layer(rng, 2, 3, shared=True)
        half = rng.normal(size=(1, 3, 2))
        x = np.concatenate([half, half[:, ::-1, :]], axis=1)  # length 6
        out = tk.bilstm(t(x), [layer]).data
        length = x.shape[1]
        for step in range(length):
            np.testing.assert_allclose(out[:, step, :3],
                                       out[:, length - 1 - step, 3:],
                                       atol=1e-10)

    def test_zero_weights_give_zero_states(self):
        zero = {"w_ih": t(np.zeros((8, 3))), "w_hh": t(np.zeros((8, 2))),
                "b": t(np.zeros(8))}
        layer = {"fwd": zero, "bwd": zero}
        out = tk.bilstm(t(np.random.default_rng(14).normal(size=(2, 5, 3))),
                        [layer])
        np.testing.assert_array_equal(out.data, np.zeros((2, 5, 4)))

    def test_stacked_output_shape(self):
        rng = np.random.default_rng(15)
        layers = [self.layer(rng, 3, 4), self.layer(rng, 8, 4)]
        out = tk.bilstm(t(rng.normal(size=(2, 6, 3))), layers)
        assert out.data.shape == (2, 6, 8)

    def test_dropout_only_in_training(self):
        rng = np.random.default_rng(16)
        layers = [self.layer(rng, 3, 4), self.layer(rng, 8, 4)]
        x = t(rng.normal(size=(2, 5, 3)))
        eval_a = tk.bilstm(x, layers, dropout_rate=0.5, training=False,
                           rng=np.random.default_rng(0))
        eval_b = tk.bilstm(x, layers, dropout_rate=0.5, training=False,
                           rng=np.random.default_rng(99))
        np.testing.assert_array_equal(eval_a.data, eval_b.data)
        train = tk.bilstm(x, layers, dropout_rate=0.5, training=True,
                          rng=np.random.default_rng(0))
        assert not np.allclose(train.data, eval_a.data)


class TestAttentionPool:
    def params(self, rng, dim, attn):
        return (t(rng.normal(scale=0.5, size=(attn, dim))),
                t(rng.normal(scale=0.5, size=attn)),
                t(rng.normal(scale=0.5, size=attn)))

    def test_identical_steps_give_uniform_weights(self):
        rng = np.random.default_rng(17)
        w_h, b_h, v = self.params(rng, 4, 3)
        row = rng.normal(size=(2, 1, 4))
        h = np.repeat(row, 5, axis=1)
        _, alpha = tk.attention_pool(t(h), w_h, b_h, v)
        np.testing.assert_allclose(alpha.data, np.full((2, 5), 0.2),
                                   atol=1e-9)

    def test_single_step(self):
        rng = np.random.default_rng(18)
        w_h, b_h, v = self.params(rng, 4, 3)
        h = rng.normal(size=(3, 1, 4))
        context, alpha = tk.attention_pool(t(h), w_h, b_h, v)
        np.testing.assert_allclose(alpha.data, np.ones((3, 1)))
        np.testing.assert_allclose(context.data, h[:, 0, :])

    def test_matches_explicit_weighted_sum(self):
        rng = np.random.default_rng(19)
        w_h, b_h, v = self.params(rng, 4, 3)
        h = rng.normal(size=(2, 3, 4))
        context, alpha = tk.attention_pool(t(h), w_h, b_h, v)
        u = np.tanh(h @ w_h.data.T + b_h.data)
        scores = u @ v.data
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        ref_alpha = e / e.sum(axis=1, keepdims=True)
        ref_context = (ref_alpha[..., None] * h).sum(axis=1)
        np.testing.assert_allclose(alpha.data, ref_alpha, atol=1e-12)
        np.testing.assert_allclose(context.data, ref_context, atol=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(20)
        w_h, b_h, v = self.params(rng, 6, 4)
        for _ in range(10):
            h = rng.normal(scale=3.0, size=(3, 7, 6))
            _, alpha = tk.attention_pool(t(h), w_h, b_h, v)
            np.testing.assert_allclose(alpha.data.sum(axis=1), np.ones(3),
                                       atol=1e-9)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = t(np.ones((4, 4)))
        assert tk.dropout(x, 0.5, False, np.random.default_rng(0)) is x

    def test_zero_rate_is_identity(self):
        x = t(np.ones((4, 4)))
        assert tk.dropout(x, 0.0, True, np.random.default_rng(0)) is x

    def test_train_mode_scales_survivors(self):
        rng = np.random.default_rng(21)
        x = t(np.ones((200, 200)))
        y = tk.dropout(x, 0.25, True, rng)
        survivors = y.data != 0
        assert survivors.mean() == pytest.approx(0.75, abs=0.01)
        np.testing.assert_allclose(y.data[survivors], 1.0 / 0.75)

    def test_bad_rate_rejected(self):
        with pytest.raises(UsageError):
            tk.dropout(t(np.ones(3)), 1.0, True, np.random.default_rng(0))
