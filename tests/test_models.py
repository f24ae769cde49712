import hashlib

import numpy as np
import pytest

from ecgkit import tensor as tk
from ecgkit.errors import ConfigError, ShapeError
from ecgkit.models import ARCHITECTURES, ModelDescriptor, build
from ecgkit.tensor import Tensor


def batch(n=3, length=187, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.random((n, 1, length), dtype=np.float32))


class TestDescriptor:
    def test_default_channel_plans(self):
        assert ModelDescriptor("cnn").channel_plan == (128, 64, 32)
        assert ModelDescriptor("cnn_lstm").channel_plan == (64, 32)
        assert ModelDescriptor("cnn_lstm_attn").channel_plan == (64, 32)
        assert ModelDescriptor("resnet1d").channel_plan == (32, 64, 128)

    def test_unknown_arch_rejected(self):
        with pytest.raises(ConfigError):
            ModelDescriptor("transformer")

    @pytest.mark.parametrize("plan", [(), (32, 0), (8.0,), "88", 8])
    def test_bad_plan_rejected(self, plan):
        with pytest.raises(ConfigError, match="channel plan"):
            ModelDescriptor("cnn", channel_plan=plan)

    def test_round_trip(self):
        d = ModelDescriptor("cnn_lstm_attn", input_len=93, lstm_hidden=32)
        assert ModelDescriptor(**d.to_dict()) == d

    @pytest.mark.parametrize("field, value", [
        ("input_len", 8.5), ("input_len", True), ("input_len", 7),
        ("n_classes", 1), ("lstm_hidden", 0), ("lstm_layers", 0),
        ("attention_dim", 0), ("attention_dim", -1),
        ("blocks_per_stage", -1), ("blocks_per_stage", 1.0),
        ("lstm_dropout", 3.0), ("lstm_dropout", -0.1), ("lstm_dropout", 1),
        ("lstm_dropout", "0.2"),
    ])
    def test_every_field_is_checked(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ModelDescriptor("cnn_lstm_attn", **{field: value})


def param_shapes(descriptor):
    return {name: p.data.shape
            for name, p in build(descriptor, 0).params.items()}


class TestBuild:
    def test_cnn_has_three_blocks(self):
        shapes = param_shapes(ModelDescriptor("cnn"))
        blocks = {name.split(".")[0] for name in shapes
                  if name.startswith("block")}
        assert blocks == {"block0", "block1", "block2"}

    def test_resnet_stem_kernel(self):
        shapes = param_shapes(ModelDescriptor("resnet1d"))
        assert shapes["stem.conv.w"] == (32, 1, 7)

    def test_skip_projection_only_on_channel_change(self):
        shapes = param_shapes(ModelDescriptor("cnn"))
        assert "block0.skip.w" in shapes       # 1 -> 128
        assert "block1.skip.w" in shapes       # 128 -> 64
        shapes = param_shapes(ModelDescriptor(
            "cnn", channel_plan=(16, 16)))
        assert "block0.skip.w" in shapes       # 1 -> 16
        assert "block1.skip.w" not in shapes   # 16 -> 16

    def test_same_seed_bit_identical(self):
        d = ModelDescriptor("cnn_lstm", channel_plan=(8, 8), lstm_hidden=8)
        a = build(d, 7)
        b = build(d, 7)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data,
                                          b.params[name].data)

    def test_different_seeds_differ(self):
        d = ModelDescriptor("cnn", channel_plan=(8,))
        a = build(d, 1)
        b = build(d, 2)
        assert not np.array_equal(a.params["block0.conv1.w"].data,
                                  b.params["block0.conv1.w"].data)

    def test_init_conventions(self):
        d = ModelDescriptor("cnn_lstm_attn", channel_plan=(8, 8),
                            lstm_hidden=4)
        m = build(d, 3)
        np.testing.assert_array_equal(m.params["block0.bn1.gamma"].data, 1.0)
        np.testing.assert_array_equal(m.params["block0.bn1.beta"].data, 0.0)
        np.testing.assert_array_equal(m.params["head.b"].data, 0.0)
        lstm_bias = m.params["lstm.l0.fwd.b"].data
        np.testing.assert_array_equal(lstm_bias[4:8], 1.0)  # forget gate
        np.testing.assert_array_equal(lstm_bias[:4], 0.0)
        w = m.params["block0.conv1.w"].data
        bound = 1.0 / np.sqrt(1 * 5)
        assert np.abs(w).max() <= bound

    def test_buffer_shapes_cover_all_norm_layers(self):
        m = build(ModelDescriptor("resnet1d"), 0)
        state = m.state_arrays()
        buffers = {name for name in state if name.endswith((".mean", ".var"))}
        layers = {name[:-len(".gamma")]: p.data.shape[0]
                  for name, p in m.params.items() if name.endswith(".gamma")}
        assert set(m.stats) == set(layers)
        assert buffers == {f"{prefix}.{stat}" for prefix in layers
                           for stat in ("mean", "var")}
        for prefix, channels in layers.items():
            assert state[f"{prefix}.mean"].shape == (channels,)
            assert state[f"{prefix}.var"].shape == (channels,)

    def test_plan_too_deep_for_the_shortest_beat_is_refused(self):
        # four pooled blocks take an 8-sample beat below one step
        with pytest.raises(ShapeError):
            build(ModelDescriptor("cnn", channel_plan=(4, 4, 4, 4)), 0)


def state_digest(model):
    """sha256 over every state array, in state_arrays order."""
    digest = hashlib.sha256()
    for name, array in model.state_arrays().items():
        digest.update(name.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestInitBytes:
    # exact bytes (NumPy 2.4.6): initial state at seed 5; parameters are
    # drawn in the order the forward pass reads them
    PINNED = {
        "cnn":
            "adb48aaa5dfbadae4f8d958b565fd9b58a41f7d4910c1262ca8dbbab7e01609d",
        "cnn_lstm":
            "9dc6760f53e72bf71b6289f821ba8e32273f3818c7453973f173400b007f02d5",
        "cnn_lstm_attn":
            "45f2bd7ca12283df9dee3caaeef169cba15ee045dec3f9bdd9d28ef64620fac7",
        "resnet1d":
            "ce57705232375755aa1175a88f3b6169b9b6f50307ef05725975397cf3b3200f",
    }

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_shipped_size_is_pinned(self, arch):
        assert state_digest(build(ModelDescriptor(arch), 5)) == \
            self.PINNED[arch]

    def test_small_two_layer_attention_model_is_pinned(self):
        d = ModelDescriptor("cnn_lstm_attn", input_len=64,
                            channel_plan=(8, 16), lstm_hidden=6,
                            lstm_layers=2, attention_dim=5)
        assert state_digest(build(d, 5)) == \
            "da3fa171595be0ec66ce34ce5a828f1d0c2ee263a769c026c17aca3f79bb0375"


SMALL = {
    "cnn": dict(channel_plan=(8, 8)),
    "cnn_lstm": dict(channel_plan=(8, 8), lstm_hidden=6, lstm_layers=1),
    "cnn_lstm_attn": dict(channel_plan=(8, 8), lstm_hidden=6, lstm_layers=1,
                          attention_dim=5),
    "resnet1d": dict(channel_plan=(8, 16), blocks_per_stage=1),
}


def small_model(arch, length=64, seed=0):
    return build(ModelDescriptor(arch, input_len=length, **SMALL[arch]), seed)


class TestForward:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_output_shape_and_finiteness(self, arch):
        m = small_model(arch)
        logits = m.forward(batch(4, 64), training=False)
        assert logits.data.shape == (4, 5)
        assert np.isfinite(logits.data).all()

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_identical_inputs_identical_rows(self, arch):
        m = small_model(arch)
        x = Tensor(np.zeros((2, 1, 64), dtype=np.float32))
        logits = m.forward(x, training=False).data
        np.testing.assert_allclose(logits[0], logits[1], atol=1e-6)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_batch_permutation_equivariance(self, arch):
        m = small_model(arch)
        rng = np.random.default_rng(5)
        X = rng.random((8, 64), dtype=np.float32)
        perm = rng.permutation(8)
        base = m.logits_array(X)
        shuffled = m.logits_array(X[perm])
        np.testing.assert_allclose(shuffled, base[perm], atol=1e-5)

    def test_length_mismatch_raises(self):
        m = small_model("cnn")
        with pytest.raises(ShapeError):
            m.forward(batch(2, 100))

    def test_channel_mismatch_raises(self):
        m = small_model("cnn")
        with pytest.raises(ShapeError):
            m.forward(Tensor(np.zeros((2, 3, 64), dtype=np.float32)))

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_training_forward_is_taped(self, arch):
        m = small_model(arch)
        rng = np.random.default_rng(0)
        logits = m.forward(batch(2, 64), training=True, rng=rng)
        logits.mean().backward()
        grads = [p.grad for p in m.params.values() if p.grad is not None]
        assert len(grads) > 0
        assert all(np.isfinite(g).all() for g in grads)
        assert m.params["head.w"].grad is not None


def captured_features(descriptor, length=187, seed=0):
    capture = {}
    build(descriptor, seed).forward(batch(1, length), training=False,
                                    capture=capture)
    return capture["features"].data.shape


# [1, time, channels] of the SMALL models on 64-sample beats: two pooled
# blocks give 16 steps; the resnet stem and pool give 16, its stride-2
# second stage 8
SMALL_FEATURE_SHAPES = {
    "cnn": (1, 16, 8),
    "cnn_lstm": (1, 16, 8),
    "cnn_lstm_attn": (1, 16, 8),
    "resnet1d": (1, 8, 16),
}


class TestFeatureCapture:
    def test_cnn_default_plan_feature_length(self):
        # 187 -> 93 -> 46 -> 23
        assert captured_features(ModelDescriptor("cnn")) == (1, 23, 32)

    def test_lstm_trunk_feature_length(self):
        d = ModelDescriptor("cnn_lstm", lstm_hidden=8, lstm_layers=1)
        assert captured_features(d) == (1, 46, 32)

    def test_resnet_feature_length(self):
        # 187 -(k7 s2 p3)-> 94 -(pool)-> 47 -(stage strides)-> 24 -> 12
        assert captured_features(ModelDescriptor("resnet1d")) == (1, 12, 128)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_capture_matches_declared_info(self, arch):
        d = ModelDescriptor(arch, input_len=64, **SMALL[arch])
        assert captured_features(d, 64, seed=1) == SMALL_FEATURE_SHAPES[arch]

    def test_feature_grad_has_feature_shape(self):
        m = small_model("cnn")
        capture = {}
        logits = m.forward(batch(2, 64), training=False, capture=capture)
        features = capture["features"]
        features.requires_grad = True
        logits.sum().backward()
        assert features.grad.shape == features.data.shape

    def test_attention_weights_exposed_and_normalized(self):
        m = small_model("cnn_lstm_attn")
        capture = {}
        m.forward(batch(3, 64), training=False, capture=capture)
        alpha = capture["attention"].data
        assert alpha.shape[0] == 3
        np.testing.assert_allclose(alpha.sum(axis=1), np.ones(3), atol=1e-6)


class TestArchitectureInvariants:
    def test_residual_identity_when_f_path_is_zero(self):
        d = ModelDescriptor("resnet1d", input_len=64, channel_plan=(8, 16),
                            blocks_per_stage=1)
        m = build(d, 2)
        # res0.0 keeps channels and stride, so its shortcut is the identity
        assert "res0.0.down.w" not in m.params
        for leaf in ("conv1.w", "conv1.b", "conv2.w", "conv2.b"):
            m.params[f"res0.0.{leaf}"].data[...] = 0.0
        x = Tensor(np.random.default_rng(3).normal(
            size=(2, 8, 20)).transpose(0, 2, 1).astype(np.float32))
        out = m._residual_block(x, "res0.0", 8, stride=1, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_conv_block_halves_even_lengths(self):
        d = ModelDescriptor("cnn", input_len=80, channel_plan=(4, 4, 4))
        m = build(d, 0)
        capture = {}
        m.forward(batch(1, 80), training=False, capture=capture)
        assert capture["features"].data.shape[1] == 10  # 80 -> 40 -> 20 -> 10

    def test_uniform_attention_equals_average_pooling(self):
        d_attn = ModelDescriptor("cnn_lstm_attn", input_len=64,
                                 **SMALL["cnn_lstm_attn"])
        d_avg = ModelDescriptor("cnn_lstm", input_len=64, **SMALL["cnn_lstm"])
        attn = build(d_attn, 4)
        avg = build(d_avg, 5)
        for name, p in avg.params.items():
            p.data = attn.params[name].data.copy()
        attn.params["attn.v"].data[...] = 0.0  # scores 0 -> uniform weights
        X = np.random.default_rng(6).random((4, 64), dtype=np.float32)
        np.testing.assert_allclose(attn.logits_array(X), avg.logits_array(X),
                                   atol=1e-6)

    def test_state_arrays_round_trip(self):
        m = small_model("resnet1d")
        X = np.random.default_rng(7).random((3, 64), dtype=np.float32)
        before = m.logits_array(X)
        state = {k: v.copy() for k, v in m.state_arrays().items()}
        m2 = small_model("resnet1d", seed=99)
        m2.load_state_arrays(state)
        np.testing.assert_array_equal(m2.logits_array(X), before)
