import hashlib

import numpy as np
import pytest

from ecgkit.errors import ShapeError, UsageError
from ecgkit.gradcam import SaliencyMap, grad_cam
from ecgkit.models import ModelDescriptor, build
from ecgkit.training import TrainRunConfig, train
from helpers import toy_two_class


def small_model(arch="cnn", length=64, seed=0):
    kwargs = {"input_len": length}
    if arch in ("cnn", "cnn_lstm", "cnn_lstm_attn"):
        kwargs["channel_plan"] = (8, 8)
    else:
        kwargs["channel_plan"] = (8, 8)
        kwargs["blocks_per_stage"] = 1
    if arch in ("cnn_lstm", "cnn_lstm_attn"):
        kwargs["lstm_hidden"] = 8
        kwargs["attention_dim"] = 8
    return build(ModelDescriptor(arch, **kwargs), seed)


class TestContract:
    def test_map_shape_and_range(self):
        model = small_model()
        beat = np.random.default_rng(0).random(64, dtype=np.float32)
        saliency = grad_cam(model, beat, 1)
        assert len(saliency) == 64
        assert saliency.values.min() >= 0.0
        assert saliency.values.max() <= 1.0
        assert saliency.target_class == 1

    def test_nonconstant_map_spans_unit_interval(self):
        model = small_model()
        beat = np.random.default_rng(1).random(64, dtype=np.float32)
        saliency = grad_cam(model, beat, 0)
        if saliency.raw.max() > saliency.raw.min():
            assert saliency.values.min() == 0.0
            assert saliency.values.max() == 1.0

    @pytest.mark.parametrize("arch", ["cnn", "cnn_lstm", "cnn_lstm_attn",
                                      "resnet1d"])
    def test_every_architecture_is_explainable(self, arch):
        model = small_model(arch)
        beat = np.random.default_rng(2).random(64, dtype=np.float32)
        saliency = grad_cam(model, beat, 2)
        assert len(saliency) == 64
        assert np.isfinite(saliency.values).all()

    def test_deterministic(self):
        model = small_model()
        beat = np.random.default_rng(3).random(64, dtype=np.float32)
        a = grad_cam(model, beat, 1)
        b = grad_cam(model, beat, 1)
        np.testing.assert_array_equal(a.values, b.values)

    def test_leaves_parameter_grads_clean(self):
        model = small_model()
        beat = np.random.default_rng(4).random(64, dtype=np.float32)
        grad_cam(model, beat, 0)
        assert all(p.grad is None for p in model.parameters().values())

    def test_raw_map_bytes_are_pinned(self):
        # exact bytes (NumPy 2.4.6, OpenBLAS 0.3.31): how backward() frees
        # its tape must never change the feature gradient the map is made of
        model = small_model(seed=6)
        beat = np.random.default_rng(6).random(64, dtype=np.float32)
        raw = grad_cam(model, beat, 2).raw
        assert raw.max() > 0.0
        assert hashlib.sha256(raw.tobytes()).hexdigest() == \
            "2b69fad8bc5af29ca73e5c8d3fee4efbe97a2d95b89ede390b57110726ba9fc4"


class TestEdgeCases:
    def test_zero_head_row_gives_constant_zero_map(self):
        model = small_model()
        params = model.parameters()
        params["head.w"].data[3, :] = 0.0
        params["head.b"].data[3] = 0.0
        beat = np.random.default_rng(5).random(64, dtype=np.float32)
        saliency = grad_cam(model, beat, 3)
        np.testing.assert_array_equal(saliency.raw, 0.0)
        np.testing.assert_array_equal(saliency.values, 0.0)

    def test_target_scaling_scales_raw_but_not_normalized(self):
        # x4 is a power of two, so float32 products scale exactly
        beat = np.random.default_rng(6).random(64, dtype=np.float32)
        base_model = small_model(seed=3)
        before = grad_cam(base_model, beat, 2)
        params = base_model.parameters()
        params["head.w"].data[2, :] *= 4.0
        params["head.b"].data[2] *= 4.0
        after = grad_cam(base_model, beat, 2)
        np.testing.assert_allclose(after.raw, 4.0 * before.raw, rtol=1e-6)
        np.testing.assert_allclose(after.values, before.values, atol=1e-6)

    def test_argument_validation(self):
        model = small_model()
        beat = np.zeros(64, dtype=np.float32)
        with pytest.raises(UsageError):
            grad_cam(model, beat, 5)
        with pytest.raises(UsageError):
            grad_cam(model, beat, -1)
        with pytest.raises(UsageError):
            grad_cam(model, np.zeros((2, 64)), 0)
        with pytest.raises(ShapeError):
            grad_cam(model, np.zeros(32, dtype=np.float32), 0)


class TestLocalization:
    def test_trained_model_highlights_the_pulse(self):
        # class 1 beats pulse on the right half, class 0 on the left;
        # a trained model's class-1 saliency should sit where the pulse is
        dataset = toy_two_class(n_per_class=20, length=64, seed=7)
        model = small_model(seed=7)
        cfg = TrainRunConfig("cnn", batch_size=8, lr=1e-2, epochs=25, seed=7)
        model, history, _ = train(model, dataset, cfg)
        assert max(r.train_acc for r in history.records) == 1.0

        pulse_center = 3 * 64 // 4
        val = dataset.split == "val"
        X_val, y_val = dataset.X[val], dataset.y[val]
        right_beats = X_val[y_val == 1]
        hits = 0
        for beat in right_beats:
            saliency = grad_cam(model, beat, 1)
            left_mass = saliency.values[:32].sum()
            right_mass = saliency.values[32:].sum()
            assert right_mass > left_mass
            if abs(int(saliency.values.argmax()) - pulse_center) <= 12:
                hits += 1
        assert hits >= 0.8 * len(right_beats)
