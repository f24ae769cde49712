import csv
import hashlib
import os

import numpy as np
import pytest

from ecgkit import tensor as tk
from ecgkit import training
from ecgkit.errors import ConfigError, NumericalError, UsageError
from ecgkit.models import (ARCHITECTURES, EVAL_BATCH_ROWS, ModelDescriptor,
                           build)
from ecgkit.tensor import Tensor
from ecgkit.training import (
    AdamW,
    EpochRecord,
    TABLE1,
    TrainRunConfig,
    TrainingHistory,
    evaluate_split,
    focal_loss,
    train,
)
from helpers import beat_set, toy_two_class


def probs_from_logits(logits):
    return tk.softmax(Tensor(np.asarray(logits, dtype=np.float64)), axis=-1)


class TestFocalLoss:
    def test_certain_prediction_has_zero_loss(self):
        p = Tensor(np.array([[1.0, 0.0, 0.0]]))
        loss = focal_loss(p, [0], alpha=1, gamma=2)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_half_confidence_value(self):
        p = Tensor(np.array([[0.5, 0.5]]))
        loss = focal_loss(p, [0], alpha=1, gamma=2)
        assert loss.item() == pytest.approx(0.25 * np.log(2), rel=1e-9)

    def test_gamma_zero_is_cross_entropy(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            logits = rng.normal(scale=3, size=(16, 5))
            y = rng.integers(0, 5, size=16)
            p = probs_from_logits(logits)
            fl = focal_loss(p, y, alpha=1, gamma=0).item()
            ce = -np.log(p.data[np.arange(16), y]).mean()
            assert fl == pytest.approx(ce, abs=1e-9)

    def test_alpha_scales_linearly(self):
        p = probs_from_logits(np.random.default_rng(1).normal(size=(8, 5)))
        y = np.arange(8) % 5
        base = focal_loss(p, y, alpha=1, gamma=2).item()
        double = focal_loss(p, y, alpha=2, gamma=2).item()
        assert double == pytest.approx(2 * base, rel=1e-9)

    def test_monotone_decreasing_in_confidence(self):
        grid = np.linspace(0.01, 0.99, 50)
        losses = []
        for p_t in grid:
            rest = (1 - p_t) / 4
            p = Tensor(np.array([[p_t, rest, rest, rest, rest]]))
            losses.append(focal_loss(p, [0]).item())
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_never_exceeds_cross_entropy(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = probs_from_logits(rng.normal(scale=2, size=(12, 5)))
            y = rng.integers(0, 5, size=12)
            fl = focal_loss(p, y, gamma=2).item()
            ce = focal_loss(p, y, gamma=0).item()
            assert fl <= ce + 1e-12

    def test_target_range_checked(self):
        p = Tensor(np.full((2, 5), 0.2))
        with pytest.raises(UsageError):
            focal_loss(p, [0, 5])
        with pytest.raises(UsageError):
            focal_loss(p, [-1, 0])

    def test_rejects_logits(self):
        with pytest.raises(UsageError):
            focal_loss(Tensor(np.array([[3.0, -1.0]])), [0])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainRunConfig("cnn", batch_size=8, lr=1e-3, focal_gamma=-1)
        with pytest.raises(ConfigError):
            TrainRunConfig("cnn", batch_size=8, lr=1e-3, focal_alpha=0)

    def test_gradient_flows_to_logits(self):
        logits = Tensor(np.random.default_rng(3).normal(size=(4, 5)),
                        requires_grad=True)
        loss = focal_loss(tk.softmax(logits, axis=-1), [0, 1, 2, 3])
        loss.backward()
        assert logits.grad is not None
        assert np.isfinite(logits.grad).all()


def reference_adamw(theta, grads, lr, wd=0.0, betas=(0.9, 0.999), eps=1e-8):
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = betas[0] * m + (1 - betas[0]) * g
        v = betas[1] * v + (1 - betas[1]) * g * g
        m_hat = m / (1 - betas[0] ** t)
        v_hat = v / (1 - betas[1] ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * theta
    return theta


class TestAdamW:
    def make_param(self, value):
        return Tensor(np.array(value, dtype=np.float64), requires_grad=True)

    def test_first_step_size(self):
        p = self.make_param([0.0])
        opt = AdamW({"w": p}, lr=1e-3, weight_decay=0.0)
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_zero_grad_zero_decay_is_noop(self):
        p = self.make_param([0.7, -0.3])
        opt = AdamW({"w": p}, lr=1e-2, weight_decay=0.0)
        p.grad = np.zeros(2)
        before = p.data.copy()
        for _ in range(5):
            opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_pure_decay_recurrence(self):
        p = self.make_param([2.0])
        lr, wd = 1e-2, 0.1
        opt = AdamW({"w": p}, lr=lr, weight_decay=wd)
        for _ in range(5):
            p.grad = np.zeros(1)
            opt.step()
        assert p.data[0] == pytest.approx(2.0 * (1 - lr * wd) ** 5, rel=1e-12)

    def test_matches_reference_sequence(self):
        rng = np.random.default_rng(4)
        start = rng.normal(size=6)
        grads = [rng.normal(size=6) for _ in range(7)]
        p = self.make_param(start)
        opt = AdamW({"w": p}, lr=3e-3, weight_decay=1e-4)
        for g in grads:
            p.grad = g
            opt.step()
        expected = reference_adamw(start, grads, 3e-3, wd=1e-4)
        np.testing.assert_allclose(p.data, expected, atol=1e-12)

    def test_unset_grad_is_skipped(self):
        used = self.make_param([1.0])
        idle = self.make_param([1.0])
        opt = AdamW({"a": used, "b": idle}, lr=1e-2, weight_decay=0.1)
        used.grad = np.array([0.5])
        opt.step()
        assert idle.data[0] == 1.0
        assert used.data[0] != 1.0

    def test_nonfinite_gradient_names_parameter(self):
        p = self.make_param([1.0])
        opt = AdamW({"head.w": p}, lr=1e-3)
        p.grad = np.array([np.nan])
        with pytest.raises(NumericalError) as exc:
            opt.step()
        assert "head.w" in str(exc.value)


def scripted_run(monkeypatch, losses, lr=1e-3, patience=50):
    """Train a tiny cnn, one optimizer step per epoch, with the validation
    losses scripted.  Returns (lrs, history, scored, model, val_logits):
    lrs[e] is AdamW.lr at the step of epoch e + 1, and scored[e] the
    model's state arrays and val logits when that epoch was scored."""
    script = iter(losses)
    scored_epochs, lrs = [], []
    real_evaluate = training.evaluate_split
    real_step = AdamW.step

    def scripted_evaluate(model, X, y, alpha, gamma):
        _, acc, logits = real_evaluate(model, X, y, alpha, gamma)
        state = {k: v.copy() for k, v in model.state_arrays().items()}
        scored_epochs.append((state, logits))
        return next(script), acc, logits

    def recording_step(self):
        lrs.append(self.lr)
        real_step(self)

    monkeypatch.setattr(training, "evaluate_split", scripted_evaluate)
    monkeypatch.setattr(AdamW, "step", recording_step)
    dataset = toy_two_class(n_per_class=5, length=64, seed=3)
    cfg = TrainRunConfig("cnn", batch_size=64, lr=lr, epochs=len(losses),
                         seed=3, early_stop_patience=patience)
    model, history, val_logits = train(tiny_cnn(seed=3), dataset, cfg)
    return lrs, history, scored_epochs, model, val_logits


class TestPlateauAndEarlyStop:
    def test_halves_on_the_third_and_sixth_stagnant_epoch(self,
                                                          monkeypatch):
        lrs, *_ = scripted_run(monkeypatch, [0.4] + [0.5] * 8)
        # epochs 2-4 are stagnant 1-3, so epoch 5 steps at half the rate;
        # the count is not reset by the cut, and the 6th halves it again
        assert lrs == [1e-3] * 4 + [5e-4] * 3 + [2.5e-4] * 2

    def test_floor_is_exact(self, monkeypatch):
        lrs, *_ = scripted_run(monkeypatch, [1.0] * 8, lr=1.5e-6)
        assert lrs == [1.5e-6] * 4 + [1e-6] * 4

    def test_improvement_resets_the_count(self, monkeypatch):
        losses = [0.4, 0.5, 0.5, 0.3, 0.5, 0.5, 0.5, 0.5]
        lrs, history, *_ = scripted_run(monkeypatch, losses)
        assert lrs == [1e-3] * 7 + [5e-4]
        assert history.best_epoch == 4

    def test_tiny_improvement_counts_as_stagnant(self, monkeypatch):
        losses = [0.5, 0.5 - 1e-12, 0.5 - 2e-12, 0.5 - 3e-12, 0.5 - 4e-12]
        lrs, history, *_ = scripted_run(monkeypatch, losses)
        assert lrs == [1e-3] * 4 + [5e-4]
        assert history.best_epoch == 1

    def test_strictly_decreasing_losses_keep_lr(self, monkeypatch):
        losses = [float(v) for v in np.linspace(1.0, 0.1, 12)]
        lrs, history, *_ = scripted_run(monkeypatch, losses)
        assert lrs == [1e-3] * 12
        assert history.best_epoch == 12

    def test_lr_sequence_nonincreasing_and_floored(self, monkeypatch):
        losses = np.random.default_rng(5).uniform(0.4, 0.6, 60).tolist()
        lrs, *_ = scripted_run(monkeypatch, losses, lr=1e-5)
        assert len(lrs) == 60
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert min(lrs) == 1e-6

    def test_stops_when_the_count_reaches_patience(self, monkeypatch):
        losses = [0.5, 0.6, 0.4, 0.6, 0.6, 0.6, 0.6, 0.3, 0.2]
        lrs, history, *_ = scripted_run(monkeypatch, losses, patience=4)
        assert len(history) == len(lrs) == 7
        assert history.best_epoch == 3

    def test_best_epoch_is_the_epoch_whose_weights_are_kept(self,
                                                            monkeypatch):
        # epoch 2 is lower, but by less than the margin: epoch 1 stays best
        losses = [0.5, 0.5 - 5e-9, 0.7, 0.7]
        _, history, scored, model, val_logits = scripted_run(
            monkeypatch, losses, patience=3)
        assert len(history) == 4
        assert history.best_epoch == 1
        state, logits = scored[0]
        kept = model.state_arrays()
        assert kept.keys() == state.keys()
        for name, array in state.items():
            assert kept[name].tobytes() == array.tobytes(), name
        assert val_logits.tobytes() == logits.tobytes()

    def test_no_improvement_keeps_the_last_epoch(self, monkeypatch):
        _, history, scored, model, val_logits = scripted_run(
            monkeypatch, [np.inf] * 3)
        assert history.best_epoch == 3
        state, logits = scored[-1]
        for name, array in state.items():
            assert model.state_arrays()[name].tobytes() == array.tobytes()
        assert val_logits.tobytes() == logits.tobytes()


class TestRunConfig:
    def test_table_defaults(self):
        cnn = TrainRunConfig.for_arch("cnn")
        assert (cnn.batch_size, cnn.lr) == (128, 1.15e-3)
        assert (cnn.epochs, cnn.early_stop_patience) == (50, 8)
        lstm = TrainRunConfig.for_arch("cnn_lstm")
        assert (lstm.batch_size, lstm.lr) == (96, 1.0e-3)
        attn = TrainRunConfig.for_arch("cnn_lstm_attn")
        assert (attn.batch_size, attn.lr) == (96, 1.0e-3)
        res = TrainRunConfig.for_arch("resnet1d")
        assert (res.batch_size, res.lr) == (96, 1.22e-3)

    def test_overrides(self):
        cfg = TrainRunConfig.for_arch("cnn", epochs=5, seed=3)
        assert cfg.epochs == 5 and cfg.seed == 3
        assert cfg.batch_size == TABLE1["cnn"]["batch_size"]

    def test_unknown_arch(self):
        with pytest.raises(ConfigError):
            TrainRunConfig.for_arch("mlp")

    def test_value_validation(self):
        with pytest.raises(ConfigError):
            TrainRunConfig("cnn", batch_size=0, lr=1e-3)
        with pytest.raises(ConfigError):
            TrainRunConfig("cnn", batch_size=8, lr=-1.0)


def history_of(records):
    history = TrainingHistory()
    for record in records:
        history.append(record)
    return history


class TestTrainingHistory:
    def test_csv_rows_are_lossless(self, tmp_path):
        rng = np.random.default_rng(6)
        records = [EpochRecord(i + 1, *(float(v) for v in rng.random(4)))
                   for i in range(5)]
        path = history_of(records).to_csv(tmp_path / "history.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TrainingHistory.CSV_HEADER
        assert [EpochRecord(int(row[0]), *map(float, row[1:]))
                for row in rows[1:]] == records


def tiny_cnn(length=64, seed=0):
    return build(ModelDescriptor("cnn", input_len=length,
                                 channel_plan=(8, 8)), seed)


class TestTrainLoop:
    def test_learns_separable_toy_set(self):
        dataset = toy_two_class(n_per_class=20, length=64, seed=1)
        model = tiny_cnn(seed=1)
        cfg = TrainRunConfig("cnn", batch_size=8, lr=1e-2, epochs=30, seed=1)
        model, history, _ = train(model, dataset, cfg)
        assert max(r.train_acc for r in history.records) == 1.0

    def test_same_seed_reproduces_history(self):
        histories = []
        for _ in range(2):
            dataset = toy_two_class(n_per_class=10, length=64, seed=2)
            model = tiny_cnn(seed=2)
            cfg = TrainRunConfig("cnn", batch_size=8, lr=2e-3, epochs=4,
                                 seed=9)
            _, history, _ = train(model, dataset, cfg)
            histories.append(history)
        assert histories[0].records == histories[1].records

    def test_history_has_one_record_per_epoch(self):
        dataset = toy_two_class(n_per_class=10, length=64, seed=3)
        model = tiny_cnn(seed=3)
        cfg = TrainRunConfig("cnn", batch_size=8, lr=1e-3, epochs=3, seed=5)
        _, history, _ = train(model, dataset, cfg)
        assert [r.epoch for r in history.records] == [1, 2, 3]

    def test_early_stop_and_best_weight_restore(self):
        dataset = toy_two_class(n_per_class=15, length=64, seed=4)
        model = tiny_cnn(seed=4)
        cfg = TrainRunConfig("cnn", batch_size=8, lr=5e-3, epochs=50, seed=4,
                             early_stop_patience=4)
        model, history, _ = train(model, dataset, cfg)
        assert len(history) < 50   # plateaued long before the epoch budget
        val = dataset.split == "val"
        val_loss, _, _ = evaluate_split(model, dataset.X[val],
                                        dataset.y[val], cfg.focal_alpha,
                                        cfg.focal_gamma)
        best = min(record.val_loss for record in history.records)
        assert val_loss == pytest.approx(best, rel=1e-5)

    def test_val_logits_are_the_best_epoch_models_bytes(self):
        # an early-stopped run, so the best epoch is not the last one and
        # the logits must be kept from it, not taken after the loop
        dataset = toy_two_class(n_per_class=15, length=64, seed=4)
        cfg = TrainRunConfig("cnn", batch_size=8, lr=5e-3, epochs=50, seed=4,
                             early_stop_patience=4)
        model, history, val_logits = train(tiny_cnn(seed=4), dataset, cfg)
        assert history.best_epoch != len(history)
        expected = model.logits_array(dataset.X[dataset.split == "val"])
        assert val_logits.dtype == expected.dtype == np.float32
        assert val_logits.tobytes() == expected.tobytes()

    def test_evaluate_split_logits_match_logits_array(self):
        # more rows than one eval chunk, so the chunking is exercised
        rng = np.random.default_rng(8)
        X = rng.random((EVAL_BATCH_ROWS + 9, 64), dtype=np.float32)
        y = rng.integers(0, 5, len(X))
        model = tiny_cnn(seed=8)
        _, acc, logits = evaluate_split(model, X, y, 1.0, 2.0)
        assert logits.tobytes() == model.logits_array(X).tobytes()
        assert acc == (logits.argmax(axis=1) == y).mean()

    def test_missing_split_tags_rejected(self):
        rng = np.random.default_rng(7)
        dataset = beat_set([rng.random(64) for _ in range(10)], [0] * 10)
        with pytest.raises(ConfigError):
            train(tiny_cnn(), dataset, TrainRunConfig("cnn", 8, 1e-3))


def gradient_digest(arch):
    """sha256 over every parameter gradient after one focal-loss step."""
    kwargs = {"input_len": 64, "channel_plan": (8, 8)}
    if arch == "resnet1d":
        kwargs["blocks_per_stage"] = 1
    elif arch != "cnn":
        kwargs["lstm_hidden"] = 8
        kwargs["attention_dim"] = 8
    model = build(ModelDescriptor(arch, **kwargs), 11)
    data = np.random.default_rng(12)
    xb = data.random((6, 1, 64), dtype=np.float32)
    yb = np.array([0, 1, 2, 3, 4, 1])
    logits = model.forward(Tensor(xb), training=True,
                           rng=np.random.default_rng(13))
    focal_loss(tk.softmax(logits, axis=-1), yb).backward()
    digest = hashlib.sha256()
    for name, p in sorted(model.parameters().items()):
        digest.update(name.encode())
        digest.update(p.grad.tobytes())
    return digest.hexdigest()


class TestGradientBytes:
    # exact bytes (NumPy 2.4.6, OpenBLAS 0.3.31): how backward() frees its
    # tape must never change one bit of any parameter gradient
    PINNED = {
        "cnn":
            "8567b197a21304d6b7af25e152ff3789a9e500df5e18b41256397d23db1c8355",
        "cnn_lstm":
            "7a21280334e30b2edc15d98811df5432a4ff7fd5a3d2042a379a6c2dd9243c1d",
        "cnn_lstm_attn":
            "d5d5a64a80f8d9b53fc9c31fff8e9ee35dccd8c80a7d3f04765e1d313303ce96",
        "resnet1d":
            "5429460060b4cf701aff0a01f8b0acde715fd12217712ea99e98ab0546faee9a",
    }

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_one_step_gradients_are_pinned(self, arch):
        assert gradient_digest(arch) == self.PINNED[arch]


def _glibc():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


class TestStepMemory:
    @pytest.mark.skipif(not _glibc(), reason="tunes glibc malloc only")
    def test_repeated_steps_reuse_the_freed_heap(self):
        # backward() frees a whole step's graph at once; the next step must
        # find that memory in the heap, not fault it in from the kernel
        # (about 3600 minor faults a step when glibc trims it)
        resource = pytest.importorskip("resource")
        model = build(ModelDescriptor("cnn"), 11)
        data = np.random.default_rng(12)
        xb = data.random((8, 1, 187), dtype=np.float32)
        yb = data.integers(0, 5, 8)

        def step():
            logits = model.forward(Tensor(xb), training=True,
                                   rng=np.random.default_rng(13))
            focal_loss(tk.softmax(logits, axis=-1), yb).backward()
            for p in model.params.values():
                p.grad = None

        step()
        step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(3):
            step()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 1000
