import hashlib

import numpy as np
import pytest

from ecgkit import gan
from ecgkit.beats import concat
from ecgkit.errors import AugmentError, ConfigError, ShapeError
from ecgkit.gan import (
    DiscriminatorNet,
    GanTrainConfig,
    GeneratorNet,
    balance_dataset,
    balance_deficits,
    balance_summary,
    class_count_report,
    discriminator_loss,
    gan_train,
    generator_loss,
    synthesize,
)
from ecgkit.tensor import Tensor
from ecgkit.training import AdamW
from helpers import beat_set, pulse_beat

SMALL = dict(hidden=8, dense_width=16, batch_size=16, epochs=2)


def small_config(**overrides):
    merged = dict(SMALL)
    merged.update(overrides)
    return GanTrainConfig(**merged)


def pulse_beats(n, label, length=24, seed=0, split_tag="train"):
    rng = np.random.default_rng(seed)
    return beat_set([pulse_beat(rng, length, length // 4) for _ in range(n)],
                    [label] * n, split=split_tag)


class TestConfig:
    def test_defaults(self):
        cfg = GanTrainConfig()
        assert cfg.noise_dim == 1
        assert (cfg.epochs, cfg.batch_size) == (200, 32)
        assert (cfg.g_lr, cfg.d_lr) == (2e-4, 2e-4)
        assert cfg.tau == 0.5

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.1, 1.5])
    def test_threshold_must_be_interior(self, tau):
        # one rule, [0, 1], shared with synthesize
        if 0.0 <= tau <= 1.0:
            assert GanTrainConfig(tau=tau).tau == tau
            return
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            GanTrainConfig(tau=tau)

    def test_balance_ratio_bounds(self):
        with pytest.raises(ConfigError):
            GanTrainConfig(balance_ratio=0.0)
        with pytest.raises(ConfigError):
            GanTrainConfig(balance_ratio=1.2)

    def test_other_bounds(self):
        with pytest.raises(ConfigError):
            GanTrainConfig(dropout=1.0)
        with pytest.raises(ConfigError):
            GanTrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            GanTrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            GanTrainConfig(g_lr=0.0)


class TestNets:
    def test_generator_output_shape_and_range(self):
        cfg = small_config()
        g = GeneratorNet(cfg, np.random.default_rng(0), 2, 24)
        beats = g.generate(7, np.random.default_rng(1))
        assert beats.shape == (7, 24)
        assert beats.dtype == np.float32
        assert (beats > 0).all() and (beats < 1).all()

    def test_generator_deterministic_given_seeds(self):
        cfg = small_config()
        a = GeneratorNet(cfg, np.random.default_rng(3), 1, 24)
        b = GeneratorNet(cfg, np.random.default_rng(3), 1, 24)
        out_a = a.generate(4, np.random.default_rng(5))
        out_b = b.generate(4, np.random.default_rng(5))
        np.testing.assert_array_equal(out_a, out_b)

    def test_discriminator_scores(self):
        cfg = small_config()
        d = DiscriminatorNet(cfg, np.random.default_rng(0))
        x = np.random.default_rng(2).random((6, 24), dtype=np.float32)
        scores = d.score(x)
        assert scores.shape == (6,)
        assert ((scores > 0) & (scores < 1)).all()
        np.testing.assert_array_equal(scores, d.score(x))

    def test_pair_from_one_rng_is_pinned(self):
        # exact bytes (NumPy 2.4.6): both nets' initial parameters in draw
        # order, then what the shared rng yields next
        rng = np.random.default_rng(9)
        cfg = small_config(noise_dim=2)
        nets = (GeneratorNet(cfg, rng, 1, 24), DiscriminatorNet(cfg, rng))
        digest = hashlib.sha256()
        for net in nets:
            for name, p in net.params.items():
                digest.update(name.encode())
                digest.update(p.data.tobytes())
        digest.update(rng.bytes(8))
        assert digest.hexdigest() == \
            "e91ea2d54e9c16a17375f1857d1647ca61b8be2eff1d02deee794551a776ba1b"

    def test_noise_shape(self):
        g = GeneratorNet(small_config(noise_dim=3), np.random.default_rng(0),
                         1, 24)
        z = g.sample_noise(5, np.random.default_rng(0))
        assert z.shape == (5, 24, 3)
        assert z.dtype == np.float32


class TestLosses:
    def test_discriminator_loss_oracle(self):
        real = Tensor(np.array([0.9, 0.9]))
        fake = Tensor(np.array([0.1, 0.1]))
        assert discriminator_loss(real, fake).item() == pytest.approx(
            -2 * np.log(0.9), rel=1e-12)

    def test_coin_flip_discriminator(self):
        half = Tensor(np.array([0.5, 0.5, 0.5]))
        assert discriminator_loss(half, half).item() == pytest.approx(
            2 * np.log(2), rel=1e-12)

    def test_perfect_discriminator_near_zero(self):
        real = Tensor(np.array([1.0 - 1e-9]))
        fake = Tensor(np.array([1e-9]))
        assert discriminator_loss(real, fake).item() < 1e-8

    def test_generator_loss_oracle(self):
        assert generator_loss(Tensor(np.array([0.5]))).item() == \
            pytest.approx(np.log(2), rel=1e-12)
        assert generator_loss(Tensor(np.array([1.0]))).item() == \
            pytest.approx(0.0, abs=1e-12)

    def test_generator_loss_monotone_in_confidence(self):
        scores = np.linspace(0.05, 0.95, 19)
        losses = [generator_loss(Tensor(np.array([s]))).item()
                  for s in scores]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_clamps_keep_zero_score_finite(self):
        zero = Tensor(np.array([0.0]))
        one = Tensor(np.array([1.0]))
        assert np.isfinite(generator_loss(zero).item())
        assert np.isfinite(discriminator_loss(zero, one).item())

    def test_gradient_pushes_real_scores_up(self):
        real = Tensor(np.array([0.7, 0.8]), requires_grad=True)
        fake = Tensor(np.array([0.3, 0.2]), requires_grad=True)
        discriminator_loss(real, fake).backward()
        assert (real.grad < 0).all()   # descending the loss raises D(real)
        assert (fake.grad > 0).all()   # and lowers D(fake)


class TestGanTrain:
    def test_smoke_run_records_alternating_losses(self):
        beats = pulse_beats(32, label=2)
        cfg = small_config()
        g, d, history = gan_train(beats.X, 2, cfg, seed=0)
        # 2 steps per epoch x 2 epochs, one D and one G entry each
        assert len(history) == 8
        assert [tag for tag, _ in history] == ["D", "G"] * 4
        assert all(np.isfinite(value) for _, value in history)
        assert (g.label, g.beat_len) == (2, 24)
        sample = g.generate(3, np.random.default_rng(0))
        assert sample.shape == (3, 24)
        assert ((sample >= 0) & (sample <= 1)).all()
        assert d.score(sample).shape == (3,)

    def test_generator_step_leaves_discriminator_grads_alone(self,
                                                             monkeypatch):
        optimizers, d_grads, g_steps = [], {}, []

        class RecordingAdamW(AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

            def step(self):
                g_opt, d_opt = optimizers  # built generator first
                if self is d_opt:
                    d_grads.update((name, p.grad)
                                   for name, p in d_opt.params.items())
                else:
                    # the generator's backward ran since the D step
                    assert all(p.grad is not None
                               for p in g_opt.params.values())
                    g_steps.append(all(
                        d_opt.params[name].grad is grad
                        for name, grad in d_grads.items()))
                super().step()

        monkeypatch.setattr(gan, "AdamW", RecordingAdamW)
        gan_train(pulse_beats(32, label=2).X, 2, small_config(), seed=0)
        assert g_steps == [True] * 4

    def test_same_seed_same_run(self):
        beats = pulse_beats(32, label=1)
        runs = [gan_train(beats.X, 1, small_config(), seed=11)
                for _ in range(2)]
        assert runs[0][2] == runs[1][2]
        out = [g.generate(2, np.random.default_rng(1)) for g, _, _ in runs]
        np.testing.assert_array_equal(out[0], out[1])

    def test_too_few_beats(self):
        with pytest.raises(ConfigError):
            gan_train(pulse_beats(31, label=1).X, 1, small_config(), seed=17)

    def test_fewer_beats_than_batch(self):
        with pytest.raises(ConfigError):
            gan_train(pulse_beats(40, label=1).X, 1,
                      small_config(batch_size=64), seed=17)

    def test_one_sample_beats(self):
        beats = np.zeros((32, 1), dtype=np.float32)
        with pytest.raises(ConfigError, match="one length >= 2"):
            gan_train(beats, 1, small_config(), seed=17)

    def test_empty_input(self):
        with pytest.raises(ConfigError):
            gan_train(np.zeros((0, 24), dtype=np.float32), 1, small_config(),
                      seed=17)


class TestFrozenGeneratorSeparability:
    def test_discriminator_alone_separates_real_from_fake(self):
        # real beats carry a pulse; an untrained generator emits near-flat
        # traces, so a discriminator trained by itself should tell them apart
        cfg = small_config()
        rng = np.random.default_rng(1)
        g = GeneratorNet(cfg, rng, 1, 24)
        d = DiscriminatorNet(cfg, rng)
        real = pulse_beats(64, 1, seed=2).X
        fakes = g.generate(64, rng)
        opt = AdamW(d.params, 2e-3)
        for _ in range(120):
            rows = rng.permutation(64)[:16]
            d_real = d.forward(Tensor(real[rows]), training=True, rng=rng)
            d_fake = d.forward(Tensor(fakes[rows]), training=True, rng=rng)
            loss = discriminator_loss(d_real, d_fake)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert d.score(real).mean() > 0.9
        assert d.score(fakes).mean() < 0.1


class _StubGenerator:
    """Deterministic candidate source for exercising the filter loop."""

    def __init__(self, length=8, batch_size=16, label=1):
        self.config = GanTrainConfig(batch_size=batch_size)
        self.label = label
        self.length = length

    def generate(self, n, rng):
        return rng.random((n, self.length)).astype(np.float32)


class _StubDiscriminator:
    """Scores each candidate by its first sample."""

    def score(self, beats):
        return np.asarray(beats)[:, 0]


class _RejectAll:
    def score(self, beats):
        return np.zeros(len(beats))


class TestSynthesize:
    def test_zero_threshold_accepts_first_candidates(self):
        gen = _StubGenerator()
        out = synthesize(gen, _StubDiscriminator(), 10, tau=0.0, seed=3)
        expected = gen.generate(16, np.random.default_rng(3))[:10]
        np.testing.assert_array_equal(out, expected)

    def test_accepted_beats_satisfy_filter(self):
        gen = _StubGenerator()
        disc = _StubDiscriminator()
        out = synthesize(gen, disc, 25, tau=0.7, seed=4)
        assert len(out) == 25
        scores = disc.score(out)
        assert (scores >= 0.7).all()

    def test_fixed_seed_fixes_accepted_set(self):
        gen = _StubGenerator()
        runs = [synthesize(gen, _StubDiscriminator(), 12, tau=0.6, seed=7)
                for _ in range(2)]
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_budget_exhaustion_reports_acceptance_rate(self):
        with pytest.raises(AugmentError) as exc:
            synthesize(_StubGenerator(), _RejectAll(), 4, tau=0.5, seed=0)
        message = str(exc.value)
        assert "acceptance rate" in message
        assert "0/4" in message

    def test_hopeless_threshold_with_real_nets(self):
        cfg = small_config()
        rng = np.random.default_rng(0)
        g = GeneratorNet(cfg, rng, 2, 24)
        d = DiscriminatorNet(cfg, rng)
        # an untrained discriminator sits near 0.5, far below this bar
        with pytest.raises(AugmentError):
            synthesize(g, d, 3, tau=0.999, seed=1)

    def test_real_nets_produce_valid_beats(self):
        cfg = small_config()
        rng = np.random.default_rng(0)
        g = GeneratorNet(cfg, rng, 4, 24)
        d = DiscriminatorNet(cfg, rng)
        out = synthesize(g, d, 5, tau=0.0, seed=2)
        assert len(out) == 5
        for row in out:
            assert len(row) == 24
            assert row.min() >= 0.0 and row.max() <= 1.0

    def test_argument_validation(self):
        gen = _StubGenerator()
        disc = _StubDiscriminator()
        with pytest.raises(ConfigError):
            synthesize(gen, disc, 0, tau=0.5, seed=17)
        with pytest.raises(ConfigError):
            synthesize(gen, disc, 5, tau=1.5, seed=17)


def imbalanced_dataset(length=24):
    return concat([pulse_beats(12, 0, length, seed=0),
                   pulse_beats(4, 1, length, seed=1),
                   pulse_beats(7, 2, length, seed=2),
                   pulse_beats(2, 0, length, seed=3, split_tag="val"),
                   pulse_beats(1, 1, length, seed=4, split_tag="val"),
                   pulse_beats(2, 0, length, seed=5, split_tag="test")])


def nets_for(label, seed=0):
    cfg = small_config()
    rng = np.random.default_rng(seed)
    return GeneratorNet(cfg, rng, label, 24), DiscriminatorNet(cfg, rng)


def synthetic_from(dataset, nets, config, seed):
    """{label: rows} as the augment stage draws them: synthesize from each
    deficient class's pair in nets, on the seed [seed, label]."""
    deficits = balance_deficits(dataset, config)
    return {label: synthesize(*pair, deficits[label], tau=config.tau,
                              seed=[seed, label])
            for label, pair in nets.items() if label in deficits}


def balanced_from(dataset, nets, config, seed):
    return balance_dataset(dataset,
                           synthetic_from(dataset, nets, config, seed), config)


class TestBalanceDataset:
    def test_minorities_raised_to_majority(self):
        dataset = imbalanced_dataset()
        before = len(dataset)
        balanced = balanced_from(dataset, {1: nets_for(1), 2: nets_for(2)},
                                 GanTrainConfig(tau=0.0), seed=5)
        counts = balanced.counts_for_split("train")
        assert counts == {0: 12, 1: 12, 2: 12, 3: 0, 4: 0}
        present = [c for c in counts.values() if c]
        assert max(present) - min(present) <= 0.01 * max(present)
        # originals preserved in order, synthetic appended
        for column in ("X", "y", "split", "source"):
            np.testing.assert_array_equal(
                getattr(balanced, column)[:before], getattr(dataset, column))
        assert len(balanced) - before == 8 + 5
        assert all(source == "synthetic" and tag == "train"
                   for source, tag in zip(balanced.source[before:],
                                          balanced.split[before:]))

    def test_val_and_test_untouched(self):
        dataset = imbalanced_dataset()
        balanced = balanced_from(dataset, {1: nets_for(1), 2: nets_for(2)},
                                 GanTrainConfig(tau=0.0), seed=17)
        assert balanced.counts_for_split("val") == \
            dataset.counts_for_split("val")
        assert balanced.counts_for_split("test") == \
            dataset.counts_for_split("test")
        assert not any(source == "synthetic" and tag in ("val", "test")
                       for source, tag in zip(balanced.source,
                                              balanced.split))

    def test_missing_generator_named(self):
        with pytest.raises(ConfigError) as exc:
            balanced_from(imbalanced_dataset(), {2: nets_for(2)},
                          GanTrainConfig(tau=0.0), seed=17)
        assert "A" in str(exc.value)   # label 1 has no generator

    def test_deficient_class_without_rows_refused(self):
        rows = np.zeros((5, 24), dtype=np.float32)   # class V's deficit
        with pytest.raises(ConfigError, match="class A has 4 train beats, "
                                              "below the target 12, and no "
                                              "synthetic beats"):
            balance_dataset(imbalanced_dataset(), {2: rows},
                            GanTrainConfig())

    @pytest.mark.parametrize("shape", [(7, 24), (9, 24), (0, 24), (8, 23)])
    def test_rows_other_than_the_deficit_refused(self, shape):
        # class A lacks 8 beats of length 24 and class V lacks 5
        synthetic = {1: np.zeros(shape, dtype=np.float32),
                     2: np.zeros((5, 24), dtype=np.float32)}
        with pytest.raises(ShapeError, match=rf"class A needs synthetic beats "
                                             rf"of shape \[8, 24\], got "
                                             rf"\[{shape[0]}, {shape[1]}\]"):
            balance_dataset(imbalanced_dataset(), synthetic, GanTrainConfig())

    def test_balanced_input_returned_unchanged(self):
        dataset = concat([pulse_beats(6, 0, seed=0),
                          pulse_beats(6, 3, seed=1)])
        assert balance_dataset(dataset, {}, GanTrainConfig(tau=0.0)) \
            is dataset

    def test_partial_ratio_lowers_target(self):
        dataset = imbalanced_dataset()
        balanced = balanced_from(
            dataset, {1: nets_for(1)},
            GanTrainConfig(tau=0.0, balance_ratio=0.5), seed=17)
        counts = balanced.counts_for_split("train")
        assert counts == {0: 12, 1: 6, 2: 7, 3: 0, 4: 0}

    def test_ratio_bounds(self):
        with pytest.raises(ConfigError):
            balance_dataset(imbalanced_dataset(), {},
                            GanTrainConfig(balance_ratio=0.0))

    def test_no_train_split(self):
        dataset = pulse_beats(5, 0, split_tag="val")
        with pytest.raises(ConfigError):
            balance_dataset(dataset, {}, GanTrainConfig())

    def test_deterministic_given_seed(self):
        outs = []
        for _ in range(2):
            balanced = balanced_from(imbalanced_dataset(),
                                     {1: nets_for(1), 2: nets_for(2)},
                                     GanTrainConfig(tau=0.0), seed=9)
            train = balanced.split == "train"
            outs.append((balanced.X[train], balanced.y[train]))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        np.testing.assert_array_equal(outs[0][1], outs[1][1])


class TestSummary:
    def test_report_counts_and_percentages(self):
        report = class_count_report(imbalanced_dataset())
        assert report["N"]["count"] == 12
        assert report["A"]["count"] == 4
        assert report["N"]["percent"] == pytest.approx(100 * 12 / 23)
        assert sum(r["percent"] for r in report.values()) == pytest.approx(100)

    def test_empty_split_is_all_zero(self):
        report = class_count_report(beat_set([], []))
        assert all(r["count"] == 0 and r["percent"] == 0.0
                   for r in report.values())

    def test_summary_shape(self):
        dataset = imbalanced_dataset()
        balanced = balanced_from(dataset, {1: nets_for(1), 2: nets_for(2)},
                                 GanTrainConfig(tau=0.0), seed=17)
        summary = balance_summary(dataset, balanced)
        assert set(summary) == {"before", "after"}
        assert summary["before"]["A"]["count"] == 4
        assert summary["after"]["A"]["count"] == 12
