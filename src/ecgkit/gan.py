"""Recurrent GAN for minority-class beat synthesis.

One generator/discriminator pair is trained per underrepresented class on
that class's real beats only. Trained generators then produce candidate
beats which are kept only when the discriminator scores them at or above a
confidence threshold, and the accepted beats top the training split up to
the majority-class count. Validation and test splits are never touched.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as tk
from .beats import CLASS_NAMES, BeatDataset, concat
from .errors import AugmentError, ConfigError, ShapeError
from .models import Params
from .tensor import Tensor
from .training import AdamW

MIN_REAL_BEATS = 32

# hard cap on candidate draws per requested beat; keeps synthesis finite
# even when the discriminator rejects almost everything
ATTEMPT_BUDGET_FACTOR = 50


@dataclass
class GanTrainConfig:
    """Hyperparameters shared by the generator and discriminator."""

    noise_dim: int = 1
    epochs: int = 200
    batch_size: int = 32
    g_lr: float = 2e-4
    d_lr: float = 2e-4
    tau: float = 0.5
    hidden: int = 32
    dense_width: int = 64
    dropout: float = 0.2
    balance_ratio: float = 1.0

    def __post_init__(self):
        if self.noise_dim < 1:
            raise ConfigError(f"noise width must be >= 1, got {self.noise_dim}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.g_lr <= 0 or self.d_lr <= 0:
            raise ConfigError("learning rates must be positive")
        _check_tau(self.tau)
        if self.hidden < 1 or self.dense_width < 1:
            raise ConfigError("hidden and dense widths must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not 0.0 < self.balance_ratio <= 1.0:
            raise ConfigError(
                f"balance ratio must lie in (0, 1], got {self.balance_ratio}")


def _check_tau(tau):
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"acceptance threshold must lie in [0, 1], got {tau}")


class _RecurrentNet:
    """Shared trunk: bidirectional LSTM encoder, time-mean summary, then a
    hidden dense layer with LeakyReLU and dropout."""

    def __init__(self, config, rng, in_dim, out_dim):
        self.config = config
        self.out_dim = out_dim
        self.params = Params()
        self.params.declare(rng, lambda x: self._encode(x, False, None),
                            (1, 1, in_dim))

    def _encode(self, sequence, training, rng):
        layer = self.params.lstm_layer("lstm", sequence.data.shape[2],
                                       self.config.hidden)
        summary = tk.bilstm(sequence, [layer]).mean(axis=1)
        hidden = tk.leaky_relu(
            self.params.dense(summary, "fc", self.config.dense_width))
        hidden = tk.dropout(hidden, self.config.dropout, training, rng)
        return self.params.dense(hidden, "out", self.out_dim)


class GeneratorNet(_RecurrentNet):
    """Maps a noise sequence to one beat of class label in [0, 1] per row;
    noise and beat span the same beat_len time steps."""

    def __init__(self, config, rng, label, beat_len):
        super().__init__(config, rng, config.noise_dim, beat_len)
        self.label = label
        self.beat_len = beat_len

    def sample_noise(self, n, rng):
        shape = (n, self.beat_len, self.config.noise_dim)
        return rng.standard_normal(shape).astype(np.float32)

    def forward(self, noise, training=False, rng=None):
        return tk.sigmoid(self._encode(noise, training, rng))

    def generate(self, n, rng):
        """Draw n beats as a float32 array [n, beat_len]."""
        noise = self.sample_noise(n, rng)
        with tk.no_grad():
            out = self.forward(Tensor(noise), training=False)
        return out.data


class DiscriminatorNet(_RecurrentNet):
    """Scores beats with an authenticity estimate in (0, 1)."""

    def __init__(self, config, rng):
        super().__init__(config, rng, 1, 1)

    def forward(self, beats, training=False, rng=None):
        batch, length = beats.data.shape
        sequence = tk.reshape(beats, (batch, length, 1))
        logits = self._encode(sequence, training, rng)
        return tk.reshape(tk.sigmoid(logits), (batch,))

    def score(self, beats):
        """Authenticity scores for a float array [n, beat_len]."""
        with tk.no_grad():
            out = self.forward(Tensor(np.asarray(beats, dtype=np.float32)),
                               training=False)
        return out.data


def discriminator_loss(real_scores, fake_scores):
    """Negated log-likelihood of calling real beats real and fakes fake."""
    real_term = tk.log(tk.clamp_min(real_scores, 1e-12)).mean()
    flipped = tk.add(1.0, tk.neg(fake_scores))
    fake_term = tk.log(tk.clamp_min(flipped, 1e-12)).mean()
    return tk.neg(tk.add(real_term, fake_term))


def generator_loss(fake_scores):
    """Non-saturating objective: push the discriminator's score on fakes up
    by descending -log D(fake) instead of ascending log(1 - D(fake))."""
    return tk.neg(tk.log(tk.clamp_min(fake_scores, 1e-12)).mean())


def gan_train(real, label, config, seed):
    """Adversarially train a generator/discriminator pair on one class.

    real is the class's beats as a float32 matrix [n, L]. Each step first
    updates the discriminator on a real batch plus detached fakes, then
    updates the generator against the refreshed discriminator. Returns
    (generator, discriminator, history) where history holds one ("D", loss)
    and one ("G", loss) entry per step, in update order. The generator
    draws beats of class label and length L.
    """
    n, beat_len = real.shape
    if n < MIN_REAL_BEATS:
        raise ConfigError(
            f"adversarial training needs at least {MIN_REAL_BEATS} real "
            f"beats, got {n}")
    if n < config.batch_size:
        raise ConfigError(
            f"{n} beats cannot fill a batch of {config.batch_size}")
    if beat_len < 2:
        raise ConfigError(f"beats must share one length >= 2, got lengths "
                          f"[{beat_len}]")

    rng = np.random.default_rng(seed)
    generator = GeneratorNet(config, rng, label, beat_len)
    discriminator = DiscriminatorNet(config, rng)
    g_opt = AdamW(generator.params, config.g_lr)
    d_opt = AdamW(discriminator.params, config.d_lr)

    history = []
    steps_per_epoch = n // config.batch_size
    batch = config.batch_size
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for step in range(steps_per_epoch):
            rows = order[step * batch:(step + 1) * batch]
            real_batch = Tensor(real[rows])

            # discriminator update; fakes are detached so only D moves
            noise = generator.sample_noise(batch, rng)
            with tk.no_grad():
                fake_data = generator.forward(
                    Tensor(noise), training=True, rng=rng).data
            d_real = discriminator.forward(real_batch, training=True, rng=rng)
            d_fake = discriminator.forward(
                Tensor(fake_data), training=True, rng=rng)
            loss_d = discriminator_loss(d_real, d_fake)
            d_opt.zero_grad()
            loss_d.backward()
            d_opt.step()
            history.append(("D", float(loss_d.item())))

            # generator update through the frozen-for-this-step discriminator,
            # whose parameters stay off the tape so backward skips them
            noise = generator.sample_noise(batch, rng)
            fake = generator.forward(Tensor(noise), training=True, rng=rng)
            with discriminator.params.frozen():
                scores = discriminator.forward(fake, training=True, rng=rng)
            loss_g = generator_loss(scores)
            g_opt.zero_grad()
            loss_g.backward()
            g_opt.step()
            history.append(("G", float(loss_g.item())))
    return generator, discriminator, history


def synthesize(generator, discriminator, n_needed, tau, seed):
    """Draw candidate beats and keep those scoring at least tau, in draw
    order, as an array [n_needed, L].

    Stops once n_needed beats are accepted; gives up with an AugmentError
    after examining ATTEMPT_BUDGET_FACTOR * n_needed candidates.
    """
    if n_needed < 1:
        raise ConfigError(f"requested beat count must be >= 1, got {n_needed}")
    _check_tau(tau)

    rng = np.random.default_rng(seed)
    budget = ATTEMPT_BUDGET_FACTOR * n_needed
    chunk = min(max(generator.config.batch_size, 32), 256)
    blocks = []
    accepted = attempts = 0
    while accepted < n_needed and attempts < budget:
        draws = min(chunk, budget - attempts)
        candidates = generator.generate(draws, rng)
        hits = np.flatnonzero(discriminator.score(candidates) >= tau)
        blocks.append(candidates[hits[:n_needed - accepted]])
        accepted += len(blocks[-1])
        attempts += draws
    if accepted < n_needed:
        rate = accepted / attempts
        raise AugmentError(
            f"gave up after {attempts} candidate draws with "
            f"{accepted}/{n_needed} beats accepted "
            f"(acceptance rate {rate:.1%}); lower tau or train longer")
    return np.concatenate(blocks)


def balance_deficits(dataset, config):
    """Beats each class lacks in the train split to reach the balance target.

    The target is the majority-class train count scaled by
    config.balance_ratio. Returns {label: target - count} for every class
    present in the train split but below target, in label order; classes
    absent from the train split entirely are left alone.
    """
    counts = dataset.counts_for_split("train")
    majority = max(counts.values())
    if majority == 0:
        raise ConfigError("dataset has no beats tagged train")
    target = int(round(majority * config.balance_ratio))
    return {label: target - count for label, count in sorted(counts.items())
            if 0 < count < target}


def balance_dataset(dataset, synthetic, config):
    """Top every deficient class in the train split up to the balance target.

    balance_deficits decides which classes fall short and by how much.
    synthetic maps class label to its synthesized beats, an [n, L] array
    with one row per missing beat (what synthesize returns); a class below
    target without rows, or with rows of another count or length, is an
    error. Returns a new dataset: the input rows in order, then the
    synthetic beats in label order, tagged train and synthetic.
    """
    deficits = balance_deficits(dataset, config)
    counts = dataset.counts_for_split("train")
    parts = [dataset]
    for label, needed in deficits.items():
        if label not in synthetic:
            raise ConfigError(
                f"class {CLASS_NAMES[label]} has {counts[label]} train beats, "
                f"below the target {counts[label] + needed}, and no "
                f"synthetic beats")
        rows = synthetic[label]
        want = (needed, dataset.X.shape[1])
        if np.shape(rows) != want:
            raise ShapeError(
                f"class {CLASS_NAMES[label]} needs synthetic beats of shape "
                f"{list(want)}, got {list(np.shape(rows))}")
        parts.append(BeatDataset(rows, np.full(needed, label),
                                 np.full(needed, "train", dtype=object),
                                 np.full(needed, "synthetic", dtype=object)))
    return concat(parts) if deficits else dataset


def class_count_report(dataset):
    """Per-class counts and percentages for the train split."""
    counts = dataset.counts_for_split("train")
    total = sum(counts.values())
    report = {}
    for label in sorted(counts):
        count = counts[label]
        percent = 100.0 * count / total if total else 0.0
        report[CLASS_NAMES[label]] = {"count": count, "percent": percent}
    return report


def balance_summary(before, after):
    """Pre/post augmentation class distribution, ready for serialization."""
    return {"before": class_count_report(before),
            "after": class_count_report(after)}
