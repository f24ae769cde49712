"""Training recipe: focal loss, decoupled-decay Adam, a train loop that
halves the learning rate on a validation plateau and stops early, and the
per-architecture run configurations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import tensor as tk
from .artifacts import atomic_open
from .errors import ConfigError, NumericalError, UsageError
from .models import EVAL_BATCH_ROWS
from .tensor import Tensor

# batch size and learning rate per architecture; shared epoch budget 50 and
# early-stop patience 8
TABLE1 = {
    "cnn": {"batch_size": 128, "lr": 1.15e-3},
    "cnn_lstm": {"batch_size": 96, "lr": 1.0e-3},
    "cnn_lstm_attn": {"batch_size": 96, "lr": 1.0e-3},
    "resnet1d": {"batch_size": 96, "lr": 1.22e-3},
}
DEFAULT_EPOCHS = 50
DEFAULT_EARLY_STOP = 8

_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8
_PLATEAU_FACTOR = 0.5
_PLATEAU_PATIENCE = 3
_MIN_LR = 1e-6
# the margin a validation loss must improve by to reset the stagnant count
_MIN_IMPROVEMENT = 1e-8


def focal_loss(probabilities, targets, alpha=1.0, gamma=2.0):
    """Mean of -alpha * (1 - p_t)^gamma * log(p_t) over the batch.

    Expects class probabilities (rows summing to 1), not logits; p_t is
    clamped to 1e-12 before the log.  gamma=0 recovers plain cross-entropy.
    """
    if probabilities.data.ndim != 2:
        raise UsageError(f"probabilities must be [batch, classes], "
                         f"got {probabilities.data.shape}")
    n_classes = probabilities.data.shape[1]
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 1 or len(targets) != len(probabilities.data):
        raise UsageError("targets must be one class id per batch row")
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise UsageError(
            f"targets must lie in 0..{n_classes - 1}, got range "
            f"[{targets.min()}, {targets.max()}]")
    row_sums = probabilities.data.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-6:
        raise UsageError("probability rows must sum to 1; pass softmax "
                         "output, not logits")
    p_t = tk.clamp_min(tk.gather_rows(probabilities, targets), 1e-12)
    nll = tk.neg(tk.log(p_t))
    if gamma == 0.0:
        scaled = nll
    else:
        modulator = tk.pow_const(tk.add(tk.neg(p_t), 1.0), gamma)
        scaled = tk.mul(modulator, nll)
    if alpha != 1.0:
        scaled = tk.mul(scaled, alpha)
    return scaled.mean()


class AdamW:
    """Bias-corrected adaptive optimizer with decoupled weight decay.

    Parameters whose grad is unset are skipped entirely; a non-finite
    gradient aborts the step with the offending parameter's name.
    """

    def __init__(self, params, lr, weight_decay=1e-4):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = dict(params)
        self.lr = float(lr)
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data)
                   for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data)
                   for name, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.step_count += 1
        beta1, beta2 = _ADAM_BETAS
        bc1 = 1.0 - beta1 ** self.step_count
        bc2 = 1.0 - beta2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise NumericalError(
                    f"non-finite gradient in parameter {name!r}")
            m = self._m[name]
            v = self._v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)
            if self.weight_decay:
                # decoupled decay acts on the pre-step weights
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * update


@dataclass
class TrainRunConfig:
    arch: str
    batch_size: int
    lr: float
    epochs: int = DEFAULT_EPOCHS
    early_stop_patience: int = DEFAULT_EARLY_STOP
    weight_decay: float = 1e-4
    focal_alpha: float = 1.0
    focal_gamma: float = 2.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be > 0, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not self.weight_decay >= 0:
            raise ConfigError(f"weight_decay must be >= 0, "
                              f"got {self.weight_decay}")
        if self.focal_gamma < 0:
            raise ConfigError(f"focusing exponent must be >= 0, "
                              f"got {self.focal_gamma}")
        if self.focal_alpha <= 0:
            raise ConfigError(f"loss weight must be > 0, "
                              f"got {self.focal_alpha}")

    @classmethod
    def for_arch(cls, arch, **overrides):
        if arch not in TABLE1:
            raise ConfigError(f"no default run configuration for {arch!r}")
        merged = dict(TABLE1[arch])
        merged.update(overrides)
        return cls(arch=arch, **merged)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    train_acc: float
    val_acc: float


class TrainingHistory:
    CSV_HEADER = ["epoch", "train_loss", "val_loss", "train_acc", "val_acc"]

    def __init__(self):
        self.records = []
        self.best_epoch = None  # train sets it: the epoch of the kept weights

    def __len__(self):
        return len(self.records)

    def append(self, record):
        self.records.append(record)

    def to_csv(self, path):
        with atomic_open(path, "w") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.CSV_HEADER)
            for r in self.records:
                writer.writerow([r.epoch, repr(r.train_loss),
                                 repr(r.val_loss), repr(r.train_acc),
                                 repr(r.val_acc)])
        return path


def evaluate_split(model, X, y, alpha, gamma):
    """Eval-mode loss, accuracy and float32 logits [n, classes] over one
    split.  The logits are Model.logits_array's; the loss is averaged over
    the same EVAL_BATCH_ROWS chunks of them."""
    logits = model.logits_array(X)
    total_loss = 0.0
    for start in range(0, len(X), EVAL_BATCH_ROWS):
        chunk = logits[start:start + EVAL_BATCH_ROWS]
        probs = tk.softmax(Tensor(chunk), axis=-1)
        loss = focal_loss(probs, y[start:start + EVAL_BATCH_ROWS], alpha,
                          gamma)
        total_loss += loss.item() * len(chunk)
    correct = int((logits.argmax(axis=1) == y).sum())
    return total_loss / len(X), correct / len(X), logits


def train(model, dataset, run_config, seed):
    """Mini-batch training with a learning-rate plateau and early stopping.

    An epoch is stagnant unless its validation loss beats the best so far
    by more than _MIN_IMPROVEMENT.  One count of stagnant epochs since the
    best drives both rules: every _PLATEAU_PATIENCE-th stagnant epoch
    halves the learning rate (never below _MIN_LR), and the loop stops when
    the count reaches early_stop_patience.  history.best_epoch is the epoch
    that last reset the count, or the last epoch when none improved.

    seed fixes the shuffle and the dropout draws.  The dataset must carry
    train/val split tags.  Each batch is gathered from the dataset's X by
    row index, so no copy of the train split is made.  The model is
    updated in place and ends holding the weights of history.best_epoch.
    Returns (model, history, val_logits): the val split's logits at that
    epoch, the bytes model.logits_array would give on those rows, so no
    caller scores them again.
    """
    train_rows = np.flatnonzero(dataset.split == "train")
    val_rows = np.flatnonzero(dataset.split == "val")
    if len(train_rows) == 0:
        raise ConfigError("training split is empty; run the splitter first")
    if len(val_rows) == 0:
        raise ConfigError("validation split is empty; run the splitter first")
    X_val, y_val = dataset.X[val_rows], dataset.y[val_rows]
    rng = np.random.default_rng(seed)
    optimizer = AdamW(model.parameters(), lr=run_config.lr,
                      weight_decay=run_config.weight_decay)
    history = TrainingHistory()
    best_val = np.inf
    best_state = None
    stagnant = 0
    n = len(train_rows)
    for epoch in range(1, run_config.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, n, run_config.batch_size):
            idx = train_rows[order[start:start + run_config.batch_size]]
            xb = dataset.X[idx]
            yb = dataset.y[idx]
            logits = model.forward(Tensor(xb.reshape(len(xb), 1, -1)),
                                   training=True, rng=rng)
            probs = tk.softmax(logits, axis=-1)
            loss = focal_loss(probs, yb, run_config.focal_alpha,
                              run_config.focal_gamma)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item() * len(xb)
            epoch_correct += int((np.argmax(logits.data, axis=1) == yb).sum())
        val_loss, val_acc, val_logits = evaluate_split(
            model, X_val, y_val, run_config.focal_alpha,
            run_config.focal_gamma)
        history.append(EpochRecord(epoch, epoch_loss / n, val_loss,
                                   epoch_correct / n, val_acc))
        if val_loss < best_val - _MIN_IMPROVEMENT:
            best_val = val_loss
            history.best_epoch = epoch
            best_state = {k: v.copy()
                          for k, v in model.state_arrays().items()}
            best_logits = val_logits
            stagnant = 0
        else:
            stagnant += 1
            if stagnant % _PLATEAU_PATIENCE == 0:
                optimizer.lr = max(optimizer.lr * _PLATEAU_FACTOR, _MIN_LR)
            if stagnant >= run_config.early_stop_patience:
                break
    if best_state is None:  # no epoch improved: the model keeps the last
        history.best_epoch = len(history)
        return model, history, val_logits
    model.load_state_arrays(best_state)
    return model, history, best_logits
