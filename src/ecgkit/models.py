"""The four beat-classifier architectures, assembled from kernel primitives.

A ModelDescriptor fully determines parameter names and shapes, so checkpoints
can validate and rebuild models from it.  Each architecture is defined once,
by its forward pass: the pass declares every parameter where it reads it,
and `build` runs it once to draw them.  All architectures consume a batch
shaped [b, 1, input_len] and emit logits [b, n_classes].  Inside, the input
becomes [b, input_len, 1] and every layer runs channels-last on
[b, time, channels], the layout of the tensor ops.  The pass is
head(trunk(x)): the trunk's conv or residual blocks make the feature map
Grad-CAM reads, and the head pools it and applies the dense layer.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as tk
from .errors import ConfigError, ShapeError
from .tensor import RunningStats, Tensor

ARCHITECTURES = ("cnn", "cnn_lstm", "cnn_lstm_attn", "resnet1d")

# shortest beat every architecture can take
MIN_INPUT_LEN = 8

EVAL_BATCH_ROWS = 256

_DEFAULT_PLANS = {
    "cnn": (128, 64, 32),
    "cnn_lstm": (64, 32),
    "cnn_lstm_attn": (64, 32),
    "resnet1d": (32, 64, 128),
}

# smallest accepted value of each integer descriptor field
_INT_FLOORS = {
    "input_len": MIN_INPUT_LEN,
    "n_classes": 2,
    "lstm_hidden": 1,
    "lstm_layers": 1,
    "attention_dim": 1,
    "blocks_per_stage": 1,
}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class ModelDescriptor:
    arch: str
    input_len: int = 187
    n_classes: int = 5
    channel_plan: tuple = None
    lstm_hidden: int = 64
    lstm_layers: int = 2
    lstm_dropout: float = 0.2
    attention_dim: int = 64
    blocks_per_stage: int = 2

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.arch!r}; "
                              f"known: {list(ARCHITECTURES)}")
        if self.channel_plan is None:
            self.channel_plan = _DEFAULT_PLANS[self.arch]
        plan = self.channel_plan
        if not isinstance(plan, (list, tuple)) or not plan or \
                not all(_is_int(c) and c >= 1 for c in plan):
            raise ConfigError(f"bad channel plan {plan!r}")
        self.channel_plan = tuple(plan)
        for name, floor in _INT_FLOORS.items():
            value = getattr(self, name)
            if not _is_int(value) or value < floor:
                raise ConfigError(f"{name} must be an integer >= {floor}, "
                                  f"got {value!r}")
        rate = self.lstm_dropout
        if not isinstance(rate, (int, float)) or isinstance(rate, bool) or \
                not 0 <= rate < 1:
            raise ConfigError(f"lstm_dropout must lie in [0, 1), got {rate!r}")

    def to_dict(self):
        d = asdict(self)
        d["channel_plan"] = list(self.channel_plan)
        return d


def _init_value(name, shape, rng):
    leaf = name.rsplit(".", 1)[-1]
    if leaf == "gamma":
        return np.ones(shape, dtype=np.float32)
    if leaf == "beta":
        return np.zeros(shape, dtype=np.float32)
    if leaf in ("w_ih", "w_hh"):
        bound = 1.0 / math.sqrt(shape[0] // 4)
        return rng.uniform(-bound, bound, shape).astype(np.float32)
    if leaf == "b" and name.startswith("lstm."):
        hidden = shape[0] // 4
        bias = np.zeros(shape, dtype=np.float32)
        bias[hidden:2 * hidden] = 1.0  # forget gate starts open
        return bias
    if leaf in ("b", "b_h"):
        return np.zeros(shape, dtype=np.float32)
    # conv/dense weights and the attention projection: fan-in uniform
    fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else int(shape[0])
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape).astype(np.float32)


class Params(dict):
    """Trainable tensors by name, declared where a forward pass reads them.

    While declaring, the first read of a name draws its initial value from
    rng, so tensors are drawn in the order the forward pass reads them; with
    rng None it is filled with zeros instead.  Otherwise a read only looks
    the name up.  Given shapes, a dict of name -> shape, declaring refuses
    any array it does not name with that shape before allocating it.
    """

    declaring = False
    rng = None
    shapes = None

    def declare(self, rng, forward, shape, shapes=None):
        """Declare every tensor forward reads: one untaped pass over zeros
        of shape, after which rng and shapes are dropped."""
        self.declaring, self.rng, self.shapes = True, rng, shapes
        with tk.no_grad():
            forward(Tensor(np.zeros(shape, dtype=np.float32)))
        self.declaring, self.rng, self.shapes = False, None, None

    def admit(self, name, shape):
        """Refuse to declare name at shape unless shapes lists it so."""
        if self.shapes is not None and self.shapes.get(name) != list(shape):
            raise ConfigError(f"its arrays list has no {name} of shape "
                              f"{list(shape)}, which the descriptor declares")

    @contextmanager
    def frozen(self):
        """Run the block with requires_grad off on every tensor: the tape
        reads it when an op runs, so the block's ops link to none of them."""
        for p in self.values():
            p.requires_grad = False
        try:
            yield
        finally:
            for p in self.values():
                p.requires_grad = True

    def param(self, name, shape):
        if self.declaring and name not in self:
            self.admit(name, shape)
            if self.rng is None:
                value = np.zeros(shape, dtype=np.float32)
            else:
                value = _init_value(name, shape, self.rng)
            self[name] = Tensor(value, requires_grad=True)
        return self[name]

    def dense(self, x, prefix, width):
        """x[batch, d] mapped to width outputs by prefix.w and prefix.b."""
        return tk.dense(x, self.param(f"{prefix}.w", (width, x.data.shape[1])),
                        self.param(f"{prefix}.b", (width,)))

    def lstm_layer(self, prefix, d_in, hidden):
        """One bidirectional LSTM layer as tk.bilstm takes it."""
        shapes = {"w_ih": (4 * hidden, d_in), "w_hh": (4 * hidden, hidden),
                  "b": (4 * hidden,)}
        return {direction: {key: self.param(f"{prefix}.{direction}.{key}",
                                            shape)
                            for key, shape in shapes.items()}
                for direction in ("fwd", "bwd")}


class Model:
    """The forward pass of one architecture and the state it declares."""

    def __init__(self, descriptor):
        self.descriptor = descriptor
        self.params = Params()
        self.stats = {}

    def parameters(self):
        return self.params

    def named_buffers(self):
        for prefix in sorted(self.stats):
            yield f"{prefix}.mean", self.stats[prefix].mean
            yield f"{prefix}.var", self.stats[prefix].var

    def state_arrays(self):
        """All learned state as name -> array, parameters then buffers."""
        out = {name: p.data for name, p in self.params.items()}
        out.update(dict(self.named_buffers()))
        return out

    def load_state_arrays(self, arrays):
        for name, p in self.params.items():
            p.data = np.array(arrays[name], dtype=np.float32)
        for name, buf in self.named_buffers():
            buf[...] = arrays[name]

    def forward(self, x, training=False, rng=None):
        """Logits [b, n_classes] for a batch x[b, 1, input_len]."""
        return self.head(self.trunk(x, training), training, rng)

    def trunk(self, x, training=False):
        """The convolutional feature map [b, time, channels] of x[b, 1,
        input_len], the map Grad-CAM reads."""
        if x.data.ndim != 3 or x.data.shape[1] != 1:
            raise ShapeError(f"expected input [batch, 1, len], "
                             f"got {x.data.shape}")
        # while declaring, build checks the plan against the shortest beat
        if x.data.shape[2] != self.descriptor.input_len and \
                not self.params.declaring:
            raise ShapeError(
                f"input length {x.data.shape[2]} != descriptor length "
                f"{self.descriptor.input_len}")
        # one channel, so [b, 1, len] -> [b, len, 1] moves no data
        h = tk.reshape(x, (x.data.shape[0], x.data.shape[2], 1))
        plan = self.descriptor.channel_plan
        if self.descriptor.arch != "resnet1d":
            for i, c_out in enumerate(plan):
                h = self._conv_norm_pool(h, f"block{i}", c_out, training)
            return h
        h = self._bn(self._conv(h, "stem.conv", plan[0], 7, stride=2,
                                padding=3),
                     "stem.bn", training, "relu")
        h = tk.max_pool1d(h, 2, 2)
        for stage, c_out in enumerate(plan):
            for block in range(self.descriptor.blocks_per_stage):
                stride = 2 if stage > 0 and block == 0 else 1
                h = self._residual_block(h, f"res{stage}.{block}", c_out,
                                         stride, training)
        return h

    def head(self, h, training=False, rng=None):
        """Logits for a feature map h[b, time, channels]: pooling, or the
        BiLSTM and its pooling, then the dense layer."""
        d = self.descriptor
        if d.arch in ("cnn", "resnet1d"):
            return self.params.dense(h.mean(axis=1), "head", d.n_classes)
        layers = [self.params.lstm_layer(
            f"lstm.l{layer}", 2 * d.lstm_hidden if layer else h.data.shape[2],
            d.lstm_hidden) for layer in range(d.lstm_layers)]
        hidden = tk.bilstm(h, layers, dropout_rate=d.lstm_dropout,
                           training=training, rng=rng)
        if d.arch == "cnn_lstm":
            return self.params.dense(hidden.mean(axis=1), "head", d.n_classes)
        attn = d.attention_dim
        context, _ = tk.attention_pool(
            hidden,
            self.params.param("attn.w_h", (attn, hidden.data.shape[2])),
            self.params.param("attn.b_h", (attn,)),
            self.params.param("attn.v", (attn,)))
        return self.params.dense(context, "head", d.n_classes)

    def _conv(self, h, prefix, c_out, kernel, stride=1, padding=0):
        shape = (c_out, h.data.shape[2], kernel)
        return tk.conv1d(h, self.params.param(f"{prefix}.w", shape),
                         self.params.param(f"{prefix}.b", (c_out,)),
                         stride=stride, padding=padding)

    def _bn(self, h, prefix, training, activation=None):
        channels = h.data.shape[2]
        gamma = self.params.param(f"{prefix}.gamma", (channels,))
        beta = self.params.param(f"{prefix}.beta", (channels,))
        if self.params.declaring:  # the buffers come too
            for buffer in ("mean", "var"):
                self.params.admit(f"{prefix}.{buffer}", (channels,))
            self.stats[prefix] = RunningStats(channels)
        return tk.batch_norm1d(h, gamma, beta, self.stats[prefix], training,
                               activation=activation)

    def _shortcut(self, source, prefix, c_out, stride):
        """source, or its 1x1 projection when the block changes the channel
        count or the stride."""
        if source.data.shape[2] != c_out or stride != 1:
            return self._conv(source, prefix, c_out, 1, stride=stride)
        return source

    def _conv_norm_pool(self, h, prefix, c_out, training):
        source = h
        h = self._bn(self._conv(h, f"{prefix}.conv1", c_out, 5, padding=2),
                     f"{prefix}.bn1", training, "swish")
        h = self._bn(self._conv(h, f"{prefix}.conv2", c_out, 5, padding=2),
                     f"{prefix}.bn2", training, "swish")
        h = tk.add(h, self._shortcut(source, f"{prefix}.skip", c_out, 1))
        return tk.max_pool1d(h, 2, 2)

    def _residual_block(self, h, prefix, c_out, stride, training):
        source = h
        h = self._bn(self._conv(h, f"{prefix}.conv1", c_out, 3, stride=stride,
                                padding=1),
                     f"{prefix}.bn1", training, "relu")
        h = self._bn(self._conv(h, f"{prefix}.conv2", c_out, 3, padding=1),
                     f"{prefix}.bn2", training)
        # no activation after the sum: F(x) = 0 must give exactly x
        return tk.add(h, self._shortcut(source, f"{prefix}.down", c_out,
                                        stride))

    def logits_array(self, X):
        """Eval-mode logits for a [n, len] float array, without taping."""
        X = np.asarray(X, dtype=np.float32)
        out = np.empty((len(X), self.descriptor.n_classes), dtype=np.float32)
        with tk.no_grad():
            for start in range(0, len(X), EVAL_BATCH_ROWS):
                chunk = X[start:start + EVAL_BATCH_ROWS]
                batch = Tensor(chunk.reshape(len(chunk), 1, -1))
                out[start:start + len(chunk)] = self.forward(batch).data
        return out


def build(descriptor, seed, shapes=None):
    """Initialize a model; same descriptor and seed give identical bits.

    One eval pass over a MIN_INPUT_LEN beat declares every parameter; no
    shape depends on the beat length.  seed None draws nothing and fills
    the parameters with zeros, for a caller that overwrites every value.
    shapes, a dict of name -> shape list, bounds what the pass allocates:
    the first parameter or buffer it does not list so raises ConfigError.
    """
    model = Model(descriptor)
    model.params.declare(
        None if seed is None else np.random.default_rng(seed), model.forward,
        (1, 1, MIN_INPUT_LEN), shapes)
    return model
