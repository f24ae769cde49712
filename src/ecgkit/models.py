"""The four beat-classifier architectures, assembled from kernel primitives.

A ModelDescriptor fully determines parameter names and shapes, so checkpoints
can validate and rebuild models from it.  All architectures consume a batch
shaped [b, 1, input_len] and emit logits [b, n_classes].  Inside, the input
becomes [b, input_len, 1] and every layer runs channels-last on
[b, time, channels], the layout of the tensor ops.
"""

from __future__ import annotations

import math
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
        self.channel_plan = tuple(int(c) for c in self.channel_plan)
        if not self.channel_plan or any(c < 1 for c in self.channel_plan):
            raise ConfigError(f"bad channel plan {self.channel_plan}")
        if self.input_len < MIN_INPUT_LEN:
            raise ConfigError(f"input length {self.input_len} too short, "
                              f"need >= {MIN_INPUT_LEN}")
        if self.n_classes < 2:
            raise ConfigError("need at least 2 output classes")
        if self.arch in ("cnn_lstm", "cnn_lstm_attn"):
            if self.lstm_hidden < 1 or self.lstm_layers < 1:
                raise ConfigError("recurrent sizes must be positive")

    def to_dict(self):
        d = asdict(self)
        d["channel_plan"] = list(self.channel_plan)
        return d

    @classmethod
    def from_dict(cls, d):
        allowed = set(cls.__dataclass_fields__)
        unknown = set(d) - allowed
        if unknown:
            raise ConfigError(f"unknown descriptor keys {sorted(unknown)}")
        if "arch" not in d:
            raise ConfigError("descriptor lacks an arch field")
        return cls(**d)


def _lstm_layer_shapes(prefix, d_in, hidden):
    """Shapes of one bidirectional LSTM layer's weights under prefix."""
    shapes = {}
    for direction in ("fwd", "bwd"):
        shapes[f"{prefix}.{direction}.w_ih"] = (4 * hidden, d_in)
        shapes[f"{prefix}.{direction}.w_hh"] = (4 * hidden, hidden)
        shapes[f"{prefix}.{direction}.b"] = (4 * hidden,)
    return shapes


def _lstm_layer_params(params, prefix):
    """One bilstm layer entry, {direction: {w_ih, w_hh, b}}, from params."""
    return {direction: {key: params[f"{prefix}.{direction}.{key}"]
                        for key in ("w_ih", "w_hh", "b")}
            for direction in ("fwd", "bwd")}


def _walk(descriptor):
    """Single source of truth for parameter shapes and norm-layer channels."""
    shapes = {}
    norms = {}

    def conv(prefix, c_out, c_in, kernel):
        shapes[f"{prefix}.w"] = (c_out, c_in, kernel)
        shapes[f"{prefix}.b"] = (c_out,)

    def norm(prefix, channels):
        shapes[f"{prefix}.gamma"] = (channels,)
        shapes[f"{prefix}.beta"] = (channels,)
        norms[prefix] = channels

    def conv_norm_pool(prefix, c_in, c_out):
        conv(f"{prefix}.conv1", c_out, c_in, 5)
        norm(f"{prefix}.bn1", c_out)
        conv(f"{prefix}.conv2", c_out, c_out, 5)
        norm(f"{prefix}.bn2", c_out)
        if c_in != c_out:
            conv(f"{prefix}.skip", c_out, c_in, 1)

    def lstm_stack(first_in):
        hidden = descriptor.lstm_hidden
        d_in = first_in
        for layer in range(descriptor.lstm_layers):
            shapes.update(_lstm_layer_shapes(f"lstm.l{layer}", d_in, hidden))
            d_in = 2 * hidden

    plan = descriptor.channel_plan
    arch = descriptor.arch
    if arch == "resnet1d":
        conv("stem.conv", plan[0], 1, 7)
        norm("stem.bn", plan[0])
        c_in = plan[0]
        for stage, c_out in enumerate(plan):
            for block in range(descriptor.blocks_per_stage):
                prefix = f"res{stage}.{block}"
                stride = 2 if stage > 0 and block == 0 else 1
                conv(f"{prefix}.conv1", c_out, c_in, 3)
                norm(f"{prefix}.bn1", c_out)
                conv(f"{prefix}.conv2", c_out, c_out, 3)
                norm(f"{prefix}.bn2", c_out)
                if c_in != c_out or stride != 1:
                    conv(f"{prefix}.down", c_out, c_in, 1)
                c_in = c_out
        head_in = plan[-1]
    else:
        c_in = 1
        for i, c_out in enumerate(plan):
            conv_norm_pool(f"block{i}", c_in, c_out)
            c_in = c_out
        if arch in ("cnn_lstm", "cnn_lstm_attn"):
            lstm_stack(plan[-1])
            head_in = 2 * descriptor.lstm_hidden
            if arch == "cnn_lstm_attn":
                shapes["attn.w_h"] = (descriptor.attention_dim, head_in)
                shapes["attn.b_h"] = (descriptor.attention_dim,)
                shapes["attn.v"] = (descriptor.attention_dim,)
        else:
            head_in = plan[-1]
    shapes["head.w"] = (descriptor.n_classes, head_in)
    shapes["head.b"] = (descriptor.n_classes,)
    return shapes, norms


def param_shapes(descriptor):
    return _walk(descriptor)[0]


def norm_layers(descriptor):
    return _walk(descriptor)[1]


def _init_value(name, shape, rng, lstm_hidden):
    leaf = name.rsplit(".", 1)[-1]
    if leaf == "gamma":
        return np.ones(shape, dtype=np.float32)
    if leaf == "beta":
        return np.zeros(shape, dtype=np.float32)
    if leaf in ("w_ih", "w_hh"):
        bound = 1.0 / math.sqrt(lstm_hidden)
        return rng.uniform(-bound, bound, shape).astype(np.float32)
    if leaf == "b" and name.startswith("lstm."):
        bias = np.zeros(shape, dtype=np.float32)
        bias[lstm_hidden:2 * lstm_hidden] = 1.0  # forget gate starts open
        return bias
    if leaf in ("b", "b_h"):
        return np.zeros(shape, dtype=np.float32)
    # conv/dense weights and the attention projection: fan-in uniform
    fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else int(shape[0])
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape).astype(np.float32)


def _init_params(shapes, rng, lstm_hidden):
    """Trainable tensors for a name -> shape dict, drawn in dict order."""
    return {name: Tensor(_init_value(name, shape, rng, lstm_hidden),
                         requires_grad=True, name=name)
            for name, shape in shapes.items()}


class Model:
    """Parameter holder plus the forward pass for one architecture."""

    def __init__(self, descriptor, params, stats):
        self.descriptor = descriptor
        self.params = params
        self.stats = stats

    def parameters(self):
        return self.params

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

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

    def forward(self, x, training=False, rng=None, capture=None):
        if x.data.ndim != 3 or x.data.shape[1] != 1:
            raise ShapeError(f"expected input [batch, 1, len], "
                             f"got {x.data.shape}")
        if x.data.shape[2] != self.descriptor.input_len:
            raise ShapeError(
                f"input length {x.data.shape[2]} != descriptor length "
                f"{self.descriptor.input_len}")
        # one channel, so [b, 1, len] -> [b, len, 1] moves no data
        x = tk.reshape(x, (x.data.shape[0], x.data.shape[2], 1))
        arch = self.descriptor.arch
        if arch == "cnn":
            return self._forward_cnn(x, training, capture)
        if arch == "resnet1d":
            return self._forward_resnet(x, training, capture)
        return self._forward_recurrent(x, training, rng, capture)

    def _bn(self, h, prefix, training, activation=None):
        return tk.batch_norm1d(h, self.params[f"{prefix}.gamma"],
                               self.params[f"{prefix}.beta"],
                               self.stats[prefix], training,
                               activation=activation)

    def _conv(self, h, prefix, stride=1, padding=0):
        return tk.conv1d(h, self.params[f"{prefix}.w"],
                         self.params[f"{prefix}.b"], stride=stride,
                         padding=padding)

    def _conv_norm_pool(self, h, prefix, training):
        source = h
        h = self._bn(self._conv(h, f"{prefix}.conv1", padding=2),
                     f"{prefix}.bn1", training, "swish")
        h = self._bn(self._conv(h, f"{prefix}.conv2", padding=2),
                     f"{prefix}.bn2", training, "swish")
        if f"{prefix}.skip.w" in self.params:
            source = self._conv(source, f"{prefix}.skip")
        h = tk.add(h, source)
        return tk.max_pool1d(h, 2, 2)

    def _trunk(self, x, training):
        h = x
        for i in range(len(self.descriptor.channel_plan)):
            h = self._conv_norm_pool(h, f"block{i}", training)
        return h

    def _head(self, h):
        return tk.dense(h, self.params["head.w"], self.params["head.b"])

    def _forward_cnn(self, x, training, capture):
        h = self._trunk(x, training)
        if capture is not None:
            capture["features"] = h
        return self._head(h.mean(axis=1))

    def _lstm_params(self):
        return [_lstm_layer_params(self.params, f"lstm.l{layer}")
                for layer in range(self.descriptor.lstm_layers)]

    def _forward_recurrent(self, x, training, rng, capture):
        h = self._trunk(x, training)
        if capture is not None:
            capture["features"] = h
        hidden = tk.bilstm(h, self._lstm_params(),
                           dropout_rate=self.descriptor.lstm_dropout,
                           training=training, rng=rng)
        if self.descriptor.arch == "cnn_lstm_attn":
            context, alpha = tk.attention_pool(
                hidden, self.params["attn.w_h"], self.params["attn.b_h"],
                self.params["attn.v"])
            if capture is not None:
                capture["attention"] = alpha
            return self._head(context)
        return self._head(hidden.mean(axis=1))

    def _residual_block(self, h, prefix, stride, training):
        source = h
        h = self._bn(self._conv(h, f"{prefix}.conv1", stride=stride,
                                padding=1),
                     f"{prefix}.bn1", training, "relu")
        h = self._bn(self._conv(h, f"{prefix}.conv2", padding=1),
                     f"{prefix}.bn2", training)
        if f"{prefix}.down.w" in self.params:
            source = self._conv(source, f"{prefix}.down", stride=stride)
        # no activation after the sum: F(x) = 0 must give exactly x
        return tk.add(h, source)

    def _forward_resnet(self, x, training, capture):
        h = self._bn(self._conv(x, "stem.conv", stride=2, padding=3),
                     "stem.bn", training, "relu")
        h = tk.max_pool1d(h, 2, 2)
        for stage in range(len(self.descriptor.channel_plan)):
            for block in range(self.descriptor.blocks_per_stage):
                stride = 2 if stage > 0 and block == 0 else 1
                h = self._residual_block(h, f"res{stage}.{block}", stride,
                                         training)
        if capture is not None:
            capture["features"] = h
        return self._head(h.mean(axis=1))

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


def build(descriptor, seed):
    """Initialize a model; same descriptor and seed give identical bits."""
    rng = np.random.default_rng(seed)
    params = _init_params(param_shapes(descriptor), rng,
                         descriptor.lstm_hidden)
    stats = {prefix: RunningStats(channels)
             for prefix, channels in norm_layers(descriptor).items()}
    return Model(descriptor, params, stats)
