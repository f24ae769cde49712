"""Saliency maps from the last convolutional feature block.

For one beat and one target class, the map weights each feature channel
by the time-averaged gradient of the target logit with respect to that
channel, combines channels, clips negatives, and stretches the result
back to beat length.  Feature maps are channels-last, [1, time, channels].
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as tk
from .errors import UsageError
from .tensor import Tensor


@dataclass
class SaliencyMap:
    """values is min-max normalized to [0, 1]; raw keeps the pre-normalized
    magnitudes (all zero when the target logit ignores the features)."""

    values: np.ndarray
    target_class: int
    raw: np.ndarray

    def __len__(self):
        return len(self.values)


def grad_cam(model, beat, target_class):
    """Channel-weighted class activation map for a single beat.

    The model must expose convolutional feature maps through the forward
    capture hook; an architecture without them cannot be explained this
    way and raises UsageError.
    """
    beat = np.asarray(beat, dtype=np.float32)
    if beat.ndim != 1:
        raise UsageError(f"grad_cam explains one beat at a time, got shape "
                         f"{beat.shape}")
    n_classes = model.descriptor.n_classes
    target_class = int(target_class)
    if not 0 <= target_class < n_classes:
        raise UsageError(f"target class {target_class} outside "
                         f"0..{n_classes - 1}")

    capture = {}
    logits = model.forward(Tensor(beat[None, None, :]), training=False,
                           capture=capture)
    features = capture.get("features")
    if features is None:
        raise UsageError("model captures no convolutional feature maps; "
                         "saliency is undefined for this architecture")

    target = tk.narrow(tk.reshape(logits, (n_classes,)), 0, target_class, 1)
    # backward keeps .grad only on tensors that ask for it
    features.requires_grad = True
    target.backward()
    grad = features.grad
    model.zero_grad()
    if grad is None:
        raise UsageError("no gradient reached the feature maps")

    # channel weight = time-mean of the gradient, one scalar per channel
    alpha = grad.mean(axis=1, dtype=np.float64)
    activations = features.data.astype(np.float64)
    cam = np.maximum((alpha[:, None, :] * activations).sum(axis=2), 0.0)[0]

    length = beat.shape[0]
    positions = np.linspace(0.0, cam.size - 1.0, length)
    raw = np.interp(positions, np.arange(cam.size), cam)
    span = raw.max() - raw.min()
    if span > 0:
        values = (raw - raw.min()) / span
    else:
        values = np.zeros_like(raw)
    return SaliencyMap(values=values, target_class=target_class, raw=raw)
