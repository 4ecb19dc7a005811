"""Differentiable classifiers: linear logistic and small fully-connected nets.

Parameters live in one flat vector with a frozen layout (layer-major,
weights before biases) so checkpoints stay readable across versions. The
forward pass is written against dispatching primitives and therefore runs
both on plain numpy arrays and on autodiff nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

__all__ = [
    "ModelSpec",
    "param_count",
    "param_slices",
    "weight_slices",
    "init_params",
    "forward",
    "per_sample_loss",
    "logistic_loss",
    "softmax_cross_entropy",
    "gradient",
    "predict_labels",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description.

    kind          'linear' (single affine map) or 'mlp'
    layer_sizes   [input_dim, hidden..., output_dim]; output_dim is 1 for a
                  binary single-logit model or K for a K-class model
    activation    hidden nonlinearity for 'mlp': 'tanh' or 'relu'
    """

    kind: str
    layer_sizes: tuple
    activation: str = "tanh"

    def __post_init__(self):
        if self.kind not in ("linear", "mlp"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output width")
        if self.kind == "linear" and len(self.layer_sizes) != 2:
            raise ValueError("linear models have no hidden layers")
        if self.activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer sizes must be positive")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "layer_sizes": list(self.layer_sizes),
            "activation": self.activation,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        return ModelSpec(d["kind"], tuple(d["layer_sizes"]), d.get("activation", "tanh"))


def param_count(spec: ModelSpec) -> int:
    sizes = spec.layer_sizes
    return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))


def param_slices(spec: ModelSpec):
    """Per layer: (weight_slice, weight_shape, bias_slice)."""
    sizes = spec.layer_sizes
    out = []
    pos = 0
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        w = slice(pos, pos + fan_in * fan_out)
        pos += fan_in * fan_out
        b = slice(pos, pos + fan_out)
        pos += fan_out
        out.append((w, (fan_in, fan_out), b))
    return out


def weight_slices(spec: ModelSpec):
    return [w for w, _, _ in param_slices(spec)]


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Uniform(-a, a) weights with a = sqrt(6 / (fan_in + fan_out)), zero biases."""
    rng = np.random.default_rng(seed)
    theta = np.zeros(param_count(spec))
    for w, (fan_in, fan_out), _b in param_slices(spec):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        theta[w] = rng.uniform(-a, a, size=fan_in * fan_out)
    return theta


def forward(spec: ModelSpec, theta, x):
    """Logits for ``x``; accepts a single sample (p,) or a batch (n, p).

    ``theta`` and ``x`` may each be a flat ndarray or an autodiff Var (the
    latter enables gradients with respect to the inputs). Single-logit
    models return shape (n,) (or a scalar for a single sample), K-output
    models return (n, K).
    """
    if isinstance(x, ad.Var):
        if len(x.shape) != 2:
            raise ValueError("Var inputs must be a 2-d batch")
        single = False
    else:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
    if x.shape[1] != spec.input_dim:
        raise ValueError(
            f"feature dimension {x.shape[1]} does not match model input {spec.input_dim}"
        )
    if not isinstance(theta, ad.Var):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (param_count(spec),):
            raise ValueError("parameter vector length does not match the model spec")
    h = x
    layers = param_slices(spec)
    for li, (wsl, wshape, bsl) in enumerate(layers):
        w = ad.reshape(theta[wsl], *wshape)
        b = theta[bsl]
        h = ad.matmul(h, w) + b
        if spec.kind == "mlp" and li < len(layers) - 1:
            h = ad.tanh(h) if spec.activation == "tanh" else ad.relu(h)
    if spec.output_dim == 1:
        h = ad.reshape(h, -1)
        if single:
            h = h[0]
    elif single:
        h = h[0]
    return h


def logistic_loss(y, logit):
    """log(1 + exp(-y * logit)) for y in {-1, +1}; overflow-safe; vectorizes."""
    yv = np.asarray(y, dtype=float)
    if not np.all(np.isin(yv, (-1.0, 1.0))):
        raise ValueError("logistic_loss expects labels in {-1, +1}")
    if isinstance(logit, ad.Var):
        return ad.softplus(-(ad.as_var(yv) * logit))
    return ad.softplus(-yv * np.asarray(logit, dtype=float))


def softmax_cross_entropy(label, logits):
    """-log softmax(logits)[label]; log-sum-exp stabilized; vectorizes."""
    labels = np.asarray(label)
    if not isinstance(logits, ad.Var):
        logits = np.asarray(logits, dtype=float)
    arr = logits.value if isinstance(logits, ad.Var) else logits
    if arr.ndim == 1:
        k = arr.shape[0]
        if labels.ndim != 0:
            raise ValueError("single logit row needs a scalar label")
        if not 0 <= int(labels) < k:
            raise ValueError(f"label {int(labels)} out of range for {k} classes")
        onehot = np.zeros(k)
        onehot[int(labels)] = 1.0
        lse = ad.logsumexp(logits, axis=0)
        picked = ad.vsum(logits * onehot)
        return lse - picked
    k = arr.shape[1]
    labels = labels.astype(int)
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("label out of range")
    onehot = np.zeros(arr.shape)
    onehot[np.arange(arr.shape[0]), labels] = 1.0
    lse = ad.logsumexp(logits, axis=1)
    picked = ad.vsum(logits * onehot, axis=1)
    return lse - picked


def per_sample_loss(spec: ModelSpec, logits, labels):
    """Vector of per-sample losses. Binary single-logit models use the
    logistic loss with labels {0,1} mapped to {-1,+1}; K-output models use
    softmax cross-entropy."""
    labels = np.asarray(labels, dtype=int)
    if spec.output_dim == 1:
        return logistic_loss(2.0 * labels - 1.0, logits)
    return softmax_cross_entropy(labels, logits)


def gradient(objective, theta: np.ndarray) -> np.ndarray:
    """Exact reverse-mode gradient of a scalar objective built from the
    supported primitives, as a flat vector matching ``theta``."""
    return ad.grad(objective, theta)


def predict_labels(spec: ModelSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    logits = forward(spec, theta, x)
    if spec.output_dim == 1:
        return (np.asarray(logits) > 0.0).astype(int)
    return np.argmax(logits, axis=-1).astype(int)


def save_checkpoint(path, spec: ModelSpec, theta: np.ndarray, seed: int, step: int):
    payload = {
        "spec": spec.to_dict(),
        "flat_params": [float(v) for v in np.asarray(theta).ravel()],
        "seed": int(seed),
        "step": int(step),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    spec = ModelSpec.from_dict(payload["spec"])
    theta = np.asarray(payload["flat_params"], dtype=float)
    if theta.shape != (param_count(spec),):
        raise ValueError("checkpoint parameter count does not match its model spec")
    return spec, theta, int(payload["seed"]), int(payload["step"])
