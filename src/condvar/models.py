"""Differentiable classifiers: linear logistic and small fully-connected nets.

Parameters live in one flat vector with a frozen layout (layer-major,
weights before biases) so checkpoints stay readable across versions.
``forward`` computes the logits and ``backward`` chains a logit gradient
back to the parameters and the inputs; the losses carry their closed-form
derivative in ``loss_gradient``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelSpec",
    "param_count",
    "param_slices",
    "weight_slices",
    "init_params",
    "forward",
    "backward",
    "per_sample_loss",
    "logistic_loss",
    "softmax_cross_entropy",
    "loss_gradient",
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


def _checked(spec: ModelSpec, theta, x):
    """(theta, x as a 2-d batch, whether x was a single sample)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != spec.input_dim:
        raise ValueError(
            f"feature dimension {x.shape[1]} does not match model input {spec.input_dim}"
        )
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (param_count(spec),):
        raise ValueError("parameter vector length does not match the model spec")
    return theta, x, single


def _layer_inputs(spec: ModelSpec, theta: np.ndarray, x: np.ndarray):
    """Yield the input of every layer: the batch x, then each hidden
    activation, each computed in one buffer."""
    h = x
    yield h
    for wsl, wshape, bsl in param_slices(spec)[:-1]:
        h = h @ theta[wsl].reshape(wshape)
        h += theta[bsl]
        h = np.tanh(h, out=h) if spec.activation == "tanh" else np.maximum(h, 0.0, out=h)
        yield h


def forward(spec: ModelSpec, theta, x):
    """Logits for ``x``; accepts a single sample (p,) or a batch (n, p).

    Single-logit models return shape (n,) (or a scalar for a single
    sample), K-output models return (n, K).
    """
    theta, x, single = _checked(spec, theta, x)
    for h in _layer_inputs(spec, theta, x):  # only the last one is kept
        pass
    wsl, wshape, bsl = param_slices(spec)[-1]
    h = h @ theta[wsl].reshape(wshape) + theta[bsl]
    if spec.output_dim == 1:
        h = h.reshape(-1)
    return h[0] if single else h


def backward(spec: ModelSpec, theta, x, g_logits):
    """Chain ``g_logits`` (d objective / d logits, shaped like ``forward``'s
    output for ``x``) back through the layers.

    Returns (g_theta, g_x): the gradient with respect to the flat parameter
    vector and to the inputs, shaped like ``theta`` and ``x``. The
    subgradient of relu at its kink is 0.
    """
    theta, x, single = _checked(spec, theta, x)
    hs = list(_layer_inputs(spec, theta, x))
    g = np.asarray(g_logits, dtype=float).reshape(len(x), spec.output_dim)
    g_theta = np.empty_like(theta)
    layers = param_slices(spec)
    for i in reversed(range(len(layers))):
        wsl, wshape, bsl = layers[i]
        g_theta[wsl] = (hs[i].T @ g).reshape(-1)
        g_theta[bsl] = g.sum(axis=0)
        g = g @ theta[wsl].reshape(wshape).T
        if i > 0:  # hs[i] is the activation of layer i - 1
            h = hs[i]
            g = g * (1.0 - h * h) if spec.activation == "tanh" else g * (h > 0.0)
    return g_theta, (g[0] if single else g)


def _softplus(z: np.ndarray) -> np.ndarray:
    # max(0, z) + log1p(exp(-|z|)) is stable for any magnitude
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp(-z) = inf gives the limit 0
        return 1.0 / (1.0 + np.exp(-z))


def _logsumexp(z: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(z, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(z - m), axis=axis, keepdims=True))).squeeze(axis)


def logistic_loss(y, logit):
    """log(1 + exp(-y * logit)) for y in {-1, +1}; overflow-safe; vectorizes."""
    yv = np.asarray(y, dtype=float)
    if not np.all(np.isin(yv, (-1.0, 1.0))):
        raise ValueError("logistic_loss expects labels in {-1, +1}")
    return _softplus(-yv * np.asarray(logit, dtype=float))


def softmax_cross_entropy(label, logits):
    """-log softmax(logits)[label]; log-sum-exp stabilized; vectorizes."""
    labels = np.asarray(label)
    logits = np.asarray(logits, dtype=float)
    if logits.ndim == 1:
        k = logits.shape[0]
        if labels.ndim != 0:
            raise ValueError("single logit row needs a scalar label")
        if not 0 <= int(labels) < k:
            raise ValueError(f"label {int(labels)} out of range for {k} classes")
        return _logsumexp(logits, axis=0) - logits[int(labels)]
    k = logits.shape[1]
    labels = labels.astype(int)
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("label out of range")
    return _logsumexp(logits, axis=1) - logits[np.arange(len(labels)), labels]


def per_sample_loss(spec: ModelSpec, logits, labels):
    """Vector of per-sample losses. Binary single-logit models use the
    logistic loss with labels {0,1} mapped to {-1,+1}; K-output models use
    softmax cross-entropy."""
    labels = np.asarray(labels, dtype=int)
    if spec.output_dim == 1:
        return logistic_loss(2.0 * labels - 1.0, logits)
    return softmax_cross_entropy(labels, logits)


def loss_gradient(spec: ModelSpec, logits, labels) -> np.ndarray:
    """d per_sample_loss / d logits, row by row, shaped like ``logits`` (a
    batch): -y * sigmoid(-y z) for the logistic loss, softmax(z) - onehot
    for softmax cross-entropy."""
    labels = np.asarray(labels, dtype=int)
    logits = np.asarray(logits, dtype=float)
    if spec.output_dim == 1:
        y = 2.0 * labels - 1.0
        return -y * _sigmoid(-y * logits)
    e = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    g = e / e.sum(axis=1, keepdims=True)
    g[np.arange(len(labels)), labels] -= 1.0
    return g


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
