"""Differentiable classifiers: linear logistic and small fully-connected nets.

Parameters live in one flat vector with a frozen layout (layer-major,
weights before biases, read from ``ModelSpec.layout``) so checkpoints stay
readable across versions. ``forward`` computes the logits; the losses
carry their closed-form derivative in ``loss_gradient``. There is one
backward chain, the private ``_chain``: it carries a logit gradient back
through the layers whose inputs a forward pass kept. The training gradient
(``autodiff.grad``) reads its parameter gradient, and the style gradient of
the robustness probes carries its result through the first layer's
weights, so each runs every layer once in each direction.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .data import DataFormatError, _write_json

__all__ = [
    "ModelSpec",
    "param_count",
    "init_params",
    "forward",
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

    # the flat-vector layout is derived once per spec: every pass reads it
    @cached_property
    def layout(self) -> tuple:
        """Per layer: (weight_slice, weight_shape, bias_slice)."""
        out, pos = [], 0
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            w = slice(pos, pos + fan_in * fan_out)
            b = slice(w.stop, w.stop + fan_out)
            out.append((w, (fan_in, fan_out), b))
            pos = b.stop
        return tuple(out)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        return ModelSpec(d["kind"], tuple(d["layer_sizes"]), d.get("activation", "tanh"))


def param_count(spec: ModelSpec) -> int:
    return spec.layout[-1][2].stop


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Uniform(-a, a) weights with a = sqrt(6 / (fan_in + fan_out)), zero biases."""
    rng = np.random.default_rng(seed)
    theta = np.zeros(param_count(spec))
    for w, (fan_in, fan_out), _b in spec.layout:
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
    for wsl, wshape, bsl in spec.layout[:-1]:
        h = h @ theta[wsl].reshape(wshape)
        h += theta[bsl]
        h = np.tanh(h, out=h) if spec.activation == "tanh" else np.maximum(h, 0.0, out=h)
        yield h


def _output(spec: ModelSpec, theta: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Logits from the input of the last layer: (n,) or (n, K)."""
    wsl, wshape, bsl = spec.layout[-1]
    h = h @ theta[wsl].reshape(wshape) + theta[bsl]
    return h.reshape(-1) if spec.output_dim == 1 else h


def _chain(spec: ModelSpec, theta: np.ndarray, hs: list, g: np.ndarray) -> tuple:
    """Carry the logit gradient ``g`` (n, K) back through the layers whose
    inputs are ``hs``. Returns g_theta and the gradient with respect to the
    first layer's output (before any activation); the gradient with respect
    to the inputs is that times the first layer's weights, transposed. The
    subgradient of relu at its kink is 0."""
    g_theta = np.empty_like(theta)
    for i in reversed(range(len(hs))):
        wsl, wshape, bsl = spec.layout[i]
        g_theta[wsl] = (hs[i].T @ g).reshape(-1)
        g_theta[bsl] = g.sum(axis=0)
        if i > 0:  # hs[i] is the activation of layer i - 1
            g = g @ theta[wsl].reshape(wshape).T
            h = hs[i]
            g = g * (1.0 - h * h) if spec.activation == "tanh" else g * (h > 0.0)
    return g_theta, g


# batched evaluations outside training (the worst-case search candidates,
# the boundary-plot grid) take as many rows at a time as keep the widest
# layer buffer, 8 bytes a float, within this many bytes
_CHUNK_BYTES = 256 * 1024


def forward(spec: ModelSpec, theta, x):
    """Logits for ``x``; accepts a single sample (p,) or a batch (n, p).

    Single-logit models return shape (n,) (or a scalar for a single
    sample), K-output models return (n, K).
    """
    theta, x, single = _checked(spec, theta, x)
    for h in _layer_inputs(spec, theta, x):  # only the last one is kept
        pass
    h = _output(spec, theta, h)
    return h[0] if single else h


def _softplus(z: np.ndarray) -> np.ndarray:
    # max(0, z) + log1p(exp(-|z|)) is stable for any magnitude
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _logsumexp(z: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(z, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(z - m), axis=axis, keepdims=True))).squeeze(axis)


def logistic_loss(y, logit):
    """log(1 + exp(-y * logit)) for y in {-1, +1}; overflow-safe; vectorizes."""
    yv = np.asarray(y, dtype=float)
    if not np.all((yv == 1.0) | (yv == -1.0)):
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
        # -y * (1 / (1 + exp(y z))): with y = +-1 the sign moves through the
        # division exactly, so one division gives the same bits
        with np.errstate(over="ignore"):  # exp = inf gives the limit 0
            return -y / (1.0 + np.exp(y * logits))
    e = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    g = e / e.sum(axis=1, keepdims=True)
    g[np.arange(len(labels)), labels] -= 1.0
    return g


def predict_labels(spec: ModelSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _decide(spec, forward(spec, theta, x))


def _decide(spec: ModelSpec, logits) -> np.ndarray:
    """Class labels from logits: a single logit above 0 is class 1,
    K logits give their argmax."""
    if spec.output_dim == 1:
        return (np.asarray(logits) > 0.0).astype(int)
    return np.argmax(logits, axis=-1).astype(int)


def save_checkpoint(path, spec: ModelSpec, theta: np.ndarray, seed: int, step: int):
    _write_json(path, {
        "spec": asdict(spec),
        "flat_params": [float(v) for v in np.asarray(theta).ravel()],
        "seed": int(seed),
        "step": int(step),
    })


def load_checkpoint(path):
    """(spec, theta, seed, step) from a ``save_checkpoint`` file; a file
    that is not one raises DataFormatError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        spec = ModelSpec.from_dict(payload["spec"])
        theta = np.asarray(payload["flat_params"], dtype=float)
        seed, step = int(payload["seed"]), int(payload["step"])
    except KeyError as exc:
        raise DataFormatError(f"{path}: checkpoint lacks field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint ({exc})") from None
    if theta.shape != (param_count(spec),):
        raise DataFormatError(f"{path}: checkpoint parameter count does not match its model spec")
    return spec, theta, seed, step
