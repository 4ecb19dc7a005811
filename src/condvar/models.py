"""Differentiable classifiers: linear logistic and small fully-connected nets.

Parameters live in one flat vector with a frozen layout (layer-major,
weights before biases, read from ``ModelSpec.layout``) so checkpoints stay
readable across versions. ``forward`` computes the logits. Labels reach
every loss and loss derivative through ``_targets``, which checks that
they fit the model's outputs and maps them to what the losses read.
There is one backward chain, the private ``_chain``: it carries a logit
gradient back through the layers whose inputs a forward pass kept. The
training gradient (``autodiff.grad``) reads its parameter gradient, and
the style gradient of the robustness probes carries it through the first
layer's weights, so each runs every layer once in each direction.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .data import DataFormatError, _json_text, _write_text

__all__ = [
    "ModelSpec",
    "param_count",
    "init_params",
    "forward",
    "per_sample_loss",
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

    @cached_property
    def weight_mask(self) -> np.ndarray:
        """True at the weights of the flat vector: the ridge's support."""
        mask = np.zeros(self.layout[-1][2].stop, dtype=bool)
        for wsl, _, _ in self.layout:
            mask[wsl] = True
        return mask

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


# batched evaluations outside training (the shifted styles of the
# robustness probes, the boundary-plot grid) take as many rows at a time as
# keep the widest layer buffer, 8 bytes a float, within this many bytes
_CHUNK_BYTES = 256 * 1024


def _chunk(spec: ModelSpec, rows: int, *widths: int) -> int:
    """How many blocks of ``rows`` rows one batched evaluation takes: as
    many as keep a buffer as wide as the widest of the model's layers and
    ``widths`` within ``_CHUNK_BYTES``, at least 1."""
    return max(1, _CHUNK_BYTES // (8 * rows * max(*spec.layer_sizes, *widths)))


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


def per_sample_loss(spec: ModelSpec, logits, labels):
    """Vector of per-sample losses. Binary single-logit models use the
    logistic loss with labels {0,1} mapped to {-1,+1}; K-output models use
    softmax cross-entropy. Labels that do not fit raise ValueError."""
    return _target_losses(spec, np.asarray(logits, dtype=float), _targets(spec, labels))


def _targets(spec: ModelSpec, labels) -> np.ndarray:
    """The labels as the losses read them: y = +-1 floats for a single
    logit (labels 0 and 1), the class indices for K logits (labels
    0..K-1). Any other label raises ValueError."""
    labels = np.asarray(labels, dtype=int)
    k = max(spec.output_dim, 2)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        bad = labels[(labels < 0) | (labels >= k)].flat[0]
        raise ValueError(f"label {bad} does not fit {spec.output_dim} model output(s): "
                         f"labels must lie in 0..{k - 1}")
    return 2.0 * labels - 1.0 if spec.output_dim == 1 else labels


def _target_losses(spec: ModelSpec, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-sample losses of a batch from its ``_targets``."""
    if spec.output_dim == 1:
        return _softplus(-targets * logits)
    # -log softmax(z)[y], the log-sum-exp taken about each row's maximum
    top = np.max(logits, axis=1, keepdims=True)
    lse = (top + np.log(np.sum(np.exp(logits - top), axis=1, keepdims=True))).squeeze(1)
    return lse - logits[np.arange(len(targets)), targets]


def _target_loss_gradient(spec: ModelSpec, logits: np.ndarray,
                          targets: np.ndarray) -> np.ndarray:
    """d loss / d logits of a batch from its ``_targets``: -y sigmoid(-y z)
    or softmax(z) - onehot. Large margins overflow exp to inf, the right
    limit 0; the caller holds ``np.errstate(over="ignore")`` around it."""
    if spec.output_dim == 1:
        # -y * (1 / (1 + exp(y z))): with y = +-1 the sign moves through the
        # division exactly, so one division gives the same bits
        return -targets / (1.0 + np.exp(targets * logits))
    e = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    g = e / e.sum(axis=1, keepdims=True)
    g[np.arange(len(targets)), targets] -= 1.0
    return g


def predict_labels(spec: ModelSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _decide(spec, forward(spec, theta, x))


def _decide(spec: ModelSpec, logits) -> np.ndarray:
    """Class labels from logits: a single logit above 0 is class 1,
    K logits give their argmax."""
    if spec.output_dim == 1:
        return (np.asarray(logits) > 0.0).astype(int)
    return np.argmax(logits, axis=-1).astype(int)


def _checkpoint_payload(spec: ModelSpec, theta: np.ndarray, seed: int, step: int) -> dict:
    return {"spec": asdict(spec), "flat_params": [float(v) for v in np.asarray(theta).ravel()],
            "seed": int(seed), "step": int(step)}


def save_checkpoint(path, spec: ModelSpec, theta: np.ndarray, seed: int, step: int):
    _write_text(path, _json_text(_checkpoint_payload(spec, theta, seed, step)))


def load_checkpoint(path):
    """(spec, theta, seed, step) from a ``save_checkpoint`` file; a file
    that is not one, non-finite parameters or a negative step included,
    raises DataFormatError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        spec = ModelSpec.from_dict(payload["spec"])
        theta = np.asarray(payload["flat_params"], dtype=float)
        seed, step = int(payload["seed"]), int(payload["step"])
        if not np.all(np.isfinite(theta)) or step < 0:
            raise ValueError("parameters must be finite and the step >= 0")
    except KeyError as exc:
        raise DataFormatError(f"{path}: checkpoint lacks field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint ({exc})") from None
    if theta.shape != (param_count(spec),):
        raise DataFormatError(f"{path}: checkpoint parameter count does not match its model spec")
    return spec, theta, seed, step
