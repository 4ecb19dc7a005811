"""Differentiable classifiers: linear logistic and small fully-connected nets.

Parameters live in one flat vector with a frozen layout (layer-major,
weights before biases, ``ModelSpec.layout``) so checkpoints stay readable
across versions. Every pass takes each layer's (W, b) views from one walk,
``_layers``, and each hidden activation's map and derivative from one table,
``_ACTIVATIONS``. Labels reach every loss and its derivative through
``_targets``, which checks that they fit the model's outputs. ``_pass`` runs
the layers, keeping their inputs, for ``forward`` and for the one backward
chain ``_chain`` (the parameter gradient for ``autodiff.grad``, d loss / d
input for ``_input_gradient``); ``_logit_interval`` is the range of the
boundary logit over boxes, the plot's certificate.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .data import _integer, _json_text, _natural, _reading, _reals, _write_text

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


# each hidden activation, a monotone map: (its map in place, its derivative from its output)
_ACTIVATIONS = {"tanh": (lambda z: np.tanh(z, out=z), lambda h: 1.0 - h * h),
                "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda h: h > 0.0)}


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
        object.__setattr__(self, "layer_sizes", tuple(map(_integer, self.layer_sizes)))
        if len(self.layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output width")
        if self.kind == "linear" and len(self.layer_sizes) != 2:
            raise ValueError("linear models have no hidden layers")
        if not isinstance(self.activation, str) or self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer sizes must be positive")

    # the flat-vector layout is derived once per spec: the walk ``_layers`` reads it
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
        mask = np.zeros(param_count(self), dtype=bool)
        for w, _b in _layers(self, mask):
            w[...] = True
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


def _affine(spec: ModelSpec) -> bool:
    """One logit and no hidden layer, whatever the kind: one affine map to a single logit."""
    return (len(spec.layer_sizes), spec.output_dim) == (2, 1)


def _layers(spec: ModelSpec, theta: np.ndarray):
    """Yield each layer's (W, b), (fan_in, fan_out) and (fan_out,) views of ``theta``."""
    for wsl, wshape, bsl in spec.layout:
        yield theta[wsl].reshape(wshape), theta[bsl]


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Uniform(-a, a) weights with a = sqrt(6 / (fan_in + fan_out)), zero biases."""
    rng = np.random.default_rng(_natural("seed", seed))
    theta = np.zeros(param_count(spec))
    for w, _b in _layers(spec, theta):
        a = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-a, a, size=w.shape)
    return theta


def _checked(spec: ModelSpec, theta, x):
    """(theta, x) as float arrays; x must be an (n, input_dim) batch."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x must be an (n, {spec.input_dim}) batch, got shape {x.shape}")
    if x.shape[1] != spec.input_dim:
        raise ValueError(
            f"feature dimension {x.shape[1]} does not match model input {spec.input_dim}"
        )
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (param_count(spec),):
        raise ValueError("parameter vector length does not match the model spec")
    return theta, x


def _pass(spec: ModelSpec, theta: np.ndarray, x: np.ndarray) -> tuple:
    """(hs, logits): the input of every layer (the batch x, then each hidden
    activation, each computed in one buffer) and the logits, (n,) or (n, K)."""
    *hidden, (w, b) = _layers(spec, theta)
    act, hs = _ACTIVATIONS[spec.activation][0], [x]
    for w_h, b_h in hidden:
        h = hs[-1] @ w_h
        h += b_h
        hs.append(act(h))
    h = hs[-1] @ w + b
    return hs, h.reshape(-1) if spec.output_dim == 1 else h


def _chain(spec: ModelSpec, theta: np.ndarray, hs: list, g: np.ndarray, g_theta=None):
    """Carry the logit gradient ``g`` (n, K) back through the layers whose
    inputs are ``hs`` and return it at the first layer's output (before any
    activation); the parameter gradient is written only into a ``g_theta``
    that the caller passes. The subgradient of relu at its kink is 0."""
    d_act = _ACTIVATIONS[spec.activation][1]
    grads = [None] * len(hs) if g_theta is None else list(_layers(spec, g_theta))
    for i, (w, _b) in reversed(list(enumerate(_layers(spec, theta)))):
        if grads[i] is not None:
            grads[i][0][...] = hs[i].T @ g
            grads[i][1][...] = g.sum(axis=0)
        if i > 0:  # hs[i] is the activation of layer i - 1
            g = g @ w.T * d_act(hs[i])
    return g


# every evaluation outside training holds its buffers, 8 bytes a float,
# within this many bytes: a stack of inputs (``_chunk``), and a block of the
# rows of a pass its buffers for all the layers together (``_row_blocks``)
_CHUNK_BYTES = 256 * 1024


def _chunk(rows: int, width: int) -> int:
    """How many copies of ``rows`` rows, each holding ``width`` floats of
    input, one stack takes within ``_CHUNK_BYTES``, at least 1."""
    return max(1, _CHUNK_BYTES // (8 * rows * width))


def _row_blocks(spec: ModelSpec, n: int) -> list:
    """Slices of the n rows of an evaluation whose rows do not depend on
    each other: blocks of b rows, b the largest power of two, at least 16,
    whose buffers for all the layers together fit within ``_CHUNK_BYTES``,
    the last block taking a lone last row. Each row gets the bits of one
    n-row pass: numpy routes a 1-row product to another kernel, and BLAS's
    matrix-vector kernel sums output rows in groups of 4 that blocks of
    2^j >= 16 rows keep aligned."""
    rows = _CHUNK_BYTES // (8 * sum(spec.layer_sizes))
    b = 1 << max(4, rows.bit_length() - 1)
    edges = [0, *range(b, n - 1, b), n]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def forward(spec: ModelSpec, theta, x):
    """Logits for a batch ``x`` (n, p), evaluated in ``_row_blocks``:
    (n,) for a single-logit model, (n, K) for a K-output one."""
    theta, x = _checked(spec, theta, x)
    return np.concatenate([_pass(spec, theta, x[rows])[1] for rows in _row_blocks(spec, len(x))])


def _logit_interval(spec: ModelSpec, theta, lo, hi) -> tuple:
    """(low, high), each (k,): a range of the boundary logit (the single logit,
    or logit 1 - logit 0 of two) over each box [lo_i, hi_i] of the (k, p) lo
    and hi that holds ``forward``'s value and the exact one.

    Boxes go through ``_layers`` in ``_row_blocks`` as centre c and radius r:
    c -> cW + b, r -> r|W|, then the monotone activation at both ends c -+ r;
    for two logits the last W and b are column differences. The roundings of
    ``forward`` and of this pass (sums, centre, radius, ends, the logit
    difference, numpy's tanh to 4 ulp) add up to below (3 fan-in + 27) 2^-53 a,
    a = |c||W| + r|W| + |b| (both columns for two logits): r is widened by
    2^-48 (fan-in + 1) a, plus 2^-1022 for underflow. Where a layer's a reaches
    2^1020 (or is inf or NaN), a sum of ``forward``'s could overflow: the
    range is (-inf, inf)."""
    theta, lo = _checked(spec, theta, lo)
    hi = _checked(spec, theta, hi)[1]
    act, layers, out = _ACTIVATIONS[spec.activation][0], list(_layers(spec, theta)), []
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_blocks(spec, len(lo)):
            ends, ok = np.stack([lo[rows], hi[rows]]), True
            for i, (w, b) in enumerate(layers, 1):
                c, r = (ends[0] + ends[1]) / 2, (ends[1] - ends[0]) / 2
                a = (np.abs(c) + r) @ np.abs(w) + np.abs(b)
                if i == len(layers) and spec.output_dim == 2:
                    a, w, b = a.sum(1, keepdims=True), w[:, 1:] - w[:, :1], b[1:] - b[:1]
                ok = ok & (a < 2.0 ** 1020).all(axis=1)
                c, r = c @ w + b, r @ np.abs(w) + (2.0 ** -48 * (len(w) + 1) * a + 2.0 ** -1022)
                ends = np.stack([c - r, c + r])
                if i < len(layers):
                    act(ends)
            out.append(np.where(ok, ends[..., 0], [[-np.inf], [np.inf]]))
    return tuple(np.concatenate(out, axis=1))


def _input_gradient(spec: ModelSpec, theta, x, targets: np.ndarray) -> np.ndarray:
    """d loss_i / d x_i, (n, input_dim), for the loss ``targets`` (``_targets``),
    in ``_row_blocks``: the layers run once each way, with no parameter gradient."""
    theta, x = _checked(spec, theta, x)
    w_t = next(_layers(spec, theta))[0].T
    out = np.empty_like(x)
    for rows in _row_blocks(spec, len(x)):
        hs, logits = _pass(spec, theta, x[rows])
        with np.errstate(over="ignore"):  # exp = inf gives the limit 0
            g = _target_loss_gradient(spec, logits, targets[rows])
        out[rows] = _chain(spec, theta, hs, g.reshape(len(g), spec.output_dim)) @ w_t
    return out


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
    """The tree ``save_checkpoint`` writes; a parameter count other than
    ``param_count(spec)`` or a negative step, which ``load_checkpoint``
    refuses, raises ValueError."""
    theta = np.asarray(theta).ravel()
    if theta.size != param_count(spec):
        raise ValueError(f"{theta.size} parameters for a model spec of {param_count(spec)}")
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return {"spec": asdict(spec), "flat_params": [float(v) for v in theta],
            "seed": int(seed), "step": int(step)}


def save_checkpoint(path, spec: ModelSpec, theta: np.ndarray, seed: int, step: int):
    """Write a checkpoint, built before the file is opened: one that
    ``load_checkpoint`` would refuse raises ValueError and leaves the path untouched."""
    _write_text(path, _json_text(_checkpoint_payload(spec, theta, seed, step)))


def load_checkpoint(path):
    """(spec, theta, seed, step) from a ``save_checkpoint`` file; a file
    that is not one, parameters that are not finite JSON numbers and one
    that ``_checkpoint_payload`` refuses included, raises DataFormatError naming it."""
    with _reading(path, "checkpoint"), open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
        spec = ModelSpec.from_dict(payload["spec"])
        theta = _reals(payload["flat_params"], 1)
        seed, step = _integer(payload["seed"]), _integer(payload["step"])
        _checkpoint_payload(spec, theta, seed, step)  # the writer's rules judge the count and step
    return spec, theta, seed, step
