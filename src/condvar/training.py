"""Group-preserving minibatching and first-order training.

The penalized objective and its gradient are in ``autodiff``.
Minibatches never split a group, so the within-group variances inside a
batch are computed from complete groups. When a batch contains no group of
size >= 2 (or lam == 0) the penalty branch is skipped entirely, which makes
penalized training on ungrouped data bit-identical to pooled training.

Each epoch gathers its rows once, in shuffled-group order, into one buffer
of features, loss targets and batch-local group ids, so every batch is a
slice of it, and the packing hands over each batch's group sizes. A
training step is one ``autodiff.grad`` call on that prepared batch, a
finite check and an in-place optimizer update. What is fixed for the run
is prepared once per ``train`` call, before the first step: the input
checks and the labels mapped to the losses' targets (``models._targets``,
which rejects a label the model's outputs cannot take).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import models as md
from .data import Dataset, GroupIndex, _integer, _natural, _real, build_group_index
from .penalties import PenaltyConfig, conditional_penalty

__all__ = [
    "OptimizerConfig",
    "TrainConfig",
    "TrainReport",
    "DivergenceError",
    "group_aware_minibatches",
    "train",
    "oracle_train_constrained",
    "evaluate_lambda_grid",
]


class DivergenceError(RuntimeError):
    """The objective became non-finite during training."""


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    lr: float = 1e-2
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.kind!r}")
        for name, rule, ok in (("lr", "finite and > 0", lambda v: v > 0.0),
                               ("momentum", "finite and in [0, 1)", lambda v: 0.0 <= v < 1.0),
                               ("beta1", "finite and in [0, 1)", lambda v: 0.0 <= v < 1.0),
                               ("beta2", "finite and in [0, 1)", lambda v: 0.0 <= v < 1.0),
                               ("eps", "finite and > 0", lambda v: v > 0.0)):
            object.__setattr__(self, name, _real(name, getattr(self, name), rule, ok))


@dataclass(frozen=True)
class TrainConfig:
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    batch_size: int = 120
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "epochs"):
            object.__setattr__(self, name, _integer(getattr(self, name)))
        object.__setattr__(self, "seed", _natural("seed", self.seed))
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class TrainReport:
    """Final parameters, one diagnostics row per epoch, and the number of
    optimizer steps taken."""

    theta: np.ndarray
    history: list
    steps: int


# ---- batching ------------------------------------------------------------

def _epoch_batches(group_index: GroupIndex, batch_size: int, seed: int,
                   epoch: int) -> tuple:
    """(rows, seg, batches): every row in batch order, the batch-local group
    id of each, and per batch (start, stop, sizes): its slice of both and
    the size of each of its groups, in batch-local id order. Groups are
    shuffled as units and packed greedily in that order; a group's rows
    keep their ascending index order. ``batch_size`` is judged by ``_integer``,
    ``seed`` and ``epoch`` by ``_natural``."""
    batch_size, m = _integer(batch_size), group_index.m
    if m and group_index.max_size() > batch_size:
        raise ValueError(
            f"largest group ({group_index.max_size()}) exceeds batch size {batch_size}"
        )
    rng = np.random.default_rng([_natural("seed", seed), _natural("epoch", epoch)])
    order = rng.permutation(m)
    sizes = group_index.sizes[order]
    filled = np.concatenate([[0], np.cumsum(sizes)])
    # group order[k] fills rows filled[k]:filled[k + 1] from its block of members
    block = (np.cumsum(group_index.sizes) - group_index.sizes)[order]
    rows = group_index.members[np.repeat(block - filled[:-1], sizes) + np.arange(group_index.n)]
    starts = []  # each batch's first group, in shuffled-group units
    start = 0
    while start < m:
        starts.append(start)
        # greedy packing: the longest run of whole groups that fits
        start = int(filled.searchsorted(filled[start] + batch_size, "right")) - 1
    cuts = starts + [m]
    rank = np.arange(m) - np.repeat(starts, np.diff(cuts))  # within its batch
    edges = filled[cuts].tolist()
    batches = [(a, b, sizes[i:j]) for a, b, i, j in zip(edges, edges[1:], cuts, cuts[1:])]
    return rows, np.repeat(rank, sizes), batches


def group_aware_minibatches(group_index: GroupIndex, batch_size: int, seed: int,
                            epoch: int) -> list:
    """Shuffle groups as units (seeded by (seed, epoch)) and pack them
    greedily into batches of at most ``batch_size`` indices. No group is ever
    split; the last batch may be short."""
    rows, _, batches = _epoch_batches(group_index, batch_size, seed, epoch)
    return [rows[a:b] for a, b, _ in batches]


# ---- optimizers ----------------------------------------------------------

# Both optimizers update theta and their moments in place.

class _Sgd:
    def __init__(self, cfg: OptimizerConfig, dim: int):
        self.cfg = cfg
        self.vel = np.zeros(dim)

    def step(self, theta: np.ndarray, g: np.ndarray) -> None:
        self.vel *= self.cfg.momentum
        self.vel -= self.cfg.lr * g
        theta += self.vel


class _Adam:
    def __init__(self, cfg: OptimizerConfig, dim: int):
        self.cfg = cfg
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.t = 0

    def step(self, theta: np.ndarray, g: np.ndarray) -> None:
        c = self.cfg
        self.t += 1
        self.m *= c.beta1
        self.m += (1.0 - c.beta1) * g
        self.v *= c.beta2
        self.v += (1.0 - c.beta2) * (g * g)
        m_hat = self.m / (1.0 - c.beta1 ** self.t)
        v_hat = self.v / (1.0 - c.beta2 ** self.t)
        theta -= c.lr * m_hat / (np.sqrt(v_hat) + c.eps)


def _make_optimizer(cfg: OptimizerConfig, dim: int):
    return _Adam(cfg, dim) if cfg.kind == "adam" else _Sgd(cfg, dim)


# ---- training loops --------------------------------------------------------

def _epoch_diagnostics(spec, theta, x, labels, targets, group_index, penalty) -> dict:
    logits = md.forward(spec, theta, x)
    losses = md._target_losses(spec, logits, targets)
    values = logits if penalty.target == "prediction" else losses
    pen = conditional_penalty(values, group_index, penalty.nu)
    ridge = ad.ridge(spec, theta)
    return {
        "loss": float(np.mean(losses)),
        "penalty": float(pen),
        "ridge": ridge,
        "train_error": float(np.mean(md._decide(spec, logits) != labels)),
    }


def train(dataset: Dataset, group_index: GroupIndex, model_spec: md.ModelSpec,
          config: TrainConfig) -> TrainReport:
    """Minimize the penalized objective with minibatch first-order updates.

    Deterministic given (dataset, config): parameter init uses the config
    seed, batch shuffles use (seed, epoch), and within-batch reduction order
    is fixed by sample index order.
    """
    if group_index.n != len(dataset):
        raise ValueError("group index does not cover the dataset")
    x_all = dataset.features
    y_all = dataset.labels
    theta = md.init_params(model_spec, config.seed)
    md._checked(model_spec, theta, x_all)  # the only checks: grad takes batches as given
    targets = md._targets(model_spec, y_all)
    opt = _make_optimizer(config.optimizer, theta.size)
    history = []
    step = 0
    for epoch in range(config.epochs):
        rows, seg, batches = _epoch_batches(group_index, config.batch_size,
                                            config.seed, epoch)
        x, t = x_all[rows], targets[rows]
        with np.errstate(over="ignore"):  # exp in the logistic derivative, see grad
            for a, b, sizes in batches:
                g = ad.grad(model_spec, theta, x[a:b], t[a:b], seg[a:b], sizes,
                            config.penalty)
                if not np.isfinite(g).all():
                    raise DivergenceError(
                        f"non-finite gradient at epoch {epoch}, step {step}"
                    )
                opt.step(theta, g)
                step += 1
        row = _epoch_diagnostics(model_spec, theta, x_all, y_all, targets, group_index,
                                 config.penalty)
        row["epoch"] = epoch
        if not np.isfinite(row["loss"]):
            raise DivergenceError(f"non-finite objective after epoch {epoch}")
        history.append(row)
    return TrainReport(theta, history, step)


def oracle_train_constrained(dataset: Dataset, model_spec: md.ModelSpec,
                             style_matrix: np.ndarray,
                             config: TrainConfig) -> np.ndarray:
    """Fit a linear model constrained to ignore the style subspace: the
    weight vector is forced into the orthogonal complement of
    col(style_matrix) by writing w = P phi with P an orthonormal basis of
    that complement, and training (phi, b) with full batches on the
    projected features x P under the ridge term alone.

    Returns the flat parameter vector [w, b] with ||W^T w|| at rounding level.
    """
    if model_spec.kind != "linear" or model_spec.output_dim != 1:
        raise ValueError("the constrained oracle supports single-logit linear models only")
    w_mat = np.asarray(style_matrix, dtype=float)
    if w_mat.ndim != 2 or w_mat.shape[0] != model_spec.input_dim:
        raise ValueError("style matrix must be p x q")
    if dataset.p != model_spec.input_dim:
        raise ValueError(f"feature dimension {dataset.p} does not match model input "
                         f"{model_spec.input_dim}")
    p, q = w_mat.shape
    if q > p:
        raise ValueError("style dimension exceeds feature dimension")
    q_full, r_full = np.linalg.qr(w_mat, mode="complete")
    if np.min(np.abs(np.diag(r_full[:q, :q]))) < 1e-12 * max(1.0, np.abs(r_full).max()):
        raise ValueError("style matrix is rank deficient")
    if q == p:
        raise ValueError("style space fills the feature space; only w = 0 is feasible")
    basis = q_full[:, q:]  # p x (p - q), orthonormal complement of col(W)
    projected = Dataset(dataset.features @ basis, dataset.labels)
    # ||P phi|| == ||phi||, so the ridge term on phi is the ridge term on w
    ridge_only = replace(config, penalty=PenaltyConfig(gamma=config.penalty.gamma),
                         batch_size=len(dataset))
    spec = md.ModelSpec("linear", (p - q, 1))
    (phi, b), = md._layers(spec, train(projected, build_group_index(projected), spec,
                                       ridge_only).theta)
    return np.concatenate([basis @ phi[:, 0], b])


def evaluate_lambda_grid(train_set: Dataset, val_set: Dataset,
                         model_spec: md.ModelSpec, base_config: TrainConfig,
                         lambdas) -> list:
    """Train once per penalty weight and report validation loss and error.

    The customary rule is to pick the largest weight whose validation loss
    has not yet increased considerably; the report leaves that call to the
    user rather than automating a threshold.
    """
    md._targets(model_spec, val_set.labels)  # bad labels and weights raise before the first fit
    penalties = [replace(base_config.penalty, lam=lam) for lam in lambdas]
    groups = build_group_index(train_set)
    rows = []
    for pen in penalties:
        report = train(train_set, groups, model_spec, replace(base_config, penalty=pen))
        logits = md.forward(model_spec, report.theta, val_set.features)
        losses = md.per_sample_loss(model_spec, logits, val_set.labels)
        rows.append({
            "lam": pen.lam,
            "val_loss": float(np.mean(losses)),
            "val_error": float(np.mean(md._decide(model_spec, logits) != val_set.labels)),
        })
    return rows
