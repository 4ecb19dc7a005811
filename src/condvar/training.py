"""Group-preserving minibatching and first-order training.

The penalized objective and its gradient are in ``autodiff``.
Minibatches never split a group, so the within-group variances inside a
batch are computed from complete groups. When a batch contains no group of
size >= 2 (or lam == 0) the penalty branch is skipped entirely, which makes
penalized training on ungrouped data bit-identical to pooled training.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import models as md
from .data import Dataset, GroupIndex, build_group_index
from .penalties import PenaltyConfig, conditional_penalty

__all__ = [
    "OptimizerConfig",
    "TrainConfig",
    "TrainReport",
    "DivergenceError",
    "pooled_objective",
    "core_objective",
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
        if not self.lr > 0:
            raise ValueError("lr must be positive")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lr": self.lr,
            "momentum": self.momentum,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
        }

    @staticmethod
    def from_dict(d: dict) -> "OptimizerConfig":
        return OptimizerConfig(
            d.get("kind", "adam"),
            float(d.get("lr", 1e-2)),
            float(d.get("momentum", 0.0)),
            float(d.get("beta1", 0.9)),
            float(d.get("beta2", 0.999)),
            float(d.get("eps", 1e-8)),
        )


@dataclass(frozen=True)
class TrainConfig:
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    batch_size: int = 120
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")

    def to_dict(self) -> dict:
        return {
            "penalty": self.penalty.to_dict(),
            "optimizer": self.optimizer.to_dict(),
            "batch_size": self.batch_size,
            "epochs": self.epochs,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        return TrainConfig(
            PenaltyConfig.from_dict(d.get("penalty", {})),
            OptimizerConfig.from_dict(d.get("optimizer", {})),
            int(d.get("batch_size", 120)),
            int(d.get("epochs", 10)),
            int(d.get("seed", 0)),
        )


@dataclass
class TrainReport:
    """Final parameters, one diagnostics row per epoch, and the number of
    optimizer steps taken."""

    theta: np.ndarray
    history: list
    steps: int

    def to_dict(self) -> dict:
        return {
            "theta": [float(v) for v in self.theta],
            "history": self.history,
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")


# ---- objectives ------------------------------------------------------------

def pooled_objective(spec: md.ModelSpec, theta, x, labels, gamma: float = 0.0) -> float:
    """Mean loss over the batch plus gamma * ||weights||^2."""
    return ad.objective(spec, theta, x, labels, None, PenaltyConfig(gamma=gamma))


def core_objective(spec: md.ModelSpec, theta, x, labels, local_groups,
                   penalty: PenaltyConfig) -> float:
    """Pooled objective plus lam * conditional variance penalty computed over
    the groups contained in this batch; ``local_groups`` lists the row
    positions of each group and must partition the batch. With lam == 0
    this is bit-identical to ``pooled_objective``."""
    seg = GroupIndex.from_groups(local_groups, len(labels)).seg
    return ad.objective(spec, theta, x, labels, seg, penalty)


# ---- batching ------------------------------------------------------------

def _group_batches(group_index: GroupIndex, batch_size: int, seed: int,
                   epoch: int) -> list:
    """Batches as (row indices, batch-local segment ids) pairs: groups are
    shuffled as units and packed greedily in that order."""
    if group_index.m and group_index.max_size() > batch_size:
        raise ValueError(
            f"largest group ({group_index.max_size()}) exceeds batch size {batch_size}"
        )
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, int(epoch)])
    order = rng.permutation(group_index.m)
    rank = np.empty(group_index.m, dtype=np.intp)
    rank[order] = np.arange(group_index.m)
    row_rank = rank[group_index.seg]
    rows = np.argsort(row_rank, kind="stable")
    filled = np.concatenate([[0], np.cumsum(group_index.sizes[order])])
    batches = []
    start = 0  # in shuffled-group units
    while start < group_index.m:
        # greedy packing: the longest run of whole groups that fits
        stop = int(np.searchsorted(filled, filled[start] + batch_size, side="right")) - 1
        idx = rows[filled[start]:filled[stop]]
        batches.append((idx, row_rank[idx] - start))
        start = stop
    return batches


def group_aware_minibatches(group_index: GroupIndex, batch_size: int, seed: int,
                            epoch: int) -> list:
    """Shuffle groups as units (seeded by (seed, epoch)) and pack them
    greedily into batches of at most ``batch_size`` indices. No group is ever
    split; the last batch may be short."""
    return [idx for idx, _ in _group_batches(group_index, batch_size, seed, epoch)]


# ---- optimizers ----------------------------------------------------------

class _Sgd:
    def __init__(self, cfg: OptimizerConfig, dim: int):
        self.cfg = cfg
        self.vel = np.zeros(dim)

    def step(self, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
        self.vel = self.cfg.momentum * self.vel - self.cfg.lr * g
        return theta + self.vel


class _Adam:
    def __init__(self, cfg: OptimizerConfig, dim: int):
        self.cfg = cfg
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.t = 0

    def step(self, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
        c = self.cfg
        self.t += 1
        self.m = c.beta1 * self.m + (1.0 - c.beta1) * g
        self.v = c.beta2 * self.v + (1.0 - c.beta2) * (g * g)
        m_hat = self.m / (1.0 - c.beta1 ** self.t)
        v_hat = self.v / (1.0 - c.beta2 ** self.t)
        return theta - c.lr * m_hat / (np.sqrt(v_hat) + c.eps)


def _make_optimizer(cfg: OptimizerConfig, dim: int):
    return _Adam(cfg, dim) if cfg.kind == "adam" else _Sgd(cfg, dim)


# ---- training loops --------------------------------------------------------

def _epoch_diagnostics(spec, theta, x, labels, group_index, penalty) -> dict:
    logits = md.forward(spec, theta, x)
    losses = md.per_sample_loss(spec, logits, labels)
    values = logits if penalty.target == "prediction" else losses
    pen = conditional_penalty(values, group_index, penalty.nu)
    ridge = ad.ridge(spec, theta)
    preds = md.predict_labels(spec, theta, x)
    return {
        "loss": float(np.mean(losses)),
        "penalty": float(pen),
        "ridge": ridge,
        "train_error": float(np.mean(preds != labels)),
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
    opt = _make_optimizer(config.optimizer, theta.size)
    history = []
    step = 0
    for epoch in range(config.epochs):
        for batch, seg in _group_batches(group_index, config.batch_size,
                                         config.seed, epoch):
            g = ad.grad(model_spec, theta, x_all[batch], y_all[batch], seg,
                        config.penalty)
            if not np.all(np.isfinite(g)):
                raise DivergenceError(
                    f"non-finite gradient at epoch {epoch}, step {step}"
                )
            theta = opt.step(theta, g)
            step += 1
        row = _epoch_diagnostics(model_spec, theta, x_all, y_all, group_index,
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
    col(style_matrix) by optimizing w = P phi with P an orthonormal basis
    of that complement.

    Returns the flat parameter vector [w, b] with ||W^T w|| at rounding level.
    """
    if model_spec.kind != "linear" or model_spec.output_dim != 1:
        raise ValueError("the constrained oracle supports single-logit linear models only")
    w_mat = np.asarray(style_matrix, dtype=float)
    if w_mat.ndim != 2 or w_mat.shape[0] != model_spec.input_dim:
        raise ValueError("style matrix must be p x q")
    p, q = w_mat.shape
    if q > p:
        raise ValueError("style dimension exceeds feature dimension")
    q_full, r_full = np.linalg.qr(w_mat, mode="complete")
    if np.min(np.abs(np.diag(r_full[:q, :q]))) < 1e-12 * max(1.0, np.abs(r_full).max()):
        raise ValueError("style matrix is rank deficient")
    if q == p:
        raise ValueError("style space fills the feature space; only w = 0 is feasible")
    basis = q_full[:, q:]  # p x (p - q), orthonormal complement of col(W)
    x_all = dataset.features
    y_all = dataset.labels
    rng_theta = md.init_params(model_spec, config.seed)
    # start phi at the projection of the usual init
    phi0 = basis.T @ rng_theta[:p]
    params = np.concatenate([phi0, rng_theta[p:]])
    opt = _make_optimizer(config.optimizer, params.size)
    ridge_only = PenaltyConfig(gamma=config.penalty.gamma)
    for it in range(config.epochs):
        theta = np.concatenate([basis @ params[:p - q], params[p - q:]])
        g = ad.grad(model_spec, theta, x_all, y_all, None, ridge_only)
        # w = P phi, so d/d phi = P^T d/dw (and ||P phi||^2 == ||phi||^2)
        g = np.concatenate([basis.T @ g[:p], g[p:]])
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient at iteration {it}")
        params = opt.step(params, g)
    w = basis @ params[:p - q]
    return np.concatenate([w, params[p - q:]])


def evaluate_lambda_grid(train_set: Dataset, val_set: Dataset,
                         model_spec: md.ModelSpec, base_config: TrainConfig,
                         lambdas) -> list:
    """Train once per penalty weight and report validation loss and error.

    The customary rule is to pick the largest weight whose validation loss
    has not yet increased considerably; the report leaves that call to the
    user rather than automating a threshold.
    """
    groups = build_group_index(train_set)
    rows = []
    for lam in lambdas:
        pen = PenaltyConfig(base_config.penalty.target, base_config.penalty.nu,
                            float(lam), base_config.penalty.gamma)
        cfg = TrainConfig(pen, base_config.optimizer, base_config.batch_size,
                          base_config.epochs, base_config.seed)
        report = train(train_set, groups, model_spec, cfg)
        logits = md.forward(model_spec, report.theta, val_set.features)
        losses = md.per_sample_loss(model_spec, logits, val_set.labels)
        preds = md.predict_labels(model_spec, report.theta, val_set.features)
        rows.append({
            "lam": float(lam),
            "val_loss": float(np.mean(losses)),
            "val_error": float(np.mean(preds != val_set.labels)),
        })
    return rows
