"""Domain-shift robustness probes for style-aware datasets.

All probes move the style latents of a retained-latent dataset and watch
the loss. Shift budgets are Mahalanobis-squared sizes measured against the
conditional style covariance, averaged over groups; worst-case searches
return certified lower bounds on the true supremum (deterministic per-group
shifts, finite direction grids).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models as md
from .data import GroupIndex, build_group_index
from .penalties import conditional_penalty, segment_means
from .scm import StyleAwareDataset, rerender

__all__ = [
    "ConditionalCovariance",
    "WorstCaseResult",
    "DivergenceProbe",
    "FirstOrderGap",
    "mahalanobis_cost",
    "loss_under_shift",
    "worst_case_loss",
    "divergence_probe",
    "first_order_gap",
    "invariance_defect",
    "estimate_conditional_covariance",
    "steepest_style_direction",
]


@dataclass
class ConditionalCovariance:
    """Pooled within-group style covariance plus its spectral norm zeta."""

    pooled: np.ndarray      # (q, q)
    zeta: float
    spd: bool


@dataclass
class WorstCaseResult:
    value: float
    assignment: np.ndarray  # (m, q) per-group shifts
    method: str
    note: str = "lower bound on the supremum (deterministic per-group shifts)"


@dataclass
class DivergenceProbe:
    direction: np.ndarray
    magnitudes: np.ndarray
    losses: np.ndarray
    unshifted: float
    verdict: str            # 'unbounded' or 'bounded'


@dataclass
class FirstOrderGap:
    lhs: float              # worst-case loss at budget xi (gradient allocation)
    rhs: float              # unshifted loss + sqrt(xi) * conditional sd of loss
    gap: float
    xi: float
    penalty_value: float    # the conditional sd-of-loss term


def _chol(sigma: np.ndarray) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValueError("covariance must be symmetric positive definite") from None


def mahalanobis_cost(delta, sigma) -> float:
    """delta^T sigma^{-1} delta through a Cholesky solve."""
    delta = np.asarray(delta, dtype=float)
    chol = _chol(sigma)
    z = np.linalg.solve(chol, delta)
    return float(z @ z)


def _sigma_per_group(sigma, m: int, q: int) -> np.ndarray:
    arr = np.asarray(sigma, dtype=float)
    if arr.shape == (q, q):
        return np.broadcast_to(arr, (m, q, q))
    if arr.shape == (m, q, q):
        return arr
    raise ValueError(f"sigma must be (q, q) shared or (m, q, q) per group, got {arr.shape}")


def _sample_losses(spec, theta, features, labels) -> np.ndarray:
    return np.asarray(md.per_sample_loss(spec, md.forward(spec, theta, features), labels))


def _mean_loss(spec, theta, features, labels) -> float:
    return float(np.mean(_sample_losses(spec, theta, features, labels)))


def loss_under_shift(spec: md.ModelSpec, theta, style_dataset: StyleAwareDataset,
                     assignment, group_index: GroupIndex | None = None) -> float:
    """Mean loss after re-rendering under the given shift assignment."""
    shifted = rerender(style_dataset, assignment, group_index)
    return _mean_loss(spec, theta, shifted.features, shifted.labels)


def _group_features(style_dataset, members, delta) -> np.ndarray:
    from .scm import _render

    style = style_dataset.style[members] + delta
    return _render(style_dataset.render_kind, style_dataset.core[members], style,
                   style_dataset.core_matrix, style_dataset.style_matrix)


def _group_loss(spec, theta, style_dataset, members, delta) -> float:
    feats = _group_features(style_dataset, members, delta)
    return _mean_loss(spec, theta, feats, style_dataset.dataset.labels[members])


def _sphere_directions(q: int):
    if q == 1:
        return np.array([[1.0], [-1.0]])
    if q == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if q == 3:
        # Fibonacci sphere, 2000 points
        k = np.arange(2000)
        phi = np.pi * (3.0 - np.sqrt(5.0)) * k
        z = 1.0 - 2.0 * (k + 0.5) / 2000
        rad = np.sqrt(1.0 - z * z)
        return np.column_stack([rad * np.cos(phi), rad * np.sin(phi), z])
    return None  # high dimension: caller runs random-restart ascent


def _ascent_directions(q: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((64, q))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _maximize_group(spec, theta, style_dataset, members, sigma, xi, seed) -> tuple:
    """Best shift on the sphere delta^T Sigma^-1 delta = xi for one group."""
    q = style_dataset.q
    chol = _chol(sigma)
    scale = np.sqrt(xi)
    dirs = _sphere_directions(q)
    if dirs is not None:
        best_val, best_delta = -np.inf, np.zeros(q)
        for u in dirs:
            delta = scale * (chol @ u)
            val = _group_loss(spec, theta, style_dataset, members, delta)
            if val > best_val:
                best_val, best_delta = val, delta
        return best_val, best_delta
    # q > 3: projected gradient ascent from random restarts, 200 steps
    labels = style_dataset.dataset.labels[members]
    best_val, best_delta = -np.inf, np.zeros(q)
    step = 0.1 * scale
    for u0 in _ascent_directions(q, seed):
        u = u0.copy()
        for _ in range(200):
            delta = scale * (chol @ u)
            feats = _group_features(style_dataset, members, delta)
            g = _style_gradients(spec, theta, style_dataset, feats, labels).mean(axis=0)
            g_u = scale * (chol.T @ g)
            u = u + step * g_u / max(np.linalg.norm(g_u), 1e-12)
            u /= np.linalg.norm(u)
        delta = scale * (chol @ u)
        val = _group_loss(spec, theta, style_dataset, members, delta)
        if val > best_val:
            best_val, best_delta = val, delta
    return best_val, best_delta


def _style_gradients(spec, theta, style_dataset, features, labels) -> np.ndarray:
    """d loss_i / d style_i for samples rendered as ``features``, (n, q):
    the input gradient chained through the render, W for a linear render
    and d x / d angle = r (-sin a, cos a) = (-x_1, x_0) for the polar one,
    whose other style coordinates do not reach the features."""
    logits = md.forward(spec, theta, features)
    _, gx = md.backward(spec, theta, features, md.loss_gradient(spec, logits, labels))
    if style_dataset.render_kind == "linear":
        return gx @ style_dataset.style_matrix
    out = np.zeros((len(gx), style_dataset.q))
    out[:, 0] = gx[:, 1] * features[:, 0] - gx[:, 0] * features[:, 1]
    return out


def _group_shift_gradients(spec, theta, style_dataset, group_index) -> np.ndarray:
    """Gradient of each group's mean loss with respect to its style shift,
    evaluated at zero shift. Shape (m, q)."""
    ds = style_dataset.dataset
    per_sample = _style_gradients(spec, theta, style_dataset, ds.features, ds.labels)
    return segment_means(per_sample, group_index.seg, group_index.m)


def worst_case_loss(spec: md.ModelSpec, theta, style_dataset: StyleAwareDataset,
                    group_index: GroupIndex, sigma, xi: float,
                    method: str = "gradient_allocation", seed: int = 0) -> WorstCaseResult:
    """Approach the supremum of the mean loss over style shifts whose average
    Mahalanobis-squared size across groups is xi.

    methods
      'uniform_ball'        per-group search on the budget sphere via a dense
                            direction grid (q <= 3) or random-restart ascent
      'gradient_allocation' first-order optimal deterministic allocation
                            delta_j ~ Sigma_j grad_j / sqrt(grad^T Sigma grad)
      'exhaustive_tiny'     reference oracle for at most 3 groups: grid over
                            budget splits, then per-group direction search

    Every returned value is a lower bound on the true supremum.
    """
    if xi < 0:
        raise ValueError("xi must be >= 0")
    m, q = group_index.m, style_dataset.q
    sigmas = _sigma_per_group(sigma, m, q)
    zero = np.zeros((m, q))
    if xi == 0.0:
        value = loss_under_shift(spec, theta, style_dataset, zero, group_index)
        return WorstCaseResult(value, zero, method)
    if method == "uniform_ball":
        assignment = np.empty((m, q))
        for j, g in enumerate(group_index.groups):
            _, assignment[j] = _maximize_group(
                spec, theta, style_dataset, g, sigmas[j], xi, seed + j
            )
        value = loss_under_shift(spec, theta, style_dataset, assignment, group_index)
        return WorstCaseResult(value, assignment, method)
    if method == "gradient_allocation":
        grads = _group_shift_gradients(spec, theta, style_dataset, group_index)
        sg = np.einsum("jab,jb->ja", sigmas, grads)
        norms = np.sqrt(np.maximum(np.einsum("ja,ja->j", grads, sg), 0.0))
        active = norms > 0.0
        assignment = np.zeros((m, q))
        if active.any():
            # nonzero-gradient groups share the whole average budget equally
            per_group_budget = xi * m / active.sum()
            assignment[active] = np.sqrt(per_group_budget) * sg[active] / norms[active, None]
        value = loss_under_shift(spec, theta, style_dataset, assignment, group_index)
        return WorstCaseResult(value, assignment, method)
    if method == "exhaustive_tiny":
        if m > 3:
            raise ValueError("exhaustive_tiny supports at most 3 groups")
        return _exhaustive_tiny(spec, theta, style_dataset, group_index, sigmas, xi)
    raise ValueError(f"unknown method {method!r}")


def _budget_splits(n_groups: int, steps: int = 10):
    fr = np.linspace(0.0, 1.0, steps + 1)
    if n_groups == 1:
        return [np.array([1.0])]
    if n_groups == 2:
        return [np.array([a, 1.0 - a]) for a in fr]
    out = []
    for a in fr:
        for b in fr:
            if a + b <= 1.0 + 1e-12:
                out.append(np.array([a, b, max(0.0, 1.0 - a - b)]))
    return out


def _exhaustive_tiny(spec, theta, style_dataset, group_index, sigmas, xi):
    m, q = group_index.m, style_dataset.q
    n = group_index.n
    weights = group_index.sizes / n
    base = [
        _group_loss(spec, theta, style_dataset, g, np.zeros(q))
        for g in group_index.groups
    ]
    best_val, best_assign = -np.inf, np.zeros((m, q))
    for split in _budget_splits(m):
        assignment = np.zeros((m, q))
        total = 0.0
        for j, g in enumerate(group_index.groups):
            budget = split[j] * m * xi  # average over groups stays at xi
            if budget == 0.0:
                total += weights[j] * base[j]
                continue
            val, delta = _maximize_group(
                spec, theta, style_dataset, g, sigmas[j], budget, seed=j
            )
            assignment[j] = delta
            total += weights[j] * val
        if total > best_val:
            best_val, best_assign = total, assignment.copy()
    return WorstCaseResult(best_val, best_assign, "exhaustive_tiny")


def divergence_probe(spec: md.ModelSpec, theta, style_dataset: StyleAwareDataset,
                     direction, magnitudes) -> DivergenceProbe:
    """Loss along a fixed style direction at growing magnitudes.

    The verdict is 'unbounded' when the largest-magnitude loss exceeds ten
    times the unshifted loss and the last three points strictly increase;
    a heuristic, since no finite probe certifies an infinite limit.
    """
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (style_dataset.q,) or not np.any(direction != 0.0):
        raise ValueError("direction must be a nonzero length-q vector")
    magnitudes = np.asarray(sorted(float(v) for v in magnitudes))
    unshifted = loss_under_shift(spec, theta, style_dataset,
                                 np.zeros(style_dataset.q))
    losses = np.asarray([
        loss_under_shift(spec, theta, style_dataset, mag * direction)
        for mag in magnitudes
    ])
    tail = losses[-3:] if len(losses) >= 3 else losses
    increasing = bool(np.all(np.diff(tail) > 0.0)) if len(tail) >= 2 else False
    big = bool(losses[-1] > 10.0 * unshifted)
    verdict = "unbounded" if (big and increasing) else "bounded"
    return DivergenceProbe(direction, magnitudes, losses, unshifted, verdict)


def first_order_gap(spec: md.ModelSpec, theta, style_dataset: StyleAwareDataset,
                    group_index: GroupIndex, sigma, xi: float) -> FirstOrderGap:
    """Compare the worst-case loss at budget xi against its first-order
    expansion: unshifted loss + sqrt(xi) * conditional sd of the loss."""
    if xi < 0:
        raise ValueError("xi must be >= 0")
    ds = style_dataset.dataset
    losses = _sample_losses(spec, theta, ds.features, ds.labels)
    unshifted = float(np.mean(losses))
    pen = conditional_penalty(losses, group_index, nu=0.5)
    if xi == 0.0:
        return FirstOrderGap(unshifted, unshifted, 0.0, 0.0, pen)
    lhs = worst_case_loss(spec, theta, style_dataset, group_index, sigma, xi,
                          method="gradient_allocation").value
    rhs = unshifted + np.sqrt(xi) * pen
    return FirstOrderGap(lhs, rhs, abs(lhs - rhs), xi, pen)


def invariance_defect(theta, style_matrix, spec: md.ModelSpec | None = None) -> float:
    """||W^T w|| / ||w|| for a linear model's weight vector w (0 when w = 0).

    ``theta`` may be the bare weight vector (length p) or the flat [w, b]
    parameter vector of a single-logit linear model.
    """
    w_mat = np.asarray(style_matrix, dtype=float)
    theta = np.asarray(theta, dtype=float)
    p = w_mat.shape[0]
    if theta.shape == (p,):
        w = theta
    elif theta.shape == (p + 1,):
        w = theta[:p]
    else:
        raise ValueError(f"parameter vector of length {theta.size} does not fit p = {p}")
    norm = np.linalg.norm(w)
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(w_mat.T @ w) / norm)


def steepest_style_direction(spec: md.ModelSpec, theta,
                             style_dataset: StyleAwareDataset, sigma) -> np.ndarray:
    """Sigma-whitened direction of fastest first-order loss growth under a
    global style shift: Sigma g / sqrt(g^T Sigma g) with g the mean shift
    gradient over all samples."""
    whole = GroupIndex(np.zeros(len(style_dataset.dataset), dtype=int))
    g = _group_shift_gradients(spec, theta, style_dataset, whole)[0]
    sigma = np.asarray(sigma, dtype=float)
    sg = sigma @ g
    denom = np.sqrt(g @ sg)
    if denom == 0.0:
        raise ValueError("loss gradient along style is zero; no steepest direction")
    return sg / denom


def estimate_conditional_covariance(style_dataset: StyleAwareDataset,
                                    group_index: GroupIndex | None = None) -> ConditionalCovariance:
    """Empirical within-group covariance of the style latents.

    All groups of size >= 2 contribute, population-normalized, and are
    pooled into one shared estimate (the generators here share one style
    covariance across groups). Falls back to the generator's covariance
    when no group is estimable. zeta is the spectral norm of the estimate.
    """
    if not isinstance(style_dataset, StyleAwareDataset):
        raise TypeError("style latents are required")
    if group_index is None:
        group_index = build_group_index(style_dataset.dataset)
    styles = style_dataset.style
    seg = group_index.seg
    dev = styles - segment_means(styles, seg, group_index.m)[seg]
    dev = dev[group_index.sizes[seg] >= 2]
    if len(dev) == 0:
        if style_dataset.scm is None:
            raise ValueError("no group has two members and no generator covariance exists")
        pooled = np.asarray(style_dataset.scm.style_cov, dtype=float)
    else:
        pooled = dev.T @ dev / len(dev)
    eigs = np.linalg.eigvalsh((pooled + pooled.T) / 2.0)
    zeta = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    # degenerate (all-identical within groups) estimates must not pass as SPD
    floor = 1e-12 * max(1.0, float(np.mean(styles * styles)))
    spd = bool(np.all(eigs > floor))
    return ConditionalCovariance(pooled, zeta, spd)
