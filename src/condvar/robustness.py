"""Domain-shift robustness probes for style-aware datasets.

All probes move the style latents of a retained-latent dataset and watch
the loss. Shift budgets are Mahalanobis-squared sizes measured against the
conditional style covariance, averaged over groups. Worst-case searches
return lower bounds on the true supremum (deterministic per-group shifts,
finite direction grids or ascent), except 'uniform_ball' for a single-logit
linear model on a linear render, whose value is the exact supremum.
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


def loss_under_shift(spec: md.ModelSpec, theta, style_dataset: StyleAwareDataset,
                     assignment, group_index: GroupIndex | None = None) -> float:
    """Mean loss after re-rendering under the given shift assignment."""
    shifted = rerender(style_dataset, assignment, group_index)
    logits = md.forward(spec, theta, shifted.features)
    return float(np.mean(md.per_sample_loss(spec, logits, shifted.labels)))


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


def _linear_in_style(spec, style_dataset) -> bool:
    """Whether a style shift delta moves every logit by the same a^T delta,
    a = W^T w: a single-logit linear model on a linear render."""
    return (style_dataset.render_kind == "linear" and spec.kind == "linear"
            and spec.output_dim == 1)


def _search_spheres(spec, theta, style_dataset, group_index, sigmas, budgets,
                    seed) -> tuple:
    """Best shift on every group's sphere delta^T Sigma_j^-1 delta = budget_j,
    all groups at once: returns the group mean losses there, (m,), and the
    shifts, (m, q). A candidate is one unit direction u_j per group, shifted
    as sqrt(budget_j) L_j u_j with L_j the Cholesky factor of Sigma_j.
    When a shift moves every logit by a^T delta (``_linear_in_style``), a
    group's mean loss is convex in s = a^T delta, which spans an interval on
    the sphere, so the two candidates u_j = +-L_j^T a / ||L_j^T a|| at its
    ends hold the exact maximum (when a = 0 every shift ties: u_j = +-e_1).
    Otherwise, for q <= 3 the candidates are a direction grid shared by all
    groups; above that, 64 random restarts per group (seeded seed + j), each
    refined by 200 steps of projected gradient ascent. Each group keeps its
    first strict maximum. Candidates are rendered, stepped and scored K at a
    time as one (K n)-row batch over K m segments, K as large as
    models._CHUNK_BYTES allows for K n (widest of p, q and the model's layer
    widths) floats, at least 1. When every budget is 0 the only shift is 0,
    and the unshifted group mean losses are returned without a search."""
    seg, m, q = group_index.seg, group_index.m, style_dataset.q
    n, p = style_dataset.dataset.features.shape
    chols = _chol(sigmas)
    scale = np.sqrt(budgets)[:, None]
    k = max(1, md._CHUNK_BYTES // (8 * n * max(p, q, *spec.layer_sizes)))
    targets = np.tile(md._targets(spec, style_dataset.dataset.labels), k)
    seg_k = (np.arange(k)[:, None] * m + seg).reshape(-1)  # candidate i's groups at i m + seg

    def shift(u):  # (K, m, q) unit directions -> shifts
        return scale * np.einsum("jab,kjb->kja", chols, u)

    def render(delta):  # (K, m, q) shifts -> (K n, p) features
        style = style_dataset.style + np.take(delta, seg, axis=1)
        return style_dataset.render(style).reshape(-1, p)

    def group_means(values):  # (K n, ...) -> (K, m, ...)
        kk = len(values) // n
        means = segment_means(values, seg_k[:kk * n], kk * m)
        return means.reshape((kk, m) + values.shape[1:])

    def group_losses(delta):
        logits = md.forward(spec, theta, render(delta))
        return group_means(md._target_losses(spec, logits, targets[:len(delta) * n]))

    if not np.any(budgets):
        zero = np.zeros((1, m, q))
        return group_losses(zero)[0], zero[0]

    steps = 0
    if _linear_in_style(spec, style_dataset):
        a = style_dataset.style_matrix.T @ np.asarray(theta, dtype=float)[:p]
        ends = np.einsum("jba,b->ja", chols, a)  # L_j^T a
        ends[~np.any(ends, axis=1)] = np.eye(q)[0]
        ends /= np.linalg.norm(ends, axis=1, keepdims=True)
        starts = np.stack([ends, -ends])
    elif (grid := _sphere_directions(q)) is not None:
        starts = np.broadcast_to(grid[:, None, :], (len(grid), m, q))
    else:
        # the only per-group step: each group draws its restarts from seed + j
        starts = np.stack([np.random.default_rng(seed + j).standard_normal((64, q))
                           for j in range(m)], axis=1)
        starts /= np.linalg.norm(starts, axis=2, keepdims=True)
        steps = 200
    best_val, best_delta, groups = np.full(m, -np.inf), np.zeros((m, q)), np.arange(m)
    for lo in range(0, len(starts), k):
        u = starts[lo:lo + k]
        for _ in range(steps):
            g = _style_gradients(spec, theta, style_dataset, render(shift(u)),
                                 targets[:len(u) * n])
            g_u = scale * np.einsum("jba,kjb->kja", chols, group_means(g))
            norms = np.maximum(np.linalg.norm(g_u, axis=2, keepdims=True), 1e-12)
            u = u + 0.1 * scale * g_u / norms
            u = u / np.linalg.norm(u, axis=2, keepdims=True)
        delta = shift(u)
        val = group_losses(delta)
        val[np.isnan(val)] = -np.inf  # NaN never beats the best, as under ">"
        top = np.argmax(val, axis=0)  # first maximum within the chunk
        val, delta = val[top, groups], delta[top, groups]
        better = val > best_val
        best_val[better], best_delta[better] = val[better], delta[better]
    return best_val, best_delta


def _style_gradients(spec, theta, style_dataset, features, targets) -> np.ndarray:
    """d loss_i / d style_i for samples rendered as ``features``, with loss
    ``targets``, (n, q): the input gradient chained through the render, W
    for a linear render and d x / d angle = r (-sin a, cos a) = (-x_1, x_0)
    for the polar one, whose other style coordinates do not reach the
    features. The layers run once: the backward chain reuses the inputs the
    forward pass kept."""
    theta, features, _ = md._checked(spec, theta, features)
    hs = list(md._layer_inputs(spec, theta, features))
    with np.errstate(over="ignore"):  # exp = inf gives the limit 0
        g = md._target_loss_gradient(spec, md._output(spec, theta, hs[-1]), targets)
    _, g = md._chain(spec, theta, hs, g.reshape(len(features), spec.output_dim))
    wsl, wshape, _ = spec.layout[0]
    gx = g @ theta[wsl].reshape(wshape).T
    if style_dataset.render_kind == "linear":
        return gx @ style_dataset.style_matrix
    out = np.zeros((len(gx), style_dataset.q))
    out[:, 0] = gx[:, 1] * features[:, 0] - gx[:, 0] * features[:, 1]
    return out


def _group_shift_gradients(spec, theta, style_dataset, group_index) -> np.ndarray:
    """Gradient of each group's mean loss with respect to its style shift,
    evaluated at zero shift. Shape (m, q)."""
    ds = style_dataset.dataset
    per_sample = _style_gradients(spec, theta, style_dataset, ds.features,
                                  md._targets(spec, ds.labels))
    return segment_means(per_sample, group_index.seg, group_index.m)


def _check_budget(xi) -> None:
    if not (np.isfinite(xi) and xi >= 0):
        raise ValueError(f"xi must be finite and >= 0, got {xi}")


def worst_case_loss(spec: md.ModelSpec, theta, style_dataset: StyleAwareDataset,
                    group_index: GroupIndex, sigma, xi: float,
                    method: str = "gradient_allocation", seed: int = 0) -> WorstCaseResult:
    """Approach the supremum of the mean loss over style shifts whose average
    Mahalanobis-squared size across groups is xi.

    methods
      'uniform_ball'        every group searched on its budget sphere at once,
                            over a dense direction grid (q <= 3) or by
                            random-restart projected ascent; exactly, at two
                            candidates, for a single-logit linear model on a
                            linear render
      'gradient_allocation' first-order optimal deterministic allocation
                            delta_j ~ Sigma_j grad_j / sqrt(grad^T Sigma grad)
      'exhaustive_tiny'     reference oracle for at most 3 groups: grid over
                            budget splits, each split searched like
                            'uniform_ball'

    Returned values are lower bounds on the true supremum, except the exact
    'uniform_ball' results, whose note says so.
    """
    _check_budget(xi)
    if method not in ("uniform_ball", "gradient_allocation", "exhaustive_tiny"):
        raise ValueError(f"unknown method {method!r}")
    m, q = group_index.m, style_dataset.q
    if method == "exhaustive_tiny" and m > 3:
        raise ValueError("exhaustive_tiny supports at most 3 groups")
    sigmas = _sigma_per_group(sigma, m, q)
    zero = np.zeros((m, q))
    if xi == 0.0:
        value = loss_under_shift(spec, theta, style_dataset, zero, group_index)
        return WorstCaseResult(value, zero, method)
    if method == "exhaustive_tiny":
        return _exhaustive_tiny(spec, theta, style_dataset, group_index, sigmas, xi, seed)
    if method == "uniform_ball":
        _, assignment = _search_spheres(spec, theta, style_dataset, group_index,
                                        sigmas, np.full(m, xi), seed)
    else:
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
    result = WorstCaseResult(value, assignment, method)
    if method == "uniform_ball" and _linear_in_style(spec, style_dataset):
        result.note = "exact supremum (linear model, linear render)"
    return result


def _budget_splits(n_groups: int, steps: int):
    """Every way to share ``steps`` budget units among the groups, as index
    tuples into the share grid linspace(0, 1, steps + 1)."""
    if n_groups == 1:
        return [(steps,)]
    if n_groups == 2:
        return [(i, steps - i) for i in range(steps + 1)]
    return [(i, j, steps - i - j) for i in range(steps + 1) for j in range(steps + 1 - i)]


def _exhaustive_tiny(spec, theta, style_dataset, group_index, sigmas, xi, seed):
    m, q = group_index.m, style_dataset.q
    weights = group_index.sizes / group_index.n
    steps = 10
    splits = np.array(_budget_splits(m, steps))
    fr = np.linspace(0.0, 1.0, steps + 1)
    # a group's value depends only on its own budget, so one search per share
    # level (every group at share fr[k], average budget kept at xi) fills a
    # (level, group) table that every split reads from
    vals, shifts = np.zeros((len(fr), m)), np.zeros((len(fr), m, q))
    for k in np.unique(splits):
        vals[k], shifts[k] = _search_spheres(spec, theta, style_dataset, group_index,
                                             sigmas, np.full(m, fr[k] * m * xi), seed)
    groups = np.arange(m)
    best_val, best_assign = -np.inf, np.zeros((m, q))
    for split in splits:
        total = float(np.sum(weights * vals[split, groups]))
        if total > best_val:
            best_val, best_assign = total, shifts[split, groups]
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
    if not np.all(np.isfinite(magnitudes)):
        raise ValueError("magnitudes must be finite")
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
    _check_budget(xi)
    ds = style_dataset.dataset
    losses = md.per_sample_loss(spec, md.forward(spec, theta, ds.features), ds.labels)
    unshifted = float(np.mean(losses))
    pen = conditional_penalty(losses, group_index, nu=0.5)
    if xi == 0.0:
        return FirstOrderGap(unshifted, unshifted, 0.0, 0.0, pen)
    lhs = worst_case_loss(spec, theta, style_dataset, group_index, sigma, xi,
                          method="gradient_allocation").value
    rhs = unshifted + np.sqrt(xi) * pen
    return FirstOrderGap(lhs, rhs, abs(lhs - rhs), xi, pen)


def invariance_defect(theta, style_matrix) -> float:
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
    gradient over all samples. When that growth is zero (a model that
    ignores style), every direction ties and e_1 is returned."""
    whole = GroupIndex(np.zeros(len(style_dataset.dataset), dtype=int))
    g = _group_shift_gradients(spec, theta, style_dataset, whole)[0]
    sigma = np.asarray(sigma, dtype=float)
    sg = sigma @ g
    denom = np.sqrt(g @ sg)
    if denom == 0.0:
        return np.eye(len(g))[0]
    return sg / denom


def estimate_conditional_covariance(style_dataset: StyleAwareDataset,
                                    group_index: GroupIndex | None = None) -> ConditionalCovariance:
    """Empirical within-group covariance of the style latents.

    All groups of size >= 2 contribute, population-normalized, and are
    pooled into one shared estimate (the generators here share one style
    covariance across groups). Data with no group of two or more raises
    ValueError. zeta is the spectral norm of the estimate.
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
        raise ValueError("no group has two members; the style covariance is not estimable")
    pooled = dev.T @ dev / len(dev)
    eigs = np.linalg.eigvalsh((pooled + pooled.T) / 2.0)
    zeta = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    # degenerate (all-identical within groups) estimates must not pass as SPD
    floor = 1e-12 * max(1.0, float(np.mean(styles * styles)))
    spd = bool(np.all(eigs > floor))
    return ConditionalCovariance(pooled, zeta, spd)
