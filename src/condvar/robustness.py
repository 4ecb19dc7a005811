"""Domain-shift robustness probes for style-aware datasets.

All probes move the style latents of a retained-latent dataset and watch
the loss. Shift budgets are Mahalanobis-squared sizes, averaged over
groups, measured against one conditional style covariance Sigma shared by
every group. The style model is ``scm``'s: ``scm._chol`` alone checks and
factors Sigma, and ``scm._render_vjp`` carries ``models._input_gradient``
through the render. Worst-case searches return lower bounds on the true
supremum (deterministic per-group shifts, finite direction grids or
ascent). 'uniform_ball' is exact for equal per-group budgets, at every
budget, when ``_style_direction`` finds the model linear in style. Every
probe scores through ``_shifted_losses``.

``report`` runs every probe of one fit on one ``_Fit``, which computes each
input they share once, and returns one ``RobustnessReport``, whose
``to_json`` is the CLI's ``robustness.json``; each public probe runs on a
``_Fit`` of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import models as md
from .data import GroupIndex, _natural, _real, build_group_index
from .penalties import conditional_penalty, segment_means
from .scm import StyleAwareDataset, _checked_shift, _chol, _render_vjp

__all__ = [
    "ConditionalCovariance",
    "WorstCaseResult",
    "DivergenceProbe",
    "FirstOrderGap",
    "RobustnessReport",
    "mahalanobis_cost",
    "loss_under_shift",
    "worst_case_loss",
    "divergence_probe",
    "first_order_gap",
    "invariance_defect",
    "estimate_conditional_covariance",
    "steepest_style_direction",
    "report",
]


@dataclass
class ConditionalCovariance:
    """Pooled within-group style covariance and whether it is positive definite."""

    pooled: np.ndarray      # (q, q)
    spd: bool


# uniform_ball's note for a single-logit linear model on a linear render
_EXACT_NOTE = ("exact for equal per-group budgets (linear model, linear render); "
               "a lower bound when budgets may differ between groups")


@dataclass
class WorstCaseResult:
    """The best shift found, its mean loss and ``worst_case_loss``'s note."""

    value: float
    assignment: np.ndarray  # (m, q) per-group shifts
    method: str
    note: str = "worst-case values are lower bounds on the supremum"


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


@dataclass
class RobustnessReport:
    """One fit's style-shift robustness, from ``report``; ``to_json`` is the
    ``robustness.json`` that ``shift_eval`` writes."""

    xi_grid: list
    worst_case: list        # a WorstCaseResult per budget in xi_grid
    method: str
    first_order: FirstOrderGap
    divergence: DivergenceProbe
    invariance_defect: float | None  # a model linear in style only

    def to_json(self) -> dict:
        fo, probe = self.first_order, self.divergence
        out = {"xi_grid": self.xi_grid, "worst_case": [r.value for r in self.worst_case],
               "method": self.method, "note": self.worst_case[-1].note,
               "unshifted_loss": probe.unshifted,
               "first_order": {"xi": fo.xi, "lhs": fo.lhs, "rhs": fo.rhs, "gap": fo.gap},
               "divergence": {"direction": probe.direction.tolist(),
                              "magnitudes": probe.magnitudes.tolist(),
                              "losses": probe.losses.tolist(), "verdict": probe.verdict}}
        if self.invariance_defect is not None:
            out["invariance_defect"] = self.invariance_defect
        return out


def mahalanobis_cost(delta, sigma) -> float:
    """delta^T sigma^{-1} delta through a Cholesky solve."""
    delta = np.asarray(delta, dtype=float)
    z = np.linalg.solve(_chol(sigma, len(delta)), delta)
    return float(z @ z)


def _shifted_losses(fit, shifts) -> np.ndarray:
    """Per-sample losses of a ``_Fit``, (K, n), under K stacked style shifts:
    ``shifts`` is (K, n, q), or (K, 1, q) for one shift of every sample,
    rendered and scored ``fit.copies`` at a time as one stack for
    ``models.forward``; no sample's loss depends on the rows beside it."""
    spec, ds, n, k = fit.spec, fit.data, len(fit.targets), fit.copies
    losses = np.empty((len(shifts), n))
    for lo in range(0, len(shifts), k):
        feats = ds.render(ds.style + shifts[lo:lo + k])
        logits = md.forward(spec, fit.theta, feats.reshape(-1, feats.shape[-1]))
        losses[lo:lo + len(feats)] = md._target_losses(
            spec, logits, np.tile(fit.targets, len(feats))).reshape(len(feats), n)
    return losses


def loss_under_shift(spec: md.ModelSpec, theta, style_dataset: StyleAwareDataset, shift) -> float:
    """Mean loss after re-rendering under ``shift``, (q,) or (n, q) by ``_checked_shift``."""
    shift = _checked_shift(shift, len(style_dataset.dataset), style_dataset.q)
    return _Fit(spec, theta, style_dataset).mean_loss(shift)


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


def _style_direction(spec, theta, style_dataset) -> np.ndarray | None:
    """a = W^T w when a style shift delta moves every logit by a^T delta (a
    single-logit linear model, weights w, on a linear render W), else None."""
    if (style_dataset.render_kind, spec.kind, spec.output_dim) == ("linear", "linear", 1):
        (w, _b), = md._layers(spec, np.asarray(theta, dtype=float))
        return _render_vjp(style_dataset, None, w[:, 0])
    return None


def _search_spheres(fit, budgets, seed) -> tuple:
    """Best shift on every group's sphere delta^T Sigma^-1 delta = budget_j,
    all of ``fit.groups`` at once: returns the group mean losses there, (m,),
    the shifts, (m, q), and each sample's loss under its group's shift, (n,).
    A candidate is one unit direction u_j per group, shifted as
    sqrt(budget_j) L u_j with L = ``fit.chol``.
    When a shift moves every logit by a^T delta (``fit.a``), a
    group's mean loss is convex in s = a^T delta, which spans an interval on
    the sphere, so the two candidates u = +-L^T a / ||L^T a|| at its ends,
    one pair for every group, hold the exact maximum (when a = 0 every
    shift ties: u = +-e_1).
    Otherwise, for q <= 3 the candidates are a direction grid shared by all
    groups; above that, 64 random restarts per group (seeded seed + j), each
    refined by 200 steps of projected gradient ascent. Each group keeps its
    first strict maximum; a group that never finds one keeps the zero shift
    and its unshifted losses. Candidates are stepped and scored
    ``fit.copies`` at a time, their group means taken over that many times m
    segments. When every budget is 0 the only shift is 0, and the fit's
    unshifted losses and their group means are returned without a search."""
    ds, chol, seg, m, q = fit.data, fit.chol, fit.groups.seg, fit.groups.m, fit.data.q
    n, p = ds.dataset.features.shape
    scale, k = np.sqrt(budgets)[:, None], fit.copies
    seg_k = (np.arange(k)[:, None] * m + seg).reshape(-1)  # candidate i's groups at i m + seg

    def shift(u):  # (K, m, q) unit directions -> shifts
        return scale * np.einsum("ab,kjb->kja", chol, u)

    def group_means(values):  # (K n, ...) -> (K, m, ...)
        kk = len(values) // n
        means = segment_means(values, seg_k[:kk * n], kk * m)
        return means.reshape((kk, m) + values.shape[1:])

    if not np.any(budgets):
        return segment_means(fit.unshifted, seg, m), np.zeros((m, q)), fit.unshifted

    steps = 0
    if (a := fit.a) is not None:
        # one (1, q) row, L^T a, whose pair every group shares
        end = np.einsum("ba,b->a", chol, a)[None] if np.any(a) else np.eye(q)[:1]
        end /= np.linalg.norm(end, axis=1, keepdims=True)
        starts = np.broadcast_to(np.stack([end, -end]), (2, m, q))
    elif (grid := _sphere_directions(q)) is not None:
        starts = np.broadcast_to(grid[:, None, :], (len(grid), m, q))
    else:
        # the only per-group step: each group draws its restarts from seed + j
        starts = np.stack([np.random.default_rng(seed + j).standard_normal((64, q))
                           for j in range(m)], axis=1)
        starts /= np.linalg.norm(starts, axis=2, keepdims=True)
        steps = 200
    best_val, best_delta, groups = np.full(m, -np.inf), np.zeros((m, q)), np.arange(m)
    best_losses = fit.unshifted
    for lo in range(0, len(starts), k):
        u = starts[lo:lo + k]
        for _ in range(steps):
            style = ds.style + np.take(shift(u), seg, axis=1)
            g = _style_gradients(fit.spec, fit.theta, ds, ds.render(style).reshape(-1, p),
                                 np.tile(fit.targets, len(u)))
            g_u = scale * np.einsum("ba,kjb->kja", chol, group_means(g))
            norms = np.maximum(np.linalg.norm(g_u, axis=2, keepdims=True), 1e-12)
            u = u + 0.1 * scale * g_u / norms
            u = u / np.linalg.norm(u, axis=2, keepdims=True)
        delta = shift(u)
        losses = _shifted_losses(fit, np.take(delta, seg, axis=1))
        val = group_means(losses.reshape(-1))
        val[np.isnan(val)] = -np.inf  # NaN never beats the best, as under ">"
        top = np.argmax(val, axis=0)  # first maximum within the chunk
        val, delta = val[top, groups], delta[top, groups]
        better = val > best_val
        best_val[better], best_delta[better] = val[better], delta[better]
        best_losses = np.where(better[seg], losses[top[seg], np.arange(n)], best_losses)
    return best_val, best_delta, best_losses


def _style_gradients(spec, theta, style_dataset, features, targets) -> np.ndarray:
    """d loss_i / d style_i, (n, q): ``models._input_gradient`` through the render."""
    return _render_vjp(style_dataset, features, md._input_gradient(spec, theta, features, targets))


class _Fit:
    """The probes of one fit and what they share: the factor of ``sigma``
    (checked before any model evaluation), the loss targets, a and
    ``copies``, how many copies of the n samples, features and style, one
    stack holds (``models._chunk``), set here, and the zero-shift per-sample
    losses and style gradients, (n,) and (n, q), each computed once, on
    first use."""

    def __init__(self, spec, theta, style_dataset, sigma=None, groups=None):
        self.spec, self.theta, self.data = spec, theta, style_dataset
        self.sigma, self.groups = sigma, groups
        self.chol = None if sigma is None else _chol(sigma, style_dataset.q)
        self.targets = md._targets(spec, style_dataset.dataset.labels)
        self.a = _style_direction(spec, theta, style_dataset)
        self.copies = md._chunk(len(self.targets), style_dataset.dataset.p + style_dataset.q)

    @cached_property
    def unshifted(self) -> np.ndarray:
        return _shifted_losses(self, np.zeros((1, 1, self.data.q)))[0]

    @cached_property
    def gradients(self) -> np.ndarray:
        return _style_gradients(self.spec, self.theta, self.data, self.data.dataset.features,
                                self.targets)

    def mean_loss(self, shift) -> float:
        """The mean loss under a (1, q) or (n, q) float ``shift``."""
        losses = _shifted_losses(self, shift[None])[0] if np.any(shift) else self.unshifted
        return float(np.mean(losses))

    def worst_case(self, xi, method, seed) -> WorstCaseResult:
        m, q, seg = self.groups.m, self.data.q, self.groups.seg
        losses = None  # the search's per-sample losses at its shifts, else scored below
        if xi == 0.0:
            assignment = np.zeros((m, q))  # every method's only shift
        elif method == "exhaustive_tiny":
            return _exhaustive_tiny(self, xi, seed)
        elif method == "uniform_ball":
            _, assignment, losses = _search_spheres(self, np.full(m, xi), seed)
        else:
            grads = segment_means(self.gradients, seg, m)  # (m, q)
            sg = np.einsum("ab,jb->ja", np.asarray(self.sigma, dtype=float), grads)
            norms = np.sqrt(np.maximum(np.einsum("ja,ja->j", grads, sg), 0.0))
            active = norms > 0.0
            assignment = np.zeros((m, q))
            if active.any():
                # nonzero-gradient groups share the whole average budget equally
                per_group_budget = xi * m / active.sum()
                assignment[active] = np.sqrt(per_group_budget) * sg[active] / norms[active, None]
        exact = method == "uniform_ball" and self.a is not None
        value = self.mean_loss(assignment[seg]) if losses is None else float(np.mean(losses))
        return WorstCaseResult(value, assignment, method,
                               _EXACT_NOTE if exact else WorstCaseResult.note)

    def first_order(self, xi) -> FirstOrderGap:
        unshifted = float(np.mean(self.unshifted))
        pen = conditional_penalty(self.unshifted, self.groups, nu=0.5)
        lhs = self.worst_case(xi, "gradient_allocation", 0).value
        rhs = unshifted + np.sqrt(xi) * pen
        return FirstOrderGap(lhs, rhs, abs(lhs - rhs), float(xi), pen)

    def steepest(self) -> np.ndarray:
        whole = np.zeros(len(self.data.dataset), dtype=int)  # one segment: every sample
        g = segment_means(self.gradients, whole, 1)[0]
        sg = np.asarray(self.sigma, dtype=float) @ g
        denom = np.sqrt(g @ sg)
        return np.eye(len(g))[0] if denom == 0.0 else sg / denom

    def divergence(self, direction, magnitudes) -> DivergenceProbe:
        # a zero magnitude reads the shared zero-shift losses
        unshifted, moved = float(np.mean(self.unshifted)), magnitudes != 0.0
        losses = np.full(len(magnitudes), unshifted)
        if moved.any():
            shifts = magnitudes[moved, None, None] * direction
            losses[moved] = _shifted_losses(self, shifts).mean(axis=1)
        for magnitude, loss in zip(magnitudes, losses):
            if not np.isfinite(loss):
                raise ArithmeticError(f"mean loss {loss} at style-shift magnitude {magnitude}")
        tail = losses[-3:]
        increasing = bool(np.all(np.diff(tail) > 0.0)) if len(tail) >= 2 else False
        big = bool(losses[-1] > 10.0 * unshifted)
        verdict = "unbounded" if (big and increasing) else "bounded"
        return DivergenceProbe(direction, magnitudes, losses, unshifted, verdict)


def _budget(xi) -> float:
    return _real("xi", xi, "finite and >= 0", lambda v: v >= 0.0)


def _check_method(method, m: int) -> None:
    if method not in ("uniform_ball", "gradient_allocation", "exhaustive_tiny"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exhaustive_tiny" and m > 3:
        raise ValueError("exhaustive_tiny supports at most 3 groups")


def _checked_magnitudes(magnitudes) -> np.ndarray:
    magnitudes = np.asarray(sorted(_real("magnitudes", v, "finite", lambda v: True)
                                   for v in magnitudes))
    if len(magnitudes) == 0:
        raise ValueError("magnitudes must hold at least one magnitude")
    return magnitudes


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
      'gradient_allocation' first-order directions delta_j ~ Sigma grad_j,
                            the average budget split equally among the
                            groups whose gradient is not zero
      'exhaustive_tiny'     reference oracle for at most 3 groups: grid over
                            budget splits, each split searched like
                            'uniform_ball'

    ``sigma`` is one symmetric positive definite q x q style covariance,
    shared by every group; any other input raises ValueError at every xi.
    Returned values are lower bounds on the true supremum. The note, set
    here for every xi, 0 included, is ``_EXACT_NOTE`` for the exact
    'uniform_ball' values, else the ``WorstCaseResult`` default.
    """
    xi, seed = _budget(xi), _natural("seed", seed)
    _check_method(method, group_index.m)
    return _Fit(spec, theta, style_dataset, sigma, group_index).worst_case(xi, method, seed)


def _budget_splits(n_groups: int, steps: int):
    """Every way to share ``steps`` budget units among the groups, as index
    tuples into the share grid linspace(0, 1, steps + 1), in lexicographic
    order ((steps + 1)^n_groups candidates: meant for n_groups <= 3)."""
    return [s for s in itertools.product(range(steps + 1), repeat=n_groups)
            if sum(s) == steps]


def _exhaustive_tiny(fit, xi, seed):
    m, q = fit.groups.m, fit.data.q
    weights = fit.groups.sizes / fit.groups.n
    steps = 10
    splits = np.array(_budget_splits(m, steps))
    fr = np.linspace(0.0, 1.0, steps + 1)
    # a group's value depends only on its own budget, so one search per share
    # level (every group at share fr[k], average budget kept at xi) fills a
    # (level, group) table that every split reads from
    vals, shifts = np.zeros((len(fr), m)), np.zeros((len(fr), m, q))
    for k in np.unique(splits):
        vals[k], shifts[k], _ = _search_spheres(fit, np.full(m, fr[k] * m * xi), seed)
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
    a heuristic, since no finite probe certifies an infinite limit. A NaN
    or infinite loss raises ArithmeticError naming its magnitude instead.
    """
    direction = np.asarray(direction, dtype=float)
    if (direction.shape != (style_dataset.q,) or not np.isfinite(direction).all()
            or not np.any(direction != 0.0)):
        raise ValueError("direction must be a finite nonzero length-q vector")
    return _Fit(spec, theta, style_dataset).divergence(direction,
                                                       _checked_magnitudes(magnitudes))


def first_order_gap(spec: md.ModelSpec, theta, style_dataset: StyleAwareDataset,
                    group_index: GroupIndex, sigma, xi: float) -> FirstOrderGap:
    """Compare the worst-case loss at budget xi against its first-order
    expansion: unshifted loss + sqrt(xi) * conditional sd of the loss."""
    return _Fit(spec, theta, style_dataset, sigma, group_index).first_order(_budget(xi))


def invariance_defect(theta, style_matrix) -> float:
    """||W^T w|| / ||w|| for the flat [w, b] parameter vector of a
    single-logit linear model, length p + 1 (0 when w = 0)."""
    w_mat = np.asarray(style_matrix, dtype=float)
    theta = np.asarray(theta, dtype=float)
    p = w_mat.shape[0]
    if theta.shape != (p + 1,):
        raise ValueError(f"parameter vector of length {theta.size} does not fit p + 1 = {p + 1}")
    (w, _b), = md._layers(md.ModelSpec("linear", (p, 1)), theta)
    w = w[:, 0]
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
    return _Fit(spec, theta, style_dataset, sigma).steepest()


def report(spec: md.ModelSpec, theta, style_dataset: StyleAwareDataset,
           group_index: GroupIndex, sigma, xis, method: str, fo_xi: float,
           magnitudes) -> RobustnessReport:
    """The worst case by ``method`` at every budget in ``xis``, the first-order
    gap at ``fo_xi``, the divergence probe at ``magnitudes`` along the steepest
    style direction and the invariance defect (for a model linear in style;
    else along e_1, with no defect), all on one ``_Fit``, every input checked
    before the model first runs."""
    if len(xis) == 0:
        raise ValueError("xis must hold at least one budget")
    xis, fo_xi = [_budget(xi) for xi in xis], _budget(fo_xi)
    _check_method(method, group_index.m)
    magnitudes = _checked_magnitudes(magnitudes)
    fit = _Fit(spec, theta, style_dataset, sigma, group_index)
    linear = fit.a is not None
    direction = fit.steepest() if linear else np.eye(style_dataset.q)[0]
    return RobustnessReport(
        xis, [fit.worst_case(xi, method, 0) for xi in xis], method,
        fit.first_order(fo_xi), fit.divergence(direction, magnitudes),
        invariance_defect(theta, style_dataset.style_matrix) if linear else None)


def estimate_conditional_covariance(style_dataset: StyleAwareDataset,
                                    group_index: GroupIndex | None = None) -> ConditionalCovariance:
    """Empirical within-group covariance of the style latents.

    All groups of size >= 2 contribute, population-normalized, and are
    pooled into one shared estimate (the generators here share one style
    covariance across groups). Data with no group of two or more raises
    ValueError.
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
        raise ValueError("no (label, id) group has two members, "
                         "so the style covariance cannot be estimated")
    pooled = dev.T @ dev / len(dev)
    eigs = np.linalg.eigvalsh((pooled + pooled.T) / 2.0)
    # degenerate (all-identical within groups) estimates must not pass as SPD
    floor = 1e-12 * max(1.0, float(np.mean(styles * styles)))
    spd = bool(np.all(eigs > floor))
    return ConditionalCovariance(pooled, spd)
