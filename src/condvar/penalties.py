"""Conditional variance penalties and variance diagnostics over a grouping.

The central quantity is the within-group variance of some per-sample value
(a predicted logit coordinate or a per-sample loss), averaged uniformly over
all groups after raising each group's variance to an exponent nu in
{1/2, 1}. Group variances use the population normalization (divide by the
group size), so singleton groups contribute exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GroupIndex, _real

__all__ = [
    "PenaltyConfig",
    "DegenerateVarianceError",
    "conditional_penalty",
    "variance_ratio",
]


class DegenerateVarianceError(ArithmeticError):
    """All group means coincide, so a variance ratio has no denominator."""


# the one rule of the variance exponent nu, for ``data._real``
_NU_RULE = ("exactly 0.5 or 1.0", lambda v: v in (0.5, 1.0))


@dataclass(frozen=True)
class PenaltyConfig:
    """target 'prediction' penalizes logits, 'loss' penalizes per-sample
    losses; nu is the variance exponent; lam weights the penalty; gamma
    weights the ridge term on the network weights (biases excluded)."""

    target: str = "prediction"
    nu: float = 1.0
    lam: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.target not in ("prediction", "loss"):
            raise ValueError(f"unknown penalty target {self.target!r}")
        for name, rule, ok in (("nu", *_NU_RULE),
                               ("lam", "finite and >= 0", lambda v: v >= 0.0),
                               ("gamma", "finite and >= 0", lambda v: v >= 0.0)):
            object.__setattr__(self, name, _real(name, getattr(self, name), rule, ok))


def _check_values(values, group_index: GroupIndex) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or len(values) != group_index.n:
        raise ValueError(
            f"values shape {values.shape} does not match group index over {group_index.n} samples"
        )
    return values


def segment_sum(x, seg, m: int) -> np.ndarray:
    """Row sums per segment: out[j] = sum of x[i] over seg[i] == j, for x of
    shape (n,) or (n, K) and seg in [0, m). Rows are added in index order."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.bincount(seg, x, m)
    rows = x.reshape(len(seg), -1)
    k = rows.shape[1]
    flat = (seg[:, None] * k + np.arange(k)).reshape(-1)
    return np.bincount(flat, rows.reshape(-1), m * k).reshape((m,) + x.shape[1:])


def segment_means(values, seg, m: int) -> np.ndarray:
    """Per-segment means of (n,) or (n, K) values."""
    values = np.asarray(values, dtype=float)
    sizes = np.bincount(seg, minlength=m).reshape((m,) + (1,) * (values.ndim - 1))
    return segment_sum(values, seg, m) / sizes


def _segment_variances(values, seg, m: int) -> np.ndarray:
    """Population variance per segment and coordinate: (m,) or (m, K)."""
    dev = values - segment_means(values, seg, m)[seg]
    return segment_means(dev * dev, seg, m)


def penalty_sum(values, seg, m: int, nu: float) -> float:
    """Sum over the m segments and all coordinates of Var_j^nu.

    The one implementation of the conditional variance penalty, behind both
    the training objective and the diagnostics. Singleton segments
    contribute exactly 0.
    """
    var = _segment_variances(values, seg, m)
    if nu == 0.5:
        var = np.sqrt(var)
    return np.sum(var)


def penalty_gradient(values, seg, sizes: np.ndarray, nu: float) -> np.ndarray:
    """d penalty_sum / d values, shaped like ``values``, for the m segments
    whose sizes n_j are ``sizes``: 2 (v - mu_j) / n_j per coordinate, times
    1/2 Var_j^(-1/2) at nu = 1/2. A zero-variance segment gets gradient 0
    (the subgradient sqrt'(0) = 0), so exactly duplicated rows add nothing
    to a training step."""
    m = len(sizes)
    sizes = sizes.reshape((m,) + (1,) * (values.ndim - 1))
    dev = values - (segment_sum(values, seg, m) / sizes)[seg]
    scale = 2.0 / sizes
    if nu == 0.5:
        var = segment_sum(dev * dev, seg, m) / sizes
        positive = var > 0.0
        scale = scale * np.where(positive, 0.5 / np.sqrt(np.where(positive, var, 1.0)), 0.0)
    return dev * scale[seg]


def conditional_penalty(values, group_index: GroupIndex, nu: float = 1.0) -> float:
    """Mean over all m groups of (within-group population variance)^nu.

    ``values`` has shape (n,) or (n, K); per-coordinate variances of
    multi-output values are raised to nu and summed over coordinates.
    Returns exactly 0.0 when there are no grouped observations (c = 0), in
    which case penalized and pooled training coincide.
    """
    nu = _real("nu", nu, *_NU_RULE)
    values = _check_values(values, group_index)
    if group_index.c == 0:
        return 0.0
    return float(penalty_sum(values, group_index.seg, group_index.m, nu)) / group_index.m


def variance_ratio(values, group_index: GroupIndex) -> float:
    """Mean within-group variance divided by the variance of group means.

    A small ratio says the values vary across groups but barely within
    them. Multi-output values of shape (n, K) sum both variances over
    coordinates. Requires m >= 2 and at least one non-singleton group;
    equal group means make the denominator zero, which is reported as
    degenerate.
    """
    values = _check_values(values, group_index)
    if group_index.m < 2:
        raise ValueError("variance_ratio needs at least two groups")
    if group_index.c == 0:
        raise ValueError("variance_ratio needs at least one group of size >= 2")
    seg, m = group_index.seg, group_index.m
    means = segment_means(values, seg, m)
    denom = float(np.sum(np.mean((means - means.mean(axis=0)) ** 2, axis=0)))
    if denom == 0.0:
        raise DegenerateVarianceError("all group means are equal")
    within = _segment_variances(values, seg, m)
    numer = float(np.mean(within.reshape(m, -1).sum(axis=1)))
    return numer / denom
