"""The penalized training objective and its closed-form gradient.

    mean loss over the batch
    + gamma * ||weights||^2                      (biases excluded)
    + lam * mean over batch groups of Var_j^nu   (variance of logits or losses)

``objective`` evaluates it and ``grad`` differentiates it by the chain
rule: the loss and penalty derivatives give d/d logits, and the backward
chain of ``models`` carries that to the parameters, reusing the layer
inputs that the forward pass of the same call kept. ``grad`` is the
training step's one call per batch; it takes its arguments as given,
because ``train`` checks them once per run. Both functions read the skip
rule, the 1/m group weighting and the bias-free ridge from this module.
The module keeps its name because ``perfbench/spans.py`` traces ``grad``
to count training steps.
"""

from __future__ import annotations

import numpy as np

from . import models as md
from .penalties import PenaltyConfig, penalty_gradient, penalty_sum

__all__ = ["ridge", "objective", "grad"]


def ridge(spec: md.ModelSpec, theta: np.ndarray) -> float:
    """||weights||^2 summed over the layers; biases are excluded."""
    total = 0.0
    for wsl, _, _ in spec.layout:
        w = theta[wsl]
        total = total + np.sum(w * w)
    return float(total)


def _penalized_groups(seg, penalty: PenaltyConfig) -> int:
    """The number m of batch groups the penalty averages over, or 0 when the
    penalty is skipped: lam == 0, no segment ids, or no group of size >= 2.
    Skipping makes penalized training on ungrouped data bit-identical to
    pooled training."""
    if penalty.lam > 0.0 and seg is not None:
        m = int(seg.max()) + 1
        if m < len(seg):
            return m
    return 0


def objective(spec: md.ModelSpec, theta, x, labels, seg,
              penalty: PenaltyConfig) -> float:
    """The objective on one batch; ``seg`` numbers the batch's groups
    0..m-1 in row order, or is None for no groups."""
    theta = np.asarray(theta, dtype=float)
    logits = md.forward(spec, theta, x)
    losses = md.per_sample_loss(spec, logits, labels)
    obj = np.mean(losses)
    if penalty.gamma > 0.0:
        obj = obj + penalty.gamma * ridge(spec, theta)
    m = _penalized_groups(seg, penalty)
    if m:
        values = logits if penalty.target == "prediction" else losses
        obj = obj + penalty.lam * (penalty_sum(values, seg, m, penalty.nu) / m)
    return float(obj)


def grad(spec: md.ModelSpec, theta: np.ndarray, x: np.ndarray, labels, seg,
         penalty: PenaltyConfig) -> np.ndarray:
    """d objective / d theta, same arguments as ``objective`` except that
    ``theta`` must be a float vector of ``param_count(spec)`` entries and
    ``x`` an (n, input_dim) float batch: they are not checked here."""
    n = len(labels)
    hs = list(md._layer_inputs(spec, theta, x))
    logits = md._output(spec, theta, hs[-1])
    d_loss = md.loss_gradient(spec, logits, labels)
    g_logits = d_loss / n
    m = _penalized_groups(seg, penalty)
    if m and penalty.target == "prediction":
        g_logits = g_logits + penalty.lam / m * penalty_gradient(logits, seg, m, penalty.nu)
    elif m:
        losses = md.per_sample_loss(spec, logits, labels)
        g_losses = penalty.lam / m * penalty_gradient(losses, seg, m, penalty.nu)
        g_logits = g_logits + d_loss * g_losses.reshape((n,) + (1,) * (d_loss.ndim - 1))
    g_theta, _ = md._chain(spec, theta, hs, g_logits.reshape(n, spec.output_dim))
    if penalty.gamma > 0.0:
        for wsl, _, _ in spec.layout:
            g_theta[wsl] += 2.0 * penalty.gamma * theta[wsl]
    return g_theta
