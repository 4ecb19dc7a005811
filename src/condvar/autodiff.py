"""The penalized training objective and its closed-form gradient.

    mean loss over the batch
    + gamma * ||weights||^2                      (biases excluded)
    + lam * mean over batch groups of Var_j^nu   (variance of logits or losses)

``objective`` evaluates it and ``grad`` differentiates it by the chain
rule: the loss and penalty derivatives give d/d logits, and the backward
chain of ``models`` carries that to the parameters, reusing the layer
inputs that the forward pass of the same call kept. Both functions read
the skip rule, the 1/m group weighting and the bias-free ridge from this
module.

``grad`` is the training step's one call per batch, and takes the batch
prepared: its labels mapped to the losses' targets (``models._targets``,
which ``train`` runs once per run) and the size of each of its groups
(which the epoch's packing hands over). The ridge is one masked add over
``ModelSpec.weight_mask``. ``objective`` reads labels and prepares its
own inputs, so it stays the reference that ``grad`` is checked against.
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


def _penalized(penalty: PenaltyConfig, sizes, n: int) -> bool:
    """Whether the penalty applies to a batch of n rows whose groups have
    ``sizes`` (None for no groups): not when lam == 0 or no group has size
    >= 2. Skipping makes penalized training on ungrouped data bit-identical
    to pooled training."""
    return penalty.lam > 0.0 and sizes is not None and len(sizes) < n


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
    sizes = None if seg is None else np.bincount(seg)
    if _penalized(penalty, sizes, len(losses)):
        m = len(sizes)
        values = logits if penalty.target == "prediction" else losses
        obj = obj + penalty.lam * (penalty_sum(values, seg, m, penalty.nu) / m)
    return float(obj)


def grad(spec: md.ModelSpec, theta: np.ndarray, x: np.ndarray, targets: np.ndarray,
         seg, sizes, penalty: PenaltyConfig) -> np.ndarray:
    """d objective / d theta on one prepared batch: ``theta`` a float
    vector of ``param_count(spec)`` entries, ``x`` an (n, input_dim) float
    batch, ``targets`` its ``models._targets``, ``seg`` its group ids as in
    ``objective`` and ``sizes`` the size of each of those groups (both None
    for no groups). Nothing is checked here. The caller holds
    ``np.errstate(over="ignore")``: the logistic derivative's exp overflows
    to the right limit."""
    n = len(targets)
    hs = list(md._layer_inputs(spec, theta, x))
    logits = md._output(spec, theta, hs[-1])
    d_loss = md._target_loss_gradient(spec, logits, targets)
    g_logits = d_loss / n
    if _penalized(penalty, sizes, n):
        weight = penalty.lam / len(sizes)
        if penalty.target == "prediction":
            g_logits = g_logits + weight * penalty_gradient(logits, seg, sizes, penalty.nu)
        else:
            losses = md._target_losses(spec, logits, targets)
            g_losses = weight * penalty_gradient(losses, seg, sizes, penalty.nu)
            g_logits = g_logits + d_loss * g_losses.reshape((n,) + (1,) * (d_loss.ndim - 1))
    g_theta, _ = md._chain(spec, theta, hs, g_logits.reshape(n, spec.output_dim))
    if penalty.gamma > 0.0:
        np.add(g_theta, 2.0 * penalty.gamma * theta, out=g_theta, where=spec.weight_mask)
    return g_theta
