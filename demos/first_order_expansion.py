"""Worst-case loss vs its first-order expansion on small style budgets.

For a shift budget xi (average squared Mahalanobis size of the style
interventions), the worst-case loss expands as

    unshifted loss + sqrt(xi) * (conditional sd of the loss) + O(xi).

This demo evaluates both sides on a balanced-group instance with small
style noise and prints the remainder at several budgets: the gap shrinks
linearly in xi, and the sqrt(xi) term carries the growth.

Run:  python demos/first_order_expansion.py   (a few seconds)
"""

import numpy as np

import condvar as cv
from condvar.penalties import PenaltyConfig
from condvar.robustness import first_order_gap
from condvar.scm import LinearScmSpec, sample_linear_scm
from condvar.training import OptimizerConfig, TrainConfig, train

STYLE_SD = 0.1  # spectral norm of the style covariance is 1e-2

spec = LinearScmSpec(p=6, q=2, r=3, id_count=50, id_sampler="round_robin",
                     style_class_mean=(0.5, 0.5),
                     style_cov=((STYLE_SD ** 2, 0.0), (0.0, STYLE_SD ** 2)),
                     structure_seed=2)
data = sample_linear_scm(spec, 5000, seed=9)
groups = cv.build_group_index(data.dataset)
sizes = groups.sizes
print(f"m={groups.m} groups, sizes {sizes.min()}..{sizes.max()}")

model = cv.ModelSpec("linear", (6, 1))
cfg = TrainConfig(PenaltyConfig(gamma=1e-3), OptimizerConfig("adam", 0.05), 5000, 30, 0)
theta = train(data.dataset, groups, model, cfg).theta

sigma = np.asarray(spec.style_cov)
print(f"{'xi':>8}  {'lhs':>12}  {'rhs':>12}  {'gap':>10}  {'gap/xi':>8}  {'gap/sqrt(xi)':>12}")
for xi in (1e-2, 1e-3, 1e-4):
    res = first_order_gap(model, theta, data, groups, sigma, xi)
    print(f"{xi:8.0e}  {res.lhs:12.8f}  {res.rhs:12.8f}  {res.gap:10.2e}"
          f"  {res.gap / xi:8.2e}  {res.gap / np.sqrt(xi):12.2e}")
print(f"conditional sd of loss: {first_order_gap(model, theta, data, groups, sigma, 0.0).penalty_value:.2e}")
