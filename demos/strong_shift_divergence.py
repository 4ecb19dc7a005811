"""Strong style shifts: pooled loss diverges, penalized loss stays flat.

On a 10-d partially linear model with a 2-d style subspace, the pooled
logistic estimator keeps a weight component inside the style subspace
(invariance defect well above zero), so its loss grows without bound
along the worst style direction. Heavy conditional-variance
regularization drives that component to numerical zero, and a hard
subspace-constrained oracle serves as the reference.

Run:  python demos/strong_shift_divergence.py   (a few seconds)
"""

import numpy as np

import condvar as cv
from condvar.penalties import PenaltyConfig
from condvar.robustness import (
    divergence_probe,
    invariance_defect,
    steepest_style_direction,
)
from condvar.scm import LinearScmSpec, sample_linear_scm
from condvar.training import OptimizerConfig, TrainConfig, oracle_train_constrained, train

spec = LinearScmSpec(p=10, q=2, r=4, id_count=12_500,
                     style_class_mean=(1.0, 1.0),
                     style_cov=((1.0, 0.0), (0.0, 1.0)),
                     structure_seed=21)
data = sample_linear_scm(spec, 5000, seed=5)
groups = cv.build_group_index(data.dataset)
print(f"n={groups.n}, groups m={groups.m}, grouped observations c={groups.c}")

model = cv.ModelSpec("linear", (10, 1))
_core_mat, style_mat = spec.matrices()
opt = OptimizerConfig("adam", 0.05)

runs = {
    "pooled": TrainConfig(PenaltyConfig(gamma=1e-3), opt, 5000, 400, 0),
    "penalized": TrainConfig(PenaltyConfig("prediction", 1.0, 1e3, 1e-3), opt, 5000, 800, 0),
}
thetas = {name: train(data.dataset, groups, model, cfg).theta for name, cfg in runs.items()}
thetas["oracle"] = oracle_train_constrained(
    data.dataset, model, style_mat, TrainConfig(PenaltyConfig(gamma=1e-3), opt, 5000, 800, 0))

direction = steepest_style_direction(model, thetas["pooled"], data, np.eye(2))
print(f"probe direction in style space: {direction}")
for name, theta in thetas.items():
    defect = invariance_defect(theta, style_mat)
    probe = divergence_probe(model, theta, data, direction, [1.0, 10.0, 100.0, 1000.0])
    losses = ", ".join(f"{v:.3g}" for v in probe.losses)
    print(f"{name:>9}: defect={defect:.2e}  verdict={probe.verdict:>9}  losses=[{losses}]")
