"""Linear teaching example: a style direction that shifts at test time.

Two Gaussian classes are separated vertically, which mixes a core
direction with the style direction (1, -0.75)/|.|. A pooled logistic fit
leans on the style coordinate and collapses when the test distribution
moves class 1 along it; penalizing the within-group variance of the
logits over paired observations (same label and id, redrawn style) keeps
the boundary aligned with the core direction.

Run:  python demos/linear_style_shift.py   (a few seconds)
"""

import numpy as np

import condvar as cv
from condvar.penalties import PenaltyConfig
from condvar.plotting import decision_boundary_svg
from condvar.scm import EXAMPLE1_STYLE_DIRECTION
from condvar.training import OptimizerConfig, TrainConfig, train

N, C, SEED = 20_000, 500, 7

train_ds, test_ds = cv.gen_example1(N, C, seed=SEED)
groups = cv.build_group_index(train_ds.dataset)
print(f"train: n={groups.n}, grouped pairs c={groups.c}")

spec = cv.ModelSpec("linear", (2, 1))


def error(theta, ds):
    return float(np.mean(cv.predict_labels(spec, theta, ds.features) != ds.labels))


models = {}
for lam in (0.0, 1.0):
    cfg = TrainConfig(PenaltyConfig("prediction", 1.0, lam, 1e-4),
                      OptimizerConfig("adam", 0.05), 120, 40, 0)
    report = train(train_ds.dataset, groups, spec, cfg)
    models[lam] = report.theta
    w = report.theta[:2]
    style_part = float(w @ EXAMPLE1_STYLE_DIRECTION)
    print(f"lambda={lam}: style weight {style_part:+.3f}, "
          f"train error {error(report.theta, train_ds.dataset):.4f}, "
          f"shifted test error {error(report.theta, test_ds.dataset):.4f}")

svg = decision_boundary_svg(
    train_ds.dataset,
    [(spec, models[0.0]), (spec, models[1.0])],
    ["lambda=0 (pooled)", "lambda=1 (penalized)"],
)
with open("linear_style_shift.svg", "w", encoding="utf-8") as fh:
    fh.write(svg)
print("wrote linear_style_shift.svg")
