"""Grouped data augmentation: tie augmented copies to their source sample.

Augmenting a few samples with random rotations and pooling them weakens a
rotation bias only slightly; additionally grouping each copy with its
source (shared id = the source's index) and penalizing the within-group
prediction variance enforces the invariance with far fewer augmented
samples.

The data: two classes separated by radius, with a rotation bias in
training (class-dependent angle ranges). A handful of augmented samples
receive full random rotations.

Run:  python demos/augmentation_grouping.py   (a few seconds)
"""

import numpy as np

import condvar as cv
from condvar.data import augment_with_groups, build_group_index
from condvar.penalties import PenaltyConfig
from condvar.training import OptimizerConfig, TrainConfig, train

rng = np.random.default_rng(0)
N, N_AUG = 4000, 150


def polar(radius, angle):
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])


labels = rng.integers(0, 2, N)
radius = np.where(labels == 1, 2.0, 1.0) + 0.1 * rng.standard_normal(N)
# rotation bias: class 0 lives on the lower half circle, class 1 on the upper
angle = rng.uniform(0.0, np.pi, N) + np.where(labels == 1, 0.0, -np.pi)
train_base = cv.Dataset(polar(radius, angle), labels)

# shifted test: every angle rotated by pi
test_angle = angle + np.pi
test_ds = cv.Dataset(polar(radius, test_angle), labels)


def random_rotation(features):
    phi = rng.uniform(-np.pi, np.pi)
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    return rot @ features


selection = rng.choice(N, size=N_AUG, replace=False)
augmented = augment_with_groups(train_base, random_rotation, 1, selection)
groups = build_group_index(augmented)
print(f"augmented dataset: n={len(augmented)}, grouped observations c={groups.c}")

spec = cv.ModelSpec("mlp", (2, 16, 16, 1), "relu")
for lam in (0.0, 1.0):
    cfg = TrainConfig(PenaltyConfig("prediction", 1.0, lam, 1e-4),
                      OptimizerConfig("adam", 0.01), 120, 120, 0)
    report = train(augmented, groups, spec, cfg)
    preds = cv.predict_labels(spec, report.theta, test_ds.features)
    err = float(np.mean(preds != test_ds.labels))
    kind = "pooled augmentation" if lam == 0.0 else "grouped augmentation"
    print(f"{kind} (lambda={lam}): rotated test error {err:.4f}")
