import math

import numpy as np
import pytest

from condvar import autodiff as ad
from condvar import models as md
from condvar import (
    Dataset,
    GroupIndex,
    ModelSpec,
    OptimizerConfig,
    PenaltyConfig,
    TrainConfig,
    build_group_index,
    conditional_penalty,
    core_objective,
    group_aware_minibatches,
    oracle_train_constrained,
    pooled_objective,
    train,
)
from condvar.training import DivergenceError, _objective_graph, evaluate_lambda_grid


def toy_dataset(n=30, p=3, seed=0, grouped_pairs=5):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, p))
    labels = rng.integers(0, 2, n)
    ids = [None] * n
    for j in range(grouped_pairs):
        a, b = 2 * j, 2 * j + 1
        ids[a] = ids[b] = f"p{j}"
        labels[b] = labels[a]
    return Dataset.from_arrays(feats, labels, ids)


# ---- objectives ------------------------------------------------------------

def test_pooled_objective_single_sample():
    spec = ModelSpec("linear", (2, 1))
    theta = np.array([1.0, 2.0, 0.5])
    x = np.array([[0.3, -0.2]])
    y = np.array([1])
    logit = 0.3 - 0.4 + 0.5
    want = math.log1p(math.exp(-logit))
    assert pooled_objective(spec, theta, x, y, 0.0) == pytest.approx(want, rel=1e-12)


def test_pooled_objective_zero_params_ln2():
    spec = ModelSpec("linear", (2, 1))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 2))
    y = np.concatenate([np.zeros(20, int), np.ones(20, int)])
    assert pooled_objective(spec, np.zeros(3), x, y, 0.0) == pytest.approx(math.log(2.0), rel=1e-12)


def test_pooled_objective_ridge_excludes_bias():
    spec = ModelSpec("linear", (2, 1))
    theta = np.array([3.0, -4.0, 100.0])
    x = np.array([[0.0, 0.0]])
    y = np.array([1])
    base = pooled_objective(spec, theta, x, y, 0.0)
    with_ridge = pooled_objective(spec, theta, x, y, 1.0)
    assert with_ridge - base == pytest.approx(25.0, rel=1e-12)


def test_core_objective_lambda_zero_bitwise():
    spec = ModelSpec("mlp", (3, 4, 1))
    rng = np.random.default_rng(1)
    theta = md.init_params(spec, 2)
    x = rng.standard_normal((8, 3))
    y = rng.integers(0, 2, 8)
    groups = [np.array([0, 1]), np.array([2]), np.array([3, 4, 5]), np.array([6]), np.array([7])]
    cfg = PenaltyConfig("prediction", 1.0, 0.0, 1e-3)
    assert core_objective(spec, theta, x, y, groups, cfg) == pooled_objective(spec, theta, x, y, 1e-3)


def test_core_objective_duplicated_sample_penalty_free():
    spec = ModelSpec("linear", (2, 1))
    theta = np.array([1.0, -1.0, 0.2])
    x = np.array([[0.5, 0.25], [0.5, 0.25]])
    y = np.array([1, 1])
    groups = [np.array([0, 1])]
    cfg = PenaltyConfig("prediction", 1.0, 5.0, 0.0)
    assert core_objective(spec, theta, x, y, groups, cfg) == pytest.approx(
        pooled_objective(spec, theta, x, y, 0.0), rel=1e-15)


def test_core_objective_adds_lambda_times_penalty():
    spec = ModelSpec("linear", (1, 1))
    theta = np.array([1.0, 0.0])  # logit = x
    x = np.array([[1.0], [3.0], [5.0]])
    y = np.array([1, 1, 0])
    groups = [np.array([0, 1]), np.array([2])]
    cfg = PenaltyConfig("prediction", 1.0, 2.0, 0.0)
    got = core_objective(spec, theta, x, y, groups, cfg)
    base = pooled_objective(spec, theta, x, y, 0.0)
    index = GroupIndex.from_groups((np.array([0, 1]), np.array([2])), 3)
    pen = conditional_penalty(np.array([1.0, 3.0, 5.0]), index, 1.0)
    assert got == pytest.approx(base + 2.0 * pen, rel=1e-12)


def test_objective_gradient_with_penalty_matches_fd():
    rng = np.random.default_rng(3)
    spec = ModelSpec("mlp", (3, 4, 1))
    theta = md.init_params(spec, 1) + 0.05 * rng.standard_normal(md.param_count(spec))
    x = rng.standard_normal((9, 3))
    y = rng.integers(0, 2, 9)
    groups = [np.array([0, 1, 2]), np.array([3, 4]), np.array([5]), np.array([6, 7, 8])]
    seg = GroupIndex.from_groups(groups, 9).seg
    for target in ("prediction", "loss"):
        for nu in (1.0, 0.5):
            cfg = PenaltyConfig(target, nu, 0.9, 1e-3)

            def objective(tv):
                return _objective_graph(tv, spec, x, y, seg, cfg)

            g = md.gradient(objective, theta)
            fd = np.zeros_like(theta)
            for i in range(theta.size):
                e = np.zeros_like(theta)
                e[i] = 1e-5
                fd[i] = (float(objective(ad.Var(theta + e)).value)
                         - float(objective(ad.Var(theta - e)).value)) / 2e-5
            rel = np.abs(g - fd) / np.maximum(np.abs(g), 1e-8)
            assert rel.max() < 1e-5


# ---- batching ----------------------------------------------------------------

def test_minibatches_keep_groups_whole():
    index = GroupIndex.from_groups((np.array([0, 1]), np.array([2, 3]), np.array([4])), 5)
    batches = group_aware_minibatches(index, 3, seed=0, epoch=0)
    seen = np.sort(np.concatenate(batches))
    assert np.array_equal(seen, np.arange(5))
    for batch in batches:
        batch_set = set(int(i) for i in batch)
        for g in index.groups:
            inside = sum(int(i) in batch_set for i in g)
            assert inside in (0, len(g))


def test_minibatches_single_batch_when_size_allows():
    index = GroupIndex.from_groups(tuple(np.array([i]) for i in range(6)), 6)
    batches = group_aware_minibatches(index, 6, seed=1, epoch=0)
    assert len(batches) == 1 and len(batches[0]) == 6


def test_minibatch_rejects_oversized_group():
    index = GroupIndex.from_groups((np.array([0, 1, 2]), np.array([3])), 4)
    with pytest.raises(ValueError):
        group_aware_minibatches(index, 2, seed=0, epoch=0)


def test_minibatches_epoch_dependent_but_seed_deterministic():
    index = GroupIndex.from_groups(tuple(np.array([i]) for i in range(50)), 50)
    a = group_aware_minibatches(index, 7, seed=3, epoch=0)
    b = group_aware_minibatches(index, 7, seed=3, epoch=0)
    c = group_aware_minibatches(index, 7, seed=3, epoch=1)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


# ---- training ----------------------------------------------------------------

def test_train_separable_reaches_zero_error():
    rng = np.random.default_rng(4)
    n = 120
    labels = rng.integers(0, 2, n)
    feats = rng.standard_normal((n, 2)) * 0.2
    feats[:, 0] += 3.0 * (2.0 * labels - 1.0)
    ds = Dataset.from_arrays(feats, labels)
    cfg = TrainConfig(PenaltyConfig(), OptimizerConfig("adam", 0.05), 40, 30, 0)
    report = train(ds, build_group_index(ds), ModelSpec("linear", (2, 1)), cfg)
    assert report.history[-1]["train_error"] == 0.0
    assert len(report.history) == cfg.epochs


def test_train_deterministic_given_seed():
    ds = toy_dataset(seed=8)
    index = build_group_index(ds)
    cfg = TrainConfig(PenaltyConfig("prediction", 1.0, 0.5, 1e-4),
                      OptimizerConfig("adam", 0.02), 10, 5, 3)
    spec = ModelSpec("mlp", (3, 4, 1))
    r1 = train(ds, index, spec, cfg)
    r2 = train(ds, index, spec, cfg)
    assert np.array_equal(r1.theta, r2.theta)
    assert r1.history == r2.history


def test_train_ungrouped_identical_to_pooled_any_lambda():
    ds = toy_dataset(seed=5, grouped_pairs=0)
    index = build_group_index(ds)
    assert index.c == 0
    spec = ModelSpec("mlp", (3, 4, 1))
    base = TrainConfig(PenaltyConfig("prediction", 1.0, 0.0, 1e-4),
                       OptimizerConfig("adam", 0.02), 8, 4, 1)
    heavy = TrainConfig(PenaltyConfig("prediction", 1.0, 1e6, 1e-4),
                        OptimizerConfig("adam", 0.02), 8, 4, 1)
    r_pool = train(ds, index, spec, base)
    r_core = train(ds, index, spec, heavy)
    assert np.array_equal(r_pool.theta, r_core.theta)


def test_train_sgd_momentum_runs():
    ds = toy_dataset(seed=6)
    cfg = TrainConfig(PenaltyConfig(), OptimizerConfig("sgd", 0.05, momentum=0.9), 10, 3, 0)
    report = train(ds, build_group_index(ds), ModelSpec("linear", (3, 1)), cfg)
    assert len(report.history) == 3


def test_train_divergence_detected():
    ds = toy_dataset(seed=7)
    # a huge step blows the ridge term past the float range on the next batch
    cfg = TrainConfig(PenaltyConfig(gamma=1.0), OptimizerConfig("sgd", 1e200), 30, 3, 0)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError):
            train(ds, build_group_index(ds), ModelSpec("mlp", (3, 8, 1)), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig("adam", lr=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig("lbfgs", 0.1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    cfg = TrainConfig(PenaltyConfig("loss", 0.5, 1.0, 0.1),
                      OptimizerConfig("sgd", 0.3, momentum=0.5), 16, 2, 9)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


# ---- constrained oracle --------------------------------------------------------

def test_oracle_first_axis_constraint_exact():
    rng = np.random.default_rng(10)
    n = 60
    labels = rng.integers(0, 2, n)
    feats = rng.standard_normal((n, 2))
    feats[:, 1] += 2.0 * (2.0 * labels - 1.0)
    ds = Dataset.from_arrays(feats, labels)
    w_mat = np.array([[1.0], [0.0]])  # style space = first axis
    cfg = TrainConfig(PenaltyConfig(), OptimizerConfig("adam", 0.05), n, 200, 0)
    theta = oracle_train_constrained(ds, ModelSpec("linear", (2, 1)), w_mat, cfg)
    assert theta[0] == 0.0
    assert abs(theta[1]) > 0.1


def test_oracle_rejects_full_style_space():
    ds = toy_dataset(seed=1, p=2)
    cfg = TrainConfig(PenaltyConfig(), OptimizerConfig("adam", 0.05), 10, 5, 0)
    with pytest.raises(ValueError):
        oracle_train_constrained(ds, ModelSpec("linear", (2, 1)), np.eye(2), cfg)


def test_oracle_rejects_rank_deficient():
    ds = toy_dataset(seed=2, p=3)
    w_mat = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    cfg = TrainConfig(PenaltyConfig(), OptimizerConfig("adam", 0.05), 10, 5, 0)
    with pytest.raises(ValueError):
        oracle_train_constrained(ds, ModelSpec("linear", (3, 1)), w_mat, cfg)


def test_oracle_orthogonality_random_style_space():
    rng = np.random.default_rng(12)
    n, p, q = 80, 6, 2
    w_mat, _ = np.linalg.qr(rng.standard_normal((p, q)))
    labels = rng.integers(0, 2, n)
    feats = rng.standard_normal((n, p))
    ds = Dataset.from_arrays(feats, labels)
    cfg = TrainConfig(PenaltyConfig(gamma=1e-3), OptimizerConfig("adam", 0.05), n, 150, 0)
    theta = oracle_train_constrained(ds, ModelSpec("linear", (p, 1)), w_mat, cfg)
    w = theta[:p]
    assert np.linalg.norm(w_mat.T @ w) <= 1e-10 * max(np.linalg.norm(w), 1e-12)


def test_lambda_grid_report():
    ds = toy_dataset(seed=3, n=40)
    val = toy_dataset(seed=4, n=20)
    base = TrainConfig(PenaltyConfig("prediction", 1.0, 0.0, 1e-4),
                       OptimizerConfig("adam", 0.05), 20, 3, 0)
    rows = evaluate_lambda_grid(ds, val, ModelSpec("linear", (3, 1)), base, [0.0, 1.0])
    assert [r["lam"] for r in rows] == [0.0, 1.0]
    assert all(np.isfinite(r["val_loss"]) for r in rows)
