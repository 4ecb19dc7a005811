import json
import math
from dataclasses import replace
from functools import partial
from pathlib import Path

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
    gen_example1,
    gen_example2,
    group_aware_minibatches,
    oracle_train_constrained,
    train,
    worst_case_loss,
)
from condvar.training import DivergenceError, _epoch_batches, evaluate_lambda_grid

PINNED = Path(__file__).parent / "data" / "pinned_training.json"


def toy_dataset(n=30, p=3, seed=0, grouped_pairs=5):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, p))
    labels = rng.integers(0, 2, n)
    ids = [None] * n
    for j in range(grouped_pairs):
        a, b = 2 * j, 2 * j + 1
        ids[a] = ids[b] = f"p{j}"
        labels[b] = labels[a]
    return Dataset(feats, labels, ids)


# ---- objectives ------------------------------------------------------------

def test_pooled_objective_single_sample():
    spec = ModelSpec("linear", (2, 1))
    theta = np.array([1.0, 2.0, 0.5])
    x = np.array([[0.3, -0.2]])
    y = np.array([1])
    logit = 0.3 - 0.4 + 0.5
    want = math.log1p(math.exp(-logit))
    assert ad.objective(spec, theta, x, y, None, PenaltyConfig()) == pytest.approx(want, rel=1e-12)


def test_pooled_objective_zero_params_ln2():
    spec = ModelSpec("linear", (2, 1))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 2))
    y = np.concatenate([np.zeros(20, int), np.ones(20, int)])
    got = ad.objective(spec, np.zeros(3), x, y, None, PenaltyConfig())
    assert got == pytest.approx(math.log(2.0), rel=1e-12)


def test_pooled_objective_ridge_excludes_bias():
    spec = ModelSpec("linear", (2, 1))
    theta = np.array([3.0, -4.0, 100.0])
    x = np.array([[0.0, 0.0]])
    y = np.array([1])
    base = ad.objective(spec, theta, x, y, None, PenaltyConfig())
    with_ridge = ad.objective(spec, theta, x, y, None, PenaltyConfig(gamma=1.0))
    assert with_ridge - base == pytest.approx(25.0, rel=1e-12)


def test_core_objective_lambda_zero_bitwise():
    spec = ModelSpec("mlp", (3, 4, 1))
    rng = np.random.default_rng(1)
    theta = md.init_params(spec, 2)
    x = rng.standard_normal((8, 3))
    y = rng.integers(0, 2, 8)
    seg = GroupIndex(np.array([0, 0, 1, 2, 2, 2, 3, 4])).seg
    cfg = PenaltyConfig("prediction", 1.0, 0.0, 1e-3)
    assert ad.objective(spec, theta, x, y, seg, cfg) == ad.objective(
        spec, theta, x, y, None, PenaltyConfig(gamma=1e-3))


def test_core_objective_duplicated_sample_penalty_free():
    spec = ModelSpec("linear", (2, 1))
    theta = np.array([1.0, -1.0, 0.2])
    x = np.array([[0.5, 0.25], [0.5, 0.25]])
    y = np.array([1, 1])
    seg = GroupIndex(np.array([0, 0])).seg
    cfg = PenaltyConfig("prediction", 1.0, 5.0, 0.0)
    assert ad.objective(spec, theta, x, y, seg, cfg) == pytest.approx(
        ad.objective(spec, theta, x, y, None, PenaltyConfig()), rel=1e-15)


def test_core_objective_adds_lambda_times_penalty():
    spec = ModelSpec("linear", (1, 1))
    theta = np.array([1.0, 0.0])  # logit = x
    x = np.array([[1.0], [3.0], [5.0]])
    y = np.array([1, 1, 0])
    index = GroupIndex(np.array([0, 0, 1]))
    cfg = PenaltyConfig("prediction", 1.0, 2.0, 0.0)
    got = ad.objective(spec, theta, x, y, index.seg, cfg)
    base = ad.objective(spec, theta, x, y, None, PenaltyConfig())
    pen = conditional_penalty(np.array([1.0, 3.0, 5.0]), index, 1.0)
    assert got == pytest.approx(base + 2.0 * pen, rel=1e-12)


def test_objective_gradient_with_penalty_matches_fd():
    rng = np.random.default_rng(3)
    spec = ModelSpec("mlp", (3, 4, 1))
    theta = md.init_params(spec, 1) + 0.05 * rng.standard_normal(md.param_count(spec))
    x = rng.standard_normal((9, 3))
    y = rng.integers(0, 2, 9)
    seg = GroupIndex(np.array([0, 0, 0, 1, 1, 2, 3, 3, 3])).seg
    for target in ("prediction", "loss"):
        for nu in (1.0, 0.5):
            cfg = PenaltyConfig(target, nu, 0.9, 1e-3)
            g = ad.grad(spec, theta, x, md._targets(spec, y), seg, np.bincount(seg), cfg)
            fd = np.zeros_like(theta)
            for i in range(theta.size):
                e = np.zeros_like(theta)
                e[i] = 1e-5
                fd[i] = (ad.objective(spec, theta + e, x, y, seg, cfg)
                         - ad.objective(spec, theta - e, x, y, seg, cfg)) / 2e-5
            rel = np.abs(g - fd) / np.maximum(np.abs(g), 1e-8)
            assert rel.max() < 1e-5


# ---- batching ----------------------------------------------------------------

def test_minibatches_keep_groups_whole():
    index = GroupIndex(np.array([0, 0, 1, 1, 2]))
    batches = group_aware_minibatches(index, 3, seed=0, epoch=0)
    seen = np.sort(np.concatenate(batches))
    assert np.array_equal(seen, np.arange(5))
    for batch in batches:
        inside = np.bincount(index.seg[batch], minlength=index.m)
        assert np.all((inside == 0) | (inside == index.sizes))


def test_minibatches_single_batch_when_size_allows():
    index = GroupIndex(np.array([0, 1, 2, 3, 4, 5]))
    batches = group_aware_minibatches(index, 6, seed=1, epoch=0)
    assert len(batches) == 1 and len(batches[0]) == 6


def test_minibatch_rejects_oversized_group():
    index = GroupIndex(np.array([0, 0, 0, 1]))
    with pytest.raises(ValueError):
        group_aware_minibatches(index, 2, seed=0, epoch=0)


def test_minibatches_epoch_dependent_but_seed_deterministic():
    index = GroupIndex(np.arange(50))  # 50 singletons
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
    ds = Dataset(feats, labels)
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


@pytest.mark.parametrize("target", ["prediction", "loss"])
@pytest.mark.parametrize("spec", [ModelSpec("linear", (3, 1)), ModelSpec("mlp", (3, 4, 1))])
def test_train_nu_half_zero_variance_groups_identical_to_pooled(spec, target):
    # every group is a pair of identical rows, so each group variance is
    # exactly 0 and sqrt'(0) = 0 must keep the penalty out of every step
    rng = np.random.default_rng(11)
    feats = np.repeat(rng.standard_normal((15, 3)), 2, axis=0)
    labels = np.repeat(rng.integers(0, 2, 15), 2)
    ids = [f"d{j // 2}" for j in range(30)]
    ds = Dataset(feats, labels, ids)
    index = build_group_index(ds)
    assert index.m == 15
    thetas = [
        train(ds, index, spec, TrainConfig(PenaltyConfig(target, 0.5, lam, 1e-4),
                                           OptimizerConfig("adam", 0.05), 8, 6, 2)).theta
        for lam in (0.0, 5.0)
    ]
    assert np.array_equal(thetas[0], thetas[1])


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


# ---- constrained oracle --------------------------------------------------------

def test_oracle_first_axis_constraint_exact():
    rng = np.random.default_rng(10)
    n = 60
    labels = rng.integers(0, 2, n)
    feats = rng.standard_normal((n, 2))
    feats[:, 1] += 2.0 * (2.0 * labels - 1.0)
    ds = Dataset(feats, labels)
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
    ds = Dataset(feats, labels)
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


# ---- bitwise pins ------------------------------------------------------------

def _argsort_batches(index, batch_size, seed, epoch):
    # reference packing: sort every row by the shuffled rank of its group
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, int(epoch)])
    order = rng.permutation(index.m)
    rank = np.empty(index.m, dtype=np.intp)
    rank[order] = np.arange(index.m)
    rows = np.argsort(rank[index.seg], kind="stable")
    filled = np.concatenate([[0], np.cumsum(index.sizes[order])])
    batches, start = [], 0
    while start < index.m:
        stop = int(np.searchsorted(filled, filled[start] + batch_size, side="right")) - 1
        batches.append(rows[filled[start]:filled[stop]])
        start = stop
    return batches


@pytest.mark.parametrize("kind", ["random", "singletons", "full_batch_group"])
def test_minibatches_match_argsort_packing(kind):
    rng = np.random.default_rng(21)
    for trial in range(30):
        n = int(rng.integers(1 if kind == "singletons" else 30, 80))
        seg = rng.permutation(n) if kind == "singletons" else rng.integers(0, n // 3, n)
        batch_size = max(int(rng.integers(1, 12)), GroupIndex(seg).max_size())
        if kind == "full_batch_group":
            seg[rng.choice(n, batch_size, replace=False)] = n
        index = GroupIndex(seg)
        assert kind != "full_batch_group" or index.max_size() == batch_size
        for epoch in range(3):
            got = group_aware_minibatches(index, batch_size, trial, epoch)
            want = _argsort_batches(index, batch_size, trial, epoch)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))


def _pinned_runs():
    """(name, dataset, spec, config) for the runs whose results are pinned."""
    ex1, _ = gen_example1(600, 60, seed=1)
    ex2, _ = gen_example2(300, 100, seed=2)
    adam = OptimizerConfig("adam", 0.05)
    return [
        ("linear_f1_adam", ex1.dataset, ModelSpec("linear", (2, 1)),
         TrainConfig(PenaltyConfig("prediction", 1.0, 1.0, 1e-4), adam, 120, 3, 0)),
        ("mlp_tanh_l_half", ex2.dataset, ModelSpec("mlp", (2, 16, 16, 1), "tanh"),
         TrainConfig(PenaltyConfig("loss", 0.5, 1.0, 1e-4), OptimizerConfig("adam", 0.01),
                     120, 3, 0)),
        ("mlp_relu_f_half_sgd", ex2.dataset, ModelSpec("mlp", (2, 8, 8, 1), "relu"),
         TrainConfig(PenaltyConfig("prediction", 0.5, 1.0, 1e-4),
                     OptimizerConfig("sgd", 0.05, momentum=0.9), 50, 3, 1)),
        ("mlp_softmax_l1", ex1.dataset, ModelSpec("mlp", (2, 8, 2), "tanh"),
         TrainConfig(PenaltyConfig("loss", 1.0, 1.0, 1e-4), adam, 120, 3, 2)),
    ]


@pytest.mark.parametrize("run", _pinned_runs(), ids=lambda r: r[0])
def test_training_pinned_bitwise(run):
    # theta, history and step count recorded with float.hex from the
    # unfused training step (forward pass rerun in backward, argsort
    # packing per epoch); any change of arithmetic or reduction order shows
    name, dataset, spec, cfg = run
    with open(PINNED, encoding="utf-8") as fh:
        want = json.load(fh)[name]
    report = train(dataset, build_group_index(dataset), spec, cfg)
    assert report.steps == want["steps"]
    assert [float.hex(float(v)) for v in report.theta] == want["theta"]
    assert report.history == want["history"]


@pytest.mark.parametrize("run", _pinned_runs(), ids=lambda r: r[0])
def test_training_step_hands_grad_the_batch_targets_and_group_sizes(run, monkeypatch):
    # train maps the labels to the losses' targets once and takes each
    # batch's group sizes from its packing: every step must see exactly the
    # targets of the batch's rows and the group sizes its seg counts
    _, dataset, spec, cfg = run
    index = build_group_index(dataset)
    want = []
    for epoch in range(cfg.epochs):
        rows, seg, batches = _epoch_batches(index, cfg.batch_size, cfg.seed, epoch)
        want += [(rows[a:b], seg[a:b]) for a, b, _ in batches]
    grad, steps = ad.grad, []

    def checked(spec_, theta, x, targets, seg, sizes, penalty):
        rows, want_seg = want[len(steps)]
        assert x.tobytes() == dataset.features[rows].tobytes()
        want_targets = md._targets(spec, dataset.labels[rows])
        assert targets.dtype == want_targets.dtype
        assert targets.tobytes() == want_targets.tobytes()
        assert np.array_equal(seg, want_seg)
        # seg numbers exactly the dataset's groups among the batch's rows
        pairs = set(zip(index.seg[rows].tolist(), seg.tolist()))
        assert len(pairs) == len(set(seg.tolist())) == len(set(index.seg[rows].tolist()))
        assert np.array_equal(sizes, np.bincount(seg))
        steps.append(len(x))
        return grad(spec_, theta, x, targets, seg, sizes, penalty)

    monkeypatch.setattr(ad, "grad", checked)
    report = train(dataset, index, spec, cfg)
    assert len(steps) == report.steps == len(want)
    assert sum(steps) == cfg.epochs * len(dataset)


@pytest.mark.parametrize("spec", [ModelSpec("linear", (2, 1)), ModelSpec("mlp", (2, 4, 2))],
                         ids=["one_logit", "two_logits"])
def test_a_label_that_does_not_fit_is_rejected_with_one_message(spec, monkeypatch):
    # label 2 fits neither one logit (labels 0 and 1) nor two (0..1); every
    # entry point that reads labels rejects it through models._targets
    style_ds, _ = gen_example1(40, 10, seed=3)
    labels = style_ds.dataset.labels.copy()
    labels[7] = 2
    data = Dataset(style_ds.dataset.features, labels, style_ds.dataset.ids)
    shifted = replace(style_ds, dataset=data)
    index = build_group_index(data)
    theta = md.init_params(spec, 0)
    with pytest.raises(ValueError) as want:
        md._targets(spec, labels)
    assert str(want.value).startswith("label 2 does not fit")
    calls = []
    monkeypatch.setattr(ad, "grad", lambda *args: calls.append(args))
    logits = md.forward(spec, theta, data.features)
    sigma = np.eye(style_ds.q)
    attempts = {
        "per_sample_loss": lambda: md.per_sample_loss(spec, logits, labels),
        "objective": lambda: ad.objective(spec, theta, data.features, labels, index.seg,
                                          PenaltyConfig("loss", 1.0, 1.0, 0.0)),
        "train": lambda: train(data, index, spec, TrainConfig(epochs=1)),
    }
    for method in ("uniform_ball", "gradient_allocation"):
        for xi in (0.0, 1.0):
            attempts[f"worst_case_loss {method} {xi}"] = partial(
                worst_case_loss, spec, theta, shifted, index, sigma, xi, method=method)
    for name, attempt in attempts.items():
        with pytest.raises(ValueError) as got:
            attempt()
        assert str(got.value) == str(want.value), name
    assert calls == []
