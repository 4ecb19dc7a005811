import json
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from condvar import (
    InterventionSpec,
    LinearScmSpec,
    ModelSpec,
    OptimizerConfig,
    PenaltyConfig,
    TrainConfig,
    build_group_index,
    divergence_probe,
    estimate_conditional_covariance,
    first_order_gap,
    gen_example1,
    gen_example2,
    invariance_defect,
    loss_under_shift,
    mahalanobis_cost,
    sample_linear_scm,
    steepest_style_direction,
    train,
    worst_case_loss,
)
from condvar import models as md
from condvar import robustness as rb
from condvar.data import Dataset, GroupIndex
from condvar.penalties import segment_means
from condvar.robustness import (
    WorstCaseResult,
    _budget_splits,
    _Fit,
    _search_spheres,
    _sphere_directions,
    _style_gradients,
)
from condvar.scm import StyleAwareDataset, rerender

PINNED = Path(__file__).parent / "data" / "pinned_robustness.json"


def scm_instance(n=90, seed=3, style_sd=1.0, id_count=12, q=2):
    spec = LinearScmSpec(
        p=6, q=q, r=3, id_count=id_count,
        style_class_mean=tuple([1.0] * q),
        style_cov=tuple(tuple(row) for row in (style_sd ** 2 * np.eye(q))),
        structure_seed=5,
    )
    ds = sample_linear_scm(spec, n, InterventionSpec("none"), seed)
    return spec, ds, build_group_index(ds.dataset)


def linear_theta(spec, ds, seed=0, invariant=False):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(spec.p)
    _c, w_mat = spec.matrices()
    if invariant:
        w = w - w_mat @ (w_mat.T @ w)
    return np.concatenate([w, [0.1]])


# ---- mahalanobis -----------------------------------------------------------

def test_mahalanobis_basics():
    assert mahalanobis_cost(np.zeros(2), np.eye(2)) == 0.0
    assert mahalanobis_cost(np.array([3.0, 4.0]), np.eye(2)) == pytest.approx(25.0, rel=1e-14)
    assert mahalanobis_cost(np.array([2.0, 0.0]), np.diag([4.0, 1.0])) == pytest.approx(1.0, rel=1e-14)


def test_mahalanobis_rejects_non_spd():
    with pytest.raises(ValueError):
        mahalanobis_cost(np.ones(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


_SIGMA_PROBES = {
    "uniform_ball": lambda a, s: worst_case_loss(*a, s, 1.0, method="uniform_ball"),
    "gradient_allocation": lambda a, s: worst_case_loss(*a, s, 1.0, method="gradient_allocation"),
    "exhaustive_tiny": lambda a, s: worst_case_loss(*a, s, 1.0, method="exhaustive_tiny"),
    "first_order_gap": lambda a, s: first_order_gap(*a, s, 1.0),
    "steepest_style_direction": lambda a, s: steepest_style_direction(*a[:3], s),
    "mahalanobis_cost": lambda a, s: mahalanobis_cost(np.array([0.3, -0.2]), s),
}


def _sigma_probe_args():
    spec, ds, gi = scm_instance()
    groups = GroupIndex(np.minimum(gi.seg, 2))  # m = 3, within exhaustive_tiny's reach
    return ModelSpec("linear", (6, 1)), linear_theta(spec, ds), ds, groups


@pytest.mark.parametrize("sigma", [np.array([[1.0, 5.0], [0.0, 1.0]]),
                                   np.stack([np.eye(2)] * 3)],
                         ids=["asymmetric", "per_group_stack"])
@pytest.mark.parametrize("probe", sorted(_SIGMA_PROBES))
def test_every_probe_rejects_a_sigma_that_is_not_one_symmetric_matrix(probe, sigma):
    # an asymmetric Sigma has no one reading (its Cholesky factor sees the
    # lower triangle, Sigma g all of it), and an (m, q, q) stack, m = 3
    # here, is not one Sigma
    with pytest.raises(ValueError, match="symmetric positive definite 2 x 2"):
        _SIGMA_PROBES[probe](_sigma_probe_args(), sigma)


@pytest.mark.parametrize("probe", sorted(_SIGMA_PROBES))
def test_every_probe_accepts_a_sigma_symmetric_to_rounding(probe):
    _SIGMA_PROBES[probe](_sigma_probe_args(), np.array([[1.0, 0.3 + 1e-12], [0.3, 0.8]]))


def test_mahalanobis_cross_check_against_eigen_factorization():
    rng = np.random.default_rng(4)
    for _ in range(30):
        q = int(rng.integers(1, 5))
        a = rng.standard_normal((q, q))
        sigma = a @ a.T + q * np.eye(q)
        delta = rng.standard_normal(q) * 3.0
        vals, vecs = np.linalg.eigh(sigma)
        inv_sqrt = vecs @ np.diag(vals ** -0.5) @ vecs.T
        want = float(np.sum((inv_sqrt @ delta) ** 2))
        assert mahalanobis_cost(delta, sigma) == pytest.approx(want, rel=1e-10)


# ---- loss under shift -------------------------------------------------------

def test_zero_assignment_is_unshifted_loss():
    spec, ds, gi = scm_instance()
    model = ModelSpec("linear", (6, 1))
    theta = linear_theta(spec, ds)
    base = loss_under_shift(model, theta, ds, np.zeros(2))
    logits = md.forward(model, theta, ds.dataset.features)
    want = float(np.mean(md.per_sample_loss(model, logits, ds.dataset.labels)))
    assert base == pytest.approx(want, rel=0, abs=0)


def test_invariant_theta_ignores_any_assignment():
    spec, ds, gi = scm_instance()
    model = ModelSpec("linear", (6, 1))
    theta = linear_theta(spec, ds, invariant=True)
    base = loss_under_shift(model, theta, ds, np.zeros(2))
    rng = np.random.default_rng(1)
    shifted = loss_under_shift(model, theta, ds, rng.standard_normal((len(ds.dataset), 2)) * 5.0)
    assert shifted == pytest.approx(base, rel=1e-10)


def test_single_sample_matches_logistic_loss():
    spec, ds, gi = scm_instance(n=1)
    model = ModelSpec("linear", (6, 1))
    theta = linear_theta(spec, ds)
    delta = np.array([0.4, -0.2])
    got = loss_under_shift(model, theta, ds, delta)
    _c, w_mat = spec.matrices()
    x = ds.dataset.features[0] + w_mat @ delta
    y_pm = 2.0 * ds.dataset.labels[0] - 1.0
    want = float(np.logaddexp(0.0, -y_pm * (x @ theta[:6] + theta[6])))  # log(1 + e^-yz)
    assert got == pytest.approx(want, rel=1e-12)


# ---- worst case -------------------------------------------------------------

def test_worst_case_zero_budget():
    spec, ds, gi = scm_instance()
    model = ModelSpec("linear", (6, 1))
    theta = linear_theta(spec, ds)
    res = worst_case_loss(model, theta, ds, gi, np.eye(2), 0.0)
    assert res.value == loss_under_shift(model, theta, ds, np.zeros(2))
    assert np.all(res.assignment == 0.0)


def test_worst_case_invariant_theta_flat_in_xi():
    spec, ds, gi = scm_instance()
    model = ModelSpec("linear", (6, 1))
    theta = linear_theta(spec, ds, invariant=True)
    base = loss_under_shift(model, theta, ds, np.zeros(2))
    for xi in (0.0, 0.1, 1.0, 10.0):
        res = worst_case_loss(model, theta, ds, gi, np.eye(2), xi,
                              method="gradient_allocation")
        assert res.value == pytest.approx(base, rel=1e-9)


def test_worst_case_monotone_in_xi():
    spec, ds, gi = scm_instance(n=60)
    model = ModelSpec("linear", (6, 1))
    theta = linear_theta(spec, ds)
    values = [
        worst_case_loss(model, theta, ds, gi, np.eye(2), xi, method="uniform_ball").value
        for xi in (0.0, 0.01, 0.1, 1.0, 4.0)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_gradient_allocation_agrees_with_exhaustive_tiny():
    spec, ds, gi = scm_instance(n=5, id_count=2, q=1, seed=8)
    # collapse to at most 3 groups for the exhaustive reference
    assert gi.m <= 5
    while gi.m > 3:
        spec, ds, gi = scm_instance(n=4, id_count=1, q=1, seed=gi.m)
    model = ModelSpec("linear", (6, 1))
    theta = linear_theta(spec, ds)
    sigma = np.array([[0.7]])
    xi = 1e-6
    grad_val = worst_case_loss(model, theta, ds, gi, sigma, xi,
                               method="gradient_allocation").value
    ex_val = worst_case_loss(model, theta, ds, gi, sigma, xi,
                             method="exhaustive_tiny").value
    # the first-order allocation is a lower bound, and exhaustive_tiny's
    # per-level values are exact here (linear model, linear render); at tiny
    # budgets they agree to 1e-3 relative, with the exhaustive reference on
    # top (it may split budgets unevenly)
    assert abs(grad_val - ex_val) <= 1e-3 * abs(ex_val)
    assert ex_val >= grad_val - 1e-12


def endpoint_instance():
    # q = 4, two groups and a linear model. The shifted logit is
    # logit + a . delta with a = W^T w, and each group's loss is convex in
    # s = a . delta, so its maximum on the budget ellipsoid of size b is at
    # one of the endpoints delta = +-sqrt(b) Sigma a / sqrt(a^T Sigma a).
    spec = LinearScmSpec(p=7, q=4, r=2, id_count=1, id_sampler="round_robin",
                         style_class_mean=(1.0, 0.5, -0.5, 0.0),
                         style_cov=tuple(tuple(r) for r in np.eye(4)), structure_seed=2)
    ds = sample_linear_scm(spec, 8, InterventionSpec("none"), seed=4)
    gi = build_group_index(ds.dataset)
    assert gi.m == 2
    model = ModelSpec("linear", (7, 1))
    theta = linear_theta(spec, ds, seed=1)
    rng = np.random.default_rng(6)
    root = rng.standard_normal((4, 4))
    sigma = root @ root.T + np.eye(4)
    _c, w_mat = spec.matrices()
    a = w_mat.T @ theta[:7]

    def group_loss(members, delta):
        x = ds.dataset.features[members] + w_mat @ delta
        y_pm = 2.0 * ds.dataset.labels[members] - 1.0
        return float(np.mean(np.logaddexp(0.0, -y_pm * (x @ theta[:7] + theta[7]))))

    def oracle(members, budget):
        end = np.sqrt(budget) * sigma @ a / np.sqrt(a @ sigma @ a)
        return max(group_loss(members, end), group_loss(members, -end))

    return model, theta, ds, gi, sigma, group_loss, oracle


def test_uniform_ball_ascent_reaches_endpoint_oracle_for_q_above_3():
    # q = 4 has no direction grid; on a linear model the search scores the
    # two endpoints themselves
    model, theta, ds, gi, sigma, group_loss, oracle = endpoint_instance()
    xi = 0.8
    res = worst_case_loss(model, theta, ds, gi, sigma, xi, method="uniform_ball")
    for j in range(gi.m):
        members = np.flatnonzero(gi.seg == j)
        assert group_loss(members, res.assignment[j]) == pytest.approx(oracle(members, xi),
                                                                       rel=1e-9)
        assert mahalanobis_cost(res.assignment[j], sigma) == pytest.approx(xi, rel=1e-9)


def test_exhaustive_tiny_on_linear_model_needs_no_ascent(monkeypatch):
    # every budget level is solved at its two endpoints, so q = 4 runs no
    # ascent, and the value is the best split of the per-level endpoint oracle
    model, theta, ds, gi, sigma, _group_loss, oracle = endpoint_instance()
    xi, calls = 0.8, []
    style_gradients = rb._style_gradients
    monkeypatch.setattr(rb, "_style_gradients",
                        lambda *args: calls.append(1) or style_gradients(*args))
    res = worst_case_loss(model, theta, ds, gi, sigma, xi, method="exhaustive_tiny")
    assert calls == []
    members = [np.flatnonzero(gi.seg == j) for j in range(gi.m)]
    weights = gi.sizes / gi.n
    want = max(sum(w * oracle(g, share * gi.m * xi)
                   for w, g, share in zip(weights, members, split))
               for split in _float_splits(gi.m))
    assert res.value == pytest.approx(want, rel=1e-12)
    assert res.note == WorstCaseResult.note


def test_uniform_ball_with_zero_weights_is_the_unshifted_loss():
    # w = 0 gives a = 0: the loss ignores style, every shift on the sphere
    # is a maximiser, and each group still spends exactly its budget
    model = ModelSpec("linear", (7, 1))
    ds, gi, _theta, sigma = sigma_instance(2, model)
    theta = np.concatenate([np.zeros(7), [0.3]])
    xi = 0.6
    res = worst_case_loss(model, theta, ds, gi, sigma, xi, method="uniform_ball")
    assert res.value == loss_under_shift(model, theta, ds, np.zeros(2))
    assert np.all(np.isfinite(res.assignment))
    for delta in res.assignment:
        assert mahalanobis_cost(delta, sigma) == pytest.approx(xi, rel=1e-12)
    assert res.note == ("exact for equal per-group budgets (linear model, linear render); "
                        "a lower bound when budgets may differ between groups")


@pytest.mark.parametrize("xi", [0.0, 0.6])
def test_uniform_ball_note_on_a_linear_fit_holds_at_every_budget(xi):
    # at xi = 0 the only shift is 0, which the exact search also returns
    spec, ds, gi = scm_instance()
    res = worst_case_loss(ModelSpec("linear", (6, 1)), linear_theta(spec, ds), ds, gi,
                          np.eye(2), xi, method="uniform_ball")
    assert res.note == rb._EXACT_NOTE


@pytest.mark.parametrize("xi", [0.0, 0.6])
@pytest.mark.parametrize("case", ["gradient_allocation", "exhaustive_tiny", "uniform_ball_mlp"])
def test_inexact_cases_keep_the_default_note_at_every_budget(case, xi):
    spec, ds, gi = scm_instance()
    model, theta, method = ModelSpec("linear", (6, 1)), linear_theta(spec, ds), case
    if case == "exhaustive_tiny":
        gi = GroupIndex(np.minimum(gi.seg, 2))
    elif case == "uniform_ball_mlp":
        model, method = ModelSpec("mlp", (6, 4, 1)), "uniform_ball"
        theta = md.init_params(model, 1)
    res = worst_case_loss(model, theta, ds, gi, np.eye(2), xi, method=method)
    assert res.note == WorstCaseResult.note == "worst-case values are lower bounds on the supremum"


def test_style_direction_is_w_transpose_w_for_single_logit_linear_fits_only():
    spec, ds, _gi = scm_instance()
    theta = linear_theta(spec, ds)
    _c, w_mat = spec.matrices()
    assert np.array_equal(rb._style_direction(ModelSpec("linear", (6, 1)), theta, ds),
                          w_mat.T @ theta[:6])
    three = ModelSpec("linear", (6, 3))
    mlp = ModelSpec("mlp", (6, 4, 1))
    assert rb._style_direction(three, md.init_params(three, 0), ds) is None
    assert rb._style_direction(mlp, md.init_params(mlp, 0), ds) is None
    polar, _test = gen_example2(20, 5, seed=1)
    polar_model = ModelSpec("linear", (2, 1))
    assert rb._style_direction(polar_model, md.init_params(polar_model, 0), polar) is None


def test_gradient_allocation_equals_uniform_ball_on_single_label_groups():
    # a (label, id) group has one label, so its loss is monotone in
    # s = a . delta and the first-order direction points at the maximising end
    spec, ds, gi = scm_instance(n=60)
    model = ModelSpec("linear", (6, 1))
    theta = linear_theta(spec, ds)
    _c, w_mat = spec.matrices()
    assert np.any(w_mat.T @ theta[:6] != 0.0)
    sigma = np.array([[0.9, 0.2], [0.2, 0.5]])
    for xi in (0.1, 1.0, 10.0):
        uni = worst_case_loss(model, theta, ds, gi, sigma, xi, method="uniform_ball")
        grad = worst_case_loss(model, theta, ds, gi, sigma, xi, method="gradient_allocation")
        assert grad.value == pytest.approx(uni.value, rel=1e-12)
        np.testing.assert_allclose(grad.assignment, uni.assignment, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("q,render", [(1, "linear"), (2, "linear"), (3, "linear"),
                                      (1, "polar")])
def test_uniform_ball_grid_matches_per_group_oracle(q, render):
    # reference: a plain loop over groups and grid directions, each group's
    # mean loss taken from a full re-render through ds.render
    if render == "linear":
        _spec, ds, gi = scm_instance(n=30, id_count=4, q=q)
    else:
        ds, _test = gen_example2(30, 10, seed=2)
        gi = build_group_index(ds.dataset)
    model = ModelSpec("mlp", (ds.dataset.p, 5, 1))
    theta = md.init_params(model, 4) + 0.3 * np.random.default_rng(5).standard_normal(
        md.param_count(model))
    rng = np.random.default_rng(q)
    root = rng.standard_normal((q, q))
    sigma = root @ root.T + 0.5 * np.eye(q)
    xi = 0.7
    chol = np.linalg.cholesky(sigma)
    labels = ds.dataset.labels

    def group_loss(members, delta):
        logits = md.forward(model, theta, ds.render(ds.style + delta))
        return float(np.mean(md.per_sample_loss(model, logits, labels)[members]))

    res = worst_case_loss(model, theta, ds, gi, sigma, xi, method="uniform_ball")
    for j in range(gi.m):
        members = np.flatnonzero(gi.seg == j)
        oracle = max(group_loss(members, np.sqrt(xi) * chol @ u) for u in _sphere_directions(q))
        assert group_loss(members, res.assignment[j]) == pytest.approx(oracle, rel=1e-12)
        assert mahalanobis_cost(res.assignment[j], sigma) == pytest.approx(xi, rel=1e-12)


def sigma_instance(q, model):
    # a small linear SCM, a perturbed model and a non-diagonal Sigma
    spec = LinearScmSpec(p=7, q=q, r=2, id_count=2, style_class_mean=tuple([1.0] * q),
                         style_cov=tuple(tuple(r) for r in np.eye(q)), structure_seed=2)
    ds = sample_linear_scm(spec, 16, InterventionSpec("none"), seed=3)
    gi = build_group_index(ds.dataset)
    theta = md.init_params(model, 2) + 0.3 * np.random.default_rng(8).standard_normal(
        md.param_count(model))
    root = np.random.default_rng(9).standard_normal((q, q))
    return ds, gi, theta, root @ root.T + 0.5 * np.eye(q)


def test_uniform_ball_ascent_matches_single_group_searches():
    # reference: each group searched alone, on a dataset of its own rows,
    # with the restart seed (seed + j) it gets in the joint search; the
    # joint ascent must reach the same group losses
    model = ModelSpec("mlp", (7, 4, 1))
    ds, gi, theta, sigma = sigma_instance(4, model)
    gi = GroupIndex(np.minimum(gi.seg, 1))  # two groups keep the reference cheap
    xi, seed = 0.6, 5
    res = worst_case_loss(model, theta, ds, gi, sigma, xi, method="uniform_ball", seed=seed)
    for j in range(gi.m):
        members = np.flatnonzero(gi.seg == j)
        part = StyleAwareDataset(
            Dataset(ds.dataset.features[members], ds.dataset.labels[members]),
            ds.core[members], ds.style[members], "linear", ds.core_matrix, ds.style_matrix)
        alone = worst_case_loss(model, theta, part, GroupIndex(np.zeros(len(members), int)),
                                sigma, xi, method="uniform_ball", seed=seed + j)
        joint = loss_under_shift(model, theta, part, res.assignment[j])
        assert joint == pytest.approx(alone.value, rel=1e-9)
        assert mahalanobis_cost(res.assignment[j], sigma) == pytest.approx(xi, rel=1e-9)


@pytest.mark.parametrize("render", ["linear", "polar"])
def test_shift_gradients_match_central_differences(render):
    if render == "linear":
        _spec, ds, gi = scm_instance(n=40)
    else:
        ds, _test = gen_example2(40, 12, seed=1)
        gi = build_group_index(ds.dataset)
    model = ModelSpec("mlp", (ds.dataset.p, 5, 1))
    theta = md.init_params(model, 3)
    g = segment_means(_Fit(model, theta, ds).gradients, gi.seg, gi.m)
    fd = np.zeros_like(g)
    for k in range(ds.q):
        e = np.zeros(ds.q)
        e[k] = 1e-5
        diff = 0.0
        for sign in (1.0, -1.0):
            shifted = rerender(ds, sign * e)
            logits = md.forward(model, theta, shifted.features)
            diff = diff + sign * md.per_sample_loss(model, logits, shifted.labels)
        fd[:, k] = np.bincount(gi.seg, diff / 2e-5) / gi.sizes
    assert np.max(np.abs(g - fd) / np.maximum(np.abs(g), 1e-8)) < 1e-5


def test_exhaustive_tiny_rejects_many_groups():
    spec, ds, gi = scm_instance(n=40)
    model = ModelSpec("linear", (6, 1))
    with pytest.raises(ValueError):
        worst_case_loss(model, linear_theta(spec, ds), ds, gi, np.eye(2), 0.1,
                        method="exhaustive_tiny")


@pytest.mark.parametrize("method", ["bogus", "exhaustive_tiny"])
def test_worst_case_rejects_bad_method_even_at_zero_budget(method):
    spec, ds, gi = scm_instance(n=40)
    assert gi.m > 3
    with pytest.raises(ValueError):
        worst_case_loss(ModelSpec("linear", (6, 1)), linear_theta(spec, ds), ds, gi,
                        np.eye(2), 0.0, method=method)


def test_exhaustive_tiny_dominates_uniform_ball():
    spec, ds, gi = scm_instance(n=3, id_count=1, q=1, seed=2)
    model = ModelSpec("linear", (6, 1))
    theta = linear_theta(spec, ds)
    sigma = np.array([[1.0]])
    for xi in (0.01, 0.25):
        uni = worst_case_loss(model, theta, ds, gi, sigma, xi, method="uniform_ball").value
        exh = worst_case_loss(model, theta, ds, gi, sigma, xi, method="exhaustive_tiny").value
        assert exh >= uni - 1e-10


def _float_splits(m):
    fr = np.linspace(0.0, 1.0, 11)
    if m == 1:
        return [np.array([1.0])]
    if m == 2:
        return [np.array([a, 1.0 - a]) for a in fr]
    return [np.array([a, b, max(0.0, 1.0 - a - b)]) for a in fr for b in fr if a + b <= 1.0 + 1e-12]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_budget_splits_index_the_share_grid(m):
    shares = np.linspace(0.0, 1.0, 11)[np.array(_budget_splits(m, 10))]
    want = np.array(_float_splits(m))
    assert shares.shape == want.shape
    assert np.array_equal(shares[:, :-1], want[:, :-1])
    np.testing.assert_allclose(shares[:, -1], want[:, -1], rtol=0, atol=1.5e-16)


def _exhaustive_by_split(model, theta, ds, gi, sigma, xi, seed):
    # reference: one full search per budget split, scored by its weighted total
    best, fit = -np.inf, _Fit(model, theta, ds, sigma, gi)
    for split in _float_splits(gi.m):
        vals, _ = _search_spheres(fit, split * gi.m * xi, seed)
        best = max(best, float(np.sum(gi.sizes / gi.n * vals)))
    return best


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_exhaustive_tiny_matches_per_split_search(q, m):
    model = ModelSpec("mlp", (7, 4, 1))
    ds, gi, theta, sigma = sigma_instance(q, model)
    gi = GroupIndex(np.minimum(gi.seg, m - 1))
    assert gi.m == m
    xi = 0.7
    want = _exhaustive_by_split(model, theta, ds, gi, sigma, xi, seed=0)
    res = worst_case_loss(model, theta, ds, gi, sigma, xi, method="exhaustive_tiny")
    assert res.value == pytest.approx(want, rel=1e-12)
    assert loss_under_shift(model, theta, ds, res.assignment, gi) == pytest.approx(want, rel=1e-12)
    spent = sum(mahalanobis_cost(d, sigma) for d in res.assignment)
    assert spent == pytest.approx(m * xi, rel=1e-9)


@pytest.mark.parametrize("q", [2, 4])
def test_zero_budget_search_is_the_unshifted_group_loss(q, monkeypatch):
    # exhaustive_tiny's share-0 level asks for every budget at 0
    model = ModelSpec("mlp", (7, 4, 1))
    ds, gi, theta, sigma = sigma_instance(q, model)
    gi = GroupIndex(np.minimum(gi.seg, 1))
    losses = md.per_sample_loss(model, md.forward(model, theta, ds.render(ds.style)),
                                ds.dataset.labels)
    want = [np.mean(losses[gi.seg == j]) for j in range(gi.m)]
    forward, calls = md.forward, []
    monkeypatch.setattr(md, "forward", lambda *args: calls.append(1) or forward(*args))
    vals, shifts = _search_spheres(_Fit(model, theta, ds, sigma, gi), np.zeros(2), seed=0)
    assert len(calls) == 1  # one evaluation, no direction grid or ascent
    np.testing.assert_allclose(vals, want, rtol=1e-12, atol=0)
    assert np.array_equal(shifts, np.zeros((2, q)))


def test_exhaustive_tiny_keeps_first_split_on_ties():
    # a zero-parameter model has the same loss under every shift, so every
    # split ties and the first one, (0, 1) of the budget, must be kept
    model = ModelSpec("mlp", (7, 4, 1))
    ds, gi, _theta, sigma = sigma_instance(1, model)
    gi = GroupIndex(np.minimum(gi.seg, 1))
    res = worst_case_loss(model, np.zeros(md.param_count(model)), ds, gi, sigma, 0.7,
                          method="exhaustive_tiny")
    assert np.array_equal(res.assignment[0], [0.0])
    assert mahalanobis_cost(res.assignment[1], sigma) == pytest.approx(1.4, rel=1e-12)


# ---- batched search against one candidate per pass --------------------------

def _one_candidate_search(model, theta, ds, gi, chol, budgets, seed):
    # reference: every candidate (a grid direction, or one restart of every
    # group with its 200 ascent steps) rendered and scored on its own, each
    # group keeping its first strict maximum
    seg, m, q = gi.seg, gi.m, ds.q
    scale = np.sqrt(budgets)[:, None]
    labels = ds.dataset.labels
    targets = md._targets(model, labels)

    def shift(u):
        return scale * np.einsum("ab,jb->ja", chol, u)

    def features(u):
        return ds.render(ds.style + shift(u)[seg])

    grid = _sphere_directions(q)
    if grid is None:
        draws = [np.random.default_rng(seed + j).standard_normal((64, q)) for j in range(m)]
        starts = [np.array([d[r] / np.linalg.norm(d[r]) for d in draws]) for r in range(64)]
    else:
        starts = [np.broadcast_to(u, (m, q)) for u in grid]
    best_val, best_delta = np.full(m, -np.inf), np.zeros((m, q))
    for u in starts:
        for _ in range(0 if grid is not None else 200):
            g = _style_gradients(model, theta, ds, features(u), targets)
            g_u = scale * np.einsum("ba,jb->ja", chol, segment_means(g, seg, m))
            norms = np.maximum(np.linalg.norm(g_u, axis=1, keepdims=True), 1e-12)
            u = u + 0.1 * scale * g_u / norms
            u = u / np.linalg.norm(u, axis=1, keepdims=True)
        logits = md.forward(model, theta, features(u))
        val = segment_means(md.per_sample_loss(model, logits, labels), seg, m)
        better = val > best_val
        best_val[better], best_delta[better] = val[better], shift(u)[better]
    return best_val, best_delta


def _force_chunk(monkeypatch, k, model, ds):
    # the budget that makes _search_spheres stack exactly k candidates
    n, p = ds.dataset.features.shape
    monkeypatch.setattr(md, "_CHUNK_BYTES", k * 8 * n * max(p, ds.q, *model.layer_sizes))


def _grid_instance(q, render):
    if render == "linear":
        _spec, ds, gi = scm_instance(n=30, id_count=4, q=q)
    else:
        ds, _test = gen_example2(30, 10, seed=2)
        gi = build_group_index(ds.dataset)
    model = ModelSpec("mlp", (ds.dataset.p, 5, 1))
    theta = md.init_params(model, 4) + 0.3 * np.random.default_rng(5).standard_normal(
        md.param_count(model))
    root = np.random.default_rng(q).standard_normal((q, q))
    sigma = root @ root.T + 0.5 * np.eye(q)
    budgets = np.linspace(0.2, 1.4, gi.m)
    return model, theta, ds, gi, sigma, budgets


@pytest.mark.parametrize("k", [1, 7, 2000])
@pytest.mark.parametrize("q,render", [(2, "linear"), (3, "linear"), (1, "polar")])
def test_grid_search_equals_one_candidate_loop(q, render, k, monkeypatch):
    # k = 7 leaves a partial last chunk (720 % 7, 2000 % 7); 2000 holds every grid
    model, theta, ds, gi, sigma, budgets = _grid_instance(q, render)
    want_vals, want_shifts = _one_candidate_search(model, theta, ds, gi,
                                                   np.linalg.cholesky(sigma), budgets, 0)
    _force_chunk(monkeypatch, k, model, ds)
    vals, shifts = _search_spheres(_Fit(model, theta, ds, sigma, gi), budgets, 0)
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(shifts, want_shifts)


@pytest.fixture(scope="module")
def ascent_reference():
    model = ModelSpec("mlp", (7, 4, 1))
    ds, gi, theta, sigma = sigma_instance(4, model)
    args = (model, theta, ds, GroupIndex(np.minimum(gi.seg, 2)), np.linalg.cholesky(sigma),
            np.array([0.3, 0.6, 1.1]), 5)
    return args, sigma, _one_candidate_search(*args)


@pytest.mark.parametrize("k", [5, 64])
def test_stacked_ascent_matches_per_restart_loop(k, ascent_reference, monkeypatch):
    # k = 5 leaves a partial last chunk of the 64 restarts; 64 steps them all at once
    args, sigma, (want_vals, want_shifts) = ascent_reference
    model, theta, ds, gi, _chol, budgets, seed = args
    _force_chunk(monkeypatch, k, model, ds)
    vals, shifts = _search_spheres(_Fit(model, theta, ds, sigma, gi), budgets, seed)
    np.testing.assert_allclose(vals, want_vals, rtol=1e-12, atol=0)
    np.testing.assert_allclose(shifts, want_shifts, rtol=1e-12, atol=1e-15)


def _ascent_reach(starts, target, h):
    # cosine to ``target`` of each restart after the reference's 200 steps
    # u <- (u + h target) / ||u + h target||, the step it takes whenever its
    # unit gradient is ``target``
    c = starts @ target
    for _ in range(200):
        c = (c + h) / np.sqrt(1.0 + 2.0 * h * c + h * h)
    return c


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_exact_search_bounds_grid_and_ascent_within_their_reach(q):
    # A group's loss f is convex in s = a . delta, which spans [-r_j, r_j],
    # r_j = sqrt(b_j) ||L^T a||, and the logistic loss has |f'| <= 1. A
    # candidate at angle theta from the maximising end reaches s = r_j cos
    # theta, so the tangent there bounds its shortfall by r_j (1 - cos theta).
    # The reach cos theta is cos(pi / 720) for the q = 2 grid, read off the
    # grid for q = 1 and 3, and for the q = 4 ascent taken from its step rule:
    # each (label, id) group has one label, so f is monotone and every
    # restart's unit gradient points at the same end.
    model = ModelSpec("linear", (7, 1))
    ds, gi, theta, sigma = sigma_instance(q, model)
    budgets = np.linspace(0.2, 1.4, gi.m)
    chol = np.linalg.cholesky(sigma)
    exact, _ = _search_spheres(_Fit(model, theta, ds, sigma, gi), budgets, 5)
    ref, _ = _one_candidate_search(model, theta, ds, gi, chol, budgets, 5)
    la = chol.T @ (ds.style_matrix.T @ theta[:7])
    r = np.sqrt(budgets) * np.linalg.norm(la)
    end = la / np.linalg.norm(la)
    grid = _sphere_directions(q)
    if q == 2:
        reach = np.cos(np.pi / 720)
    elif grid is not None:
        reach = min(np.max(grid @ (sign * end)) for sign in (1, -1))
    else:
        reach = np.empty(gi.m)
        for j in range(gi.m):
            starts = np.random.default_rng(5 + j).standard_normal((64, q))
            starts /= np.linalg.norm(starts, axis=1, keepdims=True)
            h = 0.1 * np.sqrt(budgets[j])
            reach[j] = min(_ascent_reach(starts, sign * end, h).max() for sign in (1, -1))
    assert np.all(r > 0.0)
    assert np.all(ref <= exact + 1e-12)
    assert np.all(exact - ref <= r * (1.0 - reach) + 1e-12)


def test_grid_search_keeps_first_direction_on_ties(monkeypatch):
    # a zero-parameter model has the same loss under every shift, so every
    # candidate ties and each group must keep grid[0]'s shift across chunks
    model, _theta, ds, gi, sigma, budgets = _grid_instance(2, "linear")
    chol = np.linalg.cholesky(sigma)
    _force_chunk(monkeypatch, 7, model, ds)
    vals, shifts = _search_spheres(_Fit(model, np.zeros(md.param_count(model)), ds, sigma, gi),
                                   budgets, 0)
    first = np.sqrt(budgets)[:, None] * np.einsum("ab,b->a", chol, _sphere_directions(2)[0])
    assert np.all(vals == np.log(2.0))
    assert np.array_equal(shifts, first)


def test_search_memory_stays_within_the_chunk_budget():
    # shift_search's shape: n = 400, p = 10, q = 2, m = 50 groups, a linear
    # model, searched at its two exact candidates; the two-class linear model
    # runs the 720-direction grid on the same data
    spec = LinearScmSpec(p=10, q=2, r=4, id_count=25, id_sampler="round_robin",
                         style_class_mean=(1.0, 1.0), style_cov=((1.0, 0.0), (0.0, 1.0)))
    ds = sample_linear_scm(spec, 400, InterventionSpec("none"), seed=0)
    gi = build_group_index(ds.dataset)
    assert (len(ds.dataset), gi.m) == (400, 50)
    two_class = ModelSpec("linear", (10, 2))
    for model, theta in ((ModelSpec("linear", (10, 1)), linear_theta(spec, ds)),
                         (two_class, md.init_params(two_class, 0))):
        tracemalloc.start()
        try:
            _search_spheres(_Fit(model, theta, ds, np.eye(2), gi), np.full(gi.m, 1.0), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the peak follows the budget (the rendered chunk is the largest array),
        # and 1 MiB caps it well inside the 10 % (about 4 MB) by which
        # shift_search's peak RSS may grow; a 1 MiB budget reads 1.9 MB here
        assert peak <= 4 * md._CHUNK_BYTES
        assert peak <= 1 << 20


# ---- divergence probe ---------------------------------------------------------

def test_divergence_probe_invariant_flat():
    spec, ds, gi = scm_instance()
    model = ModelSpec("linear", (6, 1))
    theta = linear_theta(spec, ds, invariant=True)
    probe = divergence_probe(model, theta, ds, np.array([1.0, 0.0]),
                             [0.0, 1.0, 10.0, 100.0, 1000.0])
    assert probe.verdict == "bounded"
    assert probe.losses.max() - probe.losses.min() <= 1e-9
    assert probe.losses[0] == pytest.approx(probe.unshifted, rel=0, abs=0)


def test_divergence_probe_style_loaded_theta_unbounded():
    spec, ds, gi = scm_instance(n=200)
    model = ModelSpec("linear", (6, 1))
    _c, w_mat = spec.matrices()
    theta = np.concatenate([w_mat[:, 0], [0.0]])  # weight fully in style space
    direction = steepest_style_direction(model, theta, ds, np.eye(2))
    probe = divergence_probe(model, theta, ds, direction, [1.0, 10.0, 100.0, 1000.0])
    assert probe.verdict == "unbounded"
    assert np.all(np.diff(probe.losses[-3:]) > 0)


@pytest.mark.parametrize("k", [1, 4, 6])
@pytest.mark.parametrize("case", ["linear", "polar_mlp", "three_logit"])
def test_divergence_probe_stacks_separate_loss_under_shift_calls(case, k, monkeypatch):
    # the probe scores the unshifted point and its five magnitudes k at a
    # time (k = 4 leaves a partial last chunk); each loss must equal its own
    # loss_under_shift call bit for bit
    if case == "polar_mlp":
        ds, _test = gen_example2(30, 10, seed=2)
        model = ModelSpec("mlp", (2, 5, 1))
        theta = md.init_params(model, 4)
    else:
        spec, ds, _gi = scm_instance(n=50)
        model = ModelSpec("linear", (6, 3 if case == "three_logit" else 1))
        theta = (md.init_params(model, 1) if case == "three_logit"
                 else linear_theta(spec, ds))
    direction = np.linspace(1.0, -0.5, ds.q)
    magnitudes = [0.0, 0.5, 3.0, 30.0, 300.0]
    want = [loss_under_shift(model, theta, ds, np.zeros(ds.q))]
    want += [loss_under_shift(model, theta, ds, mag * direction) for mag in magnitudes]
    _force_chunk(monkeypatch, k, model, ds)
    probe = divergence_probe(model, theta, ds, direction, magnitudes)
    assert [probe.unshifted, *probe.losses.tolist()] == want


def test_divergence_probe_rejects_zero_direction():
    spec, ds, gi = scm_instance()
    with pytest.raises(ValueError):
        divergence_probe(ModelSpec("linear", (6, 1)), linear_theta(spec, ds), ds,
                         np.zeros(2), [1.0])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_non_finite_losses_give_no_divergence_verdict():
    # every weight at 1e308 overflows the logits, so the losses are inf or
    # NaN; a verdict read from them ('bounded') would say nothing
    spec, ds, gi = scm_instance()
    model = ModelSpec("linear", (6, 1))
    theta = np.full(7, 1e308)
    with pytest.raises(ArithmeticError, match="at style-shift magnitude 0.0"):
        divergence_probe(model, theta, ds, np.array([1.0, 0.0]), [0.0, 1.0, 10.0])
    with pytest.raises(ArithmeticError, match="at style-shift magnitude 0.0"):
        rb.report(model, theta, ds, gi, np.eye(2), [0.0, 1.0], "uniform_ball", 1e-3,
                  [0.0, 1.0, 10.0])


# ---- first order gap -----------------------------------------------------------

def test_first_order_gap_zero_budget_exact():
    spec, ds, gi = scm_instance()
    model = ModelSpec("linear", (6, 1))
    res = first_order_gap(model, linear_theta(spec, ds), ds, gi, np.eye(2), 0.0)
    assert res.gap == 0.0
    assert res.lhs == res.rhs


def test_first_order_gap_invariant_theta():
    spec, ds, gi = scm_instance()
    model = ModelSpec("linear", (6, 1))
    theta = linear_theta(spec, ds, invariant=True)
    res = first_order_gap(model, theta, ds, gi, np.eye(2), 1e-3)
    assert res.penalty_value == pytest.approx(0.0, abs=1e-12)
    assert res.gap == pytest.approx(0.0, abs=1e-10)


# ---- invariance defect ----------------------------------------------------------

def test_invariance_defect_cases():
    rng = np.random.default_rng(3)
    w_mat, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    v = rng.standard_normal(5)
    orth = v - w_mat @ (w_mat.T @ v)
    assert invariance_defect(orth, w_mat) <= 1e-12
    in_space = w_mat @ np.array([0.6, 0.8])
    assert invariance_defect(in_space, w_mat) == pytest.approx(1.0, rel=1e-12)
    assert invariance_defect(np.zeros(5), w_mat) == 0.0
    with_bias = np.concatenate([orth, [2.0]])
    assert invariance_defect(with_bias, w_mat) <= 1e-12
    with pytest.raises(ValueError):
        invariance_defect(np.zeros(7), w_mat)


# ---- conditional covariance -------------------------------------------------------

def test_estimate_conditional_covariance_monte_carlo():
    cov = np.array([[0.8, 0.3], [0.3, 0.6]])
    spec = LinearScmSpec(p=6, q=2, r=3, id_count=50, id_sampler="round_robin",
                         style_class_mean=(1.0, 0.5),
                         style_cov=tuple(tuple(r) for r in cov), structure_seed=1)
    ds = sample_linear_scm(spec, 100_000, InterventionSpec("none"), seed=3)
    est = estimate_conditional_covariance(ds)
    assert est.spd
    assert np.max(np.abs(est.pooled - cov)) < 3.0 * np.sqrt(2.0 / 100_000) * 4
    want_zeta = np.max(np.linalg.eigvalsh(cov))
    assert est.zeta == pytest.approx(want_zeta, rel=0.05)


def test_estimate_covariance_identical_styles_flagged():
    spec, ds, gi = scm_instance(n=40, id_count=5)
    first = gi.members[np.cumsum(gi.sizes) - gi.sizes]  # each group's first member
    ds.style = ds.style[first[gi.seg]]
    est = estimate_conditional_covariance(ds, gi)
    assert not est.spd
    assert np.allclose(est.pooled, 0.0)


def test_zeta_for_diagonal_matrix():
    spec, ds, gi = scm_instance(n=30)
    ds.style = ds.style * 0.0
    # no estimable groups after zeroing? groups still exist but zero variance
    est = estimate_conditional_covariance(ds, gi)
    assert est.zeta == 0.0
    spec2 = LinearScmSpec(p=6, q=2, r=3, style_class_mean=(0.0, 0.0),
                          style_cov=((4.0, 0.0), (0.0, 1.0)), structure_seed=0)
    ds2 = sample_linear_scm(spec2, 5, InterventionSpec("none"), seed=1)
    # singleton-only grouping: nothing to estimate from, generator covariance or not
    assert ds2.scm is not None and build_group_index(ds2.dataset).c == 0
    with pytest.raises(ValueError, match="no group has two members"):
        estimate_conditional_covariance(ds2)


def test_estimate_covariance_requires_latents():
    with pytest.raises(TypeError):
        estimate_conditional_covariance("not a style dataset")


def test_large_margins_train_and_search_without_warnings():
    # features scaled so that |margin| > 710: the logistic derivative's exp
    # overflows to its limit, and every caller of it holds the errstate
    # that keeps numpy quiet about that
    spec, ds, gi = scm_instance(n=60)
    scale = 1e3
    big = replace(ds, dataset=Dataset(scale * ds.dataset.features, ds.dataset.labels,
                                      ds.dataset.ids),
                  core=scale * ds.core, style=scale * ds.style)
    model = ModelSpec("linear", (spec.p, 1))
    sigma = np.asarray(spec.style_cov)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = train(big.dataset, gi, model, TrainConfig(epochs=2)).theta
        assert np.abs(md.forward(model, theta, big.dataset.features)).max() > 710.0
        for method in ("uniform_ball", "gradient_allocation"):
            res = worst_case_loss(model, theta, big, gi, sigma, 1.0, method=method)
            assert np.isfinite(res.value)


# ---- pinned outputs ----------------------------------------------------------------

def _pinned_fits():
    """(name, style dataset, spec, config) of the fits whose robustness
    outputs are pinned: example1 with a linear model, example2 with a
    polar-render MLP and a linear SCM with a 3-logit linear model."""
    ex1, _ = gen_example1(300, 60, seed=3)
    ex2, _ = gen_example2(200, 60, seed=4)
    scm_spec = LinearScmSpec(p=6, q=2, r=3, id_count=10, style_class_mean=(1.0, -0.5),
                             style_cov=((1.0, 0.3), (0.3, 0.8)), structure_seed=7)
    lin = sample_linear_scm(scm_spec, 120, InterventionSpec("none"), seed=5)
    return [
        ("example1_linear", ex1, ModelSpec("linear", (2, 1)),
         TrainConfig(PenaltyConfig("prediction", 1.0, 1.0, 1e-4),
                     OptimizerConfig("adam", 0.05), 60, 3, 0)),
        ("example2_mlp", ex2, ModelSpec("mlp", (2, 8, 1), "tanh"),
         TrainConfig(PenaltyConfig("loss", 0.5, 1.0, 1e-4),
                     OptimizerConfig("adam", 0.02), 60, 3, 1)),
        ("linear_scm_3logit", lin, ModelSpec("linear", (6, 3)),
         TrainConfig(PenaltyConfig(), OptimizerConfig("adam", 0.05), 40, 3, 2)),
    ]


def _robustness_outputs(ds, spec, cfg) -> dict:
    # the generator's covariance where the sidecar has one, as shift_eval
    # reads it; exhaustive_tiny takes at most 3 groups: groups 2 and up merge
    gi = build_group_index(ds.dataset)
    theta = train(ds.dataset, gi, spec, cfg).theta
    sigma = (np.asarray(ds.scm.style_cov) if ds.scm is not None
             else estimate_conditional_covariance(ds, gi).pooled)
    xis = (0.0, 0.3, 2.0)
    worst = {method: [worst_case_loss(spec, theta, ds, gi, sigma, xi, method=method).value
                      for xi in xis]
             for method in ("uniform_ball", "gradient_allocation")}
    coarse = GroupIndex(np.minimum(gi.seg, 2))
    worst["exhaustive_tiny"] = [
        worst_case_loss(spec, theta, ds, coarse, sigma, xi, method="exhaustive_tiny").value
        for xi in xis]
    direction = steepest_style_direction(spec, theta, ds, sigma)
    probe = divergence_probe(spec, theta, ds, direction, [0.0, 1.0, 10.0, 100.0, 1000.0])
    fo = first_order_gap(spec, theta, ds, gi, sigma, 0.5)
    return {
        "worst_case": worst,
        "divergence": {"unshifted": probe.unshifted, "losses": probe.losses.tolist(),
                       "verdict": probe.verdict},
        "first_order_gap": {"lhs": fo.lhs, "rhs": fo.rhs, "gap": fo.gap,
                            "penalty_value": fo.penalty_value},
    }


@pytest.mark.parametrize("fit", _pinned_fits(), ids=lambda f: f[0])
def test_robustness_outputs_pinned(fit):
    # every worst-case value, divergence loss and first-order gap, recorded
    # before the probes shared one scoring path; any change of arithmetic
    # or reduction order shows
    name, *args = fit
    with open(PINNED, encoding="utf-8") as fh:
        want = json.load(fh)[name]
    assert _robustness_outputs(*args) == want


def _sigma_fits():
    """(name, style dataset, spec, config) of small linear-SCM fits searched
    under their generator's non-diagonal Sigma: a single-logit linear model
    at q = 2 (the exact pair), MLPs at q = 3 (the direction grid) and q = 4
    (the ascent)."""
    covs = {2: ((1.0, 0.4), (0.4, 0.7)),
            3: ((1.0, 0.3, -0.2), (0.3, 0.8, 0.1), (-0.2, 0.1, 0.6)),
            4: ((1.0, 0.3, 0.0, -0.2), (0.3, 0.9, 0.2, 0.0), (0.0, 0.2, 0.7, 0.1),
                (-0.2, 0.0, 0.1, 0.5))}
    fits = []
    for q, cov in covs.items():
        spec = LinearScmSpec(p=q + 3, q=q, r=2, id_count=3,
                             style_class_mean=tuple(np.linspace(1.0, -0.5, q)),
                             style_cov=cov, structure_seed=q)
        ds = sample_linear_scm(spec, 24, InterventionSpec("none"), seed=q)
        model = (ModelSpec("linear", (q + 3, 1)) if q == 2
                 else ModelSpec("mlp", (q + 3, 4, 1), "tanh"))
        cfg = TrainConfig(PenaltyConfig(), OptimizerConfig("adam", 0.05), 8, 5, q)
        fits.append((f"sigma_q{q}_{model.kind}", ds, model, cfg))
    return fits


def _worst_case_outputs(ds, spec, cfg) -> dict:
    # every method's values and assignments; exhaustive_tiny on groups 2 and
    # up merged, or at q = 4, where each budget level is a 64-restart
    # ascent, on all groups merged into one
    gi = build_group_index(ds.dataset)
    theta = train(ds.dataset, gi, spec, cfg).theta
    sigma = np.asarray(ds.scm.style_cov)
    tiny = GroupIndex(np.minimum(gi.seg, 2 if ds.q < 4 else 0))
    out = {}
    for method in ("uniform_ball", "gradient_allocation", "exhaustive_tiny"):
        groups = tiny if method == "exhaustive_tiny" else gi
        res = [worst_case_loss(spec, theta, ds, groups, sigma, xi, method=method, seed=3)
               for xi in (0.0, 0.3, 2.0)]
        out[method] = {"values": [r.value for r in res],
                       "assignments": [r.assignment.tolist() for r in res]}
    return out


@pytest.mark.parametrize("fit", _sigma_fits(), ids=lambda f: f[0])
def test_worst_case_under_a_non_diagonal_sigma_pinned(fit):
    # values and assignments bit for bit, recorded before Sigma was checked
    # and factored in one place; the exact pair (q = 2), the grid (q = 3)
    # and the ascent (q = 4) each read the off-diagonal terms
    name, *args = fit
    with open(PINNED, encoding="utf-8") as fh:
        want = json.load(fh)[name]
    assert _worst_case_outputs(*args) == want


# ---- one report ----------------------------------------------------------------------

_BAD_REPORT_INPUTS = {
    "xi": {"xis": [0.0, float("nan")]},
    "no_xi": {"xis": []},
    "fo_xi": {"fo_xi": -1.0},
    "magnitudes": {"magnitudes": [1.0, float("inf")]},
    "method": {"method": "steepest"},
    "exhaustive_tiny_groups": {"method": "exhaustive_tiny"},
    "sigma": {"sigma": np.array([[1.0, 5.0], [0.0, 1.0]])},
}


@pytest.mark.parametrize("bad", sorted(_BAD_REPORT_INPUTS))
def test_report_checks_every_input_before_the_model_runs(bad, monkeypatch):
    # a bad last budget, first-order budget or magnitude fails before the
    # first forward call or style-gradient pass, not after the worst cases
    spec, ds, gi = scm_instance()
    assert gi.m > 3
    args = {"spec": ModelSpec("linear", (6, 1)), "theta": linear_theta(spec, ds),
            "style_dataset": ds, "group_index": gi, "sigma": np.eye(2), "xis": [0.0, 0.1],
            "method": "gradient_allocation", "fo_xi": 1e-3, "magnitudes": [0.0, 1.0]}
    calls = []
    for module, name in ((md, "forward"), (rb, "_style_gradients")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    with pytest.raises(ValueError):
        rb.report(**{**args, **_BAD_REPORT_INPUTS[bad]})
    assert calls == []
    rb.report(**args)
    assert {"forward", "_style_gradients"} <= set(calls)


@pytest.fixture(scope="module", params=_pinned_fits(), ids=lambda f: f[0])
def pinned_fit(request):
    # a pinned fit's model, style dataset, groups and the Sigma shift_eval reads
    _name, ds, spec, cfg = request.param
    gi = build_group_index(ds.dataset)
    theta = train(ds.dataset, gi, spec, cfg).theta
    sigma = (np.asarray(ds.scm.style_cov) if ds.scm is not None
             else estimate_conditional_covariance(ds, gi).pooled)
    return spec, theta, ds, gi, sigma


@pytest.mark.parametrize("method", ["uniform_ball", "gradient_allocation", "exhaustive_tiny"])
def test_every_probe_equals_its_report_field(pinned_fit, method):
    # report runs every probe on one shared _Fit; each public probe, on its
    # own, must give the same bits (exhaustive_tiny on groups 2 and up merged)
    spec, theta, ds, gi, sigma = pinned_fit
    if method == "exhaustive_tiny":
        gi = GroupIndex(np.minimum(gi.seg, 2))
    xis, fo_xi, magnitudes = [0.0, 0.3, 2.0], 0.5, [0.0, 1.0, 10.0, 100.0, 1000.0]
    got = rb.report(spec, theta, ds, gi, sigma, xis, method, fo_xi, magnitudes)
    assert got.xi_grid == xis and got.method == method
    assert len(got.worst_case) == len(xis)
    for xi, res in zip(xis, got.worst_case):
        want = worst_case_loss(spec, theta, ds, gi, sigma, xi, method=method)
        assert (res.value, res.method, res.note) == (want.value, want.method, want.note)
        assert np.array_equal(res.assignment, want.assignment)
    assert got.first_order == first_order_gap(spec, theta, ds, gi, sigma, fo_xi)
    linear = rb._style_direction(spec, theta, ds) is not None
    direction = steepest_style_direction(spec, theta, ds, sigma) if linear else np.eye(ds.q)[0]
    want = divergence_probe(spec, theta, ds, direction, magnitudes)
    for field in ("direction", "magnitudes", "losses"):
        assert np.array_equal(getattr(got.divergence, field), getattr(want, field))
    assert (got.divergence.unshifted, got.divergence.verdict) == (want.unshifted, want.verdict)
    assert got.invariance_defect == (invariance_defect(theta, ds.style_matrix) if linear
                                     else None)


def test_exhaustive_tiny_reads_the_shared_zero_shift_losses(monkeypatch):
    # every budget split with a zero share searches every group at budget 0;
    # that level, the worst case at xi = 0, the first-order terms and the
    # divergence probe's magnitude 0 share one zero-shift scoring
    spec, ds, gi = scm_instance()
    groups = GroupIndex(np.minimum(gi.seg, 2))
    zero_shifts, shifted_losses = [], rb._shifted_losses

    def count_scorings(fit, shifts):
        zero_shifts.append(sum(not np.any(shift) for shift in shifts))
        return shifted_losses(fit, shifts)

    monkeypatch.setattr(rb, "_shifted_losses", count_scorings)
    got = rb.report(ModelSpec("linear", (6, 1)), linear_theta(spec, ds), ds, groups,
                    np.eye(2), [0.0, 0.5, 2.0], "exhaustive_tiny", 1e-3, [0.0, 1.0])
    assert sum(zero_shifts) == 1
    assert got.worst_case[0].value == got.divergence.unshifted
