import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from condvar import (
    InterventionSpec,
    LinearScmSpec,
    ModelSpec,
    TrainConfig,
    build_group_index,
    divergence_probe,
    estimate_conditional_covariance,
    first_order_gap,
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
from condvar.models import logistic_loss
from condvar.penalties import segment_means
from condvar.robustness import (
    WorstCaseResult,
    _budget_splits,
    _group_shift_gradients,
    _search_spheres,
    _sphere_directions,
    _style_gradients,
)
from condvar.scm import StyleAwareDataset, rerender


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
    want = float(logistic_loss(y_pm, x @ theta[:6] + theta[6]))
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
        return float(np.mean(logistic_loss(y_pm, x @ theta[:7] + theta[7])))

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
    ds, gi, _theta, sigmas = per_group_sigma_instance(2, model)
    theta = np.concatenate([np.zeros(7), [0.3]])
    xi = 0.6
    res = worst_case_loss(model, theta, ds, gi, sigmas, xi, method="uniform_ball")
    assert res.value == loss_under_shift(model, theta, ds, np.zeros(2))
    assert np.all(np.isfinite(res.assignment))
    for delta, sigma_j in zip(res.assignment, sigmas):
        assert mahalanobis_cost(delta, sigma_j) == pytest.approx(xi, rel=1e-12)
    assert res.note == "exact supremum (linear model, linear render)"


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


def per_group_sigma_instance(q, model):
    spec = LinearScmSpec(p=7, q=q, r=2, id_count=2, style_class_mean=tuple([1.0] * q),
                         style_cov=tuple(tuple(r) for r in np.eye(q)), structure_seed=2)
    ds = sample_linear_scm(spec, 16, InterventionSpec("none"), seed=3)
    gi = build_group_index(ds.dataset)
    theta = md.init_params(model, 2) + 0.3 * np.random.default_rng(8).standard_normal(
        md.param_count(model))
    roots = np.random.default_rng(9).standard_normal((gi.m, q, q))
    return ds, gi, theta, roots @ roots.transpose(0, 2, 1) + 0.5 * np.eye(q)


def test_uniform_ball_per_group_sigma():
    # m copies of a shared sigma search exactly what the shared sigma does;
    # distinct per-group sigmas put each group on its own budget ellipsoid
    model = ModelSpec("linear", (7, 1))
    ds, gi, theta, sigmas = per_group_sigma_instance(2, model)
    xi = 0.6
    shared = worst_case_loss(model, theta, ds, gi, sigmas[0], xi, method="uniform_ball")
    copies = worst_case_loss(model, theta, ds, gi, np.repeat(sigmas[:1], gi.m, axis=0), xi,
                             method="uniform_ball")
    assert copies.value == shared.value
    assert np.array_equal(copies.assignment, shared.assignment)
    res = worst_case_loss(model, theta, ds, gi, sigmas, xi, method="uniform_ball")
    for delta, sigma_j in zip(res.assignment, sigmas):
        assert mahalanobis_cost(delta, sigma_j) == pytest.approx(xi, rel=1e-9)
    assert res.value >= loss_under_shift(model, theta, ds, np.zeros(2))


def test_uniform_ball_ascent_matches_single_group_searches():
    # reference: each group searched alone, on a dataset of its own rows,
    # with its own sigma and the restart seed (seed + j) it gets in the
    # joint search; the joint ascent must reach the same group losses
    model = ModelSpec("mlp", (7, 4, 1))
    ds, gi, theta, sigmas = per_group_sigma_instance(4, model)
    gi = GroupIndex(np.minimum(gi.seg, 1))  # two groups keep the reference cheap
    xi, seed = 0.6, 5
    res = worst_case_loss(model, theta, ds, gi, sigmas[:2], xi, method="uniform_ball", seed=seed)
    for j in range(gi.m):
        members = np.flatnonzero(gi.seg == j)
        part = StyleAwareDataset(
            Dataset(ds.dataset.features[members], ds.dataset.labels[members]),
            ds.core[members], ds.style[members], "linear", ds.core_matrix, ds.style_matrix)
        alone = worst_case_loss(model, theta, part, GroupIndex(np.zeros(len(members), int)),
                                sigmas[j], xi, method="uniform_ball", seed=seed + j)
        joint = loss_under_shift(model, theta, part, res.assignment[j])
        assert joint == pytest.approx(alone.value, rel=1e-9)
        assert mahalanobis_cost(res.assignment[j], sigmas[j]) == pytest.approx(xi, rel=1e-9)


@pytest.mark.parametrize("render", ["linear", "polar"])
def test_shift_gradients_match_central_differences(render):
    if render == "linear":
        _spec, ds, gi = scm_instance(n=40)
    else:
        ds, _test = gen_example2(40, 12, seed=1)
        gi = build_group_index(ds.dataset)
    model = ModelSpec("mlp", (ds.dataset.p, 5, 1))
    theta = md.init_params(model, 3)
    g = _group_shift_gradients(model, theta, ds, gi)
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


def _exhaustive_by_split(model, theta, ds, gi, sigmas, xi, seed):
    # reference: one full search per budget split, scored by its weighted total
    best = -np.inf
    for split in _float_splits(gi.m):
        vals, _ = _search_spheres(model, theta, ds, gi, sigmas, split * gi.m * xi, seed)
        best = max(best, float(np.sum(gi.sizes / gi.n * vals)))
    return best


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_exhaustive_tiny_matches_per_split_search(q, m):
    model = ModelSpec("mlp", (7, 4, 1))
    ds, gi, theta, sigmas = per_group_sigma_instance(q, model)
    gi = GroupIndex(np.minimum(gi.seg, m - 1))
    assert gi.m == m
    xi = 0.7
    want = _exhaustive_by_split(model, theta, ds, gi, sigmas[:m], xi, seed=0)
    res = worst_case_loss(model, theta, ds, gi, sigmas[:m], xi, method="exhaustive_tiny")
    assert res.value == pytest.approx(want, rel=1e-12)
    assert loss_under_shift(model, theta, ds, res.assignment, gi) == pytest.approx(want, rel=1e-12)
    spent = sum(mahalanobis_cost(d, s) for d, s in zip(res.assignment, sigmas[:m]))
    assert spent == pytest.approx(m * xi, rel=1e-9)


@pytest.mark.parametrize("q", [2, 4])
def test_zero_budget_search_is_the_unshifted_group_loss(q, monkeypatch):
    # exhaustive_tiny's share-0 level asks for every budget at 0
    model = ModelSpec("mlp", (7, 4, 1))
    ds, gi, theta, sigmas = per_group_sigma_instance(q, model)
    gi = GroupIndex(np.minimum(gi.seg, 1))
    losses = md.per_sample_loss(model, md.forward(model, theta, ds.render(ds.style)),
                                ds.dataset.labels)
    want = [np.mean(losses[gi.seg == j]) for j in range(gi.m)]
    forward, calls = md.forward, []
    monkeypatch.setattr(md, "forward", lambda *args: calls.append(1) or forward(*args))
    vals, shifts = _search_spheres(model, theta, ds, gi, sigmas[:2], np.zeros(2), seed=0)
    assert len(calls) == 1  # one evaluation, no direction grid or ascent
    np.testing.assert_allclose(vals, want, rtol=1e-12, atol=0)
    assert np.array_equal(shifts, np.zeros((2, q)))


def test_exhaustive_tiny_keeps_first_split_on_ties():
    # a zero-parameter model has the same loss under every shift, so every
    # split ties and the first one, (0, 1) of the budget, must be kept
    model = ModelSpec("mlp", (7, 4, 1))
    ds, gi, _theta, sigmas = per_group_sigma_instance(1, model)
    gi = GroupIndex(np.minimum(gi.seg, 1))
    res = worst_case_loss(model, np.zeros(md.param_count(model)), ds, gi, sigmas[:2], 0.7,
                          method="exhaustive_tiny")
    assert np.array_equal(res.assignment[0], [0.0])
    assert mahalanobis_cost(res.assignment[1], sigmas[1]) == pytest.approx(1.4, rel=1e-12)


# ---- batched search against one candidate per pass --------------------------

def _one_candidate_search(model, theta, ds, gi, sigmas, budgets, seed):
    # reference: every candidate (a grid direction, or one restart of every
    # group with its 200 ascent steps) rendered and scored on its own, each
    # group keeping its first strict maximum
    seg, m, q = gi.seg, gi.m, ds.q
    chols = np.linalg.cholesky(sigmas)
    scale = np.sqrt(budgets)[:, None]
    labels = ds.dataset.labels
    targets = md._targets(model, labels)

    def shift(u):
        return scale * np.einsum("jab,jb->ja", chols, u)

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
            g_u = scale * np.einsum("jba,jb->ja", chols, segment_means(g, seg, m))
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
    roots = np.random.default_rng(q).standard_normal((gi.m, q, q))
    sigmas = roots @ roots.transpose(0, 2, 1) + 0.5 * np.eye(q)
    budgets = np.linspace(0.2, 1.4, gi.m)
    return model, theta, ds, gi, sigmas, budgets


@pytest.mark.parametrize("k", [1, 7, 2000])
@pytest.mark.parametrize("q,render", [(2, "linear"), (3, "linear"), (1, "polar")])
def test_grid_search_equals_one_candidate_loop(q, render, k, monkeypatch):
    # k = 7 leaves a partial last chunk (720 % 7, 2000 % 7); 2000 holds every grid
    model, theta, ds, gi, sigmas, budgets = _grid_instance(q, render)
    want_vals, want_shifts = _one_candidate_search(model, theta, ds, gi, sigmas, budgets, 0)
    _force_chunk(monkeypatch, k, model, ds)
    vals, shifts = _search_spheres(model, theta, ds, gi, sigmas, budgets, 0)
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(shifts, want_shifts)


@pytest.fixture(scope="module")
def ascent_reference():
    model = ModelSpec("mlp", (7, 4, 1))
    ds, gi, theta, sigmas = per_group_sigma_instance(4, model)
    args = (model, theta, ds, GroupIndex(np.minimum(gi.seg, 2)), sigmas[:3],
            np.array([0.3, 0.6, 1.1]), 5)
    return args, _one_candidate_search(*args)


@pytest.mark.parametrize("k", [5, 64])
def test_stacked_ascent_matches_per_restart_loop(k, ascent_reference, monkeypatch):
    # k = 5 leaves a partial last chunk of the 64 restarts; 64 steps them all at once
    args, (want_vals, want_shifts) = ascent_reference
    _force_chunk(monkeypatch, k, args[0], args[2])
    vals, shifts = _search_spheres(*args)
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
    # r_j = sqrt(b_j) ||L_j^T a||, and the logistic loss has |f'| <= 1. A
    # candidate at angle theta from the maximising end reaches s = r_j cos
    # theta, so the tangent there bounds its shortfall by r_j (1 - cos theta).
    # The reach cos theta is cos(pi / 720) for the q = 2 grid, read off the
    # grid for q = 1 and 3, and for the q = 4 ascent taken from its step rule:
    # each (label, id) group has one label, so f is monotone and every
    # restart's unit gradient points at the same end.
    model = ModelSpec("linear", (7, 1))
    ds, gi, theta, sigmas = per_group_sigma_instance(q, model)
    budgets = np.linspace(0.2, 1.4, gi.m)
    exact, _ = _search_spheres(model, theta, ds, gi, sigmas, budgets, 5)
    ref, _ = _one_candidate_search(model, theta, ds, gi, sigmas, budgets, 5)
    la = np.einsum("jba,b->ja", np.linalg.cholesky(sigmas), ds.style_matrix.T @ theta[:7])
    r = np.sqrt(budgets) * np.linalg.norm(la, axis=1)
    ends = la / np.linalg.norm(la, axis=1, keepdims=True)
    grid = _sphere_directions(q)
    if q == 2:
        reach = np.full(gi.m, np.cos(np.pi / 720))
    elif grid is not None:
        reach = np.min([np.max(grid @ (sign * ends).T, axis=0) for sign in (1, -1)], axis=0)
    else:
        reach = np.empty(gi.m)
        for j in range(gi.m):
            starts = np.random.default_rng(5 + j).standard_normal((64, q))
            starts /= np.linalg.norm(starts, axis=1, keepdims=True)
            h = 0.1 * np.sqrt(budgets[j])
            reach[j] = min(_ascent_reach(starts, sign * ends[j], h).max() for sign in (1, -1))
    assert np.all(r > 0.0)
    assert np.all(ref <= exact + 1e-12)
    assert np.all(exact - ref <= r * (1.0 - reach) + 1e-12)


def test_grid_search_keeps_first_direction_on_ties(monkeypatch):
    # a zero-parameter model has the same loss under every shift, so every
    # candidate ties and each group must keep grid[0]'s shift across chunks
    model, _theta, ds, gi, sigmas, budgets = _grid_instance(2, "linear")
    _force_chunk(monkeypatch, 7, model, ds)
    vals, shifts = _search_spheres(model, np.zeros(md.param_count(model)), ds, gi, sigmas,
                                   budgets, 0)
    first = np.sqrt(budgets)[:, None] * np.einsum("jab,b->ja", np.linalg.cholesky(sigmas),
                                                   _sphere_directions(2)[0])
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
    sigmas = np.broadcast_to(np.eye(2), (gi.m, 2, 2))
    two_class = ModelSpec("linear", (10, 2))
    for model, theta in ((ModelSpec("linear", (10, 1)), linear_theta(spec, ds)),
                         (two_class, md.init_params(two_class, 0))):
        tracemalloc.start()
        try:
            _search_spheres(model, theta, ds, gi, sigmas, np.full(gi.m, 1.0), 0)
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


def test_divergence_probe_rejects_zero_direction():
    spec, ds, gi = scm_instance()
    with pytest.raises(ValueError):
        divergence_probe(ModelSpec("linear", (6, 1)), linear_theta(spec, ds), ds,
                         np.zeros(2), [1.0])


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
