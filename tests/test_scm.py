import numpy as np
import pytest

from condvar import (
    InterventionSpec,
    LinearScmSpec,
    build_group_index,
    gen_example1,
    gen_example2,
    load_style_dataset,
    rerender,
    sample_linear_scm,
    save_csv,
    save_latents,
    load_csv,
)
from condvar.scm import EXAMPLE1_STYLE_DIRECTION, expand_assignment


def first_member(gi):
    """Per sample, the first member of its group."""
    return gi.members[np.cumsum(gi.sizes) - gi.sizes][gi.seg]


def small_spec(**kw):
    args = dict(p=6, q=2, r=3, id_count=25,
                style_class_mean=(1.0, 0.5),
                style_cov=((1.0, 0.2), (0.2, 0.5)),
                structure_seed=3)
    args.update(kw)
    return LinearScmSpec(**args)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(p=4)  # r + q > p
    with pytest.raises(ValueError):
        small_spec(style_cov=((1.0, 0.0), (0.1, 1.0)))  # asymmetric
    with pytest.raises(ValueError):
        small_spec(style_cov=((1.0, 2.0), (2.0, 1.0)))  # indefinite
    with pytest.raises(ValueError):
        small_spec(style_class_mean=(1.0,))


def test_style_matrix_full_rank_and_orthonormal():
    spec = small_spec()
    c_mat, w_mat = spec.matrices()
    assert w_mat.shape == (6, 2)
    assert np.allclose(w_mat.T @ w_mat, np.eye(2), atol=1e-12)
    assert np.allclose(c_mat.T @ w_mat, 0.0, atol=1e-12)
    assert np.linalg.matrix_rank(w_mat) == 2


def test_sampling_deterministic_and_grouped():
    spec = small_spec()
    a = sample_linear_scm(spec, 200, InterventionSpec("none"), seed=5)
    b = sample_linear_scm(spec, 200, InterventionSpec("none"), seed=5)
    assert np.array_equal(a.dataset.features, b.dataset.features)
    gi = build_group_index(a.dataset)
    assert gi.c > 0  # collisions on 25 ids over 200 draws
    assert np.allclose(a.core - a.core[first_member(gi)], 0.0)  # shared core latent


def test_round_robin_groups_are_balanced():
    spec = small_spec(id_sampler="round_robin", id_count=10)
    ds = sample_linear_scm(spec, 400, InterventionSpec("none"), seed=2)
    gi = build_group_index(ds.dataset)
    sizes = gi.sizes
    assert sizes.min() >= 2
    assert sizes.max() - sizes.min() <= 2  # class imbalance only


@pytest.mark.parametrize("sampler", ["round_robin", "uniform"])
def test_ids_and_core_latents_follow_the_sampling_rule(sampler):
    # per-row reference: the k-th sample of a class gets id k mod id_count
    # (round robin), and every row's core latent is core_latent(y, id)
    spec = small_spec(id_sampler=sampler, id_count=7)
    ds = sample_linear_scm(spec, 120, InterventionSpec("none"), seed=6)
    seen = [0, 0]
    for i, cls in enumerate(ds.dataset.labels):
        ident = int(ds.dataset.ids[i][1:])
        if sampler == "round_robin":
            assert ident == seen[cls] % 7
        seen[cls] += 1
        assert np.array_equal(ds.core[i], spec.core_latent(2 * cls - 1, ident))


@pytest.mark.parametrize("sampler", ["round_robin", "uniform"])
@pytest.mark.parametrize("id_count", [0, -1])
def test_spec_rejects_an_id_pool_below_one(sampler, id_count):
    # round robin would give every sample id i0 (with a divide-by-zero
    # warning), uniform would fail inside numpy
    with pytest.raises(ValueError, match="id_count must be >= 1"):
        small_spec(id_sampler=sampler, id_count=id_count)


def test_rerender_zero_is_identity():
    spec = small_spec()
    ds = sample_linear_scm(spec, 50, InterventionSpec("none"), seed=1)
    back = rerender(ds, np.zeros(2))
    assert np.array_equal(back.features, ds.dataset.features)


def test_rerender_inverts():
    spec = small_spec()
    ds = sample_linear_scm(spec, 30, InterventionSpec("none"), seed=4)
    delta = np.array([0.7, -1.3])
    fwd = rerender(ds, delta)
    assert not np.allclose(fwd.features, ds.dataset.features)
    # shifting the latents by delta then re-rendering with -delta undoes it
    ds.style = ds.style + delta
    back = rerender(ds, -delta)
    assert np.allclose(back.features, ds.dataset.features, atol=1e-12)


def test_equal_per_class_shifts_add_w_delta_exactly():
    spec = small_spec()
    base = sample_linear_scm(spec, 40, InterventionSpec("none"), seed=9)
    delta = np.array([2.0, -1.0])
    interv = InterventionSpec("per_class_shift", delta_by_class=(tuple(delta), tuple(delta)))
    shifted = sample_linear_scm(spec, 40, interv, seed=9)
    _c, w_mat = spec.matrices()
    assert np.allclose(shifted.dataset.features,
                       base.dataset.features + w_mat @ delta, atol=1e-12)


def test_invariant_parameters_unchanged_by_rerender():
    spec = small_spec()
    ds = sample_linear_scm(spec, 60, InterventionSpec("none"), seed=7)
    c_mat, w_mat = spec.matrices()
    rng = np.random.default_rng(0)
    # weight vector orthogonal to col(W): project a random vector
    v = rng.standard_normal(spec.p)
    w = v - w_mat @ (w_mat.T @ v)
    logits0 = ds.dataset.features @ w
    shifted = rerender(ds, rng.standard_normal((60, 2)) * 3.0)
    logits1 = shifted.features @ w
    assert np.allclose(logits0, logits1, atol=1e-10)


def test_per_class_shift_intervention():
    spec = small_spec()
    interv = InterventionSpec("per_class_shift",
                              delta_by_class=((0.0, 0.0), (5.0, 5.0)))
    ds = sample_linear_scm(spec, 300, interv, seed=3)
    base = sample_linear_scm(spec, 300, InterventionSpec("none"), seed=3)
    lab = ds.dataset.labels
    diff = ds.style - base.style
    assert np.allclose(diff[lab == 0], 0.0)
    assert np.allclose(diff[lab == 1], 5.0)


def test_style_covariance_matches_spec_monte_carlo():
    cov = ((0.8, 0.3), (0.3, 0.6))
    spec = small_spec(style_cov=cov, id_count=200)
    ds = sample_linear_scm(spec, 100_000, InterventionSpec("none"), seed=12)
    lab = ds.dataset.labels
    y_pm = 2.0 * lab - 1.0
    centered = ds.style - np.outer(y_pm, spec.style_class_mean)
    emp = centered.T @ centered / len(lab)
    # 3 sigma of a covariance entry estimate is ~3 * sqrt(2/n)
    assert np.max(np.abs(emp - np.asarray(cov))) < 3.0 * np.sqrt(2.0 / len(lab))


def test_class_balance_within_three_sigma():
    spec = small_spec(class_balance=0.5)
    ds = sample_linear_scm(spec, 10_000, InterventionSpec("none"), seed=8)
    frac = ds.dataset.labels.mean()
    assert abs(frac - 0.5) < 3.0 * 0.5 / np.sqrt(10_000)


def test_example1_structure():
    train, test = gen_example1(1000, 100, test_shift=4.0, seed=0)
    gi = build_group_index(train.dataset)
    assert gi.n == 1000 and gi.c == 100
    assert gi.max_size() == 2
    # shared core, feature difference along the style direction
    first = first_member(gi)
    assert np.array_equal(train.core[:, 0], train.core[first, 0])
    diff = train.dataset.features - train.dataset.features[first]
    cross = diff[:, 0] * EXAMPLE1_STYLE_DIRECTION[1] - diff[:, 1] * EXAMPLE1_STYLE_DIRECTION[0]
    assert np.max(np.abs(cross)) < 1e-12
    # test split: class-1 style mean moved by ~test_shift
    lab_tr, lab_te = train.dataset.labels, test.dataset.labels
    shift = test.style[lab_te == 1].mean() - train.style[lab_tr == 1].mean()
    assert shift == pytest.approx(4.0, abs=0.1)
    assert abs(test.style[lab_te == 0].mean() - train.style[lab_tr == 0].mean()) < 0.1


def test_example2_structure():
    train, test = gen_example2(800, 80, seed=1)
    gi = build_group_index(train.dataset)
    assert gi.c == 80
    radii = np.linalg.norm(train.dataset.features, axis=1)
    assert np.allclose(radii, train.core[:, 0], atol=1e-9)
    assert np.array_equal(train.core[:, 0], train.core[first_member(gi), 0])
    lab = train.dataset.labels
    assert radii[lab == 1].mean() == pytest.approx(2.0, abs=0.05)
    assert radii[lab == 0].mean() == pytest.approx(1.0, abs=0.05)


def test_example_class_balance():
    train, _ = gen_example1(20_000, 500, seed=3)
    frac = train.dataset.labels.mean()
    assert abs(frac - 0.5) < 3.0 * 0.5 / np.sqrt(20_000)


def test_latent_sidecar_round_trip(tmp_path):
    spec = small_spec()
    ds = sample_linear_scm(spec, 40, InterventionSpec("none"), seed=6)
    csv = tmp_path / "d.csv"
    side = tmp_path / "latents.json"
    save_csv(ds.dataset, csv)
    save_latents(ds, side)
    loaded = load_style_dataset(load_csv(csv), side)
    assert np.array_equal(loaded.style, ds.style)
    assert np.array_equal(loaded.core, ds.core)
    back = rerender(loaded, np.zeros(2))
    assert np.allclose(back.features, ds.dataset.features, atol=1e-12)
    assert loaded.scm == spec


def test_sidecar_rejects_mismatched_data(tmp_path):
    spec = small_spec()
    ds = sample_linear_scm(spec, 20, InterventionSpec("none"), seed=6)
    other = sample_linear_scm(spec, 20, InterventionSpec("none"), seed=7)
    csv = tmp_path / "d.csv"
    side = tmp_path / "latents.json"
    save_csv(other.dataset, csv)
    save_latents(ds, side)
    with pytest.raises(ValueError):
        load_style_dataset(load_csv(csv), side)


def test_expand_assignment_shapes():
    train, _ = gen_example1(20, 4, seed=0)
    gi = build_group_index(train.dataset)
    q = 1
    a = expand_assignment(np.array([2.0]), 20, q)
    assert a.shape == (20, 1) and np.all(a == 2.0)
    per_group = np.arange(gi.m, dtype=float)[:, None]
    full = expand_assignment(per_group, 20, q, gi)
    assert np.array_equal(full[:, 0], gi.seg)
    with pytest.raises(ValueError):
        expand_assignment(np.zeros((7, 1)), 20, q, gi)
