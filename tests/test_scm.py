
import json
from dataclasses import asdict

import numpy as np
import pytest

from condvar import (
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
from condvar.scm import EXAMPLE1_STYLE_DIRECTION, StyleAwareDataset


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
    with pytest.raises(ValueError, match="q and r must be positive"):
        small_spec(q=0)
    with pytest.raises(ValueError, match="unknown id sampler 'random'"):
        small_spec(id_sampler="random")
    with pytest.raises(ValueError, match="class_balance must lie strictly between 0 and 1"):
        small_spec(class_balance=1)
    with pytest.raises(ValueError, match="need n >= 1"):
        sample_linear_scm(small_spec(), 0, seed=0)
    # a linear render cannot re-render without its matrices
    ds = sample_linear_scm(small_spec(), 10, seed=0)
    with pytest.raises(ValueError, match="linear renders need core and style matrices"):
        StyleAwareDataset(ds.dataset, ds.core, ds.style, "linear")


@pytest.mark.parametrize("field, value", [
    ("class_balance", "0.5"), ("core_class_mean", "1.5"), ("core_id_scale", True),
    ("style_class_mean", (True, 0.5)), ("style_class_mean", ("1.0", 0.5)),
    ("style_cov", (("1.0", 0.2), (0.2, 0.5))), ("style_cov", ((1.0, 0.2), (0.2, np.True_))),
])
def test_spec_refuses_a_string_or_a_boolean_in_a_real_field(field, value):
    # float() would read "1.5" as 1.5 and True as 1.0, and a string core
    # mean would fail only at the first draw
    with pytest.raises(ValueError, match=f"^{field} must be a"):
        small_spec(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("p", 10.5, "^10.5 is not an integer"), ("id_count", 2.5, "^2.5 is not an integer"),
    ("structure_seed", 1.5, "^1.5 is not an integer"),
    ("id_count", np.True_, "^np.True_ is not an integer"),
    ("core_class_mean", np.inf, "^core_class_mean must be a finite real number"),
    ("core_id_scale", np.nan, "^core_id_scale must be a finite real number"),
    ("style_class_mean", (np.nan, 1.0), r"^style_class_mean must be a list of finite real"),
    ("structure_seed", -1, "^structure_seed must be >= 0, got -1$"),
    ("core_class_mean", 10 ** 400, "^core_class_mean must be a finite real number, got 1000"),
], ids=["p_10.5", "id_count_2.5", "structure_seed_1.5", "id_count_np_true", "core_class_mean_inf",
        "core_id_scale_nan", "style_class_mean_nan", "structure_seed_negative",
        "core_class_mean_401_digits"])
def test_spec_refuses_a_fraction_in_an_integer_field_and_a_non_finite_real(field, value,
                                                                          message):
    # a draw would drop the fraction or fail on it or on a negative seed, a
    # NaN or an infinity would reach every feature, and an integer beyond
    # the float range would fail numpy's finiteness test
    with pytest.raises(ValueError, match=message):
        small_spec(**{field: value})


def test_spec_reads_an_integer_within_the_float_range_as_its_float():
    # numpy's isfinite cannot take a Python int wider than 64 bits
    spec = small_spec(core_class_mean=10 ** 300, style_cov=((10 ** 300, 0), (0, 1)))
    assert spec.core_class_mean == 1e300 and spec.style_cov == ((1e300, 0.0), (0.0, 1.0))


def test_spec_stores_numpy_numbers_as_python_numbers():
    # the CLI passes variance * np.eye(q); the sidecar writes the spec as it is stored
    spec = small_spec(p=np.int64(6), id_count=np.int32(25), class_balance=np.float32(0.25),
                      core_class_mean=np.float64(2.0), core_id_scale=1,
                      style_class_mean=np.array([1.0, 0.5]), style_cov=0.5 * np.eye(2))
    plain = small_spec(class_balance=0.25, core_class_mean=2.0, core_id_scale=1.0,
                       style_cov=((0.5, 0.0), (0.0, 0.5)))
    assert json.dumps(asdict(spec)) == json.dumps(asdict(plain))


def test_style_matrix_full_rank_and_orthonormal():
    spec = small_spec()
    c_mat, w_mat = spec.matrices()
    assert w_mat.shape == (6, 2)
    assert np.allclose(w_mat.T @ w_mat, np.eye(2), atol=1e-12)
    assert np.allclose(c_mat.T @ w_mat, 0.0, atol=1e-12)
    assert np.linalg.matrix_rank(w_mat) == 2


def test_sampling_deterministic_and_grouped():
    spec = small_spec()
    a = sample_linear_scm(spec, 200, seed=5)
    b = sample_linear_scm(spec, 200, seed=5)
    assert np.array_equal(a.dataset.features, b.dataset.features)
    gi = build_group_index(a.dataset)
    assert gi.c > 0  # collisions on 25 ids over 200 draws
    assert np.allclose(a.core - a.core[first_member(gi)], 0.0)  # shared core latent


def test_round_robin_groups_are_balanced():
    spec = small_spec(id_sampler="round_robin", id_count=10)
    ds = sample_linear_scm(spec, 400, seed=2)
    gi = build_group_index(ds.dataset)
    sizes = gi.sizes
    assert sizes.min() >= 2
    assert sizes.max() - sizes.min() <= 2  # class imbalance only


def test_core_latent_reads_every_bit_of_the_structure_seed():
    # structure seeds that agree in their low 32 bits draw other core offsets
    low, high = (small_spec(structure_seed=s).core_latent(1, 4) for s in (3, 3 + 2 ** 32))
    assert not np.array_equal(low, high)


@pytest.mark.parametrize("sampler", ["round_robin", "uniform"])
def test_ids_and_core_latents_follow_the_sampling_rule(sampler):
    # per-row reference: the k-th sample of a class gets id k mod id_count
    # (round robin), and every row's core latent is core_latent(y, id)
    spec = small_spec(id_sampler=sampler, id_count=7)
    ds = sample_linear_scm(spec, 120, seed=6)
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
    ds = sample_linear_scm(spec, 50, seed=1)
    back = rerender(ds, np.zeros(2))
    assert np.array_equal(back.features, ds.dataset.features)


def test_rerender_inverts():
    spec = small_spec()
    ds = sample_linear_scm(spec, 30, seed=4)
    delta = np.array([0.7, -1.3])
    fwd = rerender(ds, delta)
    assert not np.allclose(fwd.features, ds.dataset.features)
    # shifting the latents by delta then re-rendering with -delta undoes it
    ds.style = ds.style + delta
    back = rerender(ds, -delta)
    assert np.allclose(back.features, ds.dataset.features, atol=1e-12)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def test_equal_per_class_shifts_add_w_delta_exactly():
    # class 1's features move by W (s, ..., s); class 0's keep every bit
    spec = small_spec()
    base = sample_linear_scm(spec, 40, seed=9)
    shifted = sample_linear_scm(spec, 40, seed=9, shift=2.0)
    _c, w_mat = spec.matrices()
    one = base.dataset.labels == 1
    assert 0 < one.sum() < 40
    assert np.array_equal(shifted.dataset.labels, base.dataset.labels)
    assert np.allclose(shifted.dataset.features[one],
                       base.dataset.features[one] + w_mat @ np.full(2, 2.0), rtol=0, atol=1e-12)
    assert _bits(shifted.dataset.features[~one]) == _bits(base.dataset.features[~one])


def test_invariant_parameters_unchanged_by_rerender():
    spec = small_spec()
    ds = sample_linear_scm(spec, 60, seed=7)
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
    ds = sample_linear_scm(spec, 300, seed=3, shift=5.0)
    base = sample_linear_scm(spec, 300, seed=3)
    lab = ds.dataset.labels
    assert np.array_equal(lab, base.dataset.labels)
    assert np.array_equal(ds.dataset.ids, base.dataset.ids)
    assert _bits(ds.core) == _bits(base.core)
    assert _bits(ds.style[lab == 0]) == _bits(base.style[lab == 0])
    assert np.allclose(ds.style[lab == 1] - base.style[lab == 1], 5.0, rtol=0, atol=1e-12)
    assert ds.generator_params["intervention"] == "per_class_shift"
    assert base.generator_params["intervention"] == "none"


@pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
def test_sampler_rejects_a_non_finite_shift(shift):
    with pytest.raises(ValueError, match="shift must be finite"):
        sample_linear_scm(small_spec(), 20, seed=0, shift=shift)


@pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("generate", [
    lambda shift: gen_example1(20, 5, shift),
    lambda shift: gen_example2(20, 5, shift),
    lambda shift: sample_linear_scm(small_spec(), 20, 0, shift),
], ids=["example1", "example2", "linear_scm"])
def test_every_generator_refuses_a_non_finite_test_shift_before_any_draw(monkeypatch, generate,
                                                                        shift):
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew before the check"))
    with pytest.raises(ValueError, match=f"^shift must be finite, got {float(shift)}$"):
        generate(shift)


_GENERATORS = {
    "example1": lambda n=20, c=5, shift=4.0, seed=0: gen_example1(n, c, shift, seed),
    "example2": lambda n=20, c=5, shift=4.0, seed=0: gen_example2(n, c, shift, seed),
    "linear_scm": lambda n=20, shift=4.0, seed=0: sample_linear_scm(small_spec(), n, seed, shift),
}


def _refuses_before_any_draw(monkeypatch, generator, message, **argument):
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew before the check"))
    with pytest.raises(ValueError, match=message):
        _GENERATORS[generator](**argument)


@pytest.mark.parametrize("shift", [True, np.True_, "1.5"], ids=["true", "np_true", "str"])
@pytest.mark.parametrize("generator", sorted(_GENERATORS))
def test_every_generator_refuses_a_shift_that_is_not_a_real_number(monkeypatch, generator,
                                                                   shift):
    # float() would read True as 1.0 and "1.5" as 1.5
    _refuses_before_any_draw(monkeypatch, generator, "^shift must be finite, got ", shift=shift)


@pytest.mark.parametrize("n", [20.5, True, np.True_, "20"], ids=["20.5", "true", "np_true", "str"])
@pytest.mark.parametrize("generator", sorted(_GENERATORS))
def test_every_generator_refuses_a_sample_count_that_is_not_an_integer(monkeypatch, generator,
                                                                       n):
    # a fraction failed unnamed in numpy, and True drew one sample
    _refuses_before_any_draw(monkeypatch, generator, "is not an integer$", n=n)


@pytest.mark.parametrize("c", [2.5, True, np.True_], ids=["2.5", "true", "np_true"])
@pytest.mark.parametrize("generator", ["example1", "example2"])
def test_every_teaching_example_refuses_a_pair_count_that_is_not_an_integer(monkeypatch,
                                                                           generator, c):
    _refuses_before_any_draw(monkeypatch, generator, "is not an integer$", c=c)


@pytest.mark.parametrize("seed, message", [(-1, "^seed must be >= 0, got -1$"),
                                           (1.5, "^1.5 is not an integer$"),
                                           (True, "^True is not an integer$")],
                         ids=["negative", "1.5", "true"])
@pytest.mark.parametrize("generator", sorted(_GENERATORS))
def test_every_generator_refuses_a_seed_that_is_not_an_integer_ge_0(monkeypatch, generator, seed,
                                                                   message):
    _refuses_before_any_draw(monkeypatch, generator, message, seed=seed)


@pytest.mark.parametrize("generator", sorted(_GENERATORS))
def test_every_generator_takes_numpy_numbers_as_the_python_numbers(tmp_path, generator):
    # the sidecar writes n, c and seed as the generator records them
    plain, numpy = tmp_path / "plain.json", tmp_path / "numpy.json"
    args = {"n": 40, "c": 5, "shift": 1.5, "seed": 3}
    if generator == "linear_scm":
        del args["c"]
    first = _GENERATORS[generator](**args)
    save_latents(first[0] if isinstance(first, tuple) else first, plain)
    as_numpy = {k: np.float64(v) if k == "shift" else np.int64(v) for k, v in args.items()}
    second = _GENERATORS[generator](**as_numpy)
    save_latents(second[0] if isinstance(second, tuple) else second, numpy)
    assert numpy.read_bytes() == plain.read_bytes()


def test_a_teaching_example_reads_counts_held_in_floats_as_their_integers(tmp_path):
    # data._integer reads 200.0 as 200, as every spec and config does
    plain, floats = tmp_path / "int.json", tmp_path / "float.json"
    save_latents(gen_example1(200, 10, seed=2)[1], plain)
    save_latents(gen_example1(200.0, 10.0, seed=2)[1], floats)
    assert floats.read_bytes() == plain.read_bytes()


def test_style_covariance_matches_spec_monte_carlo():
    cov = ((0.8, 0.3), (0.3, 0.6))
    spec = small_spec(style_cov=cov, id_count=200)
    ds = sample_linear_scm(spec, 100_000, seed=12)
    lab = ds.dataset.labels
    y_pm = 2.0 * lab - 1.0
    centered = ds.style - np.outer(y_pm, spec.style_class_mean)
    emp = centered.T @ centered / len(lab)
    # 3 sigma of a covariance entry estimate is ~3 * sqrt(2/n)
    assert np.max(np.abs(emp - np.asarray(cov))) < 3.0 * np.sqrt(2.0 / len(lab))


def test_class_balance_within_three_sigma():
    spec = small_spec(class_balance=0.5)
    ds = sample_linear_scm(spec, 10_000, seed=8)
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
    ds = sample_linear_scm(spec, 40, seed=6)
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
    ds = sample_linear_scm(spec, 20, seed=6)
    other = sample_linear_scm(spec, 20, seed=7)
    csv = tmp_path / "d.csv"
    side = tmp_path / "latents.json"
    save_csv(other.dataset, csv)
    save_latents(ds, side)
    with pytest.raises(ValueError):
        load_style_dataset(load_csv(csv), side)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_save_latents_rejects_non_finite_and_keeps_the_old_file(tmp_path, bad):
    ds = sample_linear_scm(small_spec(), 20, seed=6)
    side = tmp_path / "latents.json"
    save_latents(ds, side)
    before = side.read_bytes()
    ds.style[3, 1] = bad
    with pytest.raises(ValueError):
        save_latents(ds, side)
    assert side.read_bytes() == before


def test_rerender_shift_shapes():
    train, _ = gen_example1(20, 4, seed=0)
    gi = build_group_index(train.dataset)
    shift = np.array([2.0])
    tiled = rerender(train, np.tile(shift, (20, 1))).features
    assert rerender(train, shift).features.tobytes() == tiled.tobytes()
    assert not np.array_equal(tiled, train.dataset.features)
    assert gi.m != 20  # a per-group (m, q) array is no shift
    with pytest.raises(ValueError, match=r"a shift must have shape \(1,\) or \(20, 1\), "
                                         rf"got \({gi.m}, 1\)"):
        rerender(train, np.zeros((gi.m, 1)))
    with pytest.raises(ValueError, match=r"got \(2,\)"):
        rerender(train, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match=r"got \(20, 2\)"):
        rerender(train, np.zeros((20, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rerender_refuses_a_shift_that_is_not_finite(bad):
    # the render would build a Dataset of NaN or infinite features
    train, _ = gen_example1(20, 4, seed=0)
    per_sample = np.zeros((20, 1))
    per_sample[7] = bad
    for shift in ([bad], per_sample):
        with pytest.raises(ValueError, match=f"^a shift must be finite, got {bad}$"):
            rerender(train, shift)
