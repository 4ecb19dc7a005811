import re

import numpy as np
import pytest

from condvar import (
    Dataset,
    DegenerateVarianceError,
    GroupIndex,
    PenaltyConfig,
    build_group_index,
    conditional_penalty,
    variance_ratio,
)


def random_grouping(rng, n):
    """Random partition of range(n) with a mix of group sizes."""
    perm = rng.permutation(n)
    seg = np.empty(n, dtype=int)
    i = j = 0
    while i < n:
        size = min(int(rng.integers(1, 6)), n - i)
        seg[perm[i:i + size]] = j
        i, j = i + size, j + 1
    return GroupIndex(seg)


def two_pass_oracle(values, group_index, nu):
    """Independent reference: explicit two-pass variance per group."""
    total = 0.0
    for j in range(group_index.m):
        v = [float(values[i]) for i in np.flatnonzero(group_index.seg == j)]
        mean = sum(v) / len(v)
        var = sum((x - mean) ** 2 for x in v) / len(v)
        total += var ** nu
    return total / group_index.m


def test_worked_example_nu_one():
    index = GroupIndex(np.array([0, 0, 1]))
    assert conditional_penalty(np.array([1.0, 3.0, 7.0]), index, 1.0) == pytest.approx(0.5, rel=1e-15)


def test_worked_example_nu_half():
    index = GroupIndex(np.array([0, 0, 1]))
    assert conditional_penalty(np.array([1.0, 3.0, 7.0]), index, 0.5) == pytest.approx(0.5, rel=1e-15)


def test_all_singletons_vanishes():
    index = GroupIndex(np.array([0, 1, 2, 3]))
    rng = np.random.default_rng(0)
    assert conditional_penalty(rng.standard_normal(4), index, 1.0) == 0.0
    assert conditional_penalty(rng.standard_normal(4), index, 0.5) == 0.0


def test_penalty_validates_inputs():
    index = GroupIndex(np.array([0, 0]))
    with pytest.raises(ValueError):
        conditional_penalty(np.zeros(3), index, 1.0)
    with pytest.raises(ValueError):
        conditional_penalty(np.zeros(2), index, 0.7)


def test_matches_two_pass_oracle_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        index = random_grouping(rng, n)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3)
        for nu in (0.5, 1.0):
            got = conditional_penalty(values, index, nu)
            want = two_pass_oracle(values, index, nu)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_shift_invariance_and_scaling():
    rng = np.random.default_rng(7)
    n = 30
    index = random_grouping(rng, n)
    values = rng.standard_normal(n)
    base1 = conditional_penalty(values, index, 1.0)
    base_h = conditional_penalty(values, index, 0.5)
    shifted = conditional_penalty(values + 123.456, index, 1.0)
    assert shifted == pytest.approx(base1, rel=1e-9)
    s = -2.5
    assert conditional_penalty(s * values, index, 1.0) == pytest.approx(s * s * base1, rel=1e-12)
    assert conditional_penalty(s * values, index, 0.5) == pytest.approx(abs(s) * base_h, rel=1e-12)


def test_zero_iff_constant_within_groups():
    index = GroupIndex(np.array([0, 0, 1, 1, 2]))
    values = np.array([3.0, 3.0, -1.0, -1.0, 9.0])
    assert conditional_penalty(values, index, 1.0) == 0.0
    values[1] = 3.0001
    assert conditional_penalty(values, index, 1.0) > 0.0


def test_variance_ratio_worked_examples():
    index = GroupIndex(np.array([0, 0, 1, 1]))
    # constant within groups, differing means
    assert variance_ratio(np.array([1.0, 1.0, 5.0, 5.0]), index) == 0.0
    # equal group means: degenerate denominator
    with pytest.raises(DegenerateVarianceError):
        variance_ratio(np.array([0.0, 2.0, 0.0, 2.0]), index)
    got = variance_ratio(np.array([0.0, 2.0, 10.0, 12.0]), index)
    assert got == pytest.approx(0.04, rel=1e-12)


def test_variance_ratio_preconditions():
    with pytest.raises(ValueError):
        variance_ratio(np.zeros(2), GroupIndex(np.array([0, 0])))  # single group
    with pytest.raises(ValueError):
        variance_ratio(np.zeros(2), GroupIndex(np.array([0, 1])))  # no non-singleton


def test_penalty_equals_decomposition_for_equal_sizes():
    rng = np.random.default_rng(5)
    n, size = 24, 4
    perm = rng.permutation(n)
    seg = np.empty(n, dtype=int)
    seg[perm] = np.arange(n) // size  # perm[i:i + size] is one group
    index = GroupIndex(seg)
    values = rng.standard_normal(n)
    # the size-weighted mean of the within-group variances
    within = sum(size / n * np.var(values[index.seg == j]) for j, size in enumerate(index.sizes))
    assert conditional_penalty(values, index, 1.0) == pytest.approx(within, rel=1e-12)


def test_baseline_grouping_composes_with_penalty():
    rng = np.random.default_rng(9)
    ds = Dataset(rng.standard_normal((20, 2)), rng.integers(0, 2, 20))
    index = GroupIndex(ds.labels)  # one group per class label
    values = rng.standard_normal(20)
    want = np.mean([np.var(values[ds.labels == k]) for k in np.unique(ds.labels)])
    assert conditional_penalty(values, index, 1.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("nu", [True, np.True_, "0.5", 0.7, np.nan],
                         ids=["true", "np_true", "str", "0.7", "nan"])
def test_penalty_and_config_read_one_nu_rule(nu):
    # the penalty read True as nu = 1, which PenaltyConfig refuses
    index = GroupIndex(np.array([0, 0, 1]))
    message = re.escape(f"nu must be exactly 0.5 or 1.0, got {nu!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        conditional_penalty(np.zeros(3), index, nu)
    with pytest.raises(ValueError, match=f"^{message}$"):
        PenaltyConfig(nu=nu)


def test_penalty_takes_a_numpy_nu_as_the_python_nu():
    index = GroupIndex(np.array([0, 0, 1]))
    values = np.array([1.0, 3.0, 7.0])
    assert conditional_penalty(values, index, np.float64(0.5)) == conditional_penalty(values,
                                                                                     index, 0.5)


def test_penalty_config_validation():
    with pytest.raises(ValueError):
        PenaltyConfig(target="logits")
    with pytest.raises(ValueError):
        PenaltyConfig(nu=0.7)
    with pytest.raises(ValueError):
        PenaltyConfig(lam=-1.0)
    with pytest.raises(ValueError):
        PenaltyConfig(gamma=float("nan"))


def test_grouping_then_penalty_consistency_with_build_group_index():
    rng = np.random.default_rng(13)
    feats = rng.standard_normal((12, 2))
    ids = ["a", "a", "b", "b", None, None, "c", "c", "c", None, "d", "d"]
    labels = [0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1]
    ds = Dataset(feats, labels, ids)
    index = build_group_index(ds)
    values = rng.standard_normal(12)
    assert conditional_penalty(values, index, 1.0) == pytest.approx(
        two_pass_oracle(values, index, 1.0), rel=1e-12)


def test_multi_output_penalty_sums_coordinates():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        index = random_grouping(rng, n)
        values = rng.standard_normal((n, 3))
        for nu in (0.5, 1.0):
            want = sum(conditional_penalty(values[:, k], index, nu) for k in range(3))
            assert conditional_penalty(values, index, nu) == pytest.approx(want, rel=1e-12)
