import ast
from pathlib import Path

import numpy as np
import pytest

from condvar import (
    DataFormatError,
    Dataset,
    GroupIndex,
    augment_with_groups,
    build_group_index,
    gen_example1,
    load_csv,
    save_csv,
)
from condvar.data import _reals


def make_dataset(labels, ids, p=2, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((len(labels), p))
    return Dataset(feats, labels, ids)


def test_grouping_by_label_and_id():
    ds = make_dataset([1, 1, 0, 1, 0], ["a", "a", "b", None, None])
    gi = build_group_index(ds)
    assert gi.m == 4
    assert gi.c == 1
    assert gi.seg.tolist() == [0, 0, 1, 2, 3]


def test_all_ids_absent_gives_singletons():
    ds = make_dataset([0, 1, 0, 1, 0, 1, 0], [None] * 7)
    gi = build_group_index(ds)
    assert gi.m == 7 and gi.c == 0


def test_grouping_key_is_label_and_id_pair():
    # same id token, different labels: must not merge
    ds = make_dataset([1, 0], ["a", "a"])
    gi = build_group_index(ds)
    assert gi.m == 2
    ds2 = make_dataset([1, 1], ["a", "a"])
    assert build_group_index(ds2).m == 1


def test_group_index_invariants_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        labels = rng.integers(0, 3, n).tolist()
        ids = [None if rng.random() < 0.4 else f"i{rng.integers(0, 6)}" for _ in range(n)]
        ds = make_dataset(labels, ids)
        gi = build_group_index(ds)
        assert gi.seg.shape == (n,)
        assert np.array_equal(np.unique(gi.seg), np.arange(gi.m))
        assert gi.c == sum(gi.sizes - 1)
        for j in range(gi.m):
            g = np.flatnonzero(gi.seg == j)
            assert len(g) == gi.sizes[j]
            keys = {(ds.labels[i], ds.ids[i]) for i in g}
            assert len(keys) == 1
            if ds.ids[g[0]] is None:
                assert len(g) == 1


def test_members_slices_match_groups_filter_on_random_segments():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(1, 60))
        seg = rng.permutation(n) if trial % 4 == 0 else rng.integers(-5, n // 2 + 1, n)
        gi = GroupIndex(seg)
        ends = np.cumsum(gi.sizes)
        got = [gi.members[end - size:end] for end, size in zip(ends, gi.sizes)]
        expected = [np.flatnonzero(gi.seg == j) for j in range(gi.m)]
        assert len(got) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        if trial % 4 == 0:
            assert np.all(gi.sizes == 1)


def test_augment_identity_transform_groups_of_two():
    ds = make_dataset([0, 1, 1], [None, None, None])
    out = augment_with_groups(ds, lambda f: f, 1, [1])
    gi = build_group_index(out)
    assert len(out) == 4
    sizes = sorted(gi.sizes.tolist())
    assert sizes == [1, 1, 2]
    pair = np.flatnonzero(gi.sizes[gi.seg] == 2)
    f0, f1 = out.features[pair[0]], out.features[pair[1]]
    assert np.array_equal(f0, f1)


def test_augment_count_increases_grouped_observations():
    ds = make_dataset(list(range(2)) * 3, [None] * 6)
    out = augment_with_groups(ds, lambda f: f + 1.0, 2, [0, 2, 4])
    gi = build_group_index(out)
    assert gi.c == 6
    assert len(out) == 12


def test_augment_rotation_by_pi():
    ds = Dataset(np.array([[1.0, 0.0]]), [0])
    rot = np.array([[-1.0, 0.0], [0.0, -1.0]])
    out = augment_with_groups(ds, lambda f: rot @ f, 1, [0])
    gi = build_group_index(out)
    assert gi.m == 1 and gi.c == 1
    assert np.allclose(out.features[1], [-1.0, 0.0])


def test_augment_selection_out_of_range():
    ds = make_dataset([0, 1], [None, None])
    with pytest.raises(IndexError):
        augment_with_groups(ds, lambda f: f, 1, [5])


def test_augment_rejects_no_copies_and_a_transform_that_changes_the_shape():
    ds = make_dataset([0, 1], [None, None])
    with pytest.raises(ValueError, match="count_per_sample must be >= 1"):
        augment_with_groups(ds, lambda f: f, 0, [0])
    with pytest.raises(ValueError, match="transform must preserve the feature dimension"):
        augment_with_groups(ds, lambda f: np.append(f, 0.0), 1, [0])


@pytest.mark.parametrize("count", [2.5, True, np.True_, "2"], ids=["2.5", "true", "np_true", "str"])
def test_augment_refuses_a_count_that_is_not_an_integer(count):
    # np.repeat dropped the fraction of 2.5 and read True as one copy
    ds = make_dataset([0, 1], [None, None])
    with pytest.raises(ValueError, match="is not an integer$"):
        augment_with_groups(ds, lambda f: f, count, [0])


def test_augment_takes_a_numpy_count_as_the_python_count():
    ds = make_dataset([0, 1, 1], [None, None, None])
    plain = augment_with_groups(ds, lambda f: f + 1.0, 2, [1, 2])
    numpy = augment_with_groups(ds, lambda f: f + 1.0, np.int64(2), [1, 2])
    assert numpy.features.tobytes() == plain.features.tobytes()
    assert numpy.ids.tolist() == plain.ids.tolist()


def test_group_index_rejects_segment_ids_that_are_not_one_dimensional():
    with pytest.raises(ValueError, match="segment ids must be one-dimensional"):
        GroupIndex(np.zeros((2, 2), dtype=int))


def test_csv_row_parsing(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,y,x0,x1\na,1,0.5,-0.25\n,0,1.0,2.0\n")
    ds = load_csv(path)
    assert ds.ids[0] == "a"
    assert ds.labels[0] == 1
    assert np.array_equal(ds.features[0], [0.5, -0.25])
    assert ds.ids[1] is None


def test_csv_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(12)
    feats = rng.standard_normal((100, 5)) * np.exp(rng.uniform(-8, 8, (100, 5)))
    ids = [None if i % 3 else f"g{i % 7}" for i in range(100)]
    # characters the reader does not split a line or a field on; "\r" is refused
    ids[1:28:3] = ["a\tb", "a\x0bb", "a\x0cb", "a\x1cb", "a\x85b", "a\u2028b", 'a"b', "#a", " "]
    ds = Dataset(feats, rng.integers(0, 3, 100), ids)
    path = tmp_path / "rt.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.p == ds.p and len(back) == len(ds)
    assert np.array_equal(ds.labels, back.labels)
    assert list(ds.ids) == list(back.ids)
    assert np.array_equal(ds.features, back.features)


def _attributes(dataset):
    """Every attribute of ``dataset``, an array as its dtype, shape and bits
    (an object array as its items)."""
    return {name: (value.dtype, value.shape,
                   value.tolist() if value.dtype == object else value.tobytes())
            if isinstance(value, np.ndarray) else value
            for name, value in vars(dataset).items()}


def test_csv_round_trip_keeps_every_dataset_attribute(tmp_path):
    # a Dataset holds nothing that its CSV does not: one whose only label is
    # 0, one whose labels skip a class and one with three classes read back
    # attribute for attribute
    datasets = {
        "single_label": gen_example1(1, 0, seed=0)[0].dataset,
        "skipped_class": Dataset([[0.5, -0.0], [1e-300, 2.0], [3.0, 4.0]], [3, 0, 3]),
        "three_classes": make_dataset([2, 0, 1, 2], ["a", None, "a", "b"]),
    }
    assert datasets["single_label"].labels.tolist() == [0]
    for name, ds in datasets.items():
        path = tmp_path / f"{name}.csv"
        save_csv(ds, path)
        assert _attributes(load_csv(path)) == _attributes(ds), name


def test_csv_save_writes_pinned_text(tmp_path):
    # the row-wise formula f"{id},{y},{','.join(map(repr, row))}\n" wrote these bytes
    feats = [[-0.0, 0.0], [1e-05, 0.0001], [1e16, 5e-324], [1.7976931348623157e+308, 0.1]]
    ds = Dataset(feats, [0, 1, 2, 1], [None, "é日", " pad ", "g1"])
    path = tmp_path / "golden.csv"
    save_csv(ds, path)
    assert path.read_bytes() == (
        "id,y,x0,x1\n"
        ",0,-0.0,0.0\n"
        "é日,1,1e-05,0.0001\n"
        " pad ,2,1e+16,5e-324\n"
        "g1,1,1.7976931348623157e+308,0.1\n").encode("utf-8")
    back = load_csv(path)
    assert back.features.tobytes() == ds.features.tobytes()  # -0.0 keeps its sign
    assert list(back.ids) == list(ds.ids)


def test_csv_balanced_field_counts_report_the_first_bad_row(tmp_path):
    # one extra field and a later missing one leave the file's comma total
    # as if every row had three fields
    path = tmp_path / "bad.csv"
    path.write_text("id,y,x0\na,0,0.5\nb,1,0.5,9\n\nc,0\nd,1,2.0\n")
    with pytest.raises(DataFormatError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}:3: expected 3 fields, got 4"


CLEAN_ROWS = ["id,y,x0,x1", "a,1,0.5,-0.25", ",0,1.0,2.0", "a,1,3.0,4e-300", "b,0,-0.0,7.5"]


@pytest.mark.parametrize("layout", ["blank lines and CRLF", "whitespace-only lines"])
def test_csv_skipped_lines_do_not_change_the_dataset(tmp_path, layout):
    clean = tmp_path / "clean.csv"
    clean.write_text("\n".join(CLEAN_ROWS) + "\n")
    messy = tmp_path / "messy.csv"
    if layout == "blank lines and CRLF":
        text = "\n" + "\r\n\r\n".join(CLEAN_ROWS[:3]) + "\n\n" + "\r\n".join(CLEAN_ROWS[3:])
    else:
        text = "  \n" + "\n \t \n".join(CLEAN_ROWS) + "\r\n\x0c\n"
    messy.write_bytes(text.encode("utf-8"))
    got = load_csv(messy)
    want = load_csv(clean)
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.tolist() == want.labels.tolist() == [1, 0, 1, 0]
    assert list(got.ids) == list(want.ids) == ["a", None, "a", "b"]


@pytest.mark.parametrize("bad_id", ["a,b", "a\nb", "a\rb"])
def test_csv_save_rejects_bad_id_before_touching_the_file(tmp_path, bad_id):
    # the bad id sits after valid rows: nothing may be written before the check
    ds = Dataset([[0.0], [1.0], [2.0]], [0, 1, 0], ["a", "b", bad_id])
    path = tmp_path / "d.csv"
    path.write_text("id,y,x0\nold,1,5.0\n")
    with pytest.raises(DataFormatError, match="commas or newlines"):
        save_csv(ds, path)
    assert path.read_text() == "id,y,x0\nold,1,5.0\n"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_csv_save_rejects_a_non_finite_feature_before_touching_the_file(tmp_path, value):
    # load_csv refuses the row that repr would write for it, so save_csv refuses the dataset
    ds = Dataset([[0.0, 1.0], [1.0, 2.0], [2.0, value]], [0, 1, 0], ["a", "b", "c"])
    path = tmp_path / "d.csv"
    path.write_text(f"id,y,x0,x1\nc,0,2.0,{value!r}\n")
    with pytest.raises(DataFormatError, match=":2: non-finite feature"):
        load_csv(path)
    with pytest.raises(DataFormatError, match="features must be finite"):
        save_csv(ds, path)
    assert path.read_text() == f"id,y,x0,x1\nc,0,2.0,{value!r}\n"


def test_csv_save_rejects_an_empty_id_before_touching_the_file(tmp_path):
    # "" and an absent id would write the same empty field: the two "" rows
    # form one group, but read back they would be two singletons
    ds = Dataset(np.zeros((4, 1)), [0, 0, 1, 1], ["", "", "a", None])
    assert build_group_index(ds).m == 3
    path = tmp_path / "d.csv"
    path.write_text("id,y,x0\nold,1,5.0\n")
    with pytest.raises(DataFormatError, match="may not be empty"):
        save_csv(ds, path)
    assert path.read_text() == "id,y,x0\nold,1,5.0\n"
    # absent ids alone still round-trip
    save_csv(Dataset(np.zeros((2, 1)), [0, 1], [None, "a"]), path)
    assert list(load_csv(path).ids) == [None, "a"]


@pytest.mark.parametrize("content", [
    "id,y,x0\na,1\n",                # ragged row
    "id,y,x0\na,1,abc\n",            # non-numeric feature
    "y,x0\n1,2.0\n",                 # missing header field
    "id,label,x0\na,1,2.0\n",        # wrong header name
    "",                              # empty file
    "id,y,x0\na,-1,2.0\n",           # negative label
    "id,y,x0\na,1,nan\n",            # NaN feature
    "id,y,x0\na,1,inf\n",            # infinite feature
    "id,y,x0\n",                     # header only
    "id,y,x0\n\n \t\n",              # only blank lines after the header
])
def test_csv_malformed_inputs(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(DataFormatError):
        load_csv(path)


def test_csv_that_is_not_utf8_is_a_data_error_naming_the_file(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("id,y,x0\ncafé,0,1.0\n".encode("latin-1"))
    with pytest.raises(DataFormatError) as err:
        load_csv(path)
    assert str(err.value).startswith(f"{path}: malformed CSV ('utf-8' codec can't decode")


@pytest.mark.parametrize("content", ["id,y,x0\n", "id,y,x0\n\n \t\n"],
                         ids=["header_only", "blank_lines_only"])
def test_csv_with_no_data_rows_says_so(tmp_path, content):
    path = tmp_path / "empty.csv"
    path.write_text(content)
    with pytest.raises(DataFormatError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}: no data rows"


# a header, two blank lines and one good row put the bad row on line 5
BAD_LINE_5 = {
    "non-numeric feature": ("a,1,abc", "non-numeric value"),
    "one field": ("a", "expected 3 fields, got 1"),
    "too few fields": ("a,1", "expected 3 fields, got 2"),
    "too many fields": ("a,1,2.0,3.0", "expected 3 fields, got 4"),
    "non-integer label": ("a,1.0,2.0", "non-numeric value"),
    "negative label": ("a,-1,2.0", "negative label -1"),
    "nan feature": ("a,1,nan", "non-finite feature"),
    "overflowing feature": ("a,1,1e400", "non-finite feature"),
    "underscored label": ("a,1_0,2.0", "non-numeric value"),
    "underscored feature": ("a,1,1_0", "non-numeric value"),
}


@pytest.mark.parametrize("case", sorted(BAD_LINE_5))
def test_csv_rejection_names_real_line(tmp_path, case):
    row, what = BAD_LINE_5[case]
    path = tmp_path / "bad.csv"
    path.write_text(f"id,y,x0\n\n  \nb,0,0.5\n{row}\n\nc,1,1.5\n")
    with pytest.raises(DataFormatError) as err:
        load_csv(path)
    assert str(err.value).startswith(f"{path}:5: {what}")


def test_csv_reports_first_bad_line_in_file_order(tmp_path):
    path = tmp_path / "bad.csv"
    # an unparsable value before a short row, and either before a negative label
    path.write_text("id,y,x0\na,-1,0.5\n\nb,0,x\nc,1\n")
    with pytest.raises(DataFormatError, match=r":4: non-numeric value \(.*'x'"):
        load_csv(path)
    path.write_text("id,y,x0\na,-1,0.5\n\nc,1\nb,0,x\n")
    with pytest.raises(DataFormatError, match=":4: expected 3 fields, got 2"):
        load_csv(path)
    path.write_text("id,y,x0\na,0,0.5\n\nc,-2,1\nb,0,inf\n")
    with pytest.raises(DataFormatError, match=":4: negative label -2"):
        load_csv(path)


def test_csv_accepts_padded_and_signed_numbers(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,y,x0,x1\r\n a ,+1, 2.5 ,-.5\n,0,1e-400,5.\n")
    ds = load_csv(path)
    assert list(ds.ids) == [" a ", None]
    assert ds.labels.tolist() == [1, 0]
    assert ds.features.tolist() == [[2.5, -0.5], [0.0, 5.0]]


def test_dataset_validates_dimensions():
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, 2.0]), [0])
    with pytest.raises(ValueError, match="at least one sample"):
        Dataset(np.zeros((0, 2)), [])
    # p = 0 would write the header "id,y," that load_csv calls malformed
    with pytest.raises(ValueError, match=r"an \(n, p\) array with p >= 1"):
        Dataset(np.zeros((2, 0)), [0, 1])
    with pytest.raises(ValueError, match=r"labels shape \(1,\) does not match 2 samples"):
        Dataset(np.zeros((2, 1)), [0])
    with pytest.raises(ValueError, match=r"labels shape \(2, 1\) does not match 2 samples"):
        Dataset(np.zeros((2, 1)), [[0], [1]])
    with pytest.raises(ValueError, match=r"ids shape \(1,\) does not match 2 samples"):
        Dataset(np.zeros((2, 1)), [0, 1], ["a"])
    with pytest.raises(ValueError, match="class indices >= 0"):
        Dataset(np.zeros((2, 1)), [0, -1])


# ---- the one refusal rule of arrays of reals ----------------------------------

def test_reals_raises_the_callers_refusal_when_its_test_refuses():
    refusal, seen = ValueError("the caller's message"), []
    with pytest.raises(ValueError) as info:
        _reals([[1.0, 2.0]], 2, lambda arr: seen.append(arr.tolist()) or False, refusal)
    assert info.value is refusal
    assert seen == [[[1.0, 2.0]]]
    accepted = _reals([[1.0, 2.0]], 2, lambda arr: arr.shape == (1, 2), refusal)
    assert accepted.dtype == np.float64 and accepted.tolist() == [[1.0, 2.0]]


@pytest.mark.parametrize("values, ndim", [
    ("1.5", 0), (True, 0), ([1.0, np.True_], 1), ([10 ** 400], 1), ([np.nan, 1.0], 1),
    ([], 1), (1.0, 1), ([[1.0]], 1), ([[1.0], [1.0, 2.0]], 2), ([1.0, 2.0], 2),
], ids=["str", "true", "np_true", "401_digits", "nan", "empty", "scalar", "too_deep",
        "ragged", "too_shallow"])
def test_reals_refuses_a_malformed_nest_before_the_callers_test(values, ndim):
    refusal = ValueError("the caller's message")
    with pytest.raises(ValueError) as info:
        _reals(values, ndim, lambda arr: pytest.fail("the test ran on a malformed nest"), refusal)
    assert info.value is refusal


@pytest.mark.parametrize("ok", [None, lambda arr: False], ids=["no_test", "refusing_test"])
def test_reals_default_refusal_is_unchanged(ok):
    with pytest.raises(ValueError, match="^expected finite real numbers in a rectangular nest "
                                         "of depth 2$"):
        _reals([[1.0, 2.0]] if ok else [["1.0"]], 2, ok)


def test_no_try_body_calls_reals():
    # a caller hands _reals its test and refusal, never catches and renames its error
    calls = []
    for path in sorted((Path(_reals.__code__.co_filename).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Try):
                calls += [f"{path.name}:{call.lineno}" for stmt in node.body
                          for call in ast.walk(stmt) if isinstance(call, ast.Call)
                          and "_reals" in (getattr(call.func, "id", None),
                                           getattr(call.func, "attr", None))]
    assert not calls
