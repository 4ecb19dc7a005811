import numpy as np
import pytest

from condvar import (
    DataFormatError,
    Dataset,
    GroupIndex,
    augment_with_groups,
    build_group_index,
    load_csv,
    save_csv,
)


def make_dataset(labels, ids, p=2, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((len(labels), p))
    return Dataset(feats, labels, ids, n_classes=max(labels) + 1)


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
    ds = Dataset(np.array([[1.0, 0.0]]), [0], n_classes=1)
    rot = np.array([[-1.0, 0.0], [0.0, -1.0]])
    out = augment_with_groups(ds, lambda f: rot @ f, 1, [0])
    gi = build_group_index(out)
    assert gi.m == 1 and gi.c == 1
    assert np.allclose(out.features[1], [-1.0, 0.0])


def test_augment_selection_out_of_range():
    ds = make_dataset([0, 1], [None, None])
    with pytest.raises(IndexError):
        augment_with_groups(ds, lambda f: f, 1, [5])


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
    ds = Dataset(feats, rng.integers(0, 3, 100), ids)
    path = tmp_path / "rt.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.p == ds.p and len(back) == len(ds)
    assert np.array_equal(ds.labels, back.labels)
    assert list(ds.ids) == list(back.ids)
    assert np.array_equal(ds.features, back.features)


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
def test_csv_skipped_lines_do_not_change_the_dataset(tmp_path, monkeypatch, layout):
    clean = tmp_path / "clean.csv"
    clean.write_text("\n".join(CLEAN_ROWS) + "\n")
    messy = tmp_path / "messy.csv"
    if layout == "blank lines and CRLF":
        text = "\n" + "\r\n\r\n".join(CLEAN_ROWS[:3]) + "\n\n" + "\r\n".join(CLEAN_ROWS[3:])
    else:
        text = "  \n" + "\n \t \n".join(CLEAN_ROWS) + "\r\n\x0c\n"
    messy.write_bytes(text.encode("utf-8"))
    if layout == "blank lines and CRLF":  # read without the line-by-line scan
        monkeypatch.setattr("condvar.data._scan_rows", None)
    got = load_csv(messy)
    monkeypatch.undo()
    want = load_csv(clean)
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.tolist() == want.labels.tolist() == [1, 0, 1, 0]
    assert list(got.ids) == list(want.ids) == ["a", None, "a", "b"]
    assert got.n_classes == want.n_classes


@pytest.mark.parametrize("bad_id", ["a,b", "a\nb"])
def test_csv_save_rejects_bad_id_before_touching_the_file(tmp_path, bad_id):
    # the bad id sits after valid rows: nothing may be written before the check
    ds = Dataset([[0.0], [1.0], [2.0]], [0, 1, 0], ["a", "b", bad_id])
    path = tmp_path / "d.csv"
    path.write_text("id,y,x0\nold,1,5.0\n")
    with pytest.raises(DataFormatError, match="commas or newlines"):
        save_csv(ds, path)
    assert path.read_text() == "id,y,x0\nold,1,5.0\n"


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
])
def test_csv_malformed_inputs(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(DataFormatError):
        load_csv(path)


# a header, two blank lines and one good row put the bad row on line 5
BAD_LINE_5 = {
    "non-numeric feature": ("a,1,abc", "non-numeric value"),
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
        Dataset(np.array([1.0, 2.0]), [0], n_classes=1)
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, 2.0]]), [3], n_classes=2)
