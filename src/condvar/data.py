"""Columnar observations, the (label, id) grouping partition, CSV ingest,
and the one JSON serializer and the one writer of every file the package writes.

Grouping follows one rule: observations that share the exact pair
(label, id) form one group; observations with no id are never grouped.
The grouped-observation count c = n - m drives how much signal the
conditional variance penalty sees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Dataset",
    "GroupIndex",
    "DataFormatError",
    "build_group_index",
    "augment_with_groups",
    "load_csv",
    "save_csv",
]


class DataFormatError(ValueError):
    """Raised for malformed data files."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class Dataset:
    """n observations stored as columns.

    features   (n, p) float array
    labels     (n,) class indices in [0, n_classes)
    ids        (n,) object array of id tokens; None marks an absent id

    The arrays are copied on construction and read-only afterwards.
    """

    def __init__(self, features, labels, ids=None, n_classes=None):
        features = np.array(features, dtype=float)
        labels = np.array(labels, dtype=int)
        if features.ndim != 2:
            raise ValueError("features must be an (n, p) array")
        n = features.shape[0]
        if n < 1:
            raise ValueError("a dataset needs at least one sample")
        if labels.shape != (n,):
            raise ValueError(f"labels shape {labels.shape} does not match {n} samples")
        ids = np.full(n, None, dtype=object) if ids is None else np.array(ids, dtype=object)
        if ids.shape != (n,):
            raise ValueError(f"ids shape {ids.shape} does not match {n} samples")
        if n_classes is None:
            n_classes = int(labels.max()) + 1
        if labels.min() < 0:
            raise ValueError("labels are class indices >= 0")
        if labels.max() >= n_classes:
            raise ValueError(f"label {labels.max()} >= class count {n_classes}")
        self._features = _frozen(features)
        self.labels = _frozen(labels)
        self.ids = _frozen(ids)
        self.n_classes = int(n_classes)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def features(self) -> np.ndarray:
        return self._features

    @property
    def p(self) -> int:
        return self._features.shape[1]


@dataclass(frozen=True, eq=False)
class GroupIndex:
    """Partition of {0..n-1} as a segment-id vector.

    seg     (n,) group of each observation, numbered 0..m-1 in order of
            first occurrence; any integer labelling passed in is renumbered
    n       total sample count
    m       group count
    c       grouped-observation count, n - m = sum(|S_j| - 1)
    """

    seg: np.ndarray

    def __post_init__(self):
        keys = np.asarray(self.seg)
        if keys.ndim != 1:
            raise ValueError("segment ids must be one-dimensional")
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.intp)
        rank[np.argsort(first)] = np.arange(len(first))
        object.__setattr__(self, "seg", _frozen(rank[inverse.reshape(-1)]))

    @property
    def n(self) -> int:
        return len(self.seg)

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def c(self) -> int:
        return self.n - self.m

    @cached_property
    def sizes(self) -> np.ndarray:
        return _frozen(np.bincount(self.seg))

    def max_size(self) -> int:
        return int(self.sizes.max())

    @cached_property
    def members(self) -> np.ndarray:
        """Every index, grouped: group 0's members ascending, then group 1's..."""
        return _frozen(np.argsort(self.seg, kind="stable"))


def build_group_index(dataset: Dataset) -> GroupIndex:
    """Group observations sharing the exact (label, id) pair.

    Samples without an id become singleton groups; ids compare by their
    string form, as they do after a CSV round trip. Group order is
    first-occurrence order, which keeps batching deterministic.
    """
    n = len(dataset)
    present = np.not_equal(dataset.ids, None)
    _, id_code = np.unique(dataset.ids[present].astype(str), return_inverse=True)
    key = np.arange(n) + n * dataset.n_classes  # above every (id, label) code
    key[present] = id_code.reshape(-1) * dataset.n_classes + dataset.labels[present]
    return GroupIndex(key)


def augment_with_groups(dataset: Dataset, transform, count_per_sample: int, selection) -> Dataset:
    """Append transformed copies of the selected samples, tying each copy to
    its source through a shared id (the source's index).

    The source sample also receives that id, so source + copies form one
    group of size 1 + count_per_sample after ``build_group_index``.
    """
    if count_per_sample < 1:
        raise ValueError("count_per_sample must be >= 1")
    selection = np.sort(np.asarray(selection, dtype=int).reshape(-1))
    bad = selection[(selection < 0) | (selection >= len(dataset))]
    if bad.size:
        raise IndexError(f"selection index {bad[0]} out of range")
    tags = np.array([f"aug{i}" for i in selection], dtype=object)
    ids = dataset.ids.copy()
    ids[selection] = tags
    sources = np.repeat(selection, count_per_sample)
    copies = [np.asarray(transform(dataset.features[i].copy()), dtype=float) for i in sources]
    if any(f.shape != (dataset.p,) for f in copies):
        raise ValueError("transform must preserve the feature dimension")
    return Dataset(
        np.concatenate([dataset.features, np.reshape(copies, (-1, dataset.p))]),
        np.concatenate([dataset.labels, dataset.labels[sources]]),
        np.concatenate([ids, np.repeat(tags, count_per_sample)]),
        dataset.n_classes,
    )


def _csv_text(dataset: Dataset) -> str:
    """The text ``save_csv`` writes."""
    ids = ["" if ident is None else str(ident) for ident in dataset.ids]
    joined = "".join(ids)
    if "," in joined or "\n" in joined:
        raise DataFormatError("id tokens may not contain commas or newlines")
    # an absent id writes "", so any further "" is an id that is empty
    if ids.count("") > np.count_nonzero(np.equal(dataset.ids, None)):
        raise DataFormatError("id tokens may not be empty: an empty field means no id")
    cols = ",".join(f"x{j}" for j in range(dataset.p))
    # built column by column; with p = 0 a row still ends in a comma, as the header does
    features = [map(repr, column) for column in dataset.features.T.tolist()] or [[""] * len(ids)]
    rows = map(",".join, zip(ids, map(str, dataset.labels.tolist()), *features))
    return "\n".join([f"id,y,{cols}", *rows, ""])  # one join: the text is never copied


def save_csv(dataset: Dataset, path) -> None:
    """Header ``id,y,x0,...,x{p-1}``; empty id field means absent; floats are
    written with shortest round-trip precision so load(save(d)) == d bitwise.
    Every id is checked before the file is opened, so an id that is empty
    (it would read back as absent) or holds a comma or a newline raises
    DataFormatError and leaves the path untouched."""
    _write_text(path, _csv_text(dataset))


def _json_text(payload, indent: int | None = 1) -> str:
    """Standard JSON with sorted keys and a final newline; NaN and infinities raise ValueError."""
    return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False) + "\n"


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _parse_rows(rows: list, p: int) -> np.ndarray:
    """Labels and features of ``rows`` (CSV lines of p + 2 fields) in one
    ``np.loadtxt`` call: a record array with an int64 field ``y`` and a
    float64 field ``x`` of shape (p,). Raises ValueError on any field
    that does not parse."""
    dtype = np.dtype([("y", np.int64), ("x", np.float64, (p,))])
    return np.loadtxt(rows, dtype=dtype, delimiter=",", usecols=range(1, p + 2),
                      comments=None, ndmin=1)


def _first_unparsable(rows: list, p: int) -> tuple:
    """(index, error) of the first row that ``_parse_rows`` rejects, found
    by bisection with the same parser; some row must be rejected."""
    lo, hi = 0, len(rows)  # the first bad row is in rows[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_rows(rows[lo:mid], p)
            lo = mid
        except ValueError:
            hi = mid
    try:
        _parse_rows(rows[lo:hi], p)
    except ValueError as exc:
        return lo, exc
    raise AssertionError("every row parses")


def _read_lines(path) -> tuple:
    """(the file's lines, its comma count); the text itself is not kept."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return text.split("\n"), text.count(",")


def _data_line_numbers(lines: list) -> list:
    """The 1-based number of every line after the header that is not blank."""
    return [no for no, ln in enumerate(lines, start=1) if ln.strip()][1:]


def _scan_rows(path, lines: list, p: int) -> tuple:
    """(rows, table) of the data lines, checked one by one in file order for
    their field count and for numbers that do not parse; the first bad row
    raises DataFormatError naming its line."""
    numbers = _data_line_numbers(lines)
    if not numbers:
        raise DataFormatError(f"{path}: no data rows")
    rows = [lines[no - 1] for no in numbers]
    fields = np.array([ln.count(",") + 1 for ln in rows])
    wrong = np.flatnonzero(fields != p + 2)
    good = rows[:wrong[0]] if wrong.size else rows
    try:
        table = _parse_rows(good, p) if good else None
    except ValueError:
        i, exc = _first_unparsable(good, p)
        reason = str(exc).split(" at row ")[0]
        raise DataFormatError(f"{path}:{numbers[i]}: non-numeric value ({reason})") from None
    if wrong.size:
        i = wrong[0]
        raise DataFormatError(f"{path}:{numbers[i]}: expected {p + 2} fields, got {fields[i]}")
    return rows, table


def load_csv(path) -> Dataset:
    """Read a file in ``save_csv``'s format; blank lines are skipped.

    Every rejection raises DataFormatError naming the file's real line
    number. Rows are checked in file order for their field count and for
    numbers that do not parse (labels must be integer literals; numpy's
    parser rejects Python-only spellings such as ``1_0``), then for a
    negative label or a non-finite feature.

    A well-formed file is read without a loop over its lines: one
    ``_parse_rows`` call over every line after the header, and one count
    of its commas. Only when either fails are the lines scanned one by one
    (``_scan_rows``) to find the first bad row.
    """
    lines, commas = _read_lines(path)
    first = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if first is None:
        raise DataFormatError(f"{path}: empty file")
    header = lines[first].split(",")
    if len(header) < 3 or header[0] != "id" or header[1] != "y":
        raise DataFormatError(f"{path}: expected header 'id,y,x0,...'")
    expected = ["id", "y"] + [f"x{j}" for j in range(len(header) - 2)]
    if header != expected:
        raise DataFormatError(f"{path}: malformed header {header!r}")
    p = len(header) - 2
    rows, table = lines[first + 1:], None
    if commas > p + 1:  # some line besides the header has a comma
        try:
            table = _parse_rows(rows, p)  # skips empty lines, rejects short rows
        except ValueError:
            pass
    # every parsed row has at least p + 1 commas, so with the header's p + 1
    # they account for all of them only if every row has exactly p + 2 fields
    if table is None or commas != (p + 1) * (len(table) + 1):
        rows, table = _scan_rows(path, lines, p)
    labels, feats = table["y"], table["x"]
    negative = labels < 0
    bad = np.flatnonzero(negative | ~np.isfinite(feats).all(axis=1))
    if bad.size:
        i = bad[0]
        what = f"negative label {labels[i]}" if negative[i] else "non-finite feature"
        raise DataFormatError(f"{path}:{_data_line_numbers(lines)[i]}: {what}")
    ids = [ln.partition(",")[0] or None for ln in rows if ln]
    return Dataset(feats, labels, ids)
