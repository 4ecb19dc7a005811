"""Columnar observations, the (label, id) grouping partition, CSV ingest,
the one JSON serializer and the one writer of every file the package writes,
the one rule that judges every file it reads (``_reading``) and the one
judge of every array of reals, from a file or a caller, by the caller's test
and refusal (``_reals``). Scalars are judged by one rule per kind: ``_integer``,
``_natural`` (seeds, epochs) and ``_real``, a finite real by ``_reals``.

Grouping follows one rule: observations that share the exact pair
(label, id) form one group; observations with no id are never grouped.
The grouped-observation count c = n - m drives how much signal the
conditional variance penalty sees.
"""

from __future__ import annotations

import itertools
import json
import numbers
from contextlib import contextmanager, suppress
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
    labels     (n,) class indices >= 0
    ids        (n,) object array of id tokens; None marks an absent id

    The arrays are copied on construction and read-only afterwards.
    """

    def __init__(self, features, labels, ids=None):
        features = np.array(features, dtype=float)
        labels = np.array(labels, dtype=int)
        if features.ndim != 2 or features.shape[1] < 1:
            raise ValueError("features must be an (n, p) array with p >= 1")
        n = features.shape[0]
        if n < 1:
            raise ValueError("a dataset needs at least one sample")
        if labels.shape != (n,):
            raise ValueError(f"labels shape {labels.shape} does not match {n} samples")
        ids = np.full(n, None, dtype=object) if ids is None else np.array(ids, dtype=object)
        if ids.shape != (n,):
            raise ValueError(f"ids shape {ids.shape} does not match {n} samples")
        if labels.min() < 0:
            raise ValueError("labels are class indices >= 0")
        self._features = _frozen(features)
        self.labels = _frozen(labels)
        self.ids = _frozen(ids)

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


def _covering(group_index: GroupIndex, n: int) -> GroupIndex:
    """``group_index`` when it partitions n samples, else ValueError: the one
    check that a caller's groups fit its data, made before any model runs."""
    if group_index.n != n:
        raise ValueError("group index does not cover the dataset")
    return group_index


def build_group_index(dataset: Dataset) -> GroupIndex:
    """Group observations sharing the exact (label, id) pair.

    Samples without an id become singleton groups; ids compare by their
    string form, as they do after a CSV round trip. Group order is
    first-occurrence order, which keeps batching deterministic.
    """
    n = len(dataset)
    present = np.not_equal(dataset.ids, None)
    _, id_code = np.unique(dataset.ids[present].astype(str), return_inverse=True)
    # GroupIndex renumbers keys: every multiplier k above every label gives one seg
    k = int(dataset.labels.max()) + 1
    key = np.arange(n) + n * k  # above every (id, label) code
    key[present] = id_code.reshape(-1) * k + dataset.labels[present]
    return GroupIndex(key)


def augment_with_groups(dataset: Dataset, transform, count_per_sample: int, selection) -> Dataset:
    """Append transformed copies of the selected samples, tying each copy to
    its source through a shared id (the source's index).

    The source sample also receives that id, so source + copies form one
    group of size 1 + count_per_sample after ``build_group_index``.
    """
    if (count_per_sample := _integer(count_per_sample)) < 1:
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
    )


def _csv_text(dataset: Dataset) -> str:
    """The text ``save_csv`` writes."""
    ids = ["" if ident is None else str(ident) for ident in dataset.ids]
    joined = "".join(ids)
    # universal-newline reading breaks a line at "\r" as well as at "\n"
    if "," in joined or "\n" in joined or "\r" in joined:
        raise DataFormatError("id tokens may not contain commas or newlines")
    # an absent id writes "", so any further "" is an id that is empty
    if ids.count("") > np.count_nonzero(np.equal(dataset.ids, None)):
        raise DataFormatError("id tokens may not be empty: an empty field means no id")
    if not np.isfinite(dataset.features).all():
        raise DataFormatError("features must be finite")
    cols = ",".join(f"x{j}" for j in range(dataset.p))
    features = [map(repr, column) for column in dataset.features.T.tolist()]
    rows = map(",".join, zip(ids, map(str, dataset.labels.tolist()), *features))
    return "\n".join([f"id,y,{cols}", *rows, ""])  # one join: the text is never copied


def save_csv(dataset: Dataset, path) -> None:
    """Header ``id,y,x0,...,x{p-1}``; empty id field means absent; floats are
    written with shortest round-trip precision, so ``load_csv`` reads back the
    features, labels and ids bitwise. It refuses every row ``load_csv``
    refuses before opening the file: a non-finite feature, or an id that is
    empty (it reads back as absent) or holds a comma, a newline or a carriage
    return, raises DataFormatError."""
    _write_text(path, _csv_text(dataset))


def _json_text(payload, indent: int | None = 1) -> str:
    """Standard JSON with sorted keys and a final newline; NaN and infinities raise ValueError."""
    # every payload is a tree of dicts and lists, never cyclic: no cycle check
    return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False,
                      check_circular=False) + "\n"


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


@contextmanager
def _reading(path, what: str):
    """The one read-failure rule: inside it, a missing field raises
    DataFormatError naming ``path`` as a ``what`` that lacks it, and a value
    of the wrong kind, shape or range (undecodable text, too deep a nesting
    and an out-of-range number included) as a malformed ``what``. OSError
    passes through."""
    try:
        yield
    except KeyError as exc:
        raise DataFormatError(f"{path}: {what} lacks field {exc}") from None
    except (IndexError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed {what} ({exc})") from None


def _integer(v) -> int:
    """``int(v)`` for a v that holds an integer; one with a fraction, which
    ``int`` would drop, a NaN or an infinity, which it cannot convert, and a
    boolean, Python's or numpy's, which it would read as 0 or 1, raise
    ValueError, judged by ``_reading``."""
    with suppress(OverflowError, ValueError):  # int(inf), int(nan), int("x")
        if not isinstance(v, (bool, np.bool_)) and int(v) == v:
            return int(v)
    raise ValueError(f"{v!r} is not an integer")


def _natural(name: str, v) -> int:
    """``_integer(v)`` for a seed or an epoch v >= 0, else ValueError naming ``name``."""
    if (v := _integer(v)) < 0:
        raise ValueError(f"{name} must be >= 0, got {v}")
    return v


def _real(name: str, v, rule: str, ok) -> float:
    """``float(v)`` for a finite real number v that ``ok`` accepts, both judged
    by ``_reals(v, 0, ok)``; any other v, a string or a boolean among them,
    raises ValueError naming the field ``name`` and its ``rule``."""
    return float(_reals(v, 0, ok, ValueError(f"{name} must be {rule}, got {v!r}")))


def _reals(values, ndim: int, ok=None, refusal=None) -> np.ndarray:
    """``values``, a rectangular nest ``ndim`` non-empty levels deep of finite real numbers (never
    a string, a boolean, Python's or numpy's, or a Python int past the float range; an ndarray's
    are its ``tolist()``), as a float64 array read in one flat pass that ``ok``, if given, accepts;
    anything else raises ``refusal``, by default a ValueError that ``_reading`` judges."""
    flat, shape = [values.tolist() if isinstance(values, np.ndarray) else values], []
    with suppress(OverflowError, TypeError):  # a number where a level should be; 10**400
        for _ in range(ndim):
            shape += set(map(len, flat))  # one width per level unless ragged
            flat = list(itertools.chain.from_iterable(flat))  # a string or object yields strings
        if (len(shape) == ndim and all(shape)
                and all(issubclass(t, numbers.Real) and t is not bool for t in set(map(type, flat)))
                and np.isfinite(arr := np.array(flat, dtype=float).reshape(shape)).all()
                and (ok is None or ok(arr))):
            return arr
    raise refusal or ValueError("expected finite real numbers in a rectangular nest of depth "
                                f"{ndim}")


def _parse_rows(rows: list, p: int) -> np.ndarray:
    """Ids, labels and features of ``rows`` (CSV lines of p + 2 fields) in
    one ``np.loadtxt`` call: a record array with an object field ``id``
    holding each id's raw text, an int64 field ``y`` and a float64 field
    ``x`` of shape (p,). Empty lines are skipped; raises ValueError on a
    row with another field count or a number that does not parse."""
    dtype = np.dtype([("id", object), ("y", np.int64), ("x", np.float64, (p,))])
    return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)


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


def load_csv(path) -> Dataset:
    """Read a file in ``save_csv``'s format; blank lines are skipped.

    Every rejection raises DataFormatError naming the file, and a bad row
    its real line number. ``_parse_rows`` reads every line that is not blank
    in one call; only if it rejects one does the same parser bisect to the
    first bad row. Rows are checked in file order for their field count and
    for numbers that do not parse (labels must be integer literals; numpy's
    parser rejects Python-only spellings such as ``1_0``), then for a
    negative label or a non-finite feature.
    """
    with _reading(path, "CSV"), open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    numbers = [no for no, ln in enumerate(lines, start=1) if ln.strip()]
    if not numbers:
        raise DataFormatError(f"{path}: empty file")
    header = lines[numbers.pop(0) - 1].split(",")
    if len(header) < 3 or header[0] != "id" or header[1] != "y":
        raise DataFormatError(f"{path}: expected header 'id,y,x0,...'")
    expected = ["id", "y"] + [f"x{j}" for j in range(len(header) - 2)]
    if header != expected:
        raise DataFormatError(f"{path}: malformed header {header!r}")
    if not numbers:
        raise DataFormatError(f"{path}: no data rows")
    p = len(header) - 2
    rows = [lines[no - 1] for no in numbers]
    try:
        table = _parse_rows(rows, p)
    except ValueError:
        i, exc = _first_unparsable(rows, p)
        fields = rows[i].count(",") + 1
        what = (f"expected {p + 2} fields, got {fields}" if fields != p + 2
                else f"non-numeric value ({str(exc).split(' at row ')[0]})")
        raise DataFormatError(f"{path}:{numbers[i]}: {what}") from None
    labels, feats = table["y"], table["x"]
    negative = labels < 0
    bad = np.flatnonzero(negative | ~np.isfinite(feats).all(axis=1))
    if bad.size:
        i = bad[0]
        what = f"negative label {labels[i]}" if negative[i] else "non-finite feature"
        raise DataFormatError(f"{path}:{numbers[i]}: {what}")
    return Dataset(feats, labels, np.where(table["id"] == "", None, table["id"]))
