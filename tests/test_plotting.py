import ast
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from condvar import models as md
from condvar import plotting
from condvar.data import DataFormatError, Dataset
from condvar.plotting import _GRID, decision_boundary_svg, zero_contour_segments


def _loop_segments(grid_vals, xs, ys):
    """Reference marching squares: one Python pass per cell, corners and
    crossing edges listed in the documented order."""

    def cross(v0, v1, p0, p1):
        t = v0 / (v0 - v1)
        return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))

    segments = []
    ny, nx = grid_vals.shape
    for iy in range(ny - 1):
        for ix in range(nx - 1):
            corners = [
                (grid_vals[iy, ix], (xs[ix], ys[iy])),
                (grid_vals[iy, ix + 1], (xs[ix + 1], ys[iy])),
                (grid_vals[iy + 1, ix + 1], (xs[ix + 1], ys[iy + 1])),
                (grid_vals[iy + 1, ix], (xs[ix], ys[iy + 1])),
            ]
            pts = []
            for k in range(4):
                v0, p0 = corners[k]
                v1, p1 = corners[(k + 1) % 4]
                if (v0 > 0.0) != (v1 > 0.0):
                    pts.append(cross(v0, v1, p0, p1))
            if len(pts) >= 2:
                segments.append((pts[0], pts[1]))
            if len(pts) == 4:
                segments.append((pts[2], pts[3]))
    return np.array(segments, dtype=float).reshape(-1, 2, 2)


def _assert_bitwise(got, ref):
    assert got.shape == ref.shape and got.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


def _random_grid(rng):
    ny, nx = rng.integers(2, 31, size=2)
    vals = rng.standard_normal((ny, nx))
    vals[rng.random((ny, nx)) < 0.1] = 0.0
    vals[rng.random((ny, nx)) < 0.05] = np.nan
    if rng.random() < 0.5:  # checkerboard signs: every cell is a saddle
        vals = np.abs(vals) * np.where(np.add.outer(np.arange(ny), np.arange(nx)) % 2, -1.0, 1.0)
    xs = np.cumsum(rng.uniform(0.1, 2.0, nx)) - 3.0
    ys = np.cumsum(rng.uniform(0.1, 2.0, ny)) - 3.0
    return vals, xs, ys


def test_zero_contour_matches_cell_loop_bitwise():
    rng = np.random.default_rng(0)
    saddles = zeros = nans = 0
    for _ in range(300):
        vals, xs, ys = _random_grid(rng)
        pos = vals > 0.0
        saddles += int(np.sum((pos[:-1, :-1] == pos[1:, 1:]) & (pos[:-1, 1:] == pos[1:, :-1])
                              & (pos[:-1, :-1] != pos[:-1, 1:])))
        zeros += int(np.sum(vals == 0.0))
        nans += int(np.sum(np.isnan(vals)))
        _assert_bitwise(zero_contour_segments(vals, xs, ys), _loop_segments(vals, xs, ys))
    assert saddles > 0 and zeros > 0 and nans > 0


@pytest.mark.parametrize("vals, expected", [
    ([[-1.0, 1.0], [-1.0, 1.0]], [[[0.5, 0.0], [0.5, 1.0]]]),
    # saddle: bottom-right pair first, then top-left pair
    ([[1.0, -1.0], [-1.0, 1.0]], [[[0.5, 0.0], [1.0, 0.5]], [[0.5, 1.0], [0.0, 0.5]]]),
    ([[1.0, 2.0], [3.0, 4.0]], np.empty((0, 2, 2))),
    ([[0.0, 0.0], [0.0, 0.0]], np.empty((0, 2, 2))),
])
def test_zero_contour_two_by_two(vals, expected):
    vals = np.array(vals)
    xs = ys = np.array([0.0, 1.0])
    got = zero_contour_segments(vals, xs, ys)
    _assert_bitwise(got, _loop_segments(vals, xs, ys))
    np.testing.assert_array_equal(got, np.reshape(expected, (-1, 2, 2)))


def test_zero_contour_without_crossing_is_empty():
    xs, ys = np.linspace(-1.0, 1.0, 40), np.linspace(-2.0, 2.0, 30)
    vals = 1.0 + np.add.outer(ys ** 2, xs ** 2)
    assert zero_contour_segments(vals, xs, ys).shape == (0, 2, 2)
    assert zero_contour_segments(-vals, xs, ys).shape == (0, 2, 2)


@pytest.mark.parametrize("a, b, c", [(1.0, 0.0, 0.3), (0.3, -1.7, 0.2), (-2.0, 0.5, -0.4)])
def test_zero_contour_lies_on_a_linear_field_zero_line(a, b, c):
    xs, ys = np.linspace(-1.3, 1.1, 57), np.linspace(-0.9, 1.4, 43)
    vals = a * xs[None, :] + b * ys[:, None] + c
    segs = zero_contour_segments(vals, xs, ys)
    assert len(segs) > 0
    ends = segs.reshape(-1, 2)
    np.testing.assert_allclose(a * ends[:, 0] + b * ends[:, 1] + c, 0.0, atol=1e-12)


def _scatter_dataset():
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((60, 2))
    labels = (feats[:, 0] + 0.5 * feats[:, 1] > 0).astype(int)
    ids = np.array([f"g{i // 2}" if i < 20 else None for i in range(60)], dtype=object)
    return Dataset(feats, labels, ids)


@pytest.mark.parametrize("n", [1999, 2000, 2001, 4999])
def test_boundary_svg_draws_at_most_max_points_samples(n):
    # above _MAX_POINTS (2000) the scatter thins to evenly spaced indices
    feats = np.random.default_rng(2).standard_normal((n, 2))
    svg = decision_boundary_svg(Dataset(feats, np.arange(n) % 2, None), [])
    assert svg.count("<circle") == min(n, 2000)


def _boundary_lines(svg):
    return svg.count('stroke-width="1.4"')


def test_boundary_svg_two_class_softmax_draws_boundary():
    spec = md.ModelSpec("linear", (2, 2))
    theta = np.array([0.0, 1.0, 0.0, 0.5, 0.0, 0.1])  # logit 1 - logit 0 = x0 + 0.5 x1 + 0.1
    svg = decision_boundary_svg(_scatter_dataset(), [(spec, theta)], ["softmax"])
    assert _boundary_lines(svg) >= 1


def test_boundary_svg_rejects_three_classes(monkeypatch):
    # the three-class checkpoint comes second: no model may be evaluated first
    calls = []
    monkeypatch.setattr(md, "forward", lambda *a: calls.append(1))
    ok, spec = md.ModelSpec("linear", (2, 1)), md.ModelSpec("linear", (2, 3))
    with pytest.raises(ValueError, match="boundary plots support single-logit or two-class models"):
        decision_boundary_svg(_scatter_dataset(), [(ok, md.init_params(ok, 0)),
                                                   (spec, md.init_params(spec, 0))])
    assert calls == []


def test_boundary_svg_rejects_features_that_are_not_2d():
    ds = Dataset(np.zeros((2, 3)), [0, 1])
    with pytest.raises(DataFormatError, match="plotting needs 2-d features, got p = 3"):
        decision_boundary_svg(ds, [])


def test_boundary_svg_rejects_a_span_past_the_float_range():
    # a warning would fail the test too: pyproject turns warnings into errors
    ds = Dataset([[-1e308, 0.0], [1e308, 1.0]], [0, 1])
    with pytest.raises(ArithmeticError, match="span overflows"):
        decision_boundary_svg(ds, [])


def test_boundary_svg_rejects_a_boundary_that_is_not_finite():
    # the logits 1e10 * (x0 + x1) overflow to +-inf away from the diagonal
    ds = Dataset([[-1e300, -1e300], [1e300, 1e300]], [0, 1])
    spec = md.ModelSpec("linear", (2, 1))
    with pytest.raises(ArithmeticError, match="boundary of 'steep' is not finite"):
        decision_boundary_svg(ds, [(spec, np.array([1e10, 1e10, 0.0]))], ["steep"])


def test_boundary_svg_rejects_label_count_mismatch():
    spec = md.ModelSpec("linear", (2, 1))
    theta = md.init_params(spec, 0)
    with pytest.raises(ValueError, match="one label per checkpoint"):
        decision_boundary_svg(_scatter_dataset(), [(spec, theta)], ["a", "b"])
    with pytest.raises(ValueError, match="one label per checkpoint"):
        decision_boundary_svg(_scatter_dataset(), [(spec, theta), (spec, theta)], ["a"])


def _mlp(sizes, activation, seed):
    spec = md.ModelSpec("mlp", sizes, activation)
    return spec, md.init_params(spec, seed)


# each checkpoint with the sha256 of its SVG as the one-batch grid evaluation wrote it
_PINNED_SVGS = {
    "single_logit": ((md.ModelSpec("linear", (2, 1)), np.array([-0.7, 1.2, 0.3])),
                     "e856ab4113753da27bc5a3c19d2acbd44167369e6f8460f90a19bcb1cf027e90"),
    "softmax": ((md.ModelSpec("linear", (2, 2)), np.array([0.4, 1.0, -0.3, 0.5, 0.2, 0.1])),
                "297a22ce2f55d899b1cdf6b31530107d882d88099e160656c927209a138fcaf7"),
    "tanh_mlp": (_mlp((2, 16, 16, 1), "tanh", 3),
                 "6f5d5ea7c9754a4db6c37a1156fe374a25eb28c429a39bbf8a4e6a5cea50a080"),
    "relu_mlp": (_mlp((2, 8, 1), "relu", 5),
                 "c14596ffbbf177898e0787132cf7eb75a608a32d188809ec6d0166428f284abd"),
}


@pytest.mark.parametrize("rows", [None, 1, 7, _GRID])
@pytest.mark.parametrize("name", sorted(_PINNED_SVGS))
def test_boundary_svg_bytes_do_not_depend_on_the_row_block(name, rows, monkeypatch):
    # None keeps the default budget, 40 grid rows of 2-d points for every
    # model; 7 rows leave a partial last block (400 % 7 = 1); 400 rows
    # evaluate the whole grid in one block
    (spec, theta), sha256 = _PINNED_SVGS[name]
    if rows is not None:
        monkeypatch.setattr(md, "_CHUNK_BYTES", rows * 8 * _GRID * 2)
    calls = []
    forward = md.forward
    monkeypatch.setattr(md, "forward", lambda *a: calls.append(1) or forward(*a))
    svg = decision_boundary_svg(_scatter_dataset(), [(spec, theta)], [name])
    assert len(calls) == -(-_GRID // (rows or 40))
    assert _boundary_lines(svg) > 0
    assert hashlib.sha256(svg.encode()).hexdigest() == sha256


def test_boundary_svg_memory_does_not_grow_with_the_grid_batch():
    # one 160 000-point batch through 64-wide layers traces about 161 MiB;
    # row blocks keep the peak near the (400, 400) grid and its contour
    spec = md.ModelSpec("mlp", (2, 64, 64, 1))
    theta = md.init_params(spec, 0)
    dataset = _scatter_dataset()
    tracemalloc.start()
    try:
        decision_boundary_svg(dataset, [(spec, theta)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20


# the names of models that plotting may read: the layers are forward's, and
# a stack of grid rows is sized by its 2-d inputs alone
_MODEL_NAMES = {"forward", "_chunk"}


def test_plotting_sizes_its_grid_stack_once_and_runs_no_layer_code():
    # _chunk is called outside every loop: once per plot
    tree = ast.parse(Path(plotting.__file__).read_text(encoding="utf-8"))
    reads = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "md"}
    assert reads <= _MODEL_NAMES, sorted(reads - _MODEL_NAMES)
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "models"]
    loops = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))]
    assert not [node.lineno for loop in loops for node in ast.walk(loop)
                if isinstance(node, ast.Attribute) and node.attr == "_chunk"]
