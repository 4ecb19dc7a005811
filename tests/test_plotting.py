import ast
import hashlib
import os
import subprocess
import sys
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


@pytest.mark.parametrize("shape, nx, ny", [
    ((2, 2), 4, 2),     # more xs than grid columns
    ((2, 2), 1, 2),     # fewer xs than grid columns
    ((4,), 4, 1),       # a 1-d grid
    ((1, 3), 3, 1),     # one grid row: no cell
    ((3, 1), 1, 3),     # one grid column: no cell
    ((2, 2, 2), 2, 2),  # a 3-d grid
])
def test_zero_contour_refuses_a_grid_that_does_not_fit_its_axes(shape, nx, ny):
    with pytest.raises(ValueError, match=rf"grid_vals of shape \({shape[0]},.*ys has shape "
                                         rf"\({ny},\), xs \({nx},\)"):
        zero_contour_segments(np.ones(shape), np.arange(float(nx)), np.arange(float(ny)))


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


@pytest.mark.parametrize("sizes, cut, match", [
    ((3, 1), 0, "feature dimension 2 does not match model input 3"),
    ((2, 1), 1, "parameter vector length does not match the model spec"),
    ((2, 4, 2), 1, "parameter vector length does not match the model spec"),
])
def test_boundary_svg_judges_a_mis_sized_checkpoint(sizes, cut, match):
    spec = md.ModelSpec("linear" if len(sizes) == 2 else "mlp", sizes)
    theta = md.init_params(spec, 0)[cut:]
    with pytest.raises(ValueError, match=match):
        decision_boundary_svg(_scatter_dataset(), [(spec, theta)])


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


# the grid points each pinned checkpoint sends through forward (every point
# of a block whose logit range holds 0), and the forward calls at stacks of
# the default budget, 1, 7 and 400 grid rows: one per stack that holds a
# point to evaluate
_PINNED_WORK = {
    "single_logit": (5968, {None: 7, 1: 273, 7: 40, _GRID: 1}),
    "softmax": (6527, {None: 9, 1: 336, 7: 49, _GRID: 1}),
    "tanh_mlp": (106840, {None: 9, 1: 329, 7: 48, _GRID: 1}),
    "relu_mlp": (10055, {None: 5, 1: 200, 7: 30, _GRID: 1}),
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
    monkeypatch.setattr(md, "forward", lambda *a: calls.append(len(a[2])) or forward(*a))
    svg = decision_boundary_svg(_scatter_dataset(), [(spec, theta)], [name])
    points, stacks = _PINNED_WORK[name]
    assert (sum(calls), len(calls)) == (points, stacks[rows])
    assert max(calls) <= (rows or 40) * _GRID
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


# the names of models that plotting may read: the layers are forward's, a
# stack of grid rows is sized by its 2-d inputs alone, and the certificate is
# the logit range of each block's box
_MODEL_NAMES = {"forward", "_chunk", "_logit_interval"}


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


def _random_checkpoint(rng, kind):
    """A (spec, theta) of ``kind`` with weights scaled by 1e-3 .. 1e3 and
    biases up to 1e3."""
    width = int(rng.integers(1, 17))
    spec = {"linear1": md.ModelSpec("linear", (2, 1)), "linear2": md.ModelSpec("linear", (2, 2)),
            "tanh": md.ModelSpec("mlp", (2, width, *[width] * int(rng.integers(0, 2)),
                                         int(rng.integers(1, 3))), "tanh"),
            "relu": md.ModelSpec("mlp", (2, width, int(rng.integers(1, 3))), "relu")}[kind]
    theta = md.init_params(spec, int(rng.integers(1 << 30))) * 10.0 ** rng.uniform(-3, 3)
    bias = ~spec.weight_mask
    theta[bias] = rng.uniform(-1, 1, bias.sum()) * 10.0 ** rng.uniform(-3, 3)
    return spec, theta


def _full_grid(spec, theta, xs, ys):
    """The boundary logit at all 160 000 grid points, in one forward call."""
    pts = np.column_stack([np.tile(xs, len(ys)), np.repeat(ys, len(xs))])
    with np.errstate(over="ignore", invalid="ignore"):
        out = md.forward(spec, theta, pts)
        return (out[:, 1] - out[:, 0] if out.ndim == 2 else out).reshape(len(ys), len(xs))


@pytest.mark.parametrize("kind", ["linear1", "linear2", "tanh", "relu"])
def test_certified_grid_traces_the_segments_of_the_full_grid_bitwise(kind, monkeypatch):
    # boxes near the origin and offset to 1e6; three in four checkpoints put
    # their boundary through the box centre by moving the last bias
    rng = np.random.default_rng({"linear1": 11, "linear2": 12, "tanh": 13, "relu": 14}[kind])
    traced, forward = [], md.forward
    monkeypatch.setattr(plotting, "zero_contour_segments",
                        lambda *a: traced.append((a, zero_contour_segments(*a))) or traced[-1][1])
    evaluated = []
    monkeypatch.setattr(md, "forward", lambda *a: evaluated.append(len(a[2])) or forward(*a))
    cases = certified = crossing = both = 0
    for offset in (0.0, 1e6):
        for _ in range(8):
            spec, theta = _random_checkpoint(rng, kind)
            centre = offset * rng.choice([-1.0, 1.0], 2)
            feats = centre + rng.standard_normal((40, 2)) * 10.0 ** rng.uniform(-1, 1, 2)
            if rng.random() < 0.75:
                mid = _full_grid(spec, theta, centre[:1], centre[1:])[0, 0]
                theta[-1] -= mid  # the last bias: logit 1 - logit 0 moves by the same
            ds = Dataset(feats, np.arange(40) % 2)
            del traced[:], evaluated[:]
            try:
                decision_boundary_svg(ds, [(spec, theta)])
            except ArithmeticError:  # a non-finite boundary, as the full grid's
                pass
            sure = sum(evaluated) < _GRID * _GRID
            (vals, xs, ys), segs = traced[0]
            full = _full_grid(spec, theta, xs, ys)
            _assert_bitwise(segs, zero_contour_segments(full, xs, ys))
            assert np.array_equal(vals > 0, full > 0)
            cases, certified, crossing = cases + 1, certified + sure, crossing + (len(segs) > 0)
            both += sure and len(segs) > 0
    assert both >= 3, (cases, certified, crossing, both)


def _longdouble_logit(spec, theta, x):
    """The boundary logit in extended precision: a reference for forward's rounding."""
    theta, h = theta.astype(np.longdouble), x.astype(np.longdouble)
    for i, (wsl, wshape, bsl) in enumerate(spec.layout):
        h = h @ theta[wsl].reshape(wshape) + theta[bsl]
        if i < len(spec.layout) - 1:
            h = np.tanh(h) if spec.activation == "tanh" else np.maximum(h, 0)
    return h[:, 1] - h[:, 0] if spec.output_dim == 2 else h[:, 0]


def _boundary_logit(spec, theta, x):
    out = md.forward(spec, theta, x)
    return out[:, 1] - out[:, 0] if out.ndim == 2 else out


@pytest.mark.parametrize("kind", ["linear1", "linear2", "tanh", "relu"])
def test_logit_interval_holds_at_points_of_each_box(kind):
    # 30 boxes a case, 4 corners, 4 edge midpoints and 12 random interior
    # points a box; boxes near the origin and offset to 1e6, of half-widths
    # 1e-4 .. 10
    rng = np.random.default_rng({"linear1": 21, "linear2": 22, "tanh": 23, "relu": 24}[kind])
    extended = np.finfo(np.longdouble).eps < 1e-18
    unit = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1], [0, -1], [1, 0], [0, 1], [-1, 0]])
    for offset in (0.0, 1e6):
        for _ in range(10):
            spec, theta = _random_checkpoint(rng, kind)
            mid = offset * rng.choice([-1.0, 1.0], 2)
            mid = mid + rng.uniform(-1, 1, (30, 2)) * 10.0 ** rng.uniform(-2, 2)
            half = 10.0 ** rng.uniform(-4, 1, (30, 2))
            low, high = md._logit_interval(spec, theta, mid - half, mid + half)
            assert np.isfinite(low).all() and np.isfinite(high).all() and (low <= high).all()
            steps = np.concatenate([np.broadcast_to(unit, (30, 8, 2)),
                                    rng.uniform(-1, 1, (30, 12, 2))], axis=1)
            pts = (mid[:, None] + steps * half[:, None]).reshape(-1, 2)
            # rounding may leave a point outside its box by an ulp: clip it in
            pts = np.clip(pts, np.repeat(mid - half, 20, 0), np.repeat(mid + half, 20, 0))
            lo_k, hi_k = np.repeat(low, 20), np.repeat(high, 20)
            f = _boundary_logit(spec, theta, pts)
            assert np.all((lo_k <= f) & (f <= hi_k))
            if extended:
                f = _longdouble_logit(spec, theta, pts)
                assert np.all((lo_k <= f) & (f <= hi_k))
            if kind.startswith("linear"):  # the exact range, widened by rounding alone
                k = spec.output_dim
                w, b = theta[:2 * k].reshape(2, k), theta[2 * k:]
                a = (np.abs(mid) + half) @ np.abs(w).sum(1) + np.abs(b).sum()
                w, b = (w[:, 0], b[0]) if k == 1 else (w[:, 1] - w[:, 0], b[1] - b[0])
                c, r = mid @ w + b, half @ np.abs(w)
                assert np.all(np.abs([low - (c - r), high - (c + r)]) <= 1e-13 * a)


def test_logit_interval_of_two_logits_covers_the_rounding_of_each():
    # logits near 1e8 whose difference is near 0.1: forward rounds each logit
    # by about 1e-8, far more than the difference column's terms allow
    spec = md.ModelSpec("linear", (2, 2))
    theta = np.array([1e8, 1e8 + 1e-3, -3e7, -3e7 + 2e-3, 5e7, 5e7 + 0.1])
    mid = np.random.default_rng(0).uniform(0.0, 1.0, (200, 2))
    low, high = md._logit_interval(spec, theta, mid, mid)
    f = _boundary_logit(spec, theta, mid)
    assert np.all((low <= f) & (f <= high)) and np.all(high - low < 1e-5)


def test_boundary_bound_certifies_nothing_where_a_layer_could_overflow():
    spec = md.ModelSpec("linear", (2, 1))
    for theta, radius in (([1e10, 1e10, 0.0], 1e300), ([1.0, 1.0, 1e308], 1.0)):
        box = np.full((1, 2), float(radius))
        low, high = md._logit_interval(spec, np.array(theta), -box, box)
        assert low.tolist() == [-np.inf] and high.tolist() == [np.inf]
    box = np.full((3, 2), 1e3)
    spec, theta = _mlp((2, 8, 8, 2), "relu", 0)
    low, high = md._logit_interval(spec, theta * 1e120, -box, box)
    assert (low == -np.inf).all() and (high == np.inf).all()
    low, high = md._logit_interval(spec, theta * 1e80, -box, box)
    assert np.isfinite(low).all() and np.isfinite(high).all()
    # tanh maps an overflowing first layer's ends +-inf to +-1
    spec, theta = _mlp((2, 8, 1), "tanh", 0)
    low, high = md._logit_interval(spec, theta * 1e300, -box * 1e10, box * 1e10)
    assert (low == -np.inf).all() and (high == np.inf).all()


def test_boundary_svg_calls_no_lapack_routine_and_imports_no_module():
    # a first np.linalg.norm(w, 2) maps LAPACK's pages and a first np.unique
    # imports numpy.ma: a fresh interpreter sees both
    script = """
import sys
import numpy as np
try:
    import numpy.linalg._linalg as linalg
except ImportError:  # numpy < 2
    import numpy.linalg.linalg as linalg
from condvar import models as md
from condvar.data import Dataset
from condvar.plotting import decision_boundary_svg

class NoLapack:
    def __getattr__(self, name):
        raise AssertionError(f"LAPACK routine {name} called")

linalg._umath_linalg = NoLapack()
ds = Dataset(np.random.default_rng(0).standard_normal((50, 2)), np.arange(50) % 2)
checkpoints = [(md.ModelSpec("linear", (2, 2)), np.array([0.4, 1.0, -0.3, 0.5, 0.2, 0.1]))]
for sizes in ((2, 16, 16, 1), (2, 8, 2)):
    spec = md.ModelSpec("mlp", sizes)
    checkpoints.append((spec, md.init_params(spec, 1)))
before = set(sys.modules)
decision_boundary_svg(ds, checkpoints)
print(sorted(set(sys.modules) - before))
"""
    src = Path(plotting.__file__).parents[1]
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout == "[]\n"
