import numpy as np
import pytest

from condvar import models as md
from condvar.data import Dataset
from condvar.plotting import decision_boundary_svg, zero_contour_segments


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
    return Dataset(feats, labels, ids, 2)


def _boundary_lines(svg):
    return svg.count('stroke-width="1.4"')


def test_boundary_svg_two_class_softmax_draws_boundary():
    spec = md.ModelSpec("linear", (2, 2))
    theta = np.array([0.0, 1.0, 0.0, 0.5, 0.0, 0.1])  # logit 1 - logit 0 = x0 + 0.5 x1 + 0.1
    svg = decision_boundary_svg(_scatter_dataset(), [(spec, theta)], ["softmax"])
    assert _boundary_lines(svg) >= 1


def test_boundary_svg_rejects_three_classes():
    spec = md.ModelSpec("linear", (2, 3))
    theta = md.init_params(spec, 0)
    with pytest.raises(ValueError, match="boundary plots support single-logit or two-class models"):
        decision_boundary_svg(_scatter_dataset(), [(spec, theta)])


def test_boundary_svg_rejects_label_count_mismatch():
    spec = md.ModelSpec("linear", (2, 1))
    theta = md.init_params(spec, 0)
    with pytest.raises(ValueError, match="one label per checkpoint"):
        decision_boundary_svg(_scatter_dataset(), [(spec, theta)], ["a", "b"])
    with pytest.raises(ValueError, match="one label per checkpoint"):
        decision_boundary_svg(_scatter_dataset(), [(spec, theta), (spec, theta)], ["a"])
