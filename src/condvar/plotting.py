"""Deterministic SVG scatter plots with zero-logit decision boundaries.

SVG is written by hand so the bytes depend only on the inputs: samples
colored by class, grouped pairs joined by segments, and one traced contour
per checkpoint (marching squares on a 400 x 400 logit grid).

The grid indices 0, 8, ..., 392 and 399 cut the grid into 50 x 50 blocks.
A block whose box has a logit range without 0 (``models._logit_interval``)
keeps its sign, written in with no model call; every point of any other
block goes through ``models.forward``, <= ``models._chunk`` grid rows a
stack (the polar example at seed 11: 6 128 of 160 000 points). A cell whose
sign changes lies in an unsettled block, and a logit does not depend on the
points evaluated beside it, so the bytes are the full grid's; the tests pin
them at stacks of 1, 7 and 400 rows.
"""

from __future__ import annotations

import numpy as np

from . import models as md
from .data import Dataset, DataFormatError, build_group_index

__all__ = ["decision_boundary_svg", "zero_contour_segments"]

_CLASS_COLORS = ["#1f4e9c", "#d1372c", "#2c8c4b", "#8c2cb5", "#b58a2c"]
_BOUNDARY_COLORS = ["#000000", "#e69f00", "#56b4e9", "#009e73", "#cc79a7"]
_GRID = 400
_WIDTH = _HEIGHT = 640    # pixels
_MAX_POINTS = 2000        # samples drawn, evenly spaced by index
# cell corner offsets in marching order: (0,0), (1,0), (1,1), (0,1) as (ix, iy)
_CORNER_DX = np.array([0, 1, 1, 0])
_CORNER_DY = np.array([0, 0, 1, 1])
_BLOCK = 8                # grid cells a block side: 50 x 50 blocks, the last 7 cells wide
_EDGES = np.r_[0:_GRID:_BLOCK, _GRID - 1]     # block edges 0, 8, ..., 392, 399


def zero_contour_segments(grid_vals: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Marching squares on ``grid_vals[iy, ix]``: line segments of the zero
    level set, with crossings linearly interpolated along cell edges.

    Returns an (s, 2, 2) array of segments ``[[x0, y0], [x1, y1]]``. Cells
    come in row-major order; a cell's crossings are taken along its edges
    bottom, right, top, left (corners (ix, iy) -> (ix+1, iy) -> (ix+1, iy+1)
    -> (ix, iy+1) -> back), and its first two crossings form its segment.
    A saddle cell (four crossings) adds the segment of its last two,
    directly after the first. A corner counts as inside when its value is
    > 0, so NaN and exact zeros count as outside. A grid_vals that is not
    2-d, at least 2 x 2 and of shape (len(ys), len(xs)) raises ValueError.
    """
    vals = np.asarray(grid_vals)
    xs, ys = np.asarray(xs), np.asarray(ys)
    if vals.ndim != 2 or min(vals.shape) < 2 or vals.shape != ys.shape + xs.shape:
        raise ValueError(f"grid_vals of shape {vals.shape} must be 2-d, at least 2 x 2 and "
                         f"of shape (len(ys), len(xs)): ys has shape {ys.shape}, xs {xs.shape}")
    pos = vals > 0.0
    cut = np.stack([
        pos[:-1, :-1] != pos[:-1, 1:],   # bottom
        pos[:-1, 1:] != pos[1:, 1:],     # right
        pos[1:, 1:] != pos[1:, :-1],     # top
        pos[1:, :-1] != pos[:-1, :-1],   # left
    ], axis=-1)
    # a closed cycle of four corners changes sign 0, 2 or 4 times, so the
    # crossings, cell by cell and edge by edge, pair up into segments
    cell, edge = np.divmod(np.flatnonzero(cut), 4)
    iy, ix = np.divmod(cell, vals.shape[1] - 1)
    iy0, ix0 = iy + _CORNER_DY[edge], ix + _CORNER_DX[edge]
    iy1, ix1 = iy + _CORNER_DY[(edge + 1) % 4], ix + _CORNER_DX[(edge + 1) % 4]
    v0, v1 = vals[iy0, ix0], vals[iy1, ix1]
    t = v0 / (v0 - v1)
    x = xs[ix0] + t * (xs[ix1] - xs[ix0])
    y = ys[iy0] + t * (ys[iy1] - ys[iy0])
    return np.stack([x, y], axis=-1).reshape(-1, 2, 2)


def decision_boundary_svg(dataset: Dataset, checkpoints: list, labels: list | None = None) -> str:
    """SVG scatter of a 2-d dataset with one decision boundary per
    (spec, theta) checkpoint. Grouped pairs are joined by grey segments.

    ``checkpoints`` is a list of (ModelSpec, theta) tuples; ``labels`` names
    them in the legend. Raises DataFormatError on non-2-d data; ValueError
    on a label count other than the checkpoint count and, before evaluating
    any model, on a checkpoint with more than two outputs; ArithmeticError
    when the padded span of the data overflows the float range or a traced
    boundary is not finite.
    """
    if dataset.p != 2:
        raise DataFormatError(f"plotting needs 2-d features, got p = {dataset.p}")
    if labels is None:
        labels = [f"model {k}" for k in range(len(checkpoints))]
    if len(labels) != len(checkpoints):
        raise ValueError("need exactly one label per checkpoint")
    if any(spec.output_dim > 2 for spec, _theta in checkpoints):
        raise ValueError("boundary plots support single-logit or two-class models")
    feats = dataset.features
    lo = feats.min(axis=0)
    hi = feats.max(axis=0)
    with np.errstate(over="ignore"):  # an overflow is the inf tested below
        pad = 0.08 * np.maximum(hi - lo, 1e-9)
        lo, hi = lo - pad, hi + pad
        span = hi - lo
    if not np.isfinite(span).all():
        raise ArithmeticError("the padded feature span overflows the float range")

    def to_px(pts):  # (..., 2) data coordinates -> (..., 2) pixel coordinates
        px = (pts - lo) / span * np.array([_WIDTH - 20, _HEIGHT - 20]) + 10
        px[..., 1] = _HEIGHT - px[..., 1]
        return px

    def lines(segs, stroke, width):  # (s, 2, 2) data-coordinate segments -> <line> tags
        return [f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="{stroke}" stroke-width="{width}"/>'
                for x1, y1, x2, y2 in to_px(segs).reshape(-1, 4).tolist()]

    # deterministic thinning: evenly spaced sample indices
    if len(dataset) > _MAX_POINTS:
        keep = np.linspace(0, len(dataset) - 1, _MAX_POINTS).astype(int)
    else:
        keep = np.arange(len(dataset))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    # grouped pairs first so markers draw on top: in each group with a drawn
    # sample, every member is joined to the next one in index order
    gi = build_group_index(dataset)
    drawn = np.zeros(gi.m, dtype=bool)
    drawn[gi.seg[keep]] = True
    a, b = gi.members[:-1], gi.members[1:]
    link = (gi.seg[a] == gi.seg[b]) & drawn[gi.seg[a]]
    parts += lines(np.stack([feats[a[link]], feats[b[link]]], axis=1), "#999999", "0.8")
    for (x, y), label in zip(to_px(feats[keep]).tolist(), dataset.labels[keep].tolist()):
        color = _CLASS_COLORS[label % len(_CLASS_COLORS)]
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.6" fill="{color}" fill-opacity="0.55"/>')

    xs = np.linspace(lo[0], hi[0], _GRID)
    ys = np.linspace(lo[1], hi[1], _GRID)
    vals, rows = np.empty((_GRID, _GRID)), md._chunk(_GRID, 2)
    for k, (spec, theta) in enumerate(checkpoints):
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite boundary raises below
            _fill_grid(vals, spec, theta, xs, ys, rows)
            segs = zero_contour_segments(vals, xs, ys)
        if not np.isfinite(segs).all():  # a cell whose corners are +inf and -inf, or NaN
            raise ArithmeticError(f"the decision boundary of {labels[k]!r} is not finite "
                                  "(its grid logits overflow)")
        color = _BOUNDARY_COLORS[k % len(_BOUNDARY_COLORS)]
        parts += lines(segs, color, "1.4")
    for k, text in enumerate(labels):
        color = _BOUNDARY_COLORS[k % len(_BOUNDARY_COLORS)]
        y = 18 + 16 * k
        parts.append(f'<line x1="12" y1="{y - 4}" x2="34" y2="{y - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="40" y="{y}" font-family="monospace" font-size="12">{_esc(text)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _fill_grid(vals: np.ndarray, spec, theta, xs: np.ndarray, ys: np.ndarray, rows: int):
    """Write the boundary logit at each point of an unsettled block into ``vals``
    and the settled sign at every other, evaluating <= ``rows`` grid rows a stack."""
    boxes = [np.stack(np.meshgrid(xs[e], ys[e]), -1).reshape(-1, 2)
             for e in (_EDGES[:-1], _EDGES[1:])]  # each block's low and high corner
    low, high = (v.reshape(len(_EDGES) - 1, -1) for v in md._logit_interval(spec, theta, *boxes))
    sure = (low > 0.0) | (high < 0.0)
    # point and cell (8 j + a, 8 i + b) lie in block (j, i), a shared edge in either
    vals.reshape(len(sure), _BLOCK, -1, _BLOCK)[...] = np.sign(low)[:, None, :, None]
    cells = np.pad(~np.repeat(np.repeat(sure, _BLOCK, 0), _BLOCK, 1)[:-1, :-1], 1)
    need = cells[1:, 1:] | cells[1:, :-1] | cells[:-1, 1:] | cells[:-1, :-1]  # their corners
    for r in range(0, _GRID, rows):
        iy, ix = np.nonzero(need[r:r + rows])
        if len(iy):
            out = md.forward(spec, theta, np.column_stack([xs[ix], ys[r + iy]]))
            vals[r + iy, ix] = out[:, 1] - out[:, 0] if out.ndim == 2 else out


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
