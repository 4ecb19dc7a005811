"""Deterministic SVG scatter plots with zero-logit decision boundaries.

SVG is written by hand so the bytes depend only on the inputs: samples
colored by class, grouped pairs joined by segments, and one traced contour
per checkpoint (marching squares on a 400 x 400 logit grid).
"""

from __future__ import annotations

import numpy as np

from . import models as md
from .data import Dataset, build_group_index

__all__ = ["decision_boundary_svg", "zero_contour_segments"]

_CLASS_COLORS = ["#1f4e9c", "#d1372c", "#2c8c4b", "#8c2cb5", "#b58a2c"]
_BOUNDARY_COLORS = ["#000000", "#e69f00", "#56b4e9", "#009e73", "#cc79a7"]
_GRID = 400
_WIDTH = _HEIGHT = 640    # pixels
_MAX_POINTS = 2000        # samples drawn, evenly spaced by index
# cell corner offsets in marching order: (0,0), (1,0), (1,1), (0,1) as (ix, iy)
_CORNER_DX = np.array([0, 1, 1, 0])
_CORNER_DY = np.array([0, 0, 1, 1])


def zero_contour_segments(grid_vals: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Marching squares on ``grid_vals[iy, ix]``: line segments of the zero
    level set, with crossings linearly interpolated along cell edges.

    Returns an (s, 2, 2) array of segments ``[[x0, y0], [x1, y1]]``. Cells
    come in row-major order; a cell's crossings are taken along its edges
    bottom, right, top, left (corners (ix, iy) -> (ix+1, iy) -> (ix+1, iy+1)
    -> (ix, iy+1) -> back), and its first two crossings form its segment.
    A saddle cell (four crossings) adds the segment of its last two,
    directly after the first. A corner counts as inside when its value is
    > 0, so NaN and exact zeros count as outside.
    """
    vals = np.asarray(grid_vals)
    xs, ys = np.asarray(xs), np.asarray(ys)
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


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def decision_boundary_svg(dataset: Dataset, checkpoints: list, labels: list | None = None) -> str:
    """SVG scatter of a 2-d dataset with one decision boundary per
    (spec, theta) checkpoint. Grouped pairs are joined by grey segments.

    ``checkpoints`` is a list of (ModelSpec, theta) tuples; ``labels`` names
    them in the legend. Raises on non-2-d data.
    """
    if dataset.p != 2:
        raise ValueError(f"plotting needs 2-d features, got p = {dataset.p}")
    if labels is None:
        labels = [f"model {k}" for k in range(len(checkpoints))]
    if len(labels) != len(checkpoints):
        raise ValueError("need one label per checkpoint")
    feats = dataset.features
    lab = dataset.labels
    lo = feats.min(axis=0)
    hi = feats.max(axis=0)
    pad = 0.08 * np.maximum(hi - lo, 1e-9)
    lo, hi = lo - pad, hi + pad

    def to_px(pt):
        x = (pt[0] - lo[0]) / (hi[0] - lo[0]) * (_WIDTH - 20) + 10
        y = _HEIGHT - ((pt[1] - lo[1]) / (hi[1] - lo[1]) * (_HEIGHT - 20) + 10)
        return x, y

    # deterministic thinning: evenly spaced sample indices
    if len(dataset) > _MAX_POINTS:
        keep = np.linspace(0, len(dataset) - 1, _MAX_POINTS).astype(int)
    else:
        keep = np.arange(len(dataset))
    keep_set = set(int(i) for i in keep)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    # grouped pairs first so markers draw on top
    gi = build_group_index(dataset)
    for g in gi.nontrivial():
        if not any(int(i) in keep_set for i in g):
            continue
        pts = [to_px(feats[i]) for i in g]
        for a, b in zip(pts[:-1], pts[1:]):
            parts.append(
                f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" '
                f'y2="{_fmt(b[1])}" stroke="#999999" stroke-width="0.8"/>'
            )
    for i in keep:
        x, y = to_px(feats[i])
        color = _CLASS_COLORS[lab[i] % len(_CLASS_COLORS)]
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="1.6" fill="{color}" fill-opacity="0.55"/>')

    xs = np.linspace(lo[0], hi[0], _GRID)
    ys = np.linspace(lo[1], hi[1], _GRID)
    gx, gy = np.meshgrid(xs, ys)
    grid_pts = np.column_stack([gx.ravel(), gy.ravel()])
    for k, (spec, theta) in enumerate(checkpoints):
        logits = np.asarray(md.forward(spec, theta, grid_pts))
        if logits.ndim == 2:
            if logits.shape[1] != 2:
                raise ValueError("boundary plots support single-logit or two-class models")
            vals = (logits[:, 1] - logits[:, 0]).reshape(_GRID, _GRID)
        else:
            vals = logits.reshape(_GRID, _GRID)
        color = _BOUNDARY_COLORS[k % len(_BOUNDARY_COLORS)]
        for a, b in zero_contour_segments(vals, xs, ys):
            pa, pb = to_px(a), to_px(b)
            parts.append(
                f'<line x1="{_fmt(pa[0])}" y1="{_fmt(pa[1])}" x2="{_fmt(pb[0])}" '
                f'y2="{_fmt(pb[1])}" stroke="{color}" stroke-width="1.4"/>'
            )
    for k, text in enumerate(labels):
        color = _BOUNDARY_COLORS[k % len(_BOUNDARY_COLORS)]
        y = 18 + 16 * k
        parts.append(f'<line x1="12" y1="{y - 4}" x2="34" y2="{y - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="40" y="{y}" font-family="monospace" font-size="12">{_esc(text)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
