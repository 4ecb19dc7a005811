"""Synthetic data from an anti-causal structural model with style latents.

The sampling order is Y -> ID -> (core, style) -> X. Core latents are a
deterministic function of (Y, ID); style latents get fresh noise per
observation, so observations sharing (Y, ID) differ only in style. Latents
are retained to re-render features under shifted style. ``_chol`` checks
and factors every style covariance, the spec's and every probe's, and
``_render_vjp`` pulls a loss gradient back through ``_render`` to the style.

Two 2-d teaching generators are included: one where style acts along a
fixed linear direction, and one where style is the polar angle. Every
generator takes a test domain's shift the same way: one number added to
each style coordinate of each class-1 sample.

The latent sidecar is one line of standard JSON (``data._json_text``): the
generator and its parameters, the render kind, core and style latents as
one list per row, a linear render's matrices and any SCM spec.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import (Dataset, DataFormatError, _integer, _json_text, _natural, _reading, _real,
                   _reals, _write_text)

__all__ = [
    "LinearScmSpec",
    "StyleAwareDataset",
    "sample_linear_scm",
    "gen_example1",
    "gen_example2",
    "rerender",
    "save_latents",
    "load_style_dataset",
    "EXAMPLE1_STYLE_DIRECTION",
]

# style direction of the linear teaching example, normalized (1, -0.75)
EXAMPLE1_STYLE_DIRECTION = np.array([0.8, -0.6])
_EXAMPLE1_CORE_DIRECTION = np.array([0.6, 0.8])


def _chol(sigma, q: int, name: str = "sigma") -> tuple:
    """(Sigma, L): the one check, for every given or spec Sigma, that it is a symmetric
    (to ``np.allclose``) positive definite q x q matrix of reals (``data._reals``), else
    ValueError naming it; Sigma as checked and its lower Cholesky factor, Sigma = L L^T."""
    with suppress(ValueError):  # np.linalg.LinAlgError is a ValueError
        if (sigma := _reals(sigma, 2)).shape == (q, q) and np.allclose(sigma, sigma.T):
            return sigma, np.linalg.cholesky(sigma)
    raise ValueError(f"{name} must be a symmetric positive definite {q} x {q} matrix")


@dataclass(frozen=True)
class LinearScmSpec:
    """Partially linear model: X = C core + W style.

    p, q, r          feature, style and core dimensions (r + q <= p)
    class_balance    P(Y = +1); Y takes values in {-1, +1}
    id_count         ids per class; the id sampler draws from this pool
    id_sampler       'uniform' (collisions create groups) or 'round_robin'
                     (equal group sizes n / (2 id_count) per class)
    core_class_mean  core latent mean is  y * core_class_mean * e_1
    core_id_scale    sd of the per-(y, id) deterministic core offset
    style_class_mean style latent mean is y * style_class_mean (length q)
    style_cov        within-(Y, ID) style noise covariance, q x q SPD
    structure_seed   seeds the jointly orthonormal C (p x r) and W (p x q)
    """

    p: int
    q: int
    r: int
    class_balance: float = 0.5
    id_count: int = 1000
    id_sampler: str = "uniform"
    core_class_mean: float = 1.5
    core_id_scale: float = 0.25
    style_class_mean: tuple = (1.0,)
    style_cov: tuple = ((1.0,),)
    structure_seed: int = 0

    def __post_init__(self):
        for name in ("p", "q", "r", "id_count"):
            object.__setattr__(self, name, _integer(getattr(self, name)))
        object.__setattr__(self, "structure_seed", _natural("structure_seed", self.structure_seed))
        for name in ("class_balance", "core_class_mean", "core_id_scale"):
            value = _real(name, getattr(self, name), "a finite real number", lambda v: True)
            object.__setattr__(self, name, value)
        mean = _reals(self.style_class_mean, 1, refusal=ValueError(
            "style_class_mean must be a list of finite real numbers, "
            f"got {self.style_class_mean!r}"))
        object.__setattr__(self, "style_class_mean", tuple(mean.tolist()))
        if self.r + self.q > self.p:
            raise ValueError("core and style dimensions exceed the feature dimension")
        if self.q < 1 or self.r < 1:
            raise ValueError("q and r must be positive")
        if len(self.style_class_mean) != self.q:
            raise ValueError("style_class_mean must have length q")
        sigma, _ = _chol(self.style_cov, self.q, "style_cov")
        object.__setattr__(self, "style_cov", tuple(map(tuple, sigma.tolist())))
        if self.id_count < 1:
            raise ValueError(f"id_count must be >= 1, got {self.id_count}")
        if self.id_sampler not in ("uniform", "round_robin"):
            raise ValueError(f"unknown id sampler {self.id_sampler!r}")
        if not 0.0 < self.class_balance < 1.0:
            raise ValueError("class_balance must lie strictly between 0 and 1")

    def matrices(self):
        """Jointly orthonormal embeddings (C, W); W has full column rank q."""
        rng = np.random.default_rng(self.structure_seed)
        a = rng.standard_normal((self.p, self.r + self.q))
        q_mat, _ = np.linalg.qr(a)
        return q_mat[:, :self.r], q_mat[:, self.r:self.r + self.q]

    def core_latent(self, y_pm: int, ident: int) -> np.ndarray:
        """Deterministic k_core(y, id): class mean plus a hash-seeded offset."""
        base = np.zeros(self.r)
        base[0] = self.core_class_mean * y_pm
        rng = np.random.default_rng([self.structure_seed, 7919, int(y_pm) + 2, int(ident)])
        return base + self.core_id_scale * rng.standard_normal(self.r)

    @staticmethod
    def from_dict(d: dict) -> "LinearScmSpec":
        return LinearScmSpec(**{f.name: d[f.name] for f in fields(LinearScmSpec)})


@dataclass
class StyleAwareDataset:
    """A Dataset plus the latents and render map needed to re-render it."""

    dataset: Dataset
    core: np.ndarray        # (n, r) core latents (radius for the polar render)
    style: np.ndarray       # (n, q) style latents as rendered
    render_kind: str        # 'linear' or 'polar'
    core_matrix: np.ndarray | None = None   # C for the linear render
    style_matrix: np.ndarray | None = None  # W for the linear render
    scm: LinearScmSpec | None = None
    generator: str = "custom"
    generator_params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.core = np.asarray(self.core, dtype=float)
        self.style = np.asarray(self.style, dtype=float)
        n = len(self.dataset)
        if {self.core.ndim, self.style.ndim} != {2} or {len(self.core), len(self.style)} != {n}:
            raise ValueError(f"latents must be (n, r) and (n, q) arrays with n = {n}")
        if self.render_kind not in ("linear", "polar"):
            raise ValueError(f"unknown render kind {self.render_kind!r}")
        if self.render_kind == "linear" and (self.core_matrix is None or self.style_matrix is None):
            raise ValueError("linear renders need core and style matrices")
        r = self.core.shape[1]
        if self.render_kind == "polar" and (r, self.q) != (1, 1):
            raise ValueError(f"a polar render takes r = q = 1, not r = {r}, q = {self.q}")
        widths = (self.dataset.p, self.q, r)
        if self.scm is not None and (self.scm.p, self.scm.q, self.scm.r) != widths:
            raise ValueError(f"the spec's (p, q, r) must be the data's widths {widths}")

    @property
    def q(self) -> int:
        return self.style.shape[1]

    def render(self, style: np.ndarray) -> np.ndarray:
        """Features for the stored cores under the given style latents:
        (n, p) for style (n, q), and (K, n, p) for a stack (K, n, q) of K
        candidate styles, whose core term is computed once."""
        return _render(self.render_kind, self.core, style,
                       self.core_matrix, self.style_matrix)


def _render(kind, core, style, core_matrix, style_matrix) -> np.ndarray:
    if kind == "linear":
        feats = style @ style_matrix.T
        feats += core @ core_matrix.T  # in place: no second (K, n, p) buffer
        return feats
    radius = core[:, 0]
    angle = style[..., 0]
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)


def _render_vjp(style_dataset, features, gx) -> np.ndarray:
    """d loss / d style from gx = d loss / d features at ``features``: gx W
    for a linear render (any gx shape, features unread); for the polar one,
    d x / d angle = r (-sin a, cos a) = (-x_1, x_0), into style coordinate 0."""
    if style_dataset.render_kind == "linear":
        return gx @ style_dataset.style_matrix
    out = np.zeros((len(gx), style_dataset.q))
    out[:, 0] = gx[:, 1] * features[:, 0] - gx[:, 0] * features[:, 1]
    return out


def _checked_shift(shift, n: int, q: int) -> np.ndarray:
    """``shift`` as a (1, q) or (n, q) float array that adds onto n samples'
    (n, q) style latents: one length-q shift for every sample, or an (n, q) array,
    of finite real numbers (``data._reals``); anything else raises ValueError naming it."""
    for ndim in (2, 1):  # an (n, q) array, else one length-q shift
        with suppress(ValueError):
            shift = _reals(shift, ndim)
            break
    else:
        raise ValueError(f"a shift must be finite real numbers of shape ({q},) or ({n}, {q})")
    if shift.shape not in ((q,), (n, q)):
        raise ValueError(f"a shift must have shape ({q},) or ({n}, {q}), got {shift.shape}")
    return shift.reshape(-1, q)


def rerender(style_dataset: StyleAwareDataset, shift) -> Dataset:
    """Re-render features with style latents shifted by ``shift``
    (``_checked_shift``); labels and ids are unchanged."""
    ds = style_dataset.dataset
    delta = _checked_shift(shift, len(ds), style_dataset.q)
    return Dataset(style_dataset.render(style_dataset.style + delta), ds.labels, ds.ids)


def sample_linear_scm(spec: LinearScmSpec, n: int, seed: int,
                      shift: float = 0.0) -> StyleAwareDataset:
    """Ancestral sampling from the partially linear model. Groups arise when
    the same (Y, ID) pair is drawn more than once. ``shift`` is added to
    every style coordinate of every class-1 sample, the teaching examples'
    test-split rule; every argument is judged before the first draw."""
    shift = _real("shift", shift, "finite", lambda v: True)
    if (n := _integer(n)) < 1:
        raise ValueError("need n >= 1")
    seed = _natural("seed", seed)
    rng = np.random.default_rng(seed)
    c_mat, w_mat = spec.matrices()
    y_pm = np.where(rng.random(n) < spec.class_balance, 1, -1)
    labels = ((y_pm + 1) // 2).astype(int)
    if spec.id_sampler == "uniform":
        idents = rng.integers(0, spec.id_count, size=n)
    else:
        # the k-th sample of each class gets id k mod id_count
        idents = np.empty(n, dtype=int)
        for cls in (0, 1):
            rows = labels == cls
            idents[rows] = np.arange(rows.sum()) % spec.id_count
    keys, inverse = np.unique(np.column_stack([y_pm, idents]), axis=0, return_inverse=True)
    core = np.array([spec.core_latent(int(y), int(i)) for y, i in keys])[inverse.reshape(-1)]
    mean = np.outer(y_pm, np.asarray(spec.style_class_mean))
    noise = rng.standard_normal((n, spec.q)) @ _chol(spec.style_cov, spec.q)[1].T
    # added even at 0, so a -0.0 sum reads +0.0 whatever the shift
    style = mean + noise + np.where(labels == 1, shift, 0.0)[:, None]
    ids = [f"i{int(ident)}" for ident in idents]
    feats = _render("linear", core, style, c_mat, w_mat)
    return StyleAwareDataset(
        dataset=Dataset(feats, labels, ids),
        core=core,
        style=style,
        render_kind="linear",
        core_matrix=c_mat,
        style_matrix=w_mat,
        scm=spec,
        generator="linear_scm",
        generator_params={"n": n, "seed": seed,
                          "intervention": "none" if shift == 0.0 else "per_class_shift"},
    )


# ---- the two teaching examples ----------------------------------------------

# class centers at (0, +/-1.2); isotropic sd 0.25 split between the core
# direction (0.6, 0.8) and the style direction (0.8, -0.6); isotropy makes
# the pooled boundary horizontal, i.e. reliant on the style coordinate
_EXAMPLE1 = {"center": 1.2, "core_sd": 0.25, "style_sd": 0.25}
_EXAMPLE2 = {
    "radius0": 1.0,
    "radius1": 2.0,
    "radius_sd": 0.1,
    # class 0 angles fill the lower half circle, class 1 the upper half
    "angle0_low": -np.pi, "angle0_high": 0.0,
    "angle1_low": 0.0, "angle1_high": np.pi,
}


def gen_example1(n: int, c: int, test_shift: float = 4.0, seed: int = 0):
    """Two 2-d Gaussian classes whose style direction is (1, -0.75)/|.|.

    Returns (train, test). The training classes are separated along the
    vertical axis, which mixes the core and style directions, so a pooled
    fit leans on style. In the test split the style coordinate of class 1
    is shifted by ``test_shift``, carrying that class across any boundary
    with a style component. c sample pairs share (Y, ID): same core
    coordinate, independently redrawn style.
    """
    center, style_sd = _EXAMPLE1["center"], _EXAMPLE1["style_sd"]
    return _gen_paired(
        "example1", _EXAMPLE1, n, c, test_shift, seed,
        # the projections of (0, center) on the core and the style direction
        core_mean=lambda y_pm: y_pm * (0.8 * center),
        core_sd=_EXAMPLE1["core_sd"],
        draw_style=lambda rng, y_pm: (y_pm * (-0.6 * center)
                                      + style_sd * rng.standard_normal(len(y_pm))),
        render_kind="linear", core_matrix=_EXAMPLE1_CORE_DIRECTION[:, None],
        style_matrix=EXAMPLE1_STYLE_DIRECTION[:, None],
    )


def gen_example2(n: int, c: int, test_shift: float = np.pi, seed: int = 0):
    """Concentric classes: radius separates them, the polar angle is style.

    Training angles live on class-specific half circles, so the sign of the
    vertical coordinate is the easy (style) feature. The test split rotates
    class-1 angles by ``test_shift`` (default pi). c pairs share (Y, ID) and
    radius while their angles are drawn independently.
    """
    par = _EXAMPLE2

    def angles(rng, y_pm):
        up = y_pm == 1
        return rng.uniform(np.where(up, par["angle1_low"], par["angle0_low"]),
                           np.where(up, par["angle1_high"], par["angle0_high"]))

    return _gen_paired(
        "example2", par, n, c, test_shift, seed,
        core_mean=lambda y_pm: np.where(y_pm == 1, par["radius1"], par["radius0"]),
        core_sd=par["radius_sd"], draw_style=angles, render_kind="polar",
    )


def _gen_paired(name, params, n, c, test_shift, seed, core_mean, core_sd, draw_style,
                render_kind, core_matrix=None, style_matrix=None) -> tuple:
    """(train, test) of a 2-d teaching example, drawn from seeds seed and
    seed + 1 in one order: the +-1 labels, then one core value
    core_mean(y) + core_sd * z per single and per pair (the n - 2c singles
    come first, then c pairs that share (Y, ID) and their core value), then
    draw_style(rng, y) for every row. The test split shifts class 1's
    style by ``test_shift``. Every argument is judged before the first draw."""
    test_shift = _real("shift", test_shift, "finite", lambda v: True)
    n, c, seed = _integer(n), _integer(c), _natural("seed", seed)
    if not 0 <= 2 * c <= n:
        raise ValueError("need 0 <= c <= n / 2")
    n_single = n - 2 * c
    ids = [None] * n_single + [f"g{j}" for j in range(c) for _ in range(2)]
    extra = {"n": n, "c": c, "test_shift": test_shift, "seed": seed}
    splits = []
    for split_seed, shift in ((seed, 0.0), (seed + 1, test_shift)):
        rng = np.random.default_rng(split_seed)
        y_pm = np.concatenate([
            np.where(rng.random(n_single) < 0.5, 1, -1),
            np.repeat(np.where(rng.random(c) < 0.5, 1, -1), 2),
        ])
        mean = core_mean(y_pm)
        core = np.concatenate([
            mean[:n_single] + core_sd * rng.standard_normal(n_single),
            np.repeat(mean[n_single::2] + core_sd * rng.standard_normal(c), 2),
        ])[:, None]
        style = (draw_style(rng, y_pm) + np.where(y_pm == 1, shift, 0.0))[:, None]
        feats = _render(render_kind, core, style, core_matrix, style_matrix)
        splits.append(StyleAwareDataset(
            Dataset(feats, (y_pm + 1) // 2, ids), core, style, render_kind,
            core_matrix, style_matrix, generator=name,
            generator_params=dict(extra, applied_shift=shift, **params),
        ))
    return tuple(splits)


# ---- latent sidecar ---------------------------------------------------------

def _latents_text(style_dataset: StyleAwareDataset) -> str:
    payload = {
        "generator": style_dataset.generator,
        "generator_params": style_dataset.generator_params,
        "render_kind": style_dataset.render_kind,
        "core": style_dataset.core.tolist(),
        "style": style_dataset.style.tolist(),
    }
    if style_dataset.render_kind == "linear":
        payload["core_matrix"] = np.asarray(style_dataset.core_matrix, dtype=float).tolist()
        payload["style_matrix"] = np.asarray(style_dataset.style_matrix, dtype=float).tolist()
    if style_dataset.scm is not None:
        payload["scm"] = asdict(style_dataset.scm)
    # unindented, dumps runs the C encoder
    return _json_text(payload, indent=None)


def save_latents(style_dataset: StyleAwareDataset, path) -> None:
    """Write the latent sidecar, built before the file is opened: a non-finite
    value raises ValueError and leaves an existing file as it was."""
    _write_text(path, _latents_text(style_dataset))


def load_style_dataset(dataset: Dataset, path) -> StyleAwareDataset:
    """Reattach latents from a sidecar file to a loaded Dataset. A file that
    is not a sidecar, or one that does not re-render ``dataset``'s
    features, raises DataFormatError naming it."""
    with _reading(path, "latent sidecar"), open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
        kind = payload["render_kind"]
        ds = StyleAwareDataset(
            dataset=dataset,
            core=_reals(payload["core"], 2),
            style=_reals(payload["style"], 2),
            render_kind=kind,
            core_matrix=_reals(payload["core_matrix"], 2) if kind == "linear" else None,
            style_matrix=_reals(payload["style_matrix"], 2) if kind == "linear" else None,
            scm=LinearScmSpec.from_dict(payload["scm"]) if "scm" in payload else None,
            generator=payload.get("generator", "custom"),
            generator_params=payload.get("generator_params", {}),
        )
        recon = ds.render(ds.style)
    if recon.shape != dataset.features.shape or not np.allclose(
            recon, dataset.features, rtol=0, atol=1e-9):
        raise DataFormatError(f"{path}: latent sidecar does not reproduce the dataset features")
    return ds
