"""Synthetic data from an anti-causal structural model with style latents.

The sampling order is Y -> ID -> (core, style) -> X. Core latents are a
deterministic function of (Y, ID); style latents get fresh noise per
observation, so observations sharing (Y, ID) differ only in style. Latents
are retained so features can be re-rendered under shifted style, which is
what every robustness probe in this package consumes.

Two 2-d teaching generators are included: one where style acts along a
fixed linear direction, and one where style is the polar angle.

The latent sidecar is one line of standard JSON (``data._json_text``): the
generator and its parameters, the render kind, core and style latents as
one list per row, a linear render's matrices and any SCM spec. Its text is
built and parsed with the cyclic garbage collector paused: a JSON tree
holds no reference cycle, so reference counting frees all of it, and the
collections its 2n row lists would start could only scan it.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset, DataFormatError, _json_text, _write_text

__all__ = [
    "LinearScmSpec",
    "InterventionSpec",
    "StyleAwareDataset",
    "sample_linear_scm",
    "gen_example1",
    "gen_example2",
    "rerender",
    "expand_assignment",
    "save_latents",
    "load_style_dataset",
    "EXAMPLE1_STYLE_DIRECTION",
]

# style direction of the linear teaching example, normalized (1, -0.75)
EXAMPLE1_STYLE_DIRECTION = np.array([0.8, -0.6])
_EXAMPLE1_CORE_DIRECTION = np.array([0.6, 0.8])


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
        object.__setattr__(self, "style_class_mean",
                           tuple(float(v) for v in self.style_class_mean))
        object.__setattr__(self, "style_cov",
                           tuple(tuple(float(v) for v in row) for row in self.style_cov))
        if self.r + self.q > self.p:
            raise ValueError("core and style dimensions exceed the feature dimension")
        if self.q < 1 or self.r < 1:
            raise ValueError("q and r must be positive")
        if len(self.style_class_mean) != self.q:
            raise ValueError("style_class_mean must have length q")
        cov = np.asarray(self.style_cov)
        if cov.shape != (self.q, self.q):
            raise ValueError("style_cov must be q x q")
        if not np.allclose(cov, cov.T):
            raise ValueError("style_cov must be symmetric")
        if np.any(np.linalg.eigvalsh(cov) <= 0):
            raise ValueError("style_cov must be positive definite")
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
        rng = np.random.default_rng(
            [self.structure_seed & 0xFFFFFFFF, 7919, int(y_pm) + 2, int(ident)]
        )
        return base + self.core_id_scale * rng.standard_normal(self.r)

    @staticmethod
    def from_dict(d: dict) -> "LinearScmSpec":
        return LinearScmSpec(
            int(d["p"]), int(d["q"]), int(d["r"]),
            float(d["class_balance"]), int(d["id_count"]), d["id_sampler"],
            float(d["core_class_mean"]), float(d["core_id_scale"]),
            tuple(d["style_class_mean"]),
            tuple(tuple(row) for row in d["style_cov"]),
            int(d["structure_seed"]),
        )


@dataclass(frozen=True)
class InterventionSpec:
    """Shift applied to style latents at sampling time.

    kind 'none', or 'per_class_shift' (delta_by_class[label] added to the
    style of every sample with that label; equal rows shift every sample
    alike).
    """

    kind: str = "none"
    delta_by_class: tuple = ()   # (delta_for_label0, delta_for_label1, ...)

    def __post_init__(self):
        if self.kind not in ("none", "per_class_shift"):
            raise ValueError(f"unknown intervention kind {self.kind!r}")
        object.__setattr__(
            self, "delta_by_class",
            tuple(tuple(float(v) for v in d) for d in self.delta_by_class),
        )

    def draw(self, labels: np.ndarray, q: int) -> np.ndarray:
        if self.kind == "none":
            return np.zeros((len(labels), q))
        table = np.asarray(self.delta_by_class)
        if table.ndim != 2 or table.shape[1] != q:
            raise ValueError("per_class_shift needs one length-q delta per class")
        return table[labels]


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
        self.core = np.atleast_2d(np.asarray(self.core, dtype=float))
        self.style = np.atleast_2d(np.asarray(self.style, dtype=float))
        if self.core.shape[0] != len(self.dataset) or self.style.shape[0] != len(self.dataset):
            raise ValueError("latents must cover every sample")
        if self.render_kind not in ("linear", "polar"):
            raise ValueError(f"unknown render kind {self.render_kind!r}")
        if self.render_kind == "linear" and (self.core_matrix is None or self.style_matrix is None):
            raise ValueError("linear renders need core and style matrices")

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


def expand_assignment(assignment, n: int, q: int, group_index=None) -> np.ndarray:
    """Normalize a shift assignment to per-sample shape (n, q).

    Accepts a single length-q shift, an (n, q) per-sample array, or an
    (m, q) per-group array together with ``group_index``. When m == n the
    per-sample reading wins.
    """
    arr = np.asarray(assignment, dtype=float)
    if arr.ndim == 1:
        if arr.shape != (q,):
            raise ValueError(f"shift must have style dimension {q}")
        return np.tile(arr, (n, 1))
    if arr.shape == (n, q):
        return arr
    if group_index is not None and arr.shape == (group_index.m, q):
        return arr[group_index.seg]
    raise ValueError(f"cannot interpret assignment of shape {arr.shape}")


def rerender(style_dataset: StyleAwareDataset, assignment, group_index=None) -> Dataset:
    """Re-render features with style latents shifted by ``assignment``;
    labels and ids are unchanged."""
    n = len(style_dataset.dataset)
    delta = expand_assignment(assignment, n, style_dataset.q, group_index)
    feats = style_dataset.render(style_dataset.style + delta)
    ds = style_dataset.dataset
    return Dataset(feats, ds.labels, ds.ids, ds.n_classes)


def sample_linear_scm(spec: LinearScmSpec, n: int, intervention: InterventionSpec,
                      seed: int) -> StyleAwareDataset:
    """Ancestral sampling from the partially linear model. Groups arise when
    the same (Y, ID) pair is drawn more than once."""
    if n < 1:
        raise ValueError("need n >= 1")
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
    chol = np.linalg.cholesky(np.asarray(spec.style_cov))
    noise = rng.standard_normal((n, spec.q)) @ chol.T
    style = mean + noise + intervention.draw(labels, spec.q)
    ids = [f"i{int(ident)}" for ident in idents]
    feats = _render("linear", core, style, c_mat, w_mat)
    return StyleAwareDataset(
        dataset=Dataset(feats, labels, ids, n_classes=2),
        core=core,
        style=style,
        render_kind="linear",
        core_matrix=c_mat,
        style_matrix=w_mat,
        scm=spec,
        generator="linear_scm",
        generator_params={"n": n, "seed": seed, "intervention": intervention.kind},
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
    style by ``test_shift``."""
    if not 0 <= 2 * c <= n:
        raise ValueError("need 0 <= c <= n / 2")
    n_single = n - 2 * c
    ids = [None] * n_single + [f"g{j}" for j in range(c) for _ in range(2)]
    extra = {"n": n, "c": c, "test_shift": float(test_shift), "seed": seed}
    splits = []
    for split_seed, shift in ((seed, 0.0), (seed + 1, float(test_shift))):
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
            Dataset(feats, (y_pm + 1) // 2, ids, n_classes=2), core, style, render_kind,
            core_matrix, style_matrix, generator=name,
            generator_params=dict(extra, applied_shift=shift, **params),
        ))
    return tuple(splits)


# ---- latent sidecar ---------------------------------------------------------

@contextmanager
def _gc_paused():
    """Pause the cyclic collector; on exit, re-enable it only if it was on."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _latents_text(style_dataset: StyleAwareDataset) -> str:
    with _gc_paused():
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
        text = _json_text(payload, indent=None)
        del payload  # the row lists die inside the pause
    return text


def save_latents(style_dataset: StyleAwareDataset, path) -> None:
    """Write the latent sidecar, built before the file is opened: a non-finite
    value raises ValueError and leaves an existing file as it was."""
    _write_text(path, _latents_text(style_dataset))


def _read_latents(dataset: Dataset, path) -> StyleAwareDataset:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    kind = payload["render_kind"]
    return StyleAwareDataset(
        dataset=dataset,
        core=np.asarray(payload["core"], dtype=float),
        style=np.asarray(payload["style"], dtype=float),
        render_kind=kind,
        core_matrix=np.asarray(payload["core_matrix"]) if kind == "linear" else None,
        style_matrix=np.asarray(payload["style_matrix"]) if kind == "linear" else None,
        scm=LinearScmSpec.from_dict(payload["scm"]) if "scm" in payload else None,
        generator=payload.get("generator", "custom"),
        generator_params=payload.get("generator_params", {}),
    )


def load_style_dataset(dataset: Dataset, path) -> StyleAwareDataset:
    """Reattach latents from a sidecar file to a loaded Dataset. A file that
    is not a sidecar, or one that does not re-render ``dataset``'s
    features, raises DataFormatError naming it."""
    try:
        with _gc_paused():
            ds = _read_latents(dataset, path)  # the parsed payload dies inside the pause
        recon = ds.render(ds.style)
    except KeyError as exc:
        raise DataFormatError(f"{path}: latent sidecar lacks field {exc}") from None
    except (IndexError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed latent sidecar ({exc})") from None
    if recon.shape != dataset.features.shape or not np.allclose(
            recon, dataset.features, rtol=0, atol=1e-9):
        raise DataFormatError(f"{path}: latent sidecar does not reproduce the dataset features")
    return ds
