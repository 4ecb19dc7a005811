import ast
import json
import math
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from condvar import autodiff as ad
from condvar import models as md
from condvar.data import DataFormatError
from condvar.models import (
    ModelSpec,
    forward,
    init_params,
    load_checkpoint,
    param_count,
    per_sample_loss,
    save_checkpoint,
)
from condvar.penalties import PenaltyConfig


def test_linear_forward_dot_product():
    spec = ModelSpec("linear", (2, 1))
    theta = np.array([1.0, -0.75, 0.0])  # w, then bias
    assert forward(spec, theta, np.array([1.0, 1.0])[None])[0] == pytest.approx(0.25)


def test_zero_parameters_zero_logit():
    spec = ModelSpec("linear", (2, 1))
    theta = np.zeros(3)
    z = forward(spec, theta, np.array([3.0, -2.0])[None])[0]
    assert z == 0.0
    assert 1.0 / (1.0 + math.exp(-z)) == 0.5


def test_zero_mlp_gives_zero_logit():
    spec = ModelSpec("mlp", (2, 3, 1))
    theta = np.zeros(param_count(spec))
    assert forward(spec, theta, np.array([1.0, 2.0])[None])[0] == 0.0


def test_linear_logit_doubles_with_parameters():
    spec = ModelSpec("linear", (4, 1))
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(param_count(spec))
    x = rng.standard_normal(4)[None]
    assert forward(spec, 2.0 * theta, x)[0] == pytest.approx(2.0 * forward(spec, theta, x)[0],
                                                           rel=0, abs=1e-15)


def test_forward_dimension_mismatch():
    spec = ModelSpec("linear", (3, 1))
    with pytest.raises(ValueError):
        forward(spec, np.zeros(4), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        forward(spec, np.zeros(7), np.zeros((2, 3)))


# a budget of 37 rows gives blocks of 32; 97, 98 and 113 rows in them leave
# a lone row (taken by the last block), then last blocks of 2 and 17 rows
_BLOCKED_ROWS = {97: [32, 32, 33], 98: [32, 32, 32, 2], 113: [32, 32, 32, 17]}


@pytest.mark.parametrize("n", sorted(_BLOCKED_ROWS))
@pytest.mark.parametrize("kind,sizes,activation", [
    ("linear", (10, 1), "tanh"),
    ("mlp", (2, 16, 16, 1), "tanh"),
    ("mlp", (3, 9, 3), "relu"),
])
def test_forward_in_row_blocks_is_bitwise_one_pass(kind, sizes, activation, n, monkeypatch):
    spec = ModelSpec(kind, sizes, activation)
    rng = np.random.default_rng(n)
    theta = init_params(spec, 1) + 0.1 * rng.standard_normal(param_count(spec))
    x = rng.standard_normal((n, sizes[0]))
    want = forward(spec, theta, x)
    assert [s.stop - s.start for s in md._row_blocks(spec, n)] == [n]
    monkeypatch.setattr(md, "_CHUNK_BYTES", 37 * 8 * sum(sizes))
    assert [s.stop - s.start for s in md._row_blocks(spec, n)] == _BLOCKED_ROWS[n]
    assert forward(spec, theta, x).tobytes() == want.tobytes()


def test_row_blocks_are_powers_of_two_of_at_least_16_rows(monkeypatch):
    spec = ModelSpec("mlp", (2, 16, 16, 1))  # a budget of 936 rows
    assert [s.stop - s.start for s in md._row_blocks(spec, 4000)] == [512] * 7 + [416]
    assert [s.stop - s.start for s in md._row_blocks(spec, 4097)] == [512] * 7 + [513]
    linear = ModelSpec("linear", (10, 1))  # a budget of 2 978 rows
    assert [s.stop - s.start for s in md._row_blocks(linear, 4001)] == [2048, 1953]
    assert [s.stop - s.start for s in md._row_blocks(spec, 1)] == [1]
    assert [s.stop - s.start for s in md._row_blocks(spec, 0)] == [0]
    monkeypatch.setattr(md, "_CHUNK_BYTES", 8)  # less than one row: 16 rows all the same
    assert [s.stop - s.start for s in md._row_blocks(spec, 40)] == [16, 16, 8]


def test_forward_memory_stays_within_the_chunk_budget():
    # one 20 000-row pass through 64-wide layers traces about 20 MiB; its
    # row blocks keep the peak near the (n,) logits and two block buffers
    spec = ModelSpec("mlp", (2, 64, 64, 1))
    theta = init_params(spec, 0)
    x = np.random.default_rng(0).standard_normal((20000, 2))
    tracemalloc.start()
    try:
        forward(spec, theta, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * md._CHUNK_BYTES


def _logistic(label, logit):
    # one-logit loss log(1 + exp(-y z)) of labels 0 / 1, y = -1 / +1
    spec = ModelSpec("linear", (1, 1))
    return per_sample_loss(spec, np.atleast_1d(np.asarray(logit, dtype=float)),
                           np.atleast_1d(label))


def _cross_entropy(label, logits):
    # -log softmax(logits)[label] of one row of K logits
    spec = ModelSpec("linear", (1, len(logits)))
    return per_sample_loss(spec, np.asarray(logits, dtype=float)[None, :], [label])[0]


def test_logistic_loss_values():
    assert _logistic(1, 0.0)[0] == pytest.approx(math.log(2.0), rel=1e-12)
    assert _logistic(1, 50.0)[0] <= 1e-20
    # direct evaluation of log(1 + exp(1))
    assert _logistic(0, 1.0)[0] == pytest.approx(math.log1p(math.exp(1.0)), rel=1e-12)


def test_logistic_loss_positive_and_monotone():
    rng = np.random.default_rng(1)
    z = np.sort(rng.uniform(-30, 30, 50))
    losses = _logistic(np.ones(len(z), dtype=int), z)
    assert np.all(losses > 0)
    assert np.all(np.diff(losses) <= 0)  # decreasing in y*z
    assert _logistic(0, -700.0)[0] > 0  # no overflow


def test_logistic_loss_rejects_bad_labels():
    # a single logit takes labels 0 and 1 only
    for label in (-1, 2):
        with pytest.raises(ValueError):
            _logistic(label, 1.0)


def test_softmax_cross_entropy_values():
    assert _cross_entropy(0, np.zeros(2)) == pytest.approx(math.log(2.0), rel=1e-12)
    assert _cross_entropy(1, np.zeros(3)) == pytest.approx(math.log(3.0), rel=1e-12)
    # high-precision log-sum-exp: log(e^10 + e^-10) - 10 = log1p(e^-20)
    assert _cross_entropy(0, np.array([10.0, -10.0])) == pytest.approx(
        math.log1p(math.exp(-20.0)), rel=1e-9)


def test_softmax_cross_entropy_label_range():
    with pytest.raises(ValueError):
        _cross_entropy(2, np.zeros(2))
    with pytest.raises(ValueError):
        _cross_entropy(-1, np.zeros(3))


def test_gradient_logistic_at_zero():
    spec = ModelSpec("linear", (2, 1))
    x = np.array([[1.0, 2.0]])
    g = ad.grad(spec, np.zeros(3), x, md._targets(spec, [1]), None, None, PenaltyConfig())
    assert np.allclose(g, [-0.5, -1.0, -0.5], atol=1e-12)


def _finite_difference(f, at, h=1e-5, active=None):
    """Central differences of f at ``at``, one component at a time. Where
    ``active`` (relu's active set, as bytes) differs between at - h e_i, at
    and at + h e_i, the difference spans a kink and estimates no derivative:
    that component is NaN. Each pre-activation is linear along the step while
    the layers below keep their set, so equal sets at the ends and the middle
    mean no kink in between."""
    fd = np.full(at.shape, np.nan)
    for i in np.ndindex(at.shape):
        e = np.zeros_like(at)
        e[i] = h
        if active is None or active(at - e) == active(at) == active(at + e):
            fd[i] = (f(at + e) - f(at - e)) / (2.0 * h)
    return fd


def _max_rel(g, fd):
    """The largest gap |g - fd| over the components that fd estimates,
    relative to |g| floored at 1e-3 of g's largest component: rounding puts
    a central difference off by about 1e-11 however small the component."""
    floor = 1e-3 * np.abs(g).max()
    return (np.abs(g - fd) / np.maximum(np.abs(g), floor))[~np.isnan(fd)].max()


def _active_set(spec, theta, x):
    """Which hidden units are active on which rows, as bytes."""
    return b"".join((h > 0.0).tobytes() for h in md._pass(spec, theta, x)[0][1:])


def _check_gradients(spec, rng):
    """The objective's gradient at every penalty setting, then the parameter
    and input gradients of an arbitrary logit gradient, against central
    differences at a random theta and batch drawn from ``rng``."""
    sizes = spec.layer_sizes
    theta = init_params(spec, 5) + 0.1 * rng.standard_normal(param_count(spec))
    x = rng.standard_normal((12, sizes[0]))
    y = rng.integers(0, max(sizes[-1], 2), 12)
    seg = np.array([0, 0, 0, 1, 1, 2, 3, 3, 4, 5, 5, 5])
    # only relu has a kink
    by_theta = (lambda t: _active_set(spec, t, x)) if spec.activation == "relu" else None
    by_x = (lambda a: _active_set(spec, theta, a)) if spec.activation == "relu" else None
    for target in ("prediction", "loss"):
        for nu in (1.0, 0.5):
            for lam, gamma in ((0.0, 0.0), (0.8, 1e-2)):
                cfg = PenaltyConfig(target, nu, lam, gamma)
                g = ad.grad(spec, theta, x, md._targets(spec, y), seg, np.bincount(seg), cfg)
                fd = _finite_difference(lambda t: ad.objective(spec, t, x, y, seg, cfg), theta,
                                        active=by_theta)
                assert _max_rel(g, fd) < 1e-5, (target, nu, lam)
    # parameter and input gradients of an arbitrary logit gradient: the
    # backward chain, then the product with the first layer's weights
    g_logits = rng.standard_normal(forward(spec, theta, x).shape)
    hs = md._pass(spec, theta, x)[0]
    g_theta = np.empty_like(theta)
    g_h = md._chain(spec, theta, hs, g_logits.reshape(len(x), spec.output_dim), g_theta)
    wsl, wshape, _ = spec.layout[0]
    g_x = g_h @ theta[wsl].reshape(wshape).T
    fd_x = _finite_difference(lambda a: float(np.sum(forward(spec, theta, a) * g_logits)), x,
                              active=by_x)
    fd_theta = _finite_difference(
        lambda t: float(np.sum(forward(spec, t, x) * g_logits)), theta, active=by_theta)
    assert _max_rel(g_x, fd_x) < 1e-5
    assert _max_rel(g_theta, fd_theta) < 1e-5


@pytest.mark.parametrize("kind,sizes,activation", [
    ("linear", (3, 1), "tanh"),
    ("mlp", (3, 5, 1), "tanh"),
    ("mlp", (4, 6, 3, 1), "relu"),
    ("mlp", (3, 4, 3), "tanh"),  # 3-class output
])
def test_gradient_matches_finite_differences(kind, sizes, activation):
    # one fixed draw per case, the input-gradient test's seed rule
    _check_gradients(ModelSpec(kind, sizes, activation), np.random.default_rng(sum(sizes)))


@pytest.mark.parametrize("seed", [70, 331, 575])
def test_relu_gradient_matches_finite_differences_near_a_kink(seed):
    # the draws of 0-599 that a floor of 1e-8 and differences across the
    # kink failed: at 70 a pre-activation lies within h of relu's kink, at
    # 331 a gradient component of 3.0e-7 has a difference off by 7e-12, at
    # 575 a small component of the arbitrary logit gradient's chain does
    _check_gradients(ModelSpec("mlp", (4, 6, 3, 1), "relu"), np.random.default_rng(seed))


@pytest.mark.parametrize("kind,sizes,activation", [
    ("linear", (3, 1), "tanh"),
    ("mlp", (3, 5, 1), "tanh"),
    ("mlp", (4, 6, 3, 1), "relu"),
    ("mlp", (3, 4, 3), "tanh"),  # 3-class output
])
def test_input_gradient_matches_finite_differences(kind, sizes, activation, monkeypatch):
    rng = np.random.default_rng(sum(sizes))
    spec = ModelSpec(kind, sizes, activation)
    theta = init_params(spec, 5) + 0.1 * rng.standard_normal(param_count(spec))
    k = max(sizes[-1], 2)
    x, y = rng.standard_normal((12, sizes[0])), rng.integers(0, k, 12)
    # loss_i reads only x_i, so d sum_i loss_i / d x_i is d loss_i / d x_i
    g = md._input_gradient(spec, theta, x, md._targets(spec, y))
    fd = _finite_difference(
        lambda a: float(np.sum(per_sample_loss(spec, forward(spec, theta, a), y))), x)
    assert g.shape == x.shape
    assert _max_rel(g, fd) < 1e-5
    # row blocks that leave a lone last row (taken by the last block), then
    # last blocks of 2 and 17 rows: each row keeps the bits of one pass
    for n, blocks in _BLOCKED_ROWS.items():
        x, targets = rng.standard_normal((n, sizes[0])), md._targets(spec, rng.integers(0, k, n))
        assert len(md._row_blocks(spec, n)) == 1
        want = md._input_gradient(spec, theta, x, targets)
        with monkeypatch.context() as patched:
            patched.setattr(md, "_CHUNK_BYTES", 37 * 8 * sum(sizes))
            assert [s.stop - s.start for s in md._row_blocks(spec, n)] == blocks
            assert md._input_gradient(spec, theta, x, targets).tobytes() == want.tobytes()


def test_param_flatten_round_trip():
    spec = ModelSpec("mlp", (3, 4, 2))
    theta = init_params(spec, 9)
    rebuilt = np.zeros_like(theta)
    for wsl, shape, bsl in spec.layout:
        rebuilt[wsl] = theta[wsl].reshape(shape).ravel()
        rebuilt[bsl] = theta[bsl]
    assert np.array_equal(rebuilt, theta)
    assert param_count(spec) == 3 * 4 + 4 + 4 * 2 + 2


def test_init_is_seeded_and_bias_free():
    spec = ModelSpec("mlp", (3, 4, 1))
    a = init_params(spec, 3)
    b = init_params(spec, 3)
    assert np.array_equal(a, b)
    for _w, _shape, bsl in spec.layout:
        assert np.all(a[bsl] == 0.0)
    a_limit = math.sqrt(6.0 / (3 + 4))
    wsl = spec.layout[0][0]
    assert np.all(np.abs(a[wsl]) <= a_limit)


@pytest.mark.parametrize("seed, message", [(-1, "^seed must be >= 0, got -1$"),
                                           (1.5, "^1.5 is not an integer$"),
                                           (True, "^True is not an integer$")],
                         ids=["negative", "1.5", "true"])
def test_init_refuses_a_seed_that_is_not_an_integer_ge_0(seed, message):
    # numpy refused each unnamed, or read True as the seed 1
    with pytest.raises(ValueError, match=message):
        init_params(ModelSpec("mlp", (3, 4, 1)), seed)


def test_init_takes_a_numpy_seed_as_the_python_seed():
    spec = ModelSpec("mlp", (3, 4, 1))
    assert init_params(spec, np.int64(3)).tobytes() == init_params(spec, 3).tobytes()


def test_checkpoint_round_trip(tmp_path):
    spec = ModelSpec("mlp", (2, 3, 1), "relu")
    theta = init_params(spec, 1)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, spec, theta, seed=1, step=42)
    spec2, theta2, seed, step = load_checkpoint(path)
    assert spec2 == spec
    assert np.array_equal(theta, theta2)
    assert (seed, step) == (1, 42)


@pytest.mark.parametrize("n_params, step, message", [
    (8, 0, "8 parameters for a model spec of 9"),
    (9, -1, r"step must be >= 0, got -1"),
], ids=["param_count", "negative_step"])
def test_checkpoint_save_refuses_what_load_refuses_before_touching_the_file(
        tmp_path, n_params, step, message):
    spec = ModelSpec("mlp", (2, 2, 1))  # 9 parameters
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({"spec": asdict(spec), "flat_params": [0.0] * n_params,
                                "seed": 0, "step": step}))
    with pytest.raises(DataFormatError):
        load_checkpoint(path)
    before = path.read_text()
    with pytest.raises(ValueError, match=message):
        save_checkpoint(path, spec, np.zeros(n_params), 0, step)
    assert path.read_text() == before


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("linear", (2, 3, 1))
    with pytest.raises(ValueError):
        ModelSpec("cnn", (2, 1))
    with pytest.raises(ValueError):
        ModelSpec("mlp", (2, 4, 1), activation="gelu")
    # the table lookup takes no unhashable value and no value that is not a name
    for activation in (None, ["tanh"]):
        with pytest.raises(ValueError, match="unknown activation"):
            ModelSpec("mlp", (2, 4, 1), activation=activation)
    with pytest.raises(ValueError, match="at least input and output width"):
        ModelSpec("mlp", (2,))
    with pytest.raises(ValueError, match="layer sizes must be positive"):
        ModelSpec("mlp", (2, 0, 1))
    # int() reads numpy's True as 1, a 1-input model
    with pytest.raises(ValueError, match="^np.True_ is not an integer$"):
        ModelSpec("linear", (np.True_, 1))


def test_predict_labels_reads_one_logit_by_sign_and_k_logits_by_argmax():
    x = np.array([[1.0, -2.0], [-1.0, 0.5], [0.0, 0.0]])
    one = ModelSpec("linear", (2, 1))
    theta = np.array([1.0, 0.0, -0.5])  # logits 0.5, -1.5, -0.5
    assert md.predict_labels(one, theta, x).tolist() == [1, 0, 0]
    three = ModelSpec("linear", (2, 3))
    theta = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.1])  # logits x0, x1, 0.1
    assert md.predict_labels(three, theta, x).tolist() == [0, 1, 2]
    with pytest.raises(ValueError, match=r"x must be an \(n, 2\) batch, got shape \(2,\)"):
        md.predict_labels(three, theta, x[1])


def _readers(attr, key_of=None):
    """Where ``src/condvar`` reads ``.attr``, other than as the key of a dict
    named ``key_of``: "module.function" or "module.Class.method" of the
    top-level definition that holds each read."""
    out = set()
    for path in Path(md.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        keys = {id(node.slice) for node in ast.walk(tree) if isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name) and node.value.id == key_of}
        for top in tree.body:
            for sub in top.body if isinstance(top, ast.ClassDef) else [top]:
                name = getattr(top, "name", "")
                if sub is not top:
                    name += "." + getattr(sub, "name", "")
                if any(isinstance(node, ast.Attribute) and node.attr == attr
                       and id(node) not in keys for node in ast.walk(sub)):
                    out.add(f"{path.stem}.{name}")
    return out


def test_only_models_decides_that_a_model_is_affine():
    # one logit and no hidden layer: the one comparison of the layer sizes with
    # the output width is models._affine's, which robustness and the oracle call
    owners = set()
    for path in Path(md.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Compare) and {"layer_sizes", "output_dim"} <= {
                        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                    for node in ast.walk(fn)):
                owners.add(f"{path.stem}.{fn.name}")
    assert owners == {"models._affine"}
    assert [md._affine(ModelSpec(kind, sizes)) for kind, sizes in (
        ("linear", (2, 1)), ("mlp", (2, 1)), ("linear", (2, 3)), ("mlp", (2, 4, 1)))] == [
        True, True, False, False]


def test_one_rule_refuses_data_of_another_width():
    # the oracle refuses a dataset of the wrong width through models._checked
    texts = [path.read_text(encoding="utf-8") for path in Path(md.__file__).parent.glob("*.py")]
    assert sum(text.count("does not match model input") for text in texts) == 1


def test_one_table_reads_the_activation_and_one_walk_the_layout():
    # outside ModelSpec's own check the activation is read only to look its
    # row up in _ACTIVATIONS, and every pass takes (W, b) views from _layers
    assert _readers("activation", "_ACTIVATIONS") == {"models.ModelSpec.__post_init__"}
    assert _readers("activation") > {"models.ModelSpec.__post_init__"}  # the lookups
    layout = _readers("layout")
    assert {name for name in layout if not name.startswith("models.ModelSpec.")} == {
        "models.param_count", "models._layers"}, sorted(layout)
