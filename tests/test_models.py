import math

import numpy as np
import pytest

from condvar import autodiff as ad
from condvar import models as md
from condvar.models import (
    ModelSpec,
    forward,
    init_params,
    load_checkpoint,
    logistic_loss,
    param_count,
    save_checkpoint,
    softmax_cross_entropy,
)
from condvar.penalties import PenaltyConfig


def test_linear_forward_dot_product():
    spec = ModelSpec("linear", (2, 1))
    theta = np.array([1.0, -0.75, 0.0])  # w, then bias
    assert forward(spec, theta, np.array([1.0, 1.0])) == pytest.approx(0.25)


def test_zero_parameters_zero_logit():
    spec = ModelSpec("linear", (2, 1))
    theta = np.zeros(3)
    z = forward(spec, theta, np.array([3.0, -2.0]))
    assert z == 0.0
    assert 1.0 / (1.0 + math.exp(-z)) == 0.5


def test_zero_mlp_gives_zero_logit():
    spec = ModelSpec("mlp", (2, 3, 1))
    theta = np.zeros(param_count(spec))
    assert forward(spec, theta, np.array([1.0, 2.0])) == 0.0


def test_linear_logit_doubles_with_parameters():
    spec = ModelSpec("linear", (4, 1))
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(param_count(spec))
    x = rng.standard_normal(4)
    assert forward(spec, 2.0 * theta, x) == pytest.approx(2.0 * forward(spec, theta, x), rel=0, abs=1e-15)


def test_forward_dimension_mismatch():
    spec = ModelSpec("linear", (3, 1))
    with pytest.raises(ValueError):
        forward(spec, np.zeros(4), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        forward(spec, np.zeros(7), np.zeros((2, 3)))


def test_logistic_loss_values():
    assert logistic_loss(1, 0.0) == pytest.approx(math.log(2.0), rel=1e-12)
    assert logistic_loss(1, 50.0) <= 1e-20
    # direct evaluation of log(1 + exp(1))
    assert logistic_loss(-1, 1.0) == pytest.approx(math.log1p(math.exp(1.0)), rel=1e-12)


def test_logistic_loss_positive_and_monotone():
    rng = np.random.default_rng(1)
    z = np.sort(rng.uniform(-30, 30, 50))
    losses = logistic_loss(np.ones_like(z), z)
    assert np.all(losses > 0)
    assert np.all(np.diff(losses) <= 0)  # decreasing in y*z
    assert logistic_loss(-1, -700.0) > 0  # no overflow


def test_logistic_loss_rejects_bad_labels():
    with pytest.raises(ValueError):
        logistic_loss(0, 1.0)


def test_softmax_cross_entropy_values():
    assert softmax_cross_entropy(0, np.zeros(2)) == pytest.approx(math.log(2.0), rel=1e-12)
    assert softmax_cross_entropy(1, np.zeros(3)) == pytest.approx(math.log(3.0), rel=1e-12)
    # high-precision log-sum-exp: log(e^10 + e^-10) - 10 = log1p(e^-20)
    assert softmax_cross_entropy(0, np.array([10.0, -10.0])) == pytest.approx(
        math.log1p(math.exp(-20.0)), rel=1e-9)


def test_softmax_cross_entropy_label_range():
    with pytest.raises(ValueError):
        softmax_cross_entropy(2, np.zeros(2))


def test_gradient_logistic_at_zero():
    spec = ModelSpec("linear", (2, 1))
    x = np.array([[1.0, 2.0]])
    g = ad.grad(spec, np.zeros(3), x, md._targets(spec, [1]), None, None, PenaltyConfig())
    assert np.allclose(g, [-0.5, -1.0, -0.5], atol=1e-12)


def _finite_difference(f, at, h=1e-5):
    fd = np.zeros_like(at)
    for i in np.ndindex(at.shape):
        e = np.zeros_like(at)
        e[i] = h
        fd[i] = (f(at + e) - f(at - e)) / (2.0 * h)
    return fd


def _max_rel(g, fd):
    return (np.abs(g - fd) / np.maximum(np.abs(g), 1e-8)).max()


@pytest.mark.parametrize("kind,sizes,activation", [
    ("linear", (3, 1), "tanh"),
    ("mlp", (3, 5, 1), "tanh"),
    ("mlp", (4, 6, 3, 1), "relu"),
    ("mlp", (3, 4, 3), "tanh"),  # 3-class output
])
def test_gradient_matches_finite_differences(kind, sizes, activation):
    rng = np.random.default_rng(hash((kind, sizes)) % 2**32)
    spec = ModelSpec(kind, sizes, activation)
    theta = init_params(spec, 5) + 0.1 * rng.standard_normal(param_count(spec))
    x = rng.standard_normal((12, sizes[0]))
    y = rng.integers(0, max(sizes[-1], 2), 12)
    seg = np.array([0, 0, 0, 1, 1, 2, 3, 3, 4, 5, 5, 5])
    for target in ("prediction", "loss"):
        for nu in (1.0, 0.5):
            for lam, gamma in ((0.0, 0.0), (0.8, 1e-2)):
                cfg = PenaltyConfig(target, nu, lam, gamma)
                g = ad.grad(spec, theta, x, md._targets(spec, y), seg, np.bincount(seg), cfg)
                fd = _finite_difference(lambda t: ad.objective(spec, t, x, y, seg, cfg), theta)
                assert _max_rel(g, fd) < 1e-5, (target, nu, lam)
    # parameter and input gradients of an arbitrary logit gradient: the
    # backward chain, then the product with the first layer's weights
    g_logits = rng.standard_normal(forward(spec, theta, x).shape)
    hs = list(md._layer_inputs(spec, theta, x))
    g_theta, g_h = md._chain(spec, theta, hs, g_logits.reshape(len(x), spec.output_dim))
    wsl, wshape, _ = spec.layout[0]
    g_x = g_h @ theta[wsl].reshape(wshape).T
    fd_x = _finite_difference(lambda a: float(np.sum(forward(spec, theta, a) * g_logits)), x)
    fd_theta = _finite_difference(
        lambda t: float(np.sum(forward(spec, t, x) * g_logits)), theta)
    assert _max_rel(g_x, fd_x) < 1e-5
    assert _max_rel(g_theta, fd_theta) < 1e-5


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


def test_checkpoint_round_trip(tmp_path):
    spec = ModelSpec("mlp", (2, 3, 1), "relu")
    theta = init_params(spec, 1)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, spec, theta, seed=1, step=42)
    spec2, theta2, seed, step = load_checkpoint(path)
    assert spec2 == spec
    assert np.array_equal(theta, theta2)
    assert (seed, step) == (1, 42)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("linear", (2, 3, 1))
    with pytest.raises(ValueError):
        ModelSpec("cnn", (2, 1))
    with pytest.raises(ValueError):
        ModelSpec("mlp", (2, 4, 1), activation="gelu")
