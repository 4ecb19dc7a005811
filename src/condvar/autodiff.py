"""Minimal reverse-mode automatic differentiation over numpy arrays.

The engine supports exactly the primitives needed to express the training
objectives in this package: affine maps, tanh/relu, square roots, stable
softplus / log-sum-exp, reductions, segmented sums and gather/scatter
indexing.
Gradients are exact reverse accumulation; the only subgradient conventions
are relu'(0) = 0 and sqrt'(0) = 0.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Var",
    "as_var",
    "matmul",
    "tanh",
    "relu",
    "sqrt",
    "softplus",
    "logsumexp",
    "vsum",
    "vmean",
    "take",
    "segment_sum",
    "reshape",
    "grad",
]


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (reverses numpy broadcasting)."""
    if g.shape == shape:
        return g
    # leading axes added by broadcasting
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


class Var:
    """A node in the computation graph: a value plus a backward rule."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    # ---- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = as_var(other)
        out = Var(self.value + other.value, (self, other))
        out._backward = lambda g: (
            _unbroadcast(g, self.value.shape),
            _unbroadcast(g, other.value.shape),
        )
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Var(-self.value, (self,))
        out._backward = lambda g: (-g,)
        return out

    def __sub__(self, other):
        other = as_var(other)
        out = Var(self.value - other.value, (self, other))
        out._backward = lambda g: (
            _unbroadcast(g, self.value.shape),
            _unbroadcast(-g, other.value.shape),
        )
        return out

    def __rsub__(self, other):
        return as_var(other).__sub__(self)

    def __mul__(self, other):
        other = as_var(other)
        out = Var(self.value * other.value, (self, other))
        a, b = self.value, other.value
        out._backward = lambda g: (
            _unbroadcast(g * b, a.shape),
            _unbroadcast(g * a, b.shape),
        )
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_var(other)
        out = Var(self.value / other.value, (self, other))
        a, b = self.value, other.value
        out._backward = lambda g: (
            _unbroadcast(g / b, a.shape),
            _unbroadcast(-g * a / (b * b), b.shape),
        )
        return out

    def __rtruediv__(self, other):
        return as_var(other).__truediv__(self)

    def __matmul__(self, other):
        other = as_var(other)
        a, b = self.value, other.value
        out = Var(a @ b, (self, other))

        def backward(g):
            if a.ndim == 1 and b.ndim == 2:  # (k,) @ (k,m) -> (m,)
                return g @ b.T, np.outer(a, g)
            if a.ndim == 2 and b.ndim == 1:  # (n,k) @ (k,) -> (n,)
                return np.outer(g, b), a.T @ g
            if a.ndim == 1 and b.ndim == 1:  # inner product
                return g * b, g * a
            return g @ b.T, a.T @ g

        out._backward = backward
        return out

    def __rmatmul__(self, other):
        return as_var(other).__matmul__(self)

    def __getitem__(self, key):
        out = Var(self.value[key], (self,))
        shape = self.value.shape

        def backward(g):
            full = np.zeros(shape)
            np.add.at(full, key, g)
            return (full,)

        out._backward = backward
        return out

    # ---- reductions ----------------------------------------------------
    def sum(self, axis=None):
        out = Var(self.value.sum(axis=axis), (self,))
        shape = self.value.shape

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

        out._backward = backward
        return out

    def mean(self, axis=None):
        n = self.value.size if axis is None else self.value.shape[axis]
        return self.sum(axis=axis) / float(n)

    def reshape(self, *shape):
        out = Var(self.value.reshape(*shape), (self,))
        old = self.value.shape
        out._backward = lambda g: (g.reshape(old),)
        return out

    # ---- backward pass --------------------------------------------------
    def backward(self):
        """Populate ``.grad`` on every reachable node (self must be scalar)."""
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar output")
        order: list[Var] = []
        seen: set[int] = set()
        stack: list[tuple[Var, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in order:
            node.grad = np.zeros_like(node.value)
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._backward is None:
                continue
            gs = node._backward(node.grad)
            for parent, g in zip(node._parents, gs):
                parent.grad = parent.grad + g


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _is_var(x) -> bool:
    return isinstance(x, Var)


# ---- elementwise primitives (dispatch on Var vs ndarray) ----------------

def matmul(a, b):
    if _is_var(a) or _is_var(b):
        return as_var(a) @ as_var(b)
    return np.asarray(a) @ np.asarray(b)


def tanh(x):
    if not _is_var(x):
        return np.tanh(x)
    out = Var(np.tanh(x.value), (x,))
    t = out.value
    out._backward = lambda g: (g * (1.0 - t * t),)
    return out


def relu(x):
    if not _is_var(x):
        return np.maximum(x, 0.0)
    out = Var(np.maximum(x.value, 0.0), (x,))
    mask = (x.value > 0.0).astype(float)  # subgradient 0 at the kink
    out._backward = lambda g: (g * mask,)
    return out


def sqrt(x):
    if not _is_var(x):
        return np.sqrt(x)
    out = Var(np.sqrt(x.value), (x,))
    s = out.value

    def backward(g):
        # subgradient 0 at zero keeps zero-variance groups from blowing up
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(s > 0.0, 0.5 / np.where(s > 0.0, s, 1.0), 0.0)
        return (g * d,)

    out._backward = backward
    return out


def _softplus_val(z: np.ndarray) -> np.ndarray:
    # max(0, z) + log1p(exp(-|z|)) is stable for any magnitude
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def softplus(x):
    """log(1 + exp(x)), evaluated in its overflow-safe form."""
    if not _is_var(x):
        return _softplus_val(np.asarray(x, dtype=float))
    out = Var(_softplus_val(x.value), (x,))
    sig = 1.0 / (1.0 + np.exp(-x.value))
    out._backward = lambda g: (g * sig,)
    return out


def logsumexp(x, axis):
    if not _is_var(x):
        m = np.max(x, axis=axis, keepdims=True)
        return (m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))).squeeze(axis)
    m = np.max(x.value, axis=axis, keepdims=True)
    e = np.exp(x.value - m)
    val = (m + np.log(e.sum(axis=axis, keepdims=True))).squeeze(axis)
    out = Var(val, (x,))
    soft = e / e.sum(axis=axis, keepdims=True)
    out._backward = lambda g: (np.expand_dims(g, axis) * soft,)
    return out


def vsum(x, axis=None):
    if not _is_var(x):
        return np.sum(x, axis=axis)
    return x.sum(axis=axis)


def vmean(x, axis=None):
    if not _is_var(x):
        return np.mean(x, axis=axis)
    return x.mean(axis=axis)


def take(x, idx):
    """Row/element gather; gradient scatter-adds back."""
    if not _is_var(x):
        return np.asarray(x)[idx]
    return x[idx]


def _segment_sum(x: np.ndarray, seg: np.ndarray, m: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    rows = x.reshape(len(seg), -1)
    k = rows.shape[1]
    flat = (seg[:, None] * k + np.arange(k)).reshape(-1)
    return np.bincount(flat, rows.reshape(-1), m * k).reshape((m,) + x.shape[1:])


def segment_sum(x, seg, m: int):
    """Row sums per segment: out[j] = sum of x[i] over seg[i] == j, for x of
    shape (n,) or (n, K) and seg in [0, m). Rows are added in index order.
    The gradient gathers back: d out / d x[i] = g[seg[i]]."""
    if not _is_var(x):
        return _segment_sum(x, seg, m)
    out = Var(_segment_sum(x.value, seg, m), (x,))
    out._backward = lambda g: (g[seg],)
    return out


def reshape(x, *shape):
    if not _is_var(x):
        return np.reshape(x, shape)
    return x.reshape(*shape)


def grad(objective, theta: np.ndarray) -> np.ndarray:
    """Exact gradient of ``objective`` (a Var-scalar function of one flat
    parameter Var) evaluated at ``theta``."""
    v = Var(np.asarray(theta, dtype=float))
    out = objective(v)
    if not isinstance(out, Var):
        raise TypeError("objective must return a Var built from supported primitives")
    out.backward()
    return v.grad
