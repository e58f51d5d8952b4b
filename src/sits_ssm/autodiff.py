"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array. Operations on tracked tensors record
themselves on an implicit tape (the graph of ``_parents`` links); calling
``backward()`` on a scalar result replays the tape in reverse topological
order and accumulates gradients into every tracked leaf.

Two precision regimes are supported: float32 (training default) and
float64 (used by the verification suites). The dtype of an operation
follows its tensor inputs; a bare Python number takes the dtype of the
tensor it is combined with, as numpy treats Python scalars.

Every forward op checks its output for NaN/Inf and raises
``NonFiniteError`` instead of letting bad values propagate.

Threading: tensor values are immutable after creation (gradient
accumulation is the one exception), and a forward+backward pass is
single-threaded with respect to its graph. Values may be handed between
threads; independent graphs may run in parallel. Two ops use the package's
one thread pool (``pool``), each as one node of the outer graph.
``ssm.MambaBlock`` is the one place that splits pixel sequences, and runs
each chunk as its own sub-graph on the pool, over parameter copies whose
``grad`` only that chunk touches; the selective scan inside a chunk is a
single pass on that chunk's thread. ``conv2d`` splits the frames of its
(B, C, H, W) stack: each chunk's im2col + GEMM writes its slice of the
output, and backward recomputes the chunk's columns on the pool. No pool
task asks the pool for work. Grad mode is per thread (and per asyncio
task): ``no_grad()`` in one thread leaves tape recording on in every other.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Iterable, Sequence

import numpy as np

from . import pool

DEFAULT_DTYPE = np.float32
# bytes of one conv2d frame chunk's im2col columns (C_in*kh*kw*H*W each):
# 7 frames of the paper's 128-channel 3x3 conv on 16x16
_CONV_FRAME_BUDGET = 8 * 2**20

# a context variable, so each thread starts with recording on
_GRAD_ENABLED = contextvars.ContextVar("grad_enabled", default=True)


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class NonFiniteError(ArithmeticError):
    """A forward op produced NaN or Inf."""


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference mode), in the
    calling thread only."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def grad_enabled() -> bool:
    return _GRAD_ENABLED.get()


class Tensor:
    """N-dimensional array, optionally participating in the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op", "_backward_done")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn = None
        self._op = ""
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self):
        backward(self)

    # operator sugar; all arithmetic routes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}{flag}, op={self._op or 'leaf'})"


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x, dtype=dtype)


def _check_finite(arr: np.ndarray, op: str):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"op '{op}' produced non-finite values")


def _make(out_data: np.ndarray, parents: Sequence[Tensor], backward_fn, op: str) -> Tensor:
    _check_finite(out_data, op)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out._op = op
    out._backward_done = False
    if _GRAD_ENABLED.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise binary ops

def _binary(a, b, fwd, da, db, op):
    # as a 0-d float64 array, a Python number would promote float32 operands
    if type(b) in (int, float):
        a = as_tensor(a)
        b = Tensor(b, dtype=a.dtype)
    elif type(a) in (int, float):
        b = as_tensor(b)
        a = Tensor(a, dtype=b.dtype)
    else:
        a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = fwd(a.data, b.data)
    except ValueError as e:
        raise ShapeError(f"{op}: {a.shape} vs {b.shape}") from e

    def backward_fn(g):
        return (_unbroadcast(da(g, a.data, b.data), a.shape),
                _unbroadcast(db(g, a.data, b.data), b.shape))

    return _make(out_data, (a, b), backward_fn, op)


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g, "add")


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g, "sub")


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x, "mul")


def matmul(a, b) -> Tensor:
    """Matrix product with numpy's vector promotion rules for 1-D operands."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 1 or b.ndim < 1:
        raise ShapeError("matmul requires at least 1-D operands")
    a_vec, b_vec = a.ndim == 1, b.ndim == 1
    a2 = a.data[None, :] if a_vec else a.data
    b2 = b.data[:, None] if b_vec else b.data
    if a2.shape[-1] != b2.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")
    out2 = np.matmul(np.ascontiguousarray(a2), np.ascontiguousarray(b2))
    out_data = out2
    if b_vec:
        out_data = out_data[..., 0]
    if a_vec:
        out_data = out_data[..., 0] if b_vec else out_data[..., 0, :]

    def backward_fn(g):
        if b.ndim == 2 and a.ndim > 2:
            # a layer's weight applied along the last axis: two 2-D GEMMs over
            # the flattened leading axes, no batch of outer products
            k, n = b.shape
            g2 = g.reshape(-1, n)
            gb = a.data.reshape(-1, k).T @ g2
            return (g2 @ b.data.T).reshape(a.shape), gb
        g2 = g
        if a_vec:
            g2 = np.expand_dims(g2, -1 if b_vec else -2)
        if b_vec:
            g2 = np.expand_dims(g2, -1)
        ga = np.matmul(g2, np.swapaxes(b2, -1, -2))
        gb = np.matmul(np.swapaxes(a2, -1, -2), g2)
        if a_vec:
            ga = ga.reshape(ga.shape[:-2] + (ga.shape[-1],))
        if b_vec:
            gb = gb[..., 0]
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _make(out_data, (a, b), backward_fn, "matmul")


# ---------------------------------------------------------------------------
# elementwise unary ops

def _unary(x, fwd, dfn, op):
    x = as_tensor(x)
    out_data = fwd(x.data)

    def backward_fn(g):
        return (dfn(g, x.data, out_data),)

    return _make(out_data, (x,), backward_fn, op)


def exp(x) -> Tensor:
    return _unary(x, np.exp, lambda g, x_, o: g * o, "exp")


# The activation kernels work in place on one fresh array of x's shape;
# ``out=np.empty_like(x)`` keeps that an array for 0-d inputs too.

def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1 + e^-x); where e^-x overflows to inf the result is the limit 0
    out = np.negative(x, out=np.empty_like(x))
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x) = max(x, 0) + log1p(e^-|x|), the formula of logaddexp(0, x)
    out = np.abs(x, out=np.empty_like(x))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return np.add(out, np.maximum(x, 0.0), out=out)


def sigmoid(x) -> Tensor:
    return _unary(x, _sigmoid, lambda g, x_, o: g * o * (1.0 - o), "sigmoid")


def _softplus_grad(g, x_, o):
    s = _sigmoid(x_)
    s *= g
    return s


def softplus(x) -> Tensor:
    return _unary(x, _softplus, _softplus_grad, "softplus")


def _silu(x: np.ndarray) -> np.ndarray:
    s = _sigmoid(x)
    s *= x
    return s


def _silu_grad(g, x_, o):
    # d/dx x s(x) = s (1 + x (1 - s))
    s = _sigmoid(x_)
    t = np.subtract(1.0, s, out=np.empty_like(s))
    t *= x_
    t += 1.0
    t *= s
    t *= g
    return t


def silu(x) -> Tensor:
    return _unary(x, _silu, _silu_grad, "silu")


def relu(x) -> Tensor:
    return _unary(x, lambda v: np.maximum(v, 0.0),
                  lambda g, x_, o: g * (x_ > 0), "relu")


# ---------------------------------------------------------------------------
# reductions

def sum_(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        g_ = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_, x.shape).copy(),)

    return _make(np.asarray(out_data), (x,), backward_fn, "sum")


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out_data = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.size if axis is None else np.prod([x.shape[a] for a in np.atleast_1d(axis)])

    def backward_fn(g):
        if axis is None:
            return (np.broadcast_to(g / count, x.shape).copy(),)
        g_ = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_ / count, x.shape).copy(),)

    return _make(np.asarray(out_data), (x,), backward_fn, "mean")


def max_over_axis(x, axis: int, mask: np.ndarray | None = None, keepdims: bool = False) -> Tensor:
    """Maximum along one axis, optionally restricted to ``mask==True`` entries.

    ``mask`` is a plain boolean array broadcastable to ``x`` and is not
    differentiated. Each reduced slice must contain at least one valid
    entry. Ties route the gradient to the lowest index.
    """
    x = as_tensor(x)
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, bool), x.shape)
        if not mask.any(axis=axis).all():
            raise ValueError("max_over_axis: empty valid set along axis")
        work = np.where(mask, x.data, -np.inf)
    else:
        work = x.data
    idx = np.argmax(work, axis=axis)
    out_data = np.take_along_axis(work, np.expand_dims(idx, axis), axis=axis)
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        g_ = g if keepdims else np.expand_dims(g, axis)
        np.put_along_axis(gx, np.expand_dims(idx, axis), g_, axis=axis)
        return (gx,)

    return _make(out_data, (x,), backward_fn, "max_over_axis")


# ---------------------------------------------------------------------------
# shape ops

def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    try:
        out_data = x.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: {x.shape} -> {shape}") from e

    def backward_fn(g):
        return (g.reshape(x.shape),)

    return _make(out_data, (x,), backward_fn, "reshape")


def transpose(x, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    # materialized: strided views downstream would steer BLAS onto
    # layout-dependent code paths and break bitwise batch invariances
    out_data = np.ascontiguousarray(np.transpose(x.data, axes))
    inv = tuple(np.argsort(axes))

    def backward_fn(g):
        return (np.transpose(g, inv),)

    return _make(out_data, (x,), backward_fn, "transpose")


def slice_(x, key) -> Tensor:
    """Basic (non-fancy) indexing: slices and integer indices."""
    x = as_tensor(x)
    out_data = x.data[key]

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        gx[key] = g
        return (gx,)

    return _make(out_data, (x,), backward_fn, "slice")


def concat(tensors: Iterable, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        return tuple(np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
                     for i in range(len(ts)))

    return _make(out_data, ts, backward_fn, "concat")


# ---------------------------------------------------------------------------
# softmax / cross-entropy

def softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        s = out_data
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _make(out_data, (x,), backward_fn, "softmax")


def cross_entropy_logits(logits, labels: np.ndarray, keep: np.ndarray | None = None) -> Tensor:
    """Mean negative log-softmax probability of the true class.

    ``logits`` is (M, K); ``labels`` an int array (M,); ``keep`` an optional
    boolean row mask. Rows with ``keep == False`` contribute nothing.
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError("cross_entropy_logits expects (rows, classes) logits")
    labels = np.asarray(labels)
    m, k = logits.shape
    if labels.shape != (m,):
        raise ShapeError(f"labels shape {labels.shape} != ({m},)")
    if keep is None:
        keep = np.ones(m, dtype=bool)
    n_kept = int(keep.sum())
    if n_kept == 0:
        raise ValueError("cross_entropy_logits: no rows left after masking")
    if labels[keep].min() < 0 or labels[keep].max() >= k:
        raise ValueError("cross_entropy_logits: label outside [0, K)")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    nll = lse - z[np.arange(m), labels]
    out_data = np.asarray(nll[keep].mean(), dtype=z.dtype)

    def backward_fn(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(m), labels] -= 1.0
        p *= (keep[:, None] * (g / n_kept))
        return (p,)

    return _make(out_data, (logits,), backward_fn, "cross_entropy_logits")


# ---------------------------------------------------------------------------
# convolutions

def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(B,C,H,W) -> (B, C*kh*kw, H*W) patches, 'same' zero padding, stride 1."""
    b, c, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((b, c, kh * kw, h, w), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i * kw + j] = xp[:, :, i:i + h, j:j + w]
    return cols.reshape(b, c * kh * kw, h * w)


def _col2im(gcols: np.ndarray, shape: tuple, kh: int, kw: int) -> np.ndarray:
    b, c, h, w = shape
    ph, pw = kh // 2, kw // 2
    gp = np.zeros((b, c, h + 2 * ph, w + 2 * pw), dtype=gcols.dtype)
    gc = gcols.reshape(b, c, kh * kw, h, w)
    for i in range(kh):
        for j in range(kw):
            gp[:, :, i:i + h, j:j + w] += gc[:, :, i * kw + j]
    return gp[:, :, ph:ph + h, pw:pw + w]


def conv2d(x, weight, bias=None) -> Tensor:
    """2-D convolution (cross-correlation), odd kernel, stride 1, 'same' padding.

    x: (B, C_in, H, W); weight: (C_out, C_in, kh, kw); bias: (C_out,).
    Spatial extent is preserved.

    Every frame is convolved on its own, so the B frames run as chunks on
    the shared pool, each chunk's im2col columns fitting
    ``_CONV_FRAME_BUDGET``. A chunk writes its GEMM straight into its slice
    of the output; backward recomputes its columns instead of keeping them,
    writes its slice of the input gradient, and returns its part of the
    weight gradient, which the parts sum in chunk order. Output and input
    gradient equal the whole-batch op bitwise; the weight gradient is
    bitwise the same for any worker count.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    c_out, c_in, kh, kw = weight.shape
    if x.ndim != 4 or x.shape[1] != c_in:
        raise ShapeError(f"conv2d: input {x.shape} does not match weight {weight.shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError("conv2d: kernel extents must be odd")
    b, _, h, w = x.shape
    xv = x.data
    wmat = weight.data.reshape(c_out, c_in * kh * kw)
    bounds = pool._chunk_bounds(b, wmat.shape[1] * h * w * xv.dtype.itemsize,
                                _CONV_FRAME_BUDGET)
    parents = [x, weight]
    if bias is not None:
        bias = as_tensor(bias)
        parents.append(bias)
    out = np.empty((b, c_out, h * w), dtype=np.result_type(*(p.data for p in parents)))

    def forward(i):
        s, e = bounds[i]
        np.matmul(wmat, _im2col(xv[s:e], kh, kw), out=out[s:e])
        if bias is not None:
            out[s:e] += bias.data[:, None]

    pool._run_chunks(forward, len(bounds))

    def backward_fn(g):
        gmat = g.reshape(b, c_out, h * w)
        gx = np.empty_like(xv) if x.requires_grad else None
        parts = [None] * len(bounds)

        def backward(i):
            s, e = bounds[i]
            cols = _im2col(xv[s:e], kh, kw)
            parts[i] = np.einsum("bop,bkp->ok", gmat[s:e], cols, optimize=True)
            if gx is not None:
                gx[s:e] = _col2im(np.matmul(wmat.T, gmat[s:e]), gx[s:e].shape, kh, kw)

        pool._run_chunks(backward, len(bounds))
        gw = parts[0]
        for part in parts[1:]:
            gw += part
        gw = gw.reshape(weight.shape)
        if bias is not None:
            return gx, gw, gmat.sum(axis=(0, 2))
        return gx, gw

    return _make(out.reshape(b, c_out, h, w), parents, backward_fn, "conv2d")


def depthwise_conv1d(x, weight, bias=None) -> Tensor:
    """Causal depthwise convolution along the sequence axis.

    x: (B, L, D); weight: (D, K); bias: (D,). Output t only sees inputs
    at positions <= t (left zero padding of K-1).
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 3 or weight.ndim != 2 or x.shape[2] != weight.shape[0]:
        raise ShapeError(f"depthwise_conv1d: input {x.shape} vs weight {weight.shape}")
    b, l, d = x.shape
    k = weight.shape[1]
    xp = np.pad(x.data, ((0, 0), (k - 1, 0), (0, 0)))
    out = np.zeros((b, l, d), dtype=x.dtype)
    for i in range(k):
        out += xp[:, i:i + l, :] * weight.data[:, i]
    parents = [x, weight]
    if bias is not None:
        bias = as_tensor(bias)
        out = out + bias.data
        parents.append(bias)

    def backward_fn(g):
        gw = np.empty_like(weight.data)
        gxp = np.zeros_like(xp)
        for i in range(k):
            gw[:, i] = np.einsum("bld,bld->d", g, xp[:, i:i + l, :])
            gxp[:, i:i + l, :] += g * weight.data[:, i]
        gx = gxp[:, k - 1:, :]
        if bias is not None:
            return gx, gw, g.sum(axis=(0, 1))
        return gx, gw

    return _make(out, parents, backward_fn, "depthwise_conv1d")


# ---------------------------------------------------------------------------
# batch normalization

def batchnorm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
              training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Per-channel batch normalization over a (B, C, H, W) stack.

    Training mode normalizes with batch statistics over axes (0, 2, 3) and
    updates the running buffers in place (unbiased variance, torch
    convention). Inference mode uses the running buffers.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 4 or x.shape[1] != gamma.size:
        raise ShapeError(f"batchnorm: input {x.shape} vs {gamma.size} channels")
    axes = (0, 2, 3)
    shape_c = (1, -1, 1, 1)
    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        m = x.size // x.shape[1]
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * (var * m / max(m - 1, 1))
    else:
        mu = running_mean.astype(x.dtype)
        var = running_var.astype(x.dtype)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu.reshape(shape_c)) * inv_std.reshape(shape_c)
    out_data = gamma.data.reshape(shape_c) * xhat + beta.data.reshape(shape_c)

    def backward_fn(g):
        g_gamma = (g * xhat).sum(axis=axes)
        g_beta = g.sum(axis=axes)
        gh = g * gamma.data.reshape(shape_c)
        if training:
            m = x.size // x.shape[1]
            gx = (inv_std.reshape(shape_c) / m) * (
                m * gh
                - gh.sum(axis=axes, keepdims=True)
                - xhat * (gh * xhat).sum(axis=axes, keepdims=True)
            )
        else:
            gx = gh * inv_std.reshape(shape_c)
        return gx, g_gamma, g_beta

    return _make(out_data, (x, gamma, beta), backward_fn, "batchnorm")


# ---------------------------------------------------------------------------
# op registry and backward pass

OPS = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "matmul": matmul,
    "conv2d": conv2d,
    "depthwise_conv1d": depthwise_conv1d,
    "exp": exp,
    "softplus": softplus,
    "silu": silu,
    "relu": relu,
    "sigmoid": sigmoid,
    "max_over_axis": max_over_axis,
    "mean": mean,
    "sum": sum_,
    "reshape": reshape,
    "transpose": transpose,
    "slice": slice_,
    "concat": concat,
    "softmax": softmax,
    "batchnorm": batchnorm,
}


def forward_primitive(op_kind: str, *inputs, **kwargs) -> Tensor:
    """Dispatch a primitive by name. ``op_kind`` must be a registered kind."""
    try:
        fn = OPS[op_kind]
    except KeyError:
        raise KeyError(f"unknown op_kind '{op_kind}'") from None
    return fn(*inputs, **kwargs)


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Populate ``grad`` for every tracked tensor reachable from ``loss``.

    ``loss`` must be a scalar produced on the tape. The traversed part of
    the tape is released afterwards; a second call on the same result
    raises.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._backward_done:
        raise RuntimeError("backward already ran for this result; run a new forward pass")
    if not loss.requires_grad:
        raise RuntimeError("loss is not connected to any tracked tensor")
    _backprop(loss, np.ones_like(loss.data))


def _backprop(root: Tensor, seed: np.ndarray):
    """Reverse pass from ``root`` with d(objective)/d(root) = ``seed``.

    The engine under ``backward``; ops that run sub-graphs of their own
    (``ssm.MambaBlock``) call it for each sub-graph from their backward.
    """
    order = _toposort(root)
    root.grad = seed
    for node in reversed(order):
        if node._backward_fn is None or node.grad is None:
            continue
        grads = node._backward_fn(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None:
                continue
            if parent.requires_grad or parent._backward_fn is not None:
                parent.accumulate_grad(g)
    for node in order:
        node._parents = ()
        node._backward_fn = None
        node._backward_done = True
