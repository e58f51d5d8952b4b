"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array. Every operation on tensors is a
function of this module (``add(a, b)``, ``matmul(x, w)``,
``reshape(x, shape)``): a ``Tensor`` has no arithmetic operators or
tensor methods. An op records itself on an implicit tape when
``recording`` says so: grad mode is on and some input is tracked.
``backward(loss)`` on a scalar result replays the tape in reverse
topological order and accumulates gradients into every tracked leaf.

Each op has one operand form, the one the package passes: ``matmul(x, w)``
is ``x @ w`` for a (K, N) weight, the convolutions take a bias, and
``max_over_axis`` a validity mask; the elementwise ops broadcast.

Memory: the tape links each tensor's ``_Node`` (its gradient and backward
link), not the tensor itself, so an intermediate array lives until
backward only where an op's backward function captured it, and each op
captures only what its backward reads. ``add``, ``sub``, ``sum_``,
``mean``, ``reshape``, ``slice_``, ``max_over_axis`` and ``gather_rows``
keep shapes (and a dtype or indices), no operand values; ``exp``,
``sigmoid`` and ``relu`` keep their output, ``softplus`` and ``silu``
their input; ``batchnorm`` keeps its normalized input, not its input, and
``conv_bn_relu`` its input, its normalized conv output and its output.
Backward releases the tape as it walks it: once a node's backward has run,
the node drops its backward function (and the arrays it captured), its
parent links and, unless it is a leaf, its gradient. So an activation
lives only until the backward of the last op that read it, and after
backward only leaves hold a ``grad``.

Two precision regimes are supported: float32 (training default) and
float64 (used by the verification suites). The dtype of an operation
follows its tensor inputs; a bare Python number takes the dtype of the
tensor it is combined with, as numpy treats Python scalars.

Every forward op that computes values checks them for NaN/Inf and raises
``NonFiniteError`` instead of letting bad values propagate. The shape ops
(``reshape``, ``transpose``, ``slice_``, ``gather_rows``, ``scatter_rows``)
only move values, which the op that computed them has checked, so they do
not check again; a NaN in a leaf is caught by the first op that computes
with it. ``conv_bn_relu`` checks each frame chunk on the pool, before its
ReLU, which would turn -inf into 0.

One floating-point error policy: numpy computes quietly and a finiteness
check raises (an inf gradient from a backward makes ``Adam.step`` skip the
step). Its one object, ``_quiet``, numpy's error state set to ignore all,
decorates every op that does arithmetic, ``_backprop`` (so every backward),
``ssm.selective_scan_fused``, ``ssm.zoh_phi`` and ``trainer.Adam.step``.
That state is a context variable, so it reaches ``pool._map``'s tasks.
Only the decorator form nests: one instance entered twice as a block raises.

Threading: tensor values are immutable after creation (gradient
accumulation is the one exception), and a forward+backward pass is
single-threaded with respect to its graph. Values may be handed between
threads; independent graphs may run in parallel. Three ops use the
package's one thread pool (``pool``), each as one node of the outer graph,
and all follow its one protocol: cut the leading axis with
``pool._chunk_bounds``, run one task per chunk with ``pool._map``, and add
the chunks' partial gradients with ``pool._map_sum`` as the chunks finish,
so about one partial per worker is alive, not one per chunk.
``ssm.MambaBlock`` is the one place that splits pixel sequences. Its
forward runs each chunk under ``no_grad`` and keeps only the chunk's
input; its backward replays each chunk as a sub-graph of its own, recorded
whatever grad mode backward runs under, over parameter copies whose
``grad`` only that chunk touches. The selective scan inside a chunk is a
single pass on that chunk's thread. ``conv2d`` splits the frames of its
(B, C, H, W) stack into chunks whose im2col columns fit
``_CONV_FRAME_BUDGET``, or of one frame, as for the paper's 128-channel
conv: each chunk's im2col + GEMM writes its output slice, and backward
recomputes the chunk's columns, so a task's scratch stays one frame's.
``conv_bn_relu`` runs on conv2d's chunks and has each chunk finish its
own output slice: the batchnorm affine, the check, the ReLU. No pool task
asks the pool for work.
Grad mode is per thread (and per asyncio task): ``no_grad()`` in one
thread leaves tape recording on in every other.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Iterable, Sequence

import numpy as np

from . import pool

DEFAULT_DTYPE = np.float32
# bytes of one conv2d frame chunk's im2col columns (C_in*kh*kw*H*W each),
# which bound its backward scratch too: one frame of the paper's 128-channel
# 3x3 conv on 16x16 (1.18 MB; a chunk has at least one frame), 7 of a
# 16-channel one
_CONV_FRAME_BUDGET = 2**20

# a context variable, so each thread starts with recording on
_GRAD_ENABLED = contextvars.ContextVar("grad_enabled", default=True)
# the one floating-point error policy, applied as a decorator (see above)
_quiet = np.errstate(all="ignore")


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class NonFiniteError(ArithmeticError):
    """A forward op produced NaN or Inf."""


@contextlib.contextmanager
def _grad_mode(enabled: bool):
    """Tape recording on or off inside the block, in the calling thread only."""
    token = _GRAD_ENABLED.set(enabled)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def no_grad():
    """Disable tape recording inside the block (inference mode), in the
    calling thread only."""
    return _grad_mode(False)


def grad_enabled() -> bool:
    return _GRAD_ENABLED.get()


def recording(*tensors: Tensor) -> bool:
    """Whether an op on ``tensors`` goes on the tape: grad mode is on in
    the calling thread and some input is tracked."""
    return grad_enabled() and any(t.requires_grad for t in tensors)


class _Node:
    """A tensor's place on the tape: its gradient and backward link, no values."""

    __slots__ = ("grad", "requires_grad", "parents", "backward_fn", "op", "done", "dtype")

    def __init__(self, dtype, requires_grad=False, parents=(), backward_fn=None, op=""):
        self.grad = None
        self.requires_grad = requires_grad
        self.parents = parents
        self.backward_fn = backward_fn
        self.op = op
        self.done = False
        self.dtype = dtype

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            self.grad = g.astype(self.dtype, copy=True)
        else:
            self.grad += g


class Tensor:
    """N-dimensional array, optionally participating in the gradient tape.

    It holds values and a tape link only; arithmetic on it is done with
    the module's op functions.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self._node = _Node(arr.dtype, bool(requires_grad))

    @property
    def grad(self):
        return self._node.grad

    @grad.setter
    def grad(self, g):
        self._node.grad = g

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @property
    def _backward_fn(self):
        # read and replaced by perfbench/tracer.py to time the scan's backward
        return self._node.backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn):
        self._node.backward_fn = fn

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

    def zero_grad(self):
        self._node.grad = None

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}{flag}, op={self._node.op or 'leaf'})"


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _check_finite(arr: np.ndarray, op: str):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"op '{op}' produced non-finite values")


def _make(out_data: np.ndarray, parents: Sequence[Tensor], backward_fn, op: str,
          checked: bool = False) -> Tensor:
    """The op's result, recorded on the tape if grad mode is on and a parent
    is tracked. Its values are checked for NaN/Inf unless they are
    ``checked`` already: by the op itself, or, for an op that only moves
    values, by the op that computed them."""
    if not checked:
        _check_finite(out_data, op)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    if recording(*parents):
        out._node = _Node(out_data.dtype, True, tuple(p._node for p in parents), backward_fn, op)
    else:
        out._node = _Node(out_data.dtype, op=op)
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

@_quiet
def _binary(a, b, fwd, op):
    """The operands as tensors and ``fwd`` of their values."""
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
        return a, b, fwd(a.data, b.data)
    except ValueError as e:
        raise ShapeError(f"{op}: {a.shape} vs {b.shape}") from e


def add(a, b) -> Tensor:
    a, b, out_data = _binary(a, b, np.add, "add")
    shape_a, shape_b = a.shape, b.shape      # backward keeps no operand values alive

    def backward_fn(g):
        return _unbroadcast(g, shape_a), _unbroadcast(g, shape_b)

    return _make(out_data, (a, b), backward_fn, "add")


def sub(a, b) -> Tensor:
    a, b, out_data = _binary(a, b, np.subtract, "sub")
    shape_a, shape_b = a.shape, b.shape      # backward keeps no operand values alive

    def backward_fn(g):
        return _unbroadcast(g, shape_a), _unbroadcast(-g, shape_b)

    return _make(out_data, (a, b), backward_fn, "sub")


def mul(a, b) -> Tensor:
    a, b, out_data = _binary(a, b, np.multiply, "mul")

    def backward_fn(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out_data, (a, b), backward_fn, "mul")


@_quiet
def matmul(x, w) -> Tensor:
    """``x @ w`` for a layer's (K, N) weight ``w`` along the last axis of
    ``x`` (..., K; a 1-D ``x`` is one row); any other ``w`` is a ShapeError.
    Backward is two 2-D GEMMs over the flattened leading axes of ``x``."""
    x, w = as_tensor(x), as_tensor(w)
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"matmul: {x.shape} @ {w.shape}, expected (..., K) @ (K, N)")
    out_data = np.matmul(np.ascontiguousarray(x.data), np.ascontiguousarray(w.data))
    k, n = w.shape

    def backward_fn(g):
        g2 = g.reshape(-1, n)
        gw = x.data.reshape(-1, k).T @ g2
        return (g2 @ w.data.T).reshape(x.shape), gw

    return _make(out_data, (x, w), backward_fn, "matmul")


# ---------------------------------------------------------------------------
# elementwise unary ops

@_quiet
def _unary(x, fwd, dfn, op, of_output=False):
    """``fwd`` of x's values; backward is ``dfn(g, v)``, where v is the
    output if ``of_output`` and the input otherwise, the one array kept."""
    x = as_tensor(x)
    out_data = fwd(x.data)
    kept = out_data if of_output else x.data

    def backward_fn(g):
        return (dfn(g, kept),)

    return _make(out_data, (x,), backward_fn, op)


def exp(x) -> Tensor:
    return _unary(x, np.exp, lambda g, o: g * o, "exp", of_output=True)


# The activation kernels work in place on one fresh array of x's shape;
# ``out=np.empty_like(x)`` keeps that an array for 0-d inputs too.

def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1 + e^-x); where e^-x overflows to inf the result is the limit 0
    out = np.negative(x, out=np.empty_like(x))
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
    return _unary(x, _sigmoid, lambda g, o: g * o * (1.0 - o), "sigmoid", of_output=True)


def _softplus_grad(g, x_):
    s = _sigmoid(x_)
    s *= g
    return s


def softplus(x) -> Tensor:
    return _unary(x, _softplus, _softplus_grad, "softplus")


def _silu(x: np.ndarray) -> np.ndarray:
    s = _sigmoid(x)
    s *= x
    return s


def _silu_grad(g, x_):
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
    # out > 0 is the mask x > 0, so backward keeps the output, not the input
    return _unary(x, lambda v: np.maximum(v, 0.0),
                  lambda g, o: g * (o > 0), "relu", of_output=True)


# ---------------------------------------------------------------------------
# reductions

@_quiet
def sum_(x, axis=None) -> Tensor:
    x = as_tensor(x)
    out_data = x.data.sum(axis=axis)
    shape = x.shape

    def backward_fn(g):
        g_ = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g_, shape).copy(),)

    return _make(np.asarray(out_data), (x,), backward_fn, "sum")


@_quiet
def mean(x, axis=None) -> Tensor:
    x = as_tensor(x)
    out_data = x.data.mean(axis=axis)
    count = x.size if axis is None else np.prod([x.shape[a] for a in np.atleast_1d(axis)])
    shape = x.shape

    def backward_fn(g):
        g_ = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g_ / count, shape).copy(),)

    return _make(np.asarray(out_data), (x,), backward_fn, "mean")


def max_over_axis(x, axis: int, mask: np.ndarray) -> Tensor:
    """Maximum along one axis over the ``mask==True`` entries only.

    ``mask`` is a plain boolean array broadcastable to ``x`` and is not
    differentiated. Each reduced slice must contain at least one valid
    entry. Ties route the gradient to the lowest index. When the result is
    not recorded it is a masked ``np.max``, with no argmax and no masked
    copy of ``x``; the values are the same.
    """
    x = as_tensor(x)
    # checked before it is broadcast: a slice of the broadcast mask is
    # empty only if the slice of the mask it repeats is
    mask = np.asarray(mask, bool)
    if np.broadcast_shapes(mask.shape, x.shape) != x.shape:
        raise ShapeError(f"max_over_axis: mask {mask.shape} vs input {x.shape}")
    mask = mask.reshape((1,) * (x.ndim - mask.ndim) + mask.shape)
    if not mask.any(axis=axis).all():
        raise ValueError("max_over_axis: empty valid set along axis")
    if not recording(x):
        # no backward will read the argmax: a masked max is the same value
        out_data = np.max(x.data, axis=axis, where=mask, initial=-np.inf)
        return _make(out_data, (x,), None, "max_over_axis")
    work = np.where(mask, x.data, -np.inf)
    idx = np.expand_dims(np.argmax(work, axis=axis), axis)
    out_data = np.squeeze(np.take_along_axis(work, idx, axis=axis), axis=axis)
    shape, dtype = x.shape, x.dtype

    def backward_fn(g):
        gx = np.zeros(shape, dtype)
        np.put_along_axis(gx, idx, np.expand_dims(g, axis), axis=axis)
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
    in_shape = x.shape

    def backward_fn(g):
        return (g.reshape(in_shape),)

    return _make(out_data, (x,), backward_fn, "reshape", checked=True)


# slices of the tiled axis that one copy of ``_transpose_copy`` moves
_TRANSPOSE_TILE = 4


def _transpose_copy(x: np.ndarray, axes: tuple) -> np.ndarray:
    """np.transpose(x, axes) as a fresh C-contiguous array, copied in tiles.

    A whole-array copy walks the source with its largest strides inside the
    loop and misses the cache at every step. Cutting the output axis whose
    source stride is largest after the first one into slices of
    ``_TRANSPOSE_TILE`` keeps each slice's reads within a few cache-sized
    blocks: the (8, 30, 128, 16, 16) -> (8, 16, 16, 30, 128) float32 stack
    of a paper-width predict batch copies in about 18 ms instead of 50 ms
    on one core. The values are the same bits either way.
    """
    src = np.transpose(x, axes)
    out = np.empty(src.shape, dtype=src.dtype)
    if src.ndim < 3:
        out[...] = src
        return out
    k = 1 + int(np.argmax(np.abs(src.strides[1:])))
    for s in range(0, src.shape[k], _TRANSPOSE_TILE):
        tile = (slice(None),) * k + (slice(s, s + _TRANSPOSE_TILE),)
        out[tile] = src[tile]
    return out


def transpose(x, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    # materialized: strided views downstream would steer BLAS onto
    # layout-dependent code paths and break bitwise batch invariances
    out_data = _transpose_copy(x.data, axes)
    inv = tuple(np.argsort(axes))

    def backward_fn(g):
        return (np.transpose(g, inv),)

    return _make(out_data, (x,), backward_fn, "transpose", checked=True)


def slice_(x, key) -> Tensor:
    """Basic (non-fancy) indexing: slices and integer indices."""
    x = as_tensor(x)
    out_data = x.data[key]
    shape, dtype = x.shape, x.dtype

    def backward_fn(g):
        gx = np.zeros(shape, dtype)
        gx[key] = g
        return (gx,)

    return _make(out_data, (x,), backward_fn, "slice", checked=True)


def _check_rows(rows, n: int, op: str) -> np.ndarray:
    rows = np.asarray(rows)
    if (rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer)
            or (rows.size and (rows[0] < 0 or rows[-1] >= n or np.any(np.diff(rows) <= 0)))):
        raise ShapeError(f"{op}: rows must be strictly increasing indices into {n} rows")
    return rows


def _scatter(values: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((n,) + values.shape[1:], dtype=values.dtype)
    out[rows] = values
    return out


def gather_rows(x, rows) -> Tensor:
    """x[rows] along the leading axis. ``rows`` is a plain, strictly
    increasing integer array (not differentiated); the backward is
    ``scatter_rows``."""
    x = as_tensor(x)
    n = x.shape[0]
    rows = _check_rows(rows, n, "gather_rows")

    def backward_fn(g):
        return (_scatter(g, rows, n),)

    return _make(x.data[rows], (x,), backward_fn, "gather_rows", checked=True)


def scatter_rows(x, rows, n: int) -> Tensor:
    """n rows of zeros with x's rows written at ``rows`` (strictly
    increasing, one per row of x); the backward is ``gather_rows``."""
    x = as_tensor(x)
    rows = _check_rows(rows, n, "scatter_rows")
    if rows.size != x.shape[0]:
        raise ShapeError(f"scatter_rows: {rows.size} rows for an input of {x.shape[0]}")

    def backward_fn(g):
        return (g[rows],)

    return _make(_scatter(x.data, rows, n), (x,), backward_fn, "scatter_rows", checked=True)


def concat(tensors: Iterable, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        return tuple(np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
                     for i in range(len(sizes)))

    return _make(out_data, ts, backward_fn, "concat")


# ---------------------------------------------------------------------------
# softmax / cross-entropy

@_quiet
def softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        s = out_data
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _make(out_data, (x,), backward_fn, "softmax")


@_quiet
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


def _conv_parts(x, weight, bias):
    """A conv2d's checked operands and its chunked work, for ``conv2d`` and
    ``conv_bn_relu``: the parents, the empty (B, C_out, H, W) output, its
    frame chunks (``_CONV_FRAME_BUDGET`` bytes of columns each, at least one
    frame), the task that fills one chunk of the output, and the backward
    function, which keeps no output values. Backward writes each chunk's
    slice of the input gradient, and ``pool._map_sum`` adds the chunks'
    weight-gradient partials in chunk order as they finish."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    c_out, c_in, kh, kw = weight.shape
    if x.ndim != 4 or x.shape[1] != c_in:
        raise ShapeError(f"conv2d: input {x.shape} does not match weight {weight.shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError("conv2d: kernel extents must be odd")
    b, _, h, w = x.shape
    xv, x_grad = x.data, x.requires_grad
    wmat = weight.data.reshape(c_out, c_in * kh * kw)
    bounds = pool._chunk_bounds(b, wmat.shape[1] * h * w * xv.dtype.itemsize,
                                _CONV_FRAME_BUDGET)
    parents = (x, weight, bias)
    out = np.empty((b, c_out, h, w), dtype=np.result_type(*(p.data for p in parents)))

    def run(bound):
        s, e = bound
        chunk = out[s:e].reshape(e - s, c_out, h * w)
        np.matmul(wmat, _im2col(xv[s:e], kh, kw), out=chunk)
        chunk += bias.data[:, None]

    def backward_fn(g):
        gmat = g.reshape(b, c_out, h * w)
        gx = np.empty_like(xv) if x_grad else None

        def backward(bound):
            s, e = bound
            part = np.einsum("bop,bkp->ok", gmat[s:e], _im2col(xv[s:e], kh, kw), optimize=True)
            if gx is not None:
                gx[s:e] = _col2im(np.matmul(wmat.T, gmat[s:e]), gx[s:e].shape, kh, kw)
            return [part]

        gw = pool._map_sum(backward, bounds)[0].reshape(weight.shape)
        return gx, gw, gmat.sum(axis=(0, 2))

    return parents, out, bounds, run, backward_fn


@_quiet
def conv2d(x, weight, bias) -> Tensor:
    """2-D convolution (cross-correlation), odd kernel, stride 1, 'same' padding.

    x: (B, C_in, H, W); weight: (C_out, C_in, kh, kw); bias: (C_out,).
    Spatial extent is preserved.

    Every frame is convolved on its own, so the B frames run as chunks on
    the shared pool, each chunk's im2col columns fitting
    ``_CONV_FRAME_BUDGET`` (1 MiB: one frame of the paper's 128-channel
    conv). A chunk writes its GEMM straight into its slice of the output;
    backward recomputes its columns instead of keeping them, writes its
    slice of the input gradient, and returns its part of the weight
    gradient, which ``pool._map_sum`` adds up in chunk order as the chunks
    finish. Output and input gradient equal the whole-batch op bitwise; the
    weight gradient is bitwise the same for any worker count.
    """
    parents, out, bounds, run, backward_fn = _conv_parts(x, weight, bias)
    pool._map(run, bounds)
    return _make(out, parents, backward_fn, "conv2d")


@_quiet
def depthwise_conv1d(x, weight, bias) -> Tensor:
    """Causal depthwise convolution along the sequence axis.

    x: (B, L, D); weight: (D, K); bias: (D,). Output t only sees inputs
    at positions <= t (left zero padding of K-1).
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.ndim != 3 or weight.ndim != 2 or x.shape[2] != weight.shape[0]:
        raise ShapeError(f"depthwise_conv1d: input {x.shape} vs weight {weight.shape}")
    l, k = x.shape[1], weight.shape[1]
    xv, wv = x.data, weight.data
    # tap i reads s = k-1-i steps back: out[:, t] += x[:, t-s] * w[:, i] for t >= s
    taps = [(i, k - 1 - i) for i in range(k) if k - 1 - i < l]
    out = np.zeros(xv.shape, dtype=xv.dtype)
    for i, s in taps:
        out[:, s:] += xv[:, :l - s] * wv[:, i]
    out = out + bias.data

    def backward_fn(g):
        gw = np.zeros_like(wv)
        gx = np.zeros_like(xv)
        for i, s in taps:
            gw[:, i] = np.einsum("bld,bld->d", g[:, s:], xv[:, :l - s])
            gx[:, :l - s] += g[:, s:] * wv[:, i]
        return gx, gw, g.sum(axis=(0, 1))

    return _make(out, (x, weight, bias), backward_fn, "depthwise_conv1d")


# ---------------------------------------------------------------------------
# batch normalization

_BN_AXES = (0, 2, 3)      # batchnorm reduces a (B, C, H, W) stack over all but C
_BN_CHANNEL = (1, -1, 1, 1)
_BN_MOMENTUM, _BN_EPS = 0.1, 1e-5     # torch's defaults


def _bn_stats(xv: np.ndarray, running_mean: np.ndarray, running_var: np.ndarray,
              training: bool, momentum: float, eps: float, op: str):
    """The per-channel mean and 1/std that batchnorm normalizes ``xv`` with,
    shaped to broadcast over it. Training takes the batch's and folds them
    into the running buffers in place (unbiased variance, torch convention);
    inference takes the running buffers. Non-finite batch statistics
    raise ``NonFiniteError``, naming the calling ``op``, before the buffers
    are touched; an inf or NaN anywhere in ``xv`` makes one of them
    non-finite, so this also checks ``xv``."""
    if training:
        m = xv.size // xv.shape[1]
        mu = xv.mean(axis=_BN_AXES)
        var = xv.var(axis=_BN_AXES)
        if not (np.isfinite(mu).all() and np.isfinite(var).all()):
            raise NonFiniteError(f"{op}: batch statistics are non-finite")
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * (var * m / max(m - 1, 1))
    else:
        mu = running_mean.astype(xv.dtype)
        var = running_var.astype(xv.dtype)
    inv_std = 1.0 / np.sqrt(var + eps)
    return mu.reshape(_BN_CHANNEL), inv_std.reshape(_BN_CHANNEL)


def _bn_normalize(xv, mu, inv_std, gamma_c, beta_c, xhat, out):
    """xhat = (xv - mu) * inv_std and out = gamma * xhat + beta, written into
    the given arrays, which may be ``xv`` itself and each other."""
    np.subtract(xv, mu, out=xhat)
    xhat *= inv_std
    np.multiply(gamma_c, xhat, out=out)
    out += beta_c


def _bn_backward(g, xhat, gamma_c, inv_std, training: bool, out=None):
    """Gradients of batchnorm's input, gamma and beta from its output's; the
    input's is written into ``out`` if given, which may be ``g`` itself."""
    g_gamma = (g * xhat).sum(axis=_BN_AXES)
    g_beta = g.sum(axis=_BN_AXES)
    gh = g * gamma_c
    if training:
        m = g.size // g.shape[1]
        gx = np.multiply(inv_std / m, (
            m * gh
            - gh.sum(axis=_BN_AXES, keepdims=True)
            - xhat * (gh * xhat).sum(axis=_BN_AXES, keepdims=True)
        ), out=out)
    else:
        gx = np.multiply(gh, inv_std, out=out)
    return gx, g_gamma, g_beta


@_quiet
def batchnorm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
              training: bool, momentum: float = _BN_MOMENTUM, eps: float = _BN_EPS) -> Tensor:
    """Per-channel batch normalization over a (B, C, H, W) stack.

    Training mode normalizes with batch statistics over axes (0, 2, 3) and
    updates the running buffers in place (unbiased variance, torch
    convention). Inference mode uses the running buffers.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 4 or x.shape[1] != gamma.size:
        raise ShapeError(f"batchnorm: input {x.shape} vs {gamma.size} channels")
    mu, inv_std = _bn_stats(x.data, running_mean, running_var, training, momentum, eps,
                            "batchnorm")
    gamma_c, beta_c = gamma.data.reshape(_BN_CHANNEL), beta.data.reshape(_BN_CHANNEL)
    xhat = np.empty(x.shape, np.result_type(x.data, mu, inv_std))
    out_data = np.empty(x.shape, np.result_type(xhat, gamma_c, beta_c))
    _bn_normalize(x.data, mu, inv_std, gamma_c, beta_c, xhat, out_data)

    def backward_fn(g):
        return _bn_backward(g, xhat, gamma_c, inv_std, training)

    return _make(out_data, (x, gamma, beta), backward_fn, "batchnorm")


@_quiet
def conv_bn_relu(x, weight, bias, gamma, beta, running_mean: np.ndarray,
                 running_var: np.ndarray, training: bool) -> Tensor:
    """relu(batchnorm(conv2d(x, weight, bias), ...)) as one op, bitwise equal
    to the three ops in outputs, running buffers and gradients.

    Each conv frame chunk (``conv2d``'s, one frame of the paper's
    128-channel conv) finishes its own output slice on the pool: the
    batchnorm affine, then a check for NaN/Inf, which also catches a
    non-finite conv output, then the ReLU, all in place. Inference
    normalizes with the running buffers, so that is one pool pass. Training
    convolves every chunk first, takes the batch statistics over the whole
    conv output (``_bn_stats``, whose check covers every conv value), and
    finishes the chunks in a second pass. Unless the result is recorded, no
    whole-stack array but the conv output is made. When it is, the op keeps
    the normalized conv output and its own output, and backward is the ReLU
    mask, batchnorm's backward over the whole stack, then conv2d's chunked
    backward, whose weight-gradient partials ``pool._map_sum`` adds as the
    chunks finish.
    """
    conv_parents, xhat, bounds, convolve, conv_backward = _conv_parts(x, weight, bias)
    gamma, beta = as_tensor(gamma), as_tensor(beta)
    if xhat.shape[1] != gamma.size:
        raise ShapeError(f"batchnorm: input {xhat.shape} vs {gamma.size} channels")
    parents = (*conv_parents, gamma, beta)
    recorded = recording(*parents)
    gamma_c, beta_c = gamma.data.reshape(_BN_CHANNEL), beta.data.reshape(_BN_CHANNEL)
    dtype = np.result_type(xhat, gamma_c, beta_c)
    # the conv output becomes xhat in place; unless it is kept for backward,
    # the output too
    out = np.empty(xhat.shape, dtype) if recorded or dtype != xhat.dtype else xhat

    def finish(bound):
        s, e = bound
        _bn_normalize(xhat[s:e], mu, inv_std, gamma_c, beta_c, xhat[s:e], out[s:e])
        _check_finite(out[s:e], "conv_bn_relu")
        np.maximum(out[s:e], 0.0, out=out[s:e])

    def one_pass(bound):
        convolve(bound)
        finish(bound)

    if training:
        pool._map(convolve, bounds)
    mu, inv_std = _bn_stats(xhat, running_mean, running_var, training, _BN_MOMENTUM, _BN_EPS,
                            "conv_bn_relu")
    pool._map(finish if training else one_pass, bounds)

    conv_dtype = xhat.dtype

    def backward_fn(g):
        # as between the three unfused ops' backwards, no more than one
        # whole-stack gradient lives at a time: the ReLU mask and then
        # batchnorm's input gradient are written over g, which is this
        # node's own (see ``_backprop``), and out and xhat go once read
        nonlocal out, xhat
        np.multiply(g, out > 0, out=g)
        out = None
        g, g_gamma, g_beta = _bn_backward(g, xhat, gamma_c, inv_std, training, out=g)
        xhat = None
        return (*conv_backward(g.astype(conv_dtype, copy=False)), g_gamma, g_beta)

    return _make(out, parents, backward_fn, "conv_bn_relu", checked=True)


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
    "gather_rows": gather_rows,
    "scatter_rows": scatter_rows,
    "concat": concat,
    "softmax": softmax,
    "batchnorm": batchnorm,
    "conv_bn_relu": conv_bn_relu,
}


def _toposort(root: _Node) -> list[_Node]:
    order: list[_Node] = []
    visited: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Populate ``grad`` for every tracked leaf reachable from ``loss``.

    ``loss`` must be a scalar produced on the tape. The tape is released as
    the pass goes: each node drops its backward function (with the arrays
    it captured), its parent links and, unless it is a leaf, its gradient
    once its backward has run. So only leaves keep ``.grad``; an
    intermediate result's reads None afterwards. A second call on the same
    result raises, also after a backward that failed partway.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._node.done:
        raise RuntimeError("backward already ran for this result; run a new forward pass")
    if not loss.requires_grad:
        raise RuntimeError("loss is not connected to any tracked tensor")
    _backprop(loss._node, np.ones_like(loss.data))


@_quiet
def _backprop(root: _Node, seed: np.ndarray):
    """Reverse pass from ``root`` with d(objective)/d(root) = ``seed``.

    The engine under ``backward``; ops that run sub-graphs of their own
    (``ssm.MambaBlock``) call it for each sub-graph from their backward.
    Each node is marked done and detached before its backward function
    runs, so the function, its captured arrays and the node's gradient
    are freed as the pass goes, and a pass that raised cannot be rerun.
    A backward function is handed a gradient that nothing reads after it
    (``accumulate_grad`` copies what it is given, and the caller gives up
    ``seed``), so it may overwrite it.
    """
    order = _toposort(root)
    root.grad = seed
    while order:
        node = order.pop()
        node.done = True
        fn, g = node.backward_fn, node.grad
        if fn is None:
            continue                      # a leaf or an untracked tensor: keeps its grad
        parents = node.parents
        node.backward_fn, node.parents, node.grad = None, (), None
        if g is not None:
            for parent, gp in zip(parents, fn(g)):
                if gp is not None and (parent.requires_grad or parent.backward_fn is not None):
                    parent.accumulate_grad(gp)
        fn = g = gp = None                # nothing of this node lives into the next one
