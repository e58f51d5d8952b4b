"""State-space sequence machinery.

The continuous system  h'(t) = A h(t) + B x(t),  y(t) = C h(t)  is run in
discrete time by zero-order-hold discretization over a per-step interval
delta. A is diagonal (one decay rate per (channel, state) pair), so the
matrix exponential and inverse reduce to elementwise scalar formulas:

    A_bar = exp(delta * A)
    B_bar = (delta*A)^-1 (exp(delta*A) - 1) * delta * B = phi(delta*A) * delta * B

with phi(z) = (e^z - 1)/z. The fused scan forms phi(delta*A) * delta as
expm1(delta*A)/A, which has no z in a denominator, so A must be non-zero
there. The oracles evaluate phi itself, by a series for |z| below 1e-6 to
avoid catastrophic cancellation. Its derivative phi'(z), which the fused
scan's backward needs for A's gradient, switches to its Taylor series below
a dtype-dependent |z|.

``selective_scan_fused`` is the one production route: the input-selective
scan where delta, B and C are produced from the input at every step,
fusing discretization and recurrence into one differentiable op. The
other routes are references that the tests, ``sits-ssm verify`` and the
benchmark's correctness gate compare it against, not alternatives to it:

* ``selective_scan_composite`` - the same contract built from tape
  primitives and ``scan_recurrence``;
* ``scan_recurrence`` - the step-by-step recurrence on pre-discretized
  parameters (differentiable);
* ``kernel_convolve`` - the equivalent causal convolution with kernel
  (C B_bar, C A_bar B_bar, ..., C A_bar^(L-1) B_bar), valid only for
  time-invariant parameters (float64 oracle, not differentiable).

The fused scan is the CPU form of the hardware-aware scan of Mamba (Gu &
Dao 2023, sec. 3.3): discretization is fused into the recurrence, and the
states are recomputed in backward instead of stored from the forward (here
by ``MambaBlock``'s replay, one chunk at a time). It is a single pass
over all the sequences it is given: time-major, one step at a time,
vectorized over (B, D, N), with matmul readouts; a forward step is
h + expm1(z) (h + u b / a), with a and 1/a laid out once per call. Under
``no_grad`` the forward keeps one running (B, D, N) state. When a
gradient will be taken it keeps the whole trajectory h_0..h_L, and
backward forms expm1(z) again at each step as it walks it.

``MambaBlock(d_model, d_state, rng)`` wraps the selective scan in the
usual gated two-branch block: projection -> causal depthwise conv -> SiLU
-> selective scan on the main branch, projection -> SiLU on the gate
branch, elementwise product, output projection. Its two sizes are its
only settings, and it reads them back from its parameters' shapes. Every
step of it is per pixel sequence, and the block is the one place that
splits the sequences: into chunks of

    c = clamp(_SCAN_VECTOR_BUDGET // (D * N * itemsize), 1, B)

sequences, so that the scan's (c, D, N) working arrays fit the budget
(256 KiB: 16 sequences at D=256, N=16 in float32). The chunks run with
``pool._map`` on the package's one thread pool, which ``autodiff.conv2d``
shares for its frame chunks; it has one worker per CPU the process may
run on, and numpy releases the GIL inside its kernels. The block is one
tape node, checkpointed at the chunk boundary (Chen et al. 2016,
arXiv:1604.06174): its forward runs each chunk under ``no_grad`` and
keeps only the chunk's input; its backward replays each chunk with the
tape on, over a ``shadow`` of the block, runs that chunk's backward at
once, and adds the parameter gradients with ``pool._sum_in_order``. So
only the chunks being replayed are ever recorded, one per worker, and
the scan's trajectory is a chunk's. Chunk boundaries depend only on the
budget and every chunk is computed the same way whichever thread runs
it, so results are bitwise identical for any number of workers, and the
working arrays stay chunk-sized. Given each sequence's valid length, a
chunk runs only up to the longest one among its sequences; the block is
causal, so the steps it skips could not have changed a valid output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn, pool
from .autodiff import ShapeError, Tensor

_PHI_SWITCH = 1e-6
# the closed form of phi'(z) loses about 4 eps/|z| of its value to
# cancellation (2e-6 at the float32 switch, 4e-13 at the float64 one);
# below the switch four terms of its Taylor series are used instead, which
# are within 1.5e-6 (float32) and 1.5e-14 (float64) there
_PHI_PRIME_SWITCH = {np.dtype(np.float32): 0.1, np.dtype(np.float64): 1e-3}
_PHI_PRIME_SERIES = tuple((k + 1) / math.factorial(k + 2) for k in range(3, -1, -1))
_SCAN_VECTOR_BUDGET = 256 * 2**10   # bytes of one block chunk's (c, D, N) scan array
EXPAND = 2                          # inner width / d_model
CONV_WIDTH = 4                      # causal depthwise conv taps
DT_MIN, DT_MAX = 1e-3, 1e-1         # range of the initial step sizes delta


def _phi(z) -> np.ndarray:
    """(e^z - 1)/z with series fallback 1 + z/2 below ``_PHI_SWITCH``.

    Used by the oracles only; the fused scan forms delta * phi(delta * a)
    as expm1(delta * a)/a, which has no z in a denominator.
    """
    z = np.asarray(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(z) < _PHI_SWITCH, 1.0 + 0.5 * z, np.expm1(z) / z)


def _phi_prime(z, ez=None, em=None, out=None) -> np.ndarray:
    """d/dz[(e^z - 1)/z] = (e^z - expm1(z)/z)/z, by its Taylor series near zero.

    The difference cancels as z -> 0, so below the dtype's
    ``_PHI_PRIME_SWITCH`` the series sum_k (k+1) z^k/(k+2)! is used
    instead. The two are blended by a 0/1 mask rather than selected: a
    select on a mask without pattern is several times slower in numpy.
    ``ez`` = exp(z) and ``em`` = expm1(z) may be passed in by a caller that
    already has them.
    """
    z = np.asarray(z)
    if z.ndim == 0:
        return _phi_prime(z.reshape(1))[0]
    ez = np.exp(z) if ez is None else ez
    em = np.expm1(z) if em is None else em
    switch = _PHI_PRIME_SWITCH.get(z.dtype, _PHI_PRIME_SWITCH[np.dtype(np.float64)])
    # z clipped to the largest |z| below the switch: the series argument,
    # equal to z exactly where the series applies
    inside = np.nextafter(z.dtype.type(switch), z.dtype.type(0))
    zs = np.clip(z, -inside, inside)
    small = np.equal(zs, z, out=np.empty_like(zs), casting="unsafe")
    out = np.multiply(zs, _PHI_PRIME_SERIES[0], out=out)
    for coef in _PHI_PRIME_SERIES[1:-1]:
        out += coef
        out *= zs
    out += _PHI_PRIME_SERIES[-1]
    den = np.add(z, small, out=zs)      # denominator kept off zero where small
    closed = np.divide(em, den)
    np.subtract(ez, closed, out=closed)
    closed /= den
    out -= closed
    out *= small
    out += closed
    return out


def discretize_zoh(a: np.ndarray, b: np.ndarray, delta: np.ndarray):
    """Zero-order-hold discretization of diagonal continuous parameters.

    All arguments broadcast elementwise. ``delta`` must be positive.
    Returns (A_bar, B_bar).
    """
    a = np.asarray(a, dtype=np.float64) if not isinstance(a, np.ndarray) else a
    b = np.asarray(b)
    delta = np.asarray(delta)
    if np.any(delta <= 0):
        raise ValueError("discretize_zoh: delta must be positive")
    z = delta * a
    a_bar = np.exp(z)
    b_bar = _phi(z) * delta * b
    return a_bar, b_bar


@dataclass
class DiscreteStep:
    """Per-timestep discretized system: multiplier, input injection, readout.

    a_bar, b_bar_x: (L, D, N) or (B, L, D, N); c: (L, N) or (B, L, N).
    b_bar_x already carries the input: B_bar_t * x_t.
    """
    a_bar: Tensor
    b_bar_x: Tensor
    c: Tensor


def scan_recurrence(steps: DiscreteStep, x=None, d_skip=None) -> Tensor:
    """Run h_t = a_bar_t * h_{t-1} + b_bar_x_t; y_t = c_t . h_t (+ d_skip * x_t).

    Differentiable in all tensor arguments. The state starts at zero.
    Unbatched (L, D, N) inputs are accepted and return (L, D).
    """
    a_bar = ad.as_tensor(steps.a_bar)
    bx = ad.as_tensor(steps.b_bar_x)
    c = ad.as_tensor(steps.c)
    unbatched = a_bar.ndim == 3
    if unbatched:
        a_bar = ad.reshape(a_bar, (1,) + a_bar.shape)
        bx = ad.reshape(bx, (1,) + bx.shape)
        c = ad.reshape(c, (1,) + c.shape)
        if x is not None:
            x = ad.as_tensor(x)
            x = ad.reshape(x, (1,) + x.shape)
    if a_bar.shape != bx.shape:
        raise ShapeError(f"scan_recurrence: a_bar {a_bar.shape} vs b_bar_x {bx.shape}")
    nb, nl, nd, nn_ = a_bar.shape
    if c.shape != (nb, nl, nn_):
        raise ShapeError(f"scan_recurrence: c shape {c.shape}, expected {(nb, nl, nn_)}")

    parents = [a_bar, bx, c]
    if (x is None) != (d_skip is None):
        raise ValueError("scan_recurrence: x and d_skip must be given together")
    if x is not None:
        x = ad.as_tensor(x)
        d_skip = ad.as_tensor(d_skip)
        parents += [x, d_skip]

    av, bv, cv = a_bar.data, bx.data, c.data
    hs = np.zeros((nb, nl + 1, nd, nn_), dtype=av.dtype)
    y = np.empty((nb, nl, nd), dtype=av.dtype)
    for t in range(nl):
        hs[:, t + 1] = av[:, t] * hs[:, t] + bv[:, t]
        y[:, t] = np.einsum("bdn,bn->bd", hs[:, t + 1], cv[:, t])
    if x is not None:
        y = y + x.data * d_skip.data

    def backward_fn(g):
        lam = np.zeros((nb, nd, nn_), dtype=av.dtype)
        ga = np.empty_like(av)
        gbx = np.empty_like(bv)
        gc = np.empty_like(cv)
        for t in range(nl - 1, -1, -1):
            gy = g[:, t]
            gc[:, t] = np.einsum("bdn,bd->bn", hs[:, t + 1], gy)
            lam += gy[:, :, None] * cv[:, t][:, None, :]
            ga[:, t] = lam * hs[:, t]
            gbx[:, t] = lam
            lam = lam * av[:, t]
        grads = [ga, gbx, gc]
        if x is not None:
            grads.append(g * d_skip.data)
            grads.append(np.einsum("bld,bld->d", g, x.data))
        return tuple(grads)

    out = ad._make(y, parents, backward_fn, "scan_recurrence")
    if unbatched:
        out = ad.reshape(out, out.shape[1:])
    return out


def kernel_convolve(a_bar: np.ndarray, b_bar: np.ndarray, c: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """LTI oracle: y = x * K with K_j = C A_bar^j B_bar, causal zero padding.

    Accepts scalars (single channel, single state) or (D, N) diagonal
    parameters with x of shape (L,) or (L, D). Refuses time-varying input
    (any parameter with a leading time axis).
    """
    a_bar = np.atleast_2d(np.asarray(a_bar, dtype=np.float64))
    b_bar = np.atleast_2d(np.asarray(b_bar, dtype=np.float64))
    if a_bar.ndim > 2 or b_bar.ndim > 2 or np.asarray(c).ndim > 2:
        raise ValueError("kernel_convolve is defined for time-invariant parameters only")
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    l, d = x.shape
    n = a_bar.shape[1]
    c = np.asarray(c, dtype=np.float64)
    if c.ndim <= 1:
        c = np.broadcast_to(np.atleast_1d(c), (d, n))
    # K[j, d] = sum_n c[d,n] * a_bar[d,n]^j * b_bar[d,n]
    powers = a_bar[None, :, :] ** np.arange(l)[:, None, None]
    kernel = np.einsum("ldn,dn,dn->ld", powers, b_bar, c)
    y = np.zeros_like(x)
    for t in range(l):
        y[t] = np.einsum("jd,jd->d", kernel[: t + 1], x[t::-1][: t + 1])
    return y[:, 0] if squeeze else y


def _time_major(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(1, 0, 2))


def selective_scan_fused(u: Tensor, delta: Tensor, a: Tensor, b: Tensor,
                         c: Tensor, d_skip: Tensor) -> Tensor:
    """Input-selective scan with per-step ZOH discretization, one fused op.

    u, delta: (B, L, D); a: (D, N) diagonal (negative for stability);
    b, c: (B, L, N); d_skip: (D,). Returns (B, L, D) in u's dtype, which
    is also the dtype the scan computes in. delta must be positive and a
    non-zero: each step injects delta phi(delta a) u b with delta phi(delta a)
    formed as expm1(delta a)/a, which is exact and needs neither phi nor a
    series near z = 0.

    One pass over all B sequences on the calling thread; splitting them
    into chunks is the caller's business (``MambaBlock``). Under
    ``no_grad``, or when no input requires grad, the forward keeps one
    running (B, N, D) state. When a gradient will be taken it keeps the
    whole (L+1, B, N, D) trajectory h_0..h_L until backward, which walks
    it from the last step to the first and forms expm1(delta a) again at
    each step. The block records a scan only while it replays one chunk
    in its backward, so the trajectory is one chunk's and short-lived.
    """
    u, delta, a = ad.as_tensor(u), ad.as_tensor(delta), ad.as_tensor(a)
    b, c, d_skip = ad.as_tensor(b), ad.as_tensor(c), ad.as_tensor(d_skip)
    if u.ndim != 3 or u.shape != delta.shape:
        raise ShapeError(f"selective_scan: u {u.shape} vs delta {delta.shape}")
    nb, nl, nd = u.shape
    nn_ = a.shape[1]
    if a.shape != (nd, nn_) or b.shape != (nb, nl, nn_) or c.shape != (nb, nl, nn_):
        raise ShapeError("selective_scan: projection shapes inconsistent")
    if np.any(delta.data <= 0):
        raise ValueError("selective_scan: delta must be positive")

    parents = (u, delta, a, b, c, d_skip)
    uv, dv, av, bv, cv, skipv = (t.data for t in parents)
    keep = ad.recording(*parents)
    a_t = np.ascontiguousarray(av.T, dtype=uv.dtype)
    if not a_t.all():
        raise ValueError("selective_scan: a must be non-zero")
    dt, ut, bt, ct = (_time_major(x) for x in (dv, uv, bv, cv))
    yt = np.empty_like(ut)
    # time-major recurrence; the state is laid out (B, N, D) so that every
    # broadcast runs along D, and a and 1/a are laid out so once per call:
    # a multiply that broadcasts an operand runs as many short inner loops
    hs = np.zeros((nl + 1 if keep else 1, nb) + a_t.shape, dtype=dt.dtype)
    a_b = np.broadcast_to(a_t, hs.shape[1:]).copy()
    inv_a = np.reciprocal(a_b)
    em, bx = np.empty_like(a_b), np.empty_like(a_b)
    for t in range(nl):
        # h_{t+1} = e^z h_t + expm1(z)/a u_t b_t with z = delta_t a, formed
        # as h_t + expm1(z) (h_t + u_t b_t / a): no e^z, no divide
        h, h1 = (hs[t], hs[t + 1]) if keep else (hs[0], hs[0])
        np.multiply(dt[t][:, None, :], a_b, out=em)
        np.expm1(em, out=em)
        np.multiply(bt[t][:, :, None], ut[t][:, None, :], out=bx)
        bx *= inv_a
        bx += h
        bx *= em
        np.add(h, bx, out=h1)
        np.matmul(ct[t][:, None, :], h1, out=yt[t][:, None, :])
    del dt, ut, bt, ct, a_b, inv_a, em, bx     # free the time-major copies and buffers early
    y = np.ascontiguousarray(yt.transpose(1, 0, 2))
    del yt
    y += skipv * uv

    def backward_fn(g):
        # z = delta a, e^z = 1 + expm1(z) and s = expm1(z)/a are formed per
        # step, not stored across the call. With h_{t+1} = e^z h_t + s u b,
        # s is delta phi(z), whose delta-derivative is e^z: only ``a``'s
        # gradient needs phi'.
        nonlocal hs
        ut, dt, bt, ct, gt = (_time_major(x) for x in (uv, dv, bv, cv, g))
        wt = dt * ut
        gu, gd = np.empty_like(ut), np.empty_like(ut)
        gb, gc = np.empty_like(bt), np.empty_like(ct)
        lam = np.zeros(hs.shape[1:], dtype=ut.dtype)   # dLoss/dh_t
        ga = np.zeros_like(lam)
        z, em, ez, s, g_z = (np.empty_like(lam) for _ in range(5))
        reduced = np.empty_like(gu[0])
        for t in range(nl - 1, -1, -1):
            gy, d_t = gt[t], dt[t][:, None, :]
            np.matmul(hs[t + 1], gy[:, :, None], out=gc[t][:, :, None])
            np.multiply(ct[t][:, :, None], gy[:, None, :], out=z)
            lam += z
            np.multiply(d_t, a_t, out=z)
            np.expm1(z, out=em)
            np.add(em, 1, out=ez)
            _phi_prime(z, ez, em, out=g_z)
            g_z *= lam
            np.divide(em, a_t, out=s)
            lam_s = np.multiply(lam, s, out=s)
            np.matmul(lam_s, ut[t][:, :, None], out=gb[t][:, :, None])
            np.matmul(bt[t][:, None, :], lam_s, out=gu[t][:, None, :])
            lam *= ez                                # now dLoss/dh_{t-1} (before its readout)
            lam_h = np.multiply(lam, hs[t], out=ez)
            # sum over n weighted by a[n, d]: no matmul, and einsum beats (x * a).sum(1)
            np.einsum("cnd,nd->cd", lam_h, a_t, out=gd[t])
            np.matmul(bt[t][:, None, :], lam, out=reduced[:, None, :])
            reduced *= ut[t]
            gd[t] += reduced
            g_z *= wt[t][:, None, :]
            g_z *= bt[t][:, :, None]
            g_z += lam_h
            g_z *= d_t
            ga += g_z
        hs = None                              # free the trajectory and the step buffers early
        del wt, lam, z, em, ez, s, g_z, lam_h, lam_s, reduced
        ga = ga.sum(axis=0).T
        gu += skipv * gt
        gu, gd, gb, gc = (np.ascontiguousarray(x.transpose(1, 0, 2)) for x in (gu, gd, gb, gc))
        gskip = np.einsum("bld,bld->d", g, uv)
        return gu, gd, ga, gb, gc, gskip

    return ad._make(y, parents, backward_fn, "selective_scan")


def selective_scan_composite(u: Tensor, delta: Tensor, a: Tensor, b: Tensor,
                             c: Tensor, d_skip: Tensor) -> Tensor:
    """Same contract as the fused op, built from tape primitives.

    Materializes the discretized parameters as graph tensors, so it is
    slower and memory-hungry; used to validate the fused path.
    """
    nb, nl, nd = u.shape
    nn_ = a.shape[1]
    d4 = ad.reshape(delta, (nb, nl, nd, 1))
    z = ad.mul(d4, ad.reshape(a, (1, 1, nd, nn_)))
    a_bar = ad.exp(z)
    phi = zoh_phi(z)
    db = ad.mul(d4, ad.reshape(b, (nb, nl, 1, nn_)))
    b_bar = ad.mul(phi, db)
    bx = ad.mul(b_bar, ad.reshape(u, (nb, nl, nd, 1)))
    return scan_recurrence(DiscreteStep(a_bar, bx, c), x=u, d_skip=d_skip)


def zoh_phi(z: Tensor) -> Tensor:
    """Differentiable (e^z - 1)/z with the same series fallback as _phi."""
    z = ad.as_tensor(z)
    out = _phi(z.data)

    def backward_fn(g):
        return (g * _phi_prime(z.data),)

    return ad._make(out, (z,), backward_fn, "zoh_phi")


class MambaBlock(nn.Module):
    """Gated selective-SSM block over (B, L, d_model) sequences.

    Only the width ``d_model`` and the state size ``d_state`` are
    settings. The other hyperparameters are the module constants:
    expansion ``EXPAND``, depthwise conv width ``CONV_WIDTH``, delta rank
    d_model/16 (rounded up), decay rates initialized to -(1..N) per state
    column, and delta bias chosen so the initial softplus output lands in
    [``DT_MIN``, ``DT_MAX``]. The block keeps no copy of its sizes: it
    reads them from its parameters' shapes.
    """

    def __init__(self, d_model: int, d_state: int, rng: np.random.Generator,
                 dtype=np.float32):
        d_in, rank = EXPAND * d_model, math.ceil(d_model / 16)
        self.in_proj = nn.Linear(d_model, 2 * d_in, rng, bias=False, dtype=dtype)
        self.conv = nn.CausalDepthwiseConv1d(d_in, CONV_WIDTH, rng, dtype=dtype)
        self.x_proj = nn.Linear(d_in, rank + 2 * d_state, rng, bias=False, dtype=dtype)
        self.dt_proj = nn.Linear(rank, d_in, rng, bias=True, dtype=dtype)
        # softplus-inverse bias puts the initial step sizes in [DT_MIN, DT_MAX]
        dt = np.exp(rng.uniform(math.log(DT_MIN), math.log(DT_MAX), size=d_in))
        self.dt_proj.bias = Tensor(np.log(np.expm1(dt)).astype(dtype), requires_grad=True)
        self.a_log = Tensor(
            np.log(np.tile(np.arange(1, d_state + 1, dtype=np.float64), (d_in, 1))).astype(dtype),
            requires_grad=True)
        self.d_skip = Tensor(np.ones(d_in, dtype=dtype), requires_grad=True)
        self.out_proj = nn.Linear(d_in, d_model, rng, bias=True, dtype=dtype)

    def selective_scan(self, u: Tensor) -> Tensor:
        """Selectivity projections + per-step ZOH + recurrence + skip."""
        rank, d_state = self.dt_proj.weight.shape[0], self.a_log.shape[1]
        x_dbl = self.x_proj(u)
        dt_low = ad.slice_(x_dbl, (slice(None), slice(None), slice(0, rank)))
        b = ad.slice_(x_dbl, (slice(None), slice(None), slice(rank, rank + d_state)))
        c = ad.slice_(x_dbl, (slice(None), slice(None), slice(rank + d_state, None)))
        delta = ad.softplus(self.dt_proj(dt_low))
        a = ad.mul(ad.exp(self.a_log), -1.0)
        return selective_scan_fused(u, delta, a, b, c, self.d_skip)

    def __call__(self, x: Tensor, lengths=None) -> Tensor:
        """The block over chunks of pixel sequences, as one tape node.

        ``lengths`` gives each sequence's valid length (default: all L
        steps). This is the one place that splits pixel sequences:
        ``pool._chunk_bounds`` cuts the B sequences into chunks whose scan
        state fits ``_SCAN_VECTOR_BUDGET`` (read at call time), and each chunk
        runs the whole block (``_forward``) under ``no_grad`` on the shared
        pool (``pool._map``), over the chunk's first Lc steps only, Lc being
        the longest valid length in the chunk. The block is causal, so a
        step never sees the steps after it; the output is zero at every step
        beyond a sequence's length, and backward drops the gradient there.
        When a gradient will be taken, each chunk keeps its input and
        nothing else. Backward replays the chunks on the pool: each one
        runs ``_forward`` again over a ``shadow`` of this block with the tape
        on, whatever grad mode backward is called under, and runs its own
        backward at once; the node lets go of a chunk's input as its replay
        starts. The parameter gradients are added with
        ``pool._sum_in_order``, so the results do not depend on the number
        of workers. A single chunk takes the same route, inline.
        """
        d_model = self.in_proj.weight.shape[0]
        if x.ndim != 3 or x.shape[2] != d_model:
            raise ShapeError(f"mamba_block: expected (B, L, {d_model}), got {x.shape}")
        nb, nl = x.shape[:2]
        lengths = np.full(nb, nl) if lengths is None else np.asarray(lengths)
        if lengths.shape != (nb,) or lengths.min() < 1 or lengths.max() > nl:
            raise ShapeError(f"mamba_block: lengths must be {nb} values in [1, {nl}]")
        padded = np.arange(nl) >= lengths[:, None]            # (B, L) steps beyond a length
        bounds = pool._chunk_bounds(nb, self.a_log.size * x.dtype.itemsize, _SCAN_VECTOR_BUDGET)
        params = [t for _, t in self.named_params()]
        dtype = np.result_type(x.dtype, *(p.dtype for p in params))
        y = np.zeros((nb, nl, d_model), dtype=dtype)
        keep = ad.recording(x, *params)

        def forward(bound):
            s, e = bound
            lc = int(lengths[s:e].max())
            xi = np.ascontiguousarray(x.data[s:e, :lc])
            with ad.no_grad():
                out = self._forward(Tensor(xi)).data
            y[s:e, :lc] = out
            y[s:e, :lc][padded[s:e, :lc]] = 0.0
            return [bound, xi] if keep else None

        kept = pool._map(forward, bounds)
        x_shape, x_dtype, x_grad = x.shape, x.dtype, x.requires_grad

        def backward_fn(g):
            g = np.where(padded[:, :, None], 0.0, g) if padded.any() else g
            gx = np.zeros(x_shape, x_dtype) if x_grad else None

            def backward(record):
                (s, e), xi = record
                record.clear()                    # free the chunk's input as it is replayed
                xi = Tensor(xi, requires_grad=x_grad)
                twin = self.shadow()
                with ad._grad_mode(True):
                    out = twin._forward(xi)
                ad._backprop(out._node, np.ascontiguousarray(g[s:e, :xi.shape[1]]))
                if gx is not None:
                    gx[s:e, :xi.shape[1]] = xi.grad
                return [t.grad for _, t in twin.named_params()]

            parts = pool._map(backward, kept)
            return (gx, *(pool._sum_in_order(p) for p in zip(*parts)))

        return ad._make(y, (x, *params), backward_fn, "mamba_block")

    def _forward(self, x: Tensor) -> Tensor:
        """The block on one chunk of sequences, as ordinary tape ops."""
        xz = self.in_proj(x)
        d_in = self.a_log.shape[0]
        u = ad.slice_(xz, (slice(None), slice(None), slice(0, d_in)))
        z = ad.slice_(xz, (slice(None), slice(None), slice(d_in, None)))
        u = ad.silu(self.conv(u))
        y = self.selective_scan(u)
        y = ad.mul(y, ad.silu(z))
        return self.out_proj(y)
