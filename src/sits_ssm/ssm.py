"""State-space sequence machinery.

The continuous system  h'(t) = A h(t) + B x(t),  y(t) = C h(t)  is run in
discrete time by zero-order-hold discretization over a per-step interval
delta. A is diagonal (one decay rate per (channel, state) pair), so the
matrix exponential and inverse reduce to elementwise scalar formulas:

    A_bar = exp(delta * A)
    B_bar = (delta*A)^-1 (exp(delta*A) - 1) * delta * B = phi(delta*A) * delta * B

with phi(z) = (e^z - 1)/z. The fused scan forms phi(delta*A) * delta as
expm1(delta*A)/A, which has no z in a denominator, so A must be non-zero
there. Its backward takes A's gradient from e^z and expm1(z)/A as well,
with no phi'(z): the one term that cancels near z = 0 switches to its
series below |z| = 1e-3 (``selective_scan_fused``). The oracles evaluate
phi itself, by a series for |z| below 1e-6 to avoid catastrophic
cancellation, and differentiate it with the one phi'(z), ``_phi_prime``:
float64, by 30 terms of its Taylor series below |z| = 0.5.

``selective_scan_fused`` is the one production route: the input-selective
scan where delta, B and C are produced from the input at every step,
fusing discretization and recurrence into one differentiable op. The
other routes are references that the tests, ``sits-ssm verify`` and the
benchmark's correctness gate compare it against, not alternatives to it:

* ``discretize_zoh`` - A_bar and B_bar by the formulas above, on the tape;
* ``selective_scan_composite`` - the same contract built from tape
  primitives: ``discretize_zoh``, then ``scan_recurrence``;
* ``scan_recurrence`` - the step-by-step recurrence on batched
  pre-discretized (B, L, D, N) parameters (differentiable);
* ``kernel_convolve`` - the equivalent causal convolution with kernel
  (C B_bar, C A_bar B_bar, ..., C A_bar^(L-1) B_bar) of one time-invariant
  system, (D, N) A_bar and B_bar and an (N,) C, over an (L, D) input
  (float64 oracle, not differentiable; ``verify.lti_steps`` lays the same
  system out as ``scan_recurrence``'s inputs).

The fused scan is the CPU form of the hardware-aware scan of Mamba (Gu &
Dao 2023, sec. 3.3): discretization is fused into the recurrence, and the
states are recomputed in backward instead of stored from the forward (here
by ``MambaBlock``'s replay, one chunk at a time, when its chunks take more
than one wave of the pool's workers). It is a single pass
over all the sequences it is given: time-major, one step at a time,
vectorized over (B, D, N), with matmul readouts; a forward step is
h + expm1(z) (h + u b / a), with 1/a laid out once per call. Under
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
arXiv:1604.06174) when its chunks outnumber the pool's workers: its
forward runs each chunk under ``no_grad`` and keeps only the chunk's
input; its backward replays each chunk with the tape on, over a
``shadow`` of the block, runs that chunk's backward at once, and adds the
parameter gradients with ``pool._map_sum``, each chunk's into the first
one's as soon as it and every earlier chunk are done. So only the chunks
being replayed are ever recorded, one per worker, the scan's trajectory
is a chunk's, and about one chunk's parameter gradients per worker are
alive, not one set per chunk. When the chunks run in one wave, no more
of them than workers, the replay would hold every chunk's tape at once
and save nothing: each forward chunk records over its own ``shadow``
instead, and backward runs the kept tapes, with no second forward. Chunk
boundaries depend only on the budget and every chunk is computed the same
way whichever thread runs it, so results are bitwise identical for any
number of workers, and the working arrays stay chunk-sized. Given each
sequence's valid length, a chunk runs only up to the longest one among
its sequences; the block is causal, so the steps it skips could not have
changed a valid output.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from . import nn, pool
from .autodiff import ShapeError, Tensor

_PHI_SWITCH = 1e-6
# the fused backward's lam (delta e^z - expm1(z)/a), part of a's gradient,
# cancels as z = delta a -> 0; below this |z| (both dtypes) four terms of
# its series are used instead, within 1.4e-14 relative there
_GA_SERIES_SWITCH = 1e-3
_GA_SERIES = tuple(k / math.factorial(k + 1) for k in range(4, 0, -1))
_SCAN_VECTOR_BUDGET = 256 * 2**10   # bytes of one block chunk's (c, D, N) scan array
EXPAND = 2                          # inner width / d_model
CONV_WIDTH = 4                      # causal depthwise conv taps
DT_MIN, DT_MAX = 1e-3, 1e-1         # range of the initial step sizes delta


def _phi_prime(z) -> np.ndarray:
    """d/dz[(e^z - 1)/z] in float64, for the oracles only (``zoh_phi``): the
    fused scan's backward needs no phi'.

    The closed form (e^z (z - 1) + 1)/z^2 cancels as z -> 0, so below
    |z| = 0.5 the 30-term Taylor series sum_k (k+1) z^k/(k+2)! replaces it;
    above, the closed form loses at most one digit. Within 1.4e-15 of a
    60-digit evaluation over the scan's range of z.
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    near = np.abs(z) < 0.5
    zn = z[near]
    acc = np.zeros_like(zn)
    for k in range(29, -1, -1):
        acc *= zn
        acc += (k + 1) / math.factorial(k + 2)
    out[near] = acc
    zf = z[~near]
    out[~near] = (np.exp(zf) * (zf - 1.0) + 1.0) / (zf * zf)
    return out


def discretize_zoh(a, b, delta) -> tuple[Tensor, Tensor]:
    """Zero-order-hold discretization of diagonal continuous parameters on
    the tape: A_bar = exp(z), B_bar = phi(z) (delta b) with z = delta a.

    Takes tensors or arrays, which broadcast elementwise; ``delta`` must be
    positive. Returns (A_bar, B_bar) as tensors.
    """
    delta = ad.as_tensor(delta)
    if not np.all(delta.data > 0):
        raise ValueError("discretize_zoh: delta must be positive")
    z = ad.mul(delta, a)
    return ad.exp(z), ad.mul(zoh_phi(z), ad.mul(delta, b))


def scan_recurrence(a_bar, b_bar_x, c) -> Tensor:
    """Run h_t = a_bar_t * h_{t-1} + b_bar_x_t; y_t = c_t . h_t.

    The per-step discretized system: multiplier a_bar and input injection
    b_bar_x, (B, L, D, N), and readout c, (B, L, N). b_bar_x already
    carries the input: B_bar_t * x_t. Returns (B, L, D). Differentiable in
    all three arguments. The state starts at zero.
    """
    a_bar, bx, c = ad.as_tensor(a_bar), ad.as_tensor(b_bar_x), ad.as_tensor(c)
    if a_bar.ndim != 4 or a_bar.shape != bx.shape:
        raise ShapeError(f"scan_recurrence: a_bar {a_bar.shape} and b_bar_x {bx.shape} "
                         "must both be (B, L, D, N)")
    nb, nl, nd, nn_ = a_bar.shape
    if c.shape != (nb, nl, nn_):
        raise ShapeError(f"scan_recurrence: c shape {c.shape}, expected {(nb, nl, nn_)}")

    av, bv, cv = a_bar.data, bx.data, c.data
    hs = np.zeros((nb, nl + 1, nd, nn_), dtype=av.dtype)
    y = np.empty((nb, nl, nd), dtype=av.dtype)
    for t in range(nl):
        hs[:, t + 1] = av[:, t] * hs[:, t] + bv[:, t]
        y[:, t] = np.einsum("bdn,bn->bd", hs[:, t + 1], cv[:, t])

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
        return ga, gbx, gc

    return ad._make(y, (a_bar, bx, c), backward_fn, "scan_recurrence")


def kernel_convolve(a_bar: np.ndarray, b_bar: np.ndarray, c: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """LTI oracle: y = x * K with K_j = C A_bar^j B_bar, causal zero padding.

    Takes one time-invariant system: (D, N) diagonal ``a_bar`` and
    ``b_bar``, an (N,) readout ``c`` shared by the channels, and input
    ``x`` of shape (L, D). Returns (L, D) in float64.
    """
    a_bar, b_bar, c, x = (np.asarray(v, dtype=np.float64) for v in (a_bar, b_bar, c, x))
    if x.ndim != 2 or c.ndim != 1 or not a_bar.shape == b_bar.shape == (x.shape[1], c.size):
        raise ValueError("kernel_convolve takes one time-invariant system, (D, N) a_bar and "
                         f"b_bar, (N,) c, (L, D) x; got {[v.shape for v in (a_bar, b_bar, c, x)]}")
    l = x.shape[0]
    # K[j, d] = sum_n c[n] * a_bar[d,n]^j * b_bar[d,n]
    powers = a_bar[None, :, :] ** np.arange(l)[:, None, None]
    kernel = np.einsum("ldn,dn,n->ld", powers, b_bar, c)
    y = np.zeros_like(x)
    for t in range(l):
        y[t] = np.einsum("jd,jd->d", kernel[: t + 1], x[t::-1][: t + 1])
    return y


def _ga_series(dt: np.ndarray, a_t: np.ndarray):
    """Where a's gradient takes its series, and the series' factor there.

    ``dt`` is the time-major (L, B, D) delta, ``a_t`` the (N, D) a. Returns
    the step, sequence, state and channel indices of each z = delta a with
    |z| < ``_GA_SERIES_SWITCH``, sorted by step, and delta z P(z) at each,
    with P(z) = 1/2 + z/3 + z^2/8 + z^3/30: e^z - phi(z) = z P(z) + O(z^5),
    so lam times it is lam (delta e^z - s), s = expm1(z)/a = delta phi(z).
    """
    # a (step, sequence, channel) triple holds a small z only if
    # delta * min_n |a| does, so z is formed for those alone
    t, c, d = np.nonzero(dt * np.abs(a_t).min(axis=0) < _GA_SERIES_SWITCH)
    delta = dt[t, c, d][:, None]
    z = delta * a_t[:, d].T
    k, n = np.nonzero(np.abs(z) < _GA_SERIES_SWITCH)
    z = z[k, n]
    out = np.multiply(z, _GA_SERIES[0])
    for coef in _GA_SERIES[1:]:
        out += coef
        out *= z
    out *= delta[k, 0]
    return t[k], c[k], n, d[k], out


def _time_major(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(1, 0, 2))


@ad._quiet
def selective_scan_fused(u: Tensor, delta: Tensor, a: Tensor, b: Tensor,
                         c: Tensor, d_skip: Tensor) -> Tensor:
    """Input-selective scan with per-step ZOH discretization, one fused op.

    u, delta: (B, L, D); a: (D, N) diagonal (negative for stability);
    b, c: (B, L, N); d_skip: (D,). Returns (B, L, D) in u's dtype, which
    is also the dtype the scan computes in. delta must be positive and a
    non-zero: each step injects s u b with s = delta phi(delta a) formed as
    expm1(delta a)/a, which is exact and needs neither phi nor a series
    near z = 0.

    One pass over all B sequences on the calling thread; splitting them
    into chunks is the caller's business (``MambaBlock``). Under
    ``no_grad``, or when no input requires grad, the forward keeps one
    running (B, N, D) state. When a gradient will be taken it keeps the
    whole (L+1, B, N, D) trajectory h_0..h_L until backward, which walks
    it from the last step to the first and forms expm1(delta a) again at
    each step. The block records a scan over one chunk only, in its
    forward when its chunks run in one wave of the pool's workers and in
    its backward's replay otherwise, so the trajectory is one chunk's.

    Backward needs no phi'. With z = delta a and
    h_{t+1} = e^z h_t + s u b, the step's a-derivative is
    delta e^z h_t + u b (delta e^z - s)/a. So with lam = dL/dh_{t+1},
    lam_e = lam e^z (the next lam) and lam_s = lam s (which gives b's and
    u's gradients), a's gradient is

        sum_{t,c} delta lam_e h_t + (1/a) sum_{t,c} u b (delta lam_e - lam_s),

    both sums taken over the sequences each step into (N, D) float64
    accumulators and divided by a once, after the loop. delta lam_e - lam_s
    cancels as z -> 0: at each element with |z| < ``_GA_SERIES_SWITCH`` it
    is replaced by its series (``_ga_series``). Those elements are found
    once per backward, looking only where delta * min_n |a| is below the
    switch, so a step with none of them pays nothing for the series.
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
    # time-major recurrence; the state is laid out (B, N, D), 1/a is laid
    # out so once per call (a multiply that broadcasts an (N, D) operand is
    # slower than a same-shape one), and each outer product is one einsum:
    # np.multiply of two broadcast operands runs as many short inner loops
    hs = np.zeros((nl + 1 if keep else 1, nb) + a_t.shape, dtype=dt.dtype)
    inv_a = np.reciprocal(np.broadcast_to(a_t, hs.shape[1:]))
    em, bx = np.empty_like(inv_a), np.empty_like(inv_a)
    for t in range(nl):
        # h_{t+1} = e^z h_t + expm1(z)/a u_t b_t with z = delta_t a, formed
        # as h_t + expm1(z) (h_t + u_t b_t / a): no e^z, no divide
        h, h1 = (hs[t], hs[t + 1]) if keep else (hs[0], hs[0])
        np.expm1(np.einsum("cd,nd->cnd", dt[t], a_t, out=em), out=em)
        np.einsum("cn,cd->cnd", bt[t], ut[t], out=bx)
        bx *= inv_a
        bx += h
        bx *= em
        np.add(h, bx, out=h1)
        np.matmul(ct[t][:, None, :], h1, out=yt[t][:, None, :])
    del dt, ut, bt, ct, inv_a, em, bx     # free the time-major copies and buffers early
    y = np.ascontiguousarray(yt.transpose(1, 0, 2))
    del yt
    y += skipv * uv

    def backward_fn(g):
        nonlocal hs
        ut, dt, bt, ct, gt = (_time_major(x) for x in (uv, dv, bv, cv, g))
        gu, gd = np.empty_like(ut), np.empty_like(ut)
        gb, gc = np.empty_like(bt), np.empty_like(ct)
        lam = np.zeros(hs.shape[1:], dtype=ut.dtype)   # dLoss/dh_t
        inv_a = np.reciprocal(np.broadcast_to(a_t, lam.shape))
        tmp, lam_s = np.empty_like(lam), np.empty_like(lam)
        ga_h, ga_ub = np.zeros(a_t.shape), np.zeros(a_t.shape)
        step = np.empty(a_t.shape, ut.dtype)
        reduced = np.empty_like(gu[0])
        t_s, *near, series = _ga_series(dt, a_t)
        bounds = np.searchsorted(t_s, np.arange(nl + 1))
        for t in range(nl - 1, -1, -1):
            gy, d_t, u_t, b_t = gt[t], dt[t], ut[t], bt[t]
            np.matmul(hs[t + 1], gy[:, :, None], out=gc[t][:, :, None])
            lam += np.einsum("cn,cd->cnd", ct[t], gy, out=tmp)
            lo, hi = bounds[t], bounds[t + 1]
            if hi > lo:                                 # lam (delta e^z - s) by its series
                at_t = tuple(i[lo:hi] for i in near)
                x_near = lam[at_t] * series[lo:hi]
            em = np.expm1(np.einsum("cd,nd->cnd", d_t, a_t, out=tmp), out=tmp)
            lam_em = np.multiply(em, lam, out=tmp)
            np.multiply(lam_em, inv_a, out=lam_s)
            lam += lam_em                               # now lam_e = dLoss/dh_t before its readout
            np.matmul(lam_s, u_t[:, :, None], out=gb[t][:, :, None])
            np.matmul(b_t[:, None, :], lam_s, out=gu[t][:, None, :])
            lam_h = np.multiply(lam, hs[t], out=tmp)
            # sum over n weighted by a[n, d]: no matmul, and einsum beats (x * a).sum(1)
            np.einsum("cnd,nd->cd", lam_h, a_t, out=gd[t])
            np.matmul(b_t[:, None, :], lam, out=reduced[:, None, :])
            reduced *= u_t
            gd[t] += reduced
            ga_h += np.einsum("cd,cnd->nd", d_t, lam_h, out=step)
            x = np.multiply(lam, d_t[:, None, :], out=tmp)
            x -= lam_s                                  # delta lam_e - lam_s
            if hi > lo:
                x[at_t] = x_near
            # sum over the sequences of b u x: x *= u, then for each n one
            # (1, c) @ (c, D) product, all in one matmul
            x *= u_t[:, None, :]
            np.matmul(b_t.T[:, None, :], x.transpose(1, 0, 2), out=step[:, None, :])
            ga_ub += step
        hs = None                              # free the trajectory and the step buffers early
        del lam, inv_a, tmp, em, lam_em, lam_h, x, lam_s, reduced
        ga = (ga_h + ga_ub / a_t).T.astype(ut.dtype)
        gu += skipv * gt
        gu, gd, gb, gc = (np.ascontiguousarray(x.transpose(1, 0, 2)) for x in (gu, gd, gb, gc))
        gskip = np.einsum("bld,bld->d", g, uv)
        return gu, gd, ga, gb, gc, gskip

    return ad._make(y, parents, backward_fn, "selective_scan")


def selective_scan_composite(u: Tensor, delta: Tensor, a: Tensor, b: Tensor,
                             c: Tensor, d_skip: Tensor) -> Tensor:
    """Same contract as the fused op, built from tape primitives:
    ``discretize_zoh``, ``scan_recurrence`` on B_bar u, and the skip term
    u * d_skip with ``ad.add``. Materializes the discretized parameters as
    graph tensors, so it is slower and memory-hungry; used to validate the
    fused path.
    """
    nb, nl, nd = u.shape
    nn_ = a.shape[1]
    a_bar, b_bar = discretize_zoh(ad.reshape(a, (1, 1, nd, nn_)), ad.reshape(b, (nb, nl, 1, nn_)),
                                  ad.reshape(delta, (nb, nl, nd, 1)))
    bx = ad.mul(b_bar, ad.reshape(u, (nb, nl, nd, 1)))
    return ad.add(scan_recurrence(a_bar, bx, c), ad.mul(u, d_skip))


@ad._quiet
def zoh_phi(z) -> Tensor:
    """Differentiable phi(z) = (e^z - 1)/z, by its series 1 + z/2 below
    ``_PHI_SWITCH``, where the closed form cancels; its backward is the
    float64 phi' of ``_phi_prime``."""
    z = ad.as_tensor(z)
    zv = z.data
    out = np.where(np.abs(zv) < _PHI_SWITCH, 1.0 + 0.5 * zv, np.expm1(zv) / zv)

    def backward_fn(g):
        return (g * _phi_prime(zv),)

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

        When a gradient will be taken and the chunks outnumber the pool's
        workers (``pool.worker_count``), each chunk keeps its input and
        nothing else. Backward replays the chunks on the pool: each one
        runs ``_forward`` again over a ``shadow`` of this block with the tape
        on, whatever grad mode backward is called under, and runs its own
        backward at once; the node lets go of a chunk's input as its replay
        starts. With no more chunks than workers they would all be replayed
        at once, so each forward chunk records over its own ``shadow``
        instead and keeps its input tensor, its output's tape node (no
        values) and its twin; backward runs those tapes and lets go of each
        as it starts. Either way
        ``pool._map_sum`` adds each chunk's parameter gradients in chunk
        order as they finish, so about one set per worker is alive, and the
        two routes and any number of workers give the same bits. A single
        chunk records in forward, inline.
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
        params = [t for _, t in self.named_parameters()]
        dtype = np.result_type(x.dtype, *(p.dtype for p in params))
        y = np.zeros((nb, nl, d_model), dtype=dtype)
        keep = ad.recording(x, *params)
        # chunks that all run in one wave would all be replayed at once too:
        # they keep their forward's tape instead, and backward replays none
        taped = keep and len(bounds) <= pool.worker_count()
        x_shape, x_dtype, x_grad = x.shape, x.dtype, x.requires_grad

        def record(xi):
            # the chunk's output values and what backward keeps of it: its
            # input, the tape node of its output (no values) and the twin
            xi = Tensor(xi, requires_grad=x_grad)
            twin = self.shadow()
            with ad._grad_mode(True):
                out = twin._forward(xi)
            return out.data, [xi, out._node, twin]

        def forward(bound):
            s, e = bound
            lc = int(lengths[s:e].max())
            xi = np.ascontiguousarray(x.data[s:e, :lc])
            if taped:
                out, chunk = record(xi)
            else:
                chunk = [xi]
                with ad.no_grad():
                    out = self._forward(Tensor(xi)).data
            y[s:e, :lc] = out
            y[s:e, :lc][padded[s:e, :lc]] = 0.0
            return [bound, *chunk] if keep else None

        kept = pool._map(forward, bounds)

        def backward_fn(g):
            g = np.where(padded[:, :, None], 0.0, g) if padded.any() else g
            gx = np.zeros(x_shape, x_dtype) if x_grad else None

            def backward(kept_chunk):
                (s, e), *chunk = kept_chunk
                kept_chunk.clear()                # the node lets go of the chunk as it is used
                xi, node, twin = chunk if taped else record(*chunk)[1]
                ad._backprop(node, np.ascontiguousarray(g[s:e, :xi.shape[1]]))
                if gx is not None:
                    gx[s:e, :xi.shape[1]] = xi.grad
                return [t.grad for _, t in twin.named_parameters()]

            return (gx, *pool._map_sum(backward, kept))

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
