"""Input-selective scanning and the gated block around it.

The selective scan makes the step size and the input/readout projections
functions of the current input, so the system decides per timestep how
much to absorb and what to read out. The gated block wraps that scan with
a causal depthwise convolution and a SiLU gate.
"""

import numpy as np

from sits_ssm import autodiff as ad
from sits_ssm.autodiff import Tensor
from sits_ssm.ssm import CONV_WIDTH, MambaBlock, discretize_zoh, kernel_convolve, \
    selective_scan_fused

rng = np.random.default_rng(0)

print("== selectivity collapses to a classic linear system ==")
print("Holding delta, B, C constant across time must reproduce the")
print("convolution-kernel answer:")
b_, l, d, n = 1, 10, 3, 4
a = -rng.uniform(0.5, 3.0, (d, n))
delta = 0.15
b_vec = rng.normal(0, 1, n)
c_vec = rng.normal(0, 1, n)
u = rng.normal(0, 1, (b_, l, d))
y = selective_scan_fused(
    Tensor(u), Tensor(np.full((b_, l, d), delta)), Tensor(a),
    Tensor(np.broadcast_to(b_vec, (b_, l, n)).copy()),
    Tensor(np.broadcast_to(c_vec, (b_, l, n)).copy()),
    Tensor(np.zeros(d)))
a_bar, b_bar = discretize_zoh(a, b_vec[None, :], np.full((d, n), delta))
y_ref = kernel_convolve(a_bar, b_bar, c_vec, u[0])
print(f"  max |selective(const) - kernel| = {np.abs(y.data[0] - y_ref).max():.2e}")

print("\n== the gated block ==")
blk = MambaBlock(8, 8, rng, dtype=np.float64)
x = rng.normal(0, 1, (2, 16, 8))
out = blk(Tensor(x))
d_inner, d_state = blk.a_log.shape
print(f"  input {x.shape} -> output {out.shape} (shape preserved)")
print(f"  inner width {d_inner}, state {d_state}, conv width {CONV_WIDTH}, "
      f"delta rank {blk.dt_proj.weight.shape[0]}")

print("\n== causality probe ==")
print("Perturbing timestep 9 and re-running: earlier outputs must not move.")
xp = x.copy()
xp[:, 9] += 10.0
with ad.no_grad():
    base = blk(Tensor(x)).data
    pert = blk(Tensor(xp)).data
print(f"  outputs at t<9 bit-identical: {np.array_equal(base[:, :9], pert[:, :9])}")
print(f"  outputs at t>=9 changed:      {not np.array_equal(base[:, 9:], pert[:, 9:])}")

print("\n== the multiplicative gate ==")
print("Zeroing the gate projection silences the whole main branch; only the")
print("output projection's bias survives:")
blk.in_proj.weight.data[:, d_inner:] = 0.0
with ad.no_grad():
    gated_out = blk(Tensor(x)).data
print(f"  max |output - bias| = {np.abs(gated_out - blk.out_proj.bias.data).max():.2e}")

print("\n== gradients flow through the scan ==")
blk2 = MambaBlock(4, 4, rng, dtype=np.float64)
seq = Tensor(rng.normal(0, 1, (2, 6, 4)), requires_grad=True)
loss = ad.sum_(blk2(seq))
ad.backward(loss)
print(f"  d(sum)/d(decay params) norm: {np.linalg.norm(blk2.a_log.grad):.3e}")
print(f"  d(sum)/d(input) shape:       {seq.grad.shape}")
