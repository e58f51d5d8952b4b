"""The discrete state-space machinery, step by step.

A continuous linear system  h' = A h + B x,  y = C h  is turned into a
discrete recurrence by zero-order hold over a step size delta, and the
same system can be evaluated either as a recurrence or as a causal
convolution. This script walks both routes on small examples. Both take
one time-invariant system: (D, N) A_bar and B_bar, an (N,) C and an
(L, D) input, so a single-channel, single-state system is a (1, 1) one.
``lti_steps`` lays it out as the recurrence's per-step, batched inputs.
"""

import numpy as np

from sits_ssm.ssm import discretize_zoh, kernel_convolve, scan_recurrence
from sits_ssm.verify import lti_steps

print("== zero-order hold ==")
print("A scalar system with decay A=-1, input gain B=2, step delta=1:")
a_bar, b_bar = discretize_zoh(-1.0, 2.0, 1.0)
print(f"  A_bar = exp(delta*A)            = {a_bar.item():.6f}  (e^-1)")
print(f"  B_bar = phi(delta*A)*delta*B    = {b_bar.item():.6f}  (phi(z) = (e^z-1)/z)")

print("\nShrinking the step, the discrete system approaches the identity:")
for delta in (1.0, 0.1, 1e-3, 1e-9):
    a_bar, b_bar = discretize_zoh(-1.0, 1.0, delta)
    print(f"  delta={delta:<8g} A_bar={a_bar.item():.9f}  B_bar={b_bar.item():.3e}")
print("(below |delta*A| = 1e-6 the B_bar formula switches to its series,")
print(" dodging the 0/0 cancellation without a visible seam)")

print("\n== recurrence vs convolution ==")
print("With the (1, 1) system A_bar=0.5, B_bar=1, C=1 and input x=[1,1,1]:")
system = (np.array([[0.5]]), np.array([[1.0]]), np.array([1.0]))
x = np.array([[1.0], [1.0], [1.0]])
y_scan = scan_recurrence(*lti_steps(*system, x)).data.ravel()
print(f"  recurrence  h_t = 0.5 h_(t-1) + x_t  ->  y = {y_scan}")

y_kernel = kernel_convolve(*system, x).ravel()
print(f"  convolution with kernel (C B_bar, C A_bar B_bar, ...)  ->  y = {y_kernel}")
imp = np.zeros((5, 1))
imp[0] = 1.0
print(f"  the kernel itself (impulse response): {kernel_convolve(*system, imp).ravel()}")

print("\n== the two routes agree on random systems ==")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(10):
    l, d, n = 24, 4, 6
    a_bar = rng.uniform(0.05, 0.95, (d, n))
    b_bar = rng.normal(0, 1, (d, n))
    c = rng.normal(0, 1, n)
    xs = rng.normal(0, 1, (l, d))
    y_scan = scan_recurrence(*lti_steps(a_bar, b_bar, c, xs)).data[0]
    dev = np.abs(y_scan - kernel_convolve(a_bar, b_bar, c, xs)).max()
    worst = max(worst, float(dev))
print(f"  max |recurrence - convolution| over 10 systems: {worst:.2e}")

print("\n== stability ==")
print("Negative A and positive delta keep every A_bar inside (0, 1), so the")
print("state of a bounded-input run stays bounded:")
a_bar, b_bar = (t.data for t in discretize_zoh(-rng.uniform(0.2, 3.0, (2, 4)),
                                               rng.normal(0, 1, (2, 4)),
                                               rng.uniform(0.05, 0.8, (2, 4))))
print(f"  A_bar range: [{a_bar.min():.4f}, {a_bar.max():.4f}]")
h = np.zeros((2, 4))
peak = 0.0
for t in range(500):
    h = a_bar * h + b_bar * rng.uniform(-1, 1, (2, 1))
    peak = max(peak, np.abs(h).max())
bound = np.abs(b_bar).max() / (1 - a_bar.max())
print(f"  peak |h| over 500 random steps: {peak:.4f}  (bound {bound:.4f})")
