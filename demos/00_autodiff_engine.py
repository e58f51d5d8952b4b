"""The tensor engine underneath everything else.

Tensors wrap numpy arrays; operations (functions of ``autodiff``) on
tracked tensors build a graph, and ``ad.backward`` on a scalar result
walks it in reverse, accumulating gradients. Float32 is the training precision, float64 the verification
precision, and every forward op refuses to emit NaN/Inf.
"""

import numpy as np

from sits_ssm import autodiff as ad
from sits_ssm.autodiff import NonFiniteError, Tensor
from sits_ssm.verify import finite_difference_grad

print("== a scalar chain ==")
x = Tensor(np.array(0.5), requires_grad=True)
y = ad.mul(ad.softplus(x), ad.silu(x))        # y = softplus(x) * silu(x)
ad.backward(y)
print(f"  y  = softplus(x)*silu(x) at x=0.5  -> {y.item():.6f}")
print(f"  dy/dx (reverse mode)               -> {float(x.grad):.6f}")
fd = finite_difference_grad(lambda: ad.mul(ad.softplus(x), ad.silu(x)), [x])[0]
print(f"  dy/dx (central differences)        -> {float(fd):.6f}")

print("\n== arrays, broadcasting, reuse ==")
w = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
v = Tensor(np.array([2.0, 1.0]), requires_grad=True)
out = ad.sum_(ad.mul(ad.matmul(v, w), v))     # v used twice: grads accumulate
ad.backward(out)
print(f"  d/dW sum((v W) * v) =\n{np.array2string(w.grad, prefix='  ')}")
print(f"  d/dv                = {v.grad}")

print("\n== the op registry ==")
print(f"  {len(ad.OPS)} primitives: {', '.join(sorted(ad.OPS))}")
r = ad.OPS["relu"](Tensor(np.array([-1.0, 2.0])))
print(f"  OPS['relu']([-1, 2]) -> {r.data}")

print("\n== guard rails ==")
try:
    ad.backward(ad.mul(v, v))
except ValueError as e:
    print(f"  backward on a non-scalar:  {e}")
try:
    loss = ad.sum_(ad.mul(v, v))
    ad.backward(loss)
    ad.backward(loss)
except RuntimeError as e:
    print(f"  backward twice:            {e}")
try:
    ad.exp(Tensor(np.float32(1000.0)))
except NonFiniteError as e:
    print(f"  overflow surfaced, not propagated: {e}")

print("\n== inference mode ==")
with ad.no_grad():
    silent = ad.sum_(ad.mul(v, v))
print(f"  inside no_grad() nothing is recorded: requires_grad={silent.requires_grad}")

print("\n== precision regimes ==")
for dtype in (np.float32, np.float64):
    t = Tensor(np.ones(3, dtype=dtype))
    print(f"  {dtype.__name__}: op result dtype {ad.exp(t).dtype}")
