"""Green function and the weighted singular integral behind the tightness bound.

For a transient stable process the 0-resolvent has density
c(d, alpha) |x - y|^(alpha - d); integrating it against the time-change
measure dy / W(y) bounds the expected total clock.  With the extremal
weight W = 1 + |y|^beta that bound IS the singular integral J_{d-alpha,beta},
so the two independent quadrature routes must agree digit for digit, decay
together as |x| grows, and respect the three-regime decay envelopes.
"""

import math

import numpy as np

import stablelab as sl

print("== 1. Gamma function and the Green constant ==")
print(f"   Gamma(1/2) = {sl.gamma_fn(0.5):.12f}   (sqrt(pi) = {math.sqrt(math.pi):.12f})")
print(f"   Gamma(5)   = {sl.gamma_fn(5.0):.1f}")
print(f"   c(3, 2)    = {sl.green_constant(3, 2.0):.10f}   (1/(2 pi) = {1/(2*math.pi):.10f})")
print(f"   G(x, y) at |x-y|=1, d=3, alpha=2: {sl.green_function([0.]*3, [1.,0.,0.], 3, 2.0):.10f}")

print("\n== 2. The J integral: closed-form anchor and symmetry ==")
p = sl.JParams(gamma1=0.5, gamma2=2.0, dim=1)
j0 = sl.j_integral(p, 0.0)
print(f"   J_(1/2,2)(0) = {j0:.8f}   (pi sqrt(2) = {math.pi*math.sqrt(2):.8f})")
print(f"   J(1.7) = {sl.j_integral(p, 1.7):.8f} = J(-1.7) = {sl.j_integral(p, -1.7):.8f}")

print("\n== 3. Boundedness: max over a log-spaced scan sits near the origin ==")
probes = np.concatenate([[0.0], np.geomspace(0.1, 300.0, 13)])
vals = [sl.j_integral(p, float(x)) for x in probes]
k = int(np.argmax(vals))
print(f"   max J = {vals[k]:.5f} at x = {probes[k]:.2f}; J(300) = {vals[-1]:.5f}")

print("\n== 4. Decay envelopes with fitted constants (train/verify split) ==")
for pp, label in [
    (sl.JParams(0.5, 0.8, 1), "gamma2 < d : |x|^(d-g1-g2)"),
    (sl.JParams(0.5, 1.0, 1), "gamma2 = d : (1+|x|)^-g1 log|x|"),
    (sl.JParams(0.5, 3.0, 1), "gamma2 > d : (1+|x|)^-g1"),
]:
    c, ok = sl.envelope_constant_check(pp, (2.0, 8.0, 32.0, 128.0), (4.0, 16.0, 64.0))
    print(f"   {label:<34} fitted c = {c:8.4f}  held-out probes ok: {ok}")

print("\n== 5. 0-resolvent mass vs its Green/J bound (extremal weight: equality) ==")
table = sl.r0_mu_bound_check(sl.TimeChangeWeight(beta=1.0), 1, 0.5, (1.0, 2.0, 4.0, 8.0, 16.0))
print("   x     quadrature     bound")
for x, r, b in zip(table.probes, table.resolvent, table.bound):
    print(f"   {x:<5} {r:.8f}   {b:.8f}")
print(f"   decay along probes: {table.decays()}")

print("\n== 6. A strictly larger weight drops the quadrature below the bound ==")
w = sl.TimeChangeWeight(beta=1.0, fn=lambda pts: 2.0 * (1.0 + np.abs(pts[:, 0])))
t2 = sl.r0_mu_bound_check(w, 1, 0.5, (1.0, 4.0, 16.0))
for x, r, b in zip(t2.probes, t2.resolvent, t2.bound):
    print(f"   x={x:<4} quadrature {r:.6f} < bound {b:.6f}")

print("\n== 7. Hypothesis guard: beta <= alpha has no finite resolvent mass ==")
try:
    sl.r0_mu_bound_check(sl.TimeChangeWeight(beta=0.3), 1, 0.5, (1.0,))
except ValueError as err:
    print(f"   rejected: {err}")
