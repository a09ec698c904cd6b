"""Feynman-Kac killing: weights, lifetimes and the vanishing 1-resolvent.

Killing a path at rate V(x) multiplies every expectation by exp(-A_t),
A_t = int_0^t V(X_s) ds.  With a confining V (growing at infinity) the
killed process dies quickly when started far out: its mean lifetime and
its 1-resolvent of the constant function both collapse as |x0| grows,
which is the operational signature of a compact semigroup.  The same
collapse appears for the part process on the shrinking-ball domain.
"""

import numpy as np

import stablelab as sl

BM1 = sl.ProcessSpec(alpha=2.0, dim=1)
BM2 = sl.ProcessSpec(alpha=2.0, dim=2)
CAUCHY = sl.ProcessSpec(alpha=1.0, dim=1)

print("== 1. Constant rate c: lifetime 1/c and the geometric overestimate ==")
for c in (0.5, 2.0):
    res = sl.estimate_killed_lifetime_mean(
        BM1, [0.0], sl.KillingPotential.constant(c), 1e-3, 5_000, 21, t_max=10.0
    )
    print(f"   c={c}: E[zeta] = {res.mean:.4f} (target {1/c}), "
          f"p_hat = {res.p_hat:.4f} (target e^-c = {np.exp(-c):.4f}), "
          f"geometric bound 1/(1-p) = {1/(1-res.p_hat):.3f} >= mean")

print("\n== 2. Confining V = 1 + x^2: lifetime shrinks with the start point ==")
pot = sl.KillingPotential.power(1.0, 2.0, offset=1.0)
for x0 in (0.0, 2.0, 4.0, 8.0):
    res = sl.estimate_killed_lifetime_mean(BM1, [x0], pot, 1e-3, 5_000, 22, t_max=6.0)
    print(f"   x0={x0:>4}: E[zeta] = {res.mean:.4f} +- {res.stderr:.4f}")

print("\n== 3. The same collapse through the 1-resolvent of 1 ==")
for x0 in (0.0, 2.0, 4.0, 8.0):
    res = sl.estimate_resolvent_r1(BM1, [x0], pot, 1e-3, 5_000, 23, t_max=10.0)
    print(f"   x0={x0:>4}: R_1 1 = {res.mean:.4f} +- {res.stderr:.4f}")

print("\n== 4. Part process on the shrinking-ball chain: the scan of both columns ==")
domain = sl.shrinking_ball_domain(2, 10_000)
probes = np.array([[5.0, 0.0], [50.0, 0.0], [500.0, 0.0], [5000.0, 0.0]])
scan = sl.exit_time_scan(BM2, probes, domain, 20.0, 2e-3, 5_000, 24)
print("   n     E[tau]            R_1 1")
for p, (m, r) in zip((5, 50, 500, 5000), scan):
    print(f"   {p:<4}  {m.mean:.4f}+-{m.stderr:.4f}   {r.mean:.4f}+-{r.stderr:.4f}")

print("\n== 5. Boundary operator of the killed Cauchy process: norm bound ==")
inner = np.linspace(-3, 3, 9)[:, None]
outer = np.array([[-4.0], [-3.3], [3.3], [4.0]])
bound = sl.t_norm_bound_check(
    CAUCHY, pot, sl.Interval(-6, 6), inner, outer, t=1.0, h=2e-3, n_paths=2_000, seed=25
)
print(f"   ||T|| estimate {bound.lhs:.2e} <= compact part {bound.compact_part:.2e} "
      f"+ (4/t) lifetime sup {bound.tail_part:.4f}  -> pass={bound.passed}")
print("   (the bound is loose by design: its value is that it closes at all)")
