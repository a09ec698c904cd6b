"""Increment laws of the symmetric stable sampler, checked against closed forms.

The sampler promises exact laws: Gaussian with variance h per coordinate at
alpha = 2, characteristic exponent |xi|^alpha below 2 (in one dimension a
direct Chambers-Mallows-Stuck draw, tan of a uniform at alpha = 1; in
higher dimensions a Brownian motion on a one-sided stable clock).  This
script holds those promises against formulas that never touch the sampler:
the erfc expression for the index-1/2 subordinator CDF, the arctan mass of
the Cauchy law, and the self-similarity collapse across step sizes.
"""

import numpy as np
from scipy import special, stats

import stablelab as sl

print("== 1. Brownian increments: sample variance vs h ==")
spec2 = sl.ProcessSpec(alpha=2.0, dim=1)
for h in (0.25, 1.0, 4.0):
    x = sl.sample_increments(spec2, h, sl.stream(1), 400_000)[:, 0]
    print(f"   h={h:<5} sample var = {x.var():.4f}   (target {h})")

print("\n== 2. Cauchy law at alpha = 1: central mass and quartiles ==")
spec1 = sl.ProcessSpec(alpha=1.0, dim=1)
c = sl.sample_increments(spec1, 1.0, sl.stream(2), 400_000)[:, 0]
print(f"   P(|X| <= 1) = {(np.abs(c) <= 1).mean():.4f}   (target 0.5, arctan(1) = pi/4)")
print(f"   median |X|  = {np.median(np.abs(c)):.4f}   (target tan(pi/4) = 1)")

print("\n== 3. One-sided stable clock, index 1/2: KS distance to erfc CDF ==")
s = sl.sample_subordinator_increment(0.5, 1.0, sl.stream(3), size=400_000)
xs = np.sort(s)
emp = np.arange(1, xs.size + 1) / xs.size
ks = np.abs(emp - special.erfc(1.0 / (2.0 * np.sqrt(xs)))).max()
print(f"   sup |empirical - erfc(1/(2 sqrt(s)))| = {ks:.4f}")
print(f"   min draw = {s.min():.3e}  (positivity)")

print("\n== 4. Self-similarity: X_2h * 2^(-1/alpha) vs X_h (two-sample KS) ==")
for alpha in (0.6, 1.0, 1.4, 2.0):
    spec = sl.ProcessSpec(alpha=alpha, dim=1)
    a = sl.sample_increments(spec, 2.0, sl.stream(4), 50_000)[:, 0] * 2 ** (-1 / alpha)
    b = sl.sample_increments(spec, 1.0, sl.stream(5), 50_000)[:, 0]
    r = stats.ks_2samp(a, b)
    print(f"   alpha={alpha:<4} KS statistic {r.statistic:.4f}  pvalue {r.pvalue:.3f}")

print("\n== 5. Heavy tails at alpha = 1/2 vs characteristic-function inversion ==")
from stablelab.closedform import symmetric_stable_central_cdf_mass

spec05 = sl.ProcessSpec(alpha=0.5, dim=1)
x = sl.sample_increments(spec05, 1.0, sl.stream(6), 400_000)[:, 0]
for m in (10.0, 100.0):
    emp = (np.abs(x) > m).mean()
    oracle = 1.0 - symmetric_stable_central_cdf_mass(0.5, m)
    print(f"   P(|X| > {m:>5}): empirical {emp:.4f}  quadrature {oracle:.4f}")

print("\n== 6. Replayability: same seed, same path ==")
p1 = sl.sample_path(sl.ProcessSpec(1.5, 2), [0.0, 0.0], 1.0, 0.01, seed=42)
p2 = sl.sample_path(sl.ProcessSpec(1.5, 2), [0.0, 0.0], 1.0, 0.01, seed=42)
print(f"   bitwise identical: {np.array_equal(p1.positions, p2.positions)}")
