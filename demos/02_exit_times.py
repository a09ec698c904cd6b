"""Exit-time estimation: grid detection, the bridge correction and oracles.

A Brownian path can slip out of a domain and return between two grid
times, so pure grid detection overestimates exit times by O(sqrt(h)).
The estimator kills paths between grid points with the half-space
crossing probability exp(-2 d0 d1 / h); this script shows the bias of
grid-only detection (``exit_time`` on sampled paths) against the
estimator's bridge correction, then matches estimates against the closed
forms (x-a)(b-x) on intervals, (r^2-|x|^2)/d on balls, and the
(a^2 - x^2)^(alpha/2) / Gamma(1+alpha) formula for stable jumps.
"""

import numpy as np

import stablelab as sl
from stablelab.closedform import (
    brownian_ball_mean_exit,
    brownian_interval_mean_exit,
    stable_interval_mean_exit,
)

BM1 = sl.ProcessSpec(alpha=2.0, dim=1)
BM2 = sl.ProcessSpec(alpha=2.0, dim=2)

print("== 1. Bridge correction vs plain grid detection (interval, h = 1e-3) ==")
dom = sl.Interval(-1.0, 1.0)
# exit_time reads a sampled path on its grid only
grid = np.array([
    min(sl.exit_time(sl.sample_path(BM1, [0.0], 8.0, 1e-3, 1_000 + k), dom), 8.0)
    for k in range(10_000)
])
print(f"   grid  : E[tau] = {grid.mean():.4f} +- {grid.std() / np.sqrt(grid.size):.4f}   (exact 1.0)")
r = sl.estimate_mean_exit_time(BM1, [0.0], dom, 10.0, 1e-3, 40_000, 7)
print(f"   bridge: E[tau] = {r.mean:.4f} +- {r.stderr:.4f}   (exact 1.0)")

print("\n== 2. Interval start-point sweep vs (x-a)(b-x) ==")
for x0 in (-0.5, 0.0, 0.6):
    r = sl.estimate_mean_exit_time(BM1, [x0], dom, 10.0, 1e-3, 20_000, 8)
    print(f"   x0={x0:+.1f}: {r.mean:.4f} +- {r.stderr:.4f}   "
          f"(oracle {brownian_interval_mean_exit(-1.0, 1.0, x0):.4f})")

print("\n== 3. Planar ball from the center vs r^2/d ==")
r = sl.estimate_mean_exit_time(BM2, [0.0, 0.0], sl.Ball((0.0, 0.0), 1.0), 8.0, 1e-3, 40_000, 9)
print(f"   E[tau] = {r.mean:.4f} +- {r.stderr:.4f}   (oracle {brownian_ball_mean_exit(1.0, 0.0, 2):.4f})")

print("\n== 4. Jump exits: Cauchy process on (-1, 1) vs the Gamma-function formula ==")
r = sl.estimate_mean_exit_time(sl.ProcessSpec(1.0, 1), [0.0], dom, 30.0, 1e-3, 40_000, 10)
print(f"   E[tau] = {r.mean:.4f} +- {r.stderr:.4f}   "
      f"(oracle {stable_interval_mean_exit(1.0, 1.0, 0.0):.4f}; no bridge needed, exits jump)")

print("\n== 5. Survival curve P(tau > t) on the unit disk ==")
for t in (0.25, 0.5, 1.0, 2.0):
    s = sl.estimate_survival(BM2, [0.0, 0.0], sl.Ball((0.0, 0.0), 1.0), t, 1e-3, 20_000, 11)
    print(f"   t={t:<5} survival = {s.mean:.4f} +- {s.stderr:.4f}")

print("\n== 6. Deterministic functional: exit time of a hand-made path ==")
from stablelab.process import PathSample

hop = PathSample(spec=BM1, step_h=1.0, positions=np.array([[0.0], [0.5], [1.5]]), seed=0)
print(f"   path 0 -> 0.5 -> 1.5 leaves (-1,1) at t = {sl.exit_time(hop, dom)} (grid time)")
print(f"   started outside: {sl.exit_time(PathSample(BM1, 1.0, np.array([[5.0]]), 0), dom)}")
