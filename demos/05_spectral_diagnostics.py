"""Matrix-side diagnostics: compactness, heat traces and the weight transition.

Dense 1D generators stand in for the continuum operators: Dirichlet
Laplacian, its spectral fractional powers, killing by a potential, and
time-change weights.  Three diagnostics run here:

  * the part-process approximation ||P_t - P_t^n|| collapses along an
    exhaustion exactly when the semigroup is compact-type, and stalls near
    1 for the conservative control;
  * the heat trace over disjoint shrinking intervals keeps growing as the
    interval count doubles even though the per-interval exit-time bound
    goes to zero -- compactness without trace class;
  * the spectral gap of W (-Delta)^(alpha/2) with W = 1 + |x|^beta
    stabilizes under box growth iff beta > alpha.
"""

import numpy as np

import stablelab as sl

print("== 1. Eigenvalue oracles for the discretized operators ==")
gen = sl.dirichlet_laplacian(sl.Grid1D(0.0, np.pi, np.pi / 400))
print(f"   (1/2)Delta on (0, pi): lambda_1 = {gen.eigenvalues[0]:.6f}   (continuum 0.5)")
frac = sl.fractional_power(sl.Grid1D(0.0, np.pi, np.pi / 400), 1.0)
print(f"   (-Delta)^(1/2) on (0, pi): first eigs {np.round(frac.eigenvalues[:4], 4)} (continuum 1,2,3,4)")
kill = sl.killed_generator(
    sl.dirichlet_laplacian(sl.Grid1D.symmetric(12.0, 0.02)),
    sl.KillingPotential.power(1.0, 2.0, offset=1.0),
)
print(f"   -(1/2)Delta + 1 + x^2: lambda_1 = {kill.eigenvalues[0]:.6f}   "
      f"(oscillator value 1 + sqrt(2)/2 = {1 + np.sqrt(2)/2:.6f})")

print("\n== 2. Compactness diagnostic ||P_1 - P_1^n|| along box levels ==")
levels = [sl.Interval(-r, r) for r in (2.0, 3.0, 4.0, 5.0, 6.0)]
base8 = sl.dirichlet_laplacian(sl.Grid1D.symmetric(8.0, 0.02))
killed8 = sl.killed_generator(base8, sl.KillingPotential.power(1.0, 2.0, offset=1.0))
tight = sl.compactness_diagnostic(killed8, levels, 1.0)
control = sl.compactness_diagnostic(base8, levels, 1.0)
print(f"   killed (compact-type): {np.array2string(tight, formatter={'float': lambda v: f'{v:.2e}'})}")
print(f"   conservative control : {np.round(control, 3)}")

print("\n== 3. L^p decay-rate comparison at t = 8 ==")
rates = sl.lp_spectral_bound_compare(kill, [4.0, 8.0])
print(f"   lambda_hat_1  = {rates.rate_at(1, 8.0):.5f}")
print(f"   lambda_hat_2  = {rates.rate_at(2, 8.0):.5f}  (exact bottom eigenvalue)")
print(f"   lambda_hat_inf= {rates.rate_at('inf', 8.0):.5f}  "
      f"(equals lambda_hat_1: {rates.rates_1 == rates.rates_inf})")
print(f"   extrapolated over the grid: {rates.extrapolated('inf'):.5f}")

print("\n== 4. Trace growth vs exit-bound collapse on disjoint shrinking intervals ==")
print("   N     heat trace at t=0.01    tail half-length^2")
prev = None
for n in (8, 16, 32, 64):
    dom = sl.disjoint_shrinking_intervals(n)
    tr = sl.union_interval_trace(dom, 0.01, 0.01)
    a, b = dom.segments[-1]
    growth = f"  (+{(tr/prev-1)*100:.0f}%)" if prev else ""
    prev = tr
    print(f"   {n:<4}  {tr:8.3f}{growth:<9} {((b-a)/2)**2:.4f}")

print("\n== 5. Weight-exponent transition for W (-Delta)^(1/2), W = 1 + |x|^beta ==")
study = sl.weighted_transition_study(1.0, [2.0, 0.5], (10.0, 20.0, 40.0), 0.1)
for beta in (2.0, 0.5):
    gaps = ", ".join(f"{g:.4f}" for g in study["gap"][beta])
    verdict = "stabilizes (discrete spectrum)" if beta > 1.0 else "collapses (no gap)"
    print(f"   beta={beta}: gap over R=10,20,40 -> [{gaps}]  {verdict}")
print("   (beta=2 gap tends to 2: W (-Delta)^(1/2) maps x/(1+x^2) to exactly twice itself)")
