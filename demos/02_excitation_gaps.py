"""Quasi-particle gaps above the classical ground state.

Profiles the two gap branches over the anneal, shows the discontinuity at
a first-order transition versus the smooth crossing-free case, and
optimizes the catalyst strength for the largest minimum gap.
"""
import numpy as np

from meanfield_annealer import (ModelSpec, gap_profile, gaps_at, min_gap,
                                optimize_catalyst)

print("== gap branches at the endpoints ==")
g0 = gaps_at(ModelSpec.dense(), 0.0)
g1 = gaps_at(ModelSpec.dense(), 1.0)
print(f"s=0: delta1={g0.delta1:.3f} delta2={g0.delta2:.3f}   (transverse field only)")
print(f"s=1: delta1={g1.delta1:.3f} delta2={g1.delta2:.3f}   (single-spin-flip costs)")

grid = np.linspace(0.0, 1.0, 201)
print("\n== profile with no catalyst: the upper branch jumps at s* ==")
prof = gap_profile(ModelSpec.dense(), grid)
d2 = np.array([p.delta2 for p in prof])
k = int(np.argmax(np.abs(np.diff(d2))))
print(f"largest adjacent-point jump of delta2: {np.abs(np.diff(d2)).max():.3f} "
      f"at s={grid[k]:.3f}")

print("\n== profile at xi12=-4: both branches continuous ==")
prof4 = gap_profile(ModelSpec.dense(xi=(0.0, 0.0, -4.0)), grid)
d1 = np.array([p.delta1 for p in prof4])
d2 = np.array([p.delta2 for p in prof4])
print(f"max adjacent-point jumps: delta1 {np.abs(np.diff(d1)).max():.4f}, "
      f"delta2 {np.abs(np.diff(d2)).max():.4f}")
s_min, d_min, _ = min_gap(ModelSpec.dense(xi=(0.0, 0.0, -4.0)), np.linspace(0, 1, 101))
print(f"minimum of the lower branch: {d_min:.4f} at s={s_min:.4f}")

print("\n== catalyst strength maximizing the minimum gap ==")
xi_star, gap_star = optimize_catalyst(
    lambda xi: ModelSpec.dense(xi=(0.0, 0.0, xi)), (-5.0, -3.0), tol_xi=0.05)
print(f"best intercluster strength: xi* = {xi_star:.2f} with min gap {gap_star:.4f}")
