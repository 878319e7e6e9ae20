"""Finite-size exact diagonalization as an independent check.

The dense model reduces to two large spins, so modest sizes resolve the
thermodynamic-limit results; the sparse model is checked against a full
2^N diagonalization at N=12.  Gap sequences extrapolate in 1/N to the
harmonic-fluctuation values away from transitions.
"""
import numpy as np

from meanfield_annealer import (ModelSpec, dense_ed, detect_transition,
                                extrapolate_gap, gap_sequence, gaps_at,
                                global_minimize, global_saddle, sparse_ed)

dense = ModelSpec.dense()

print("== ground magnetization: classical limit vs sector ED at N=200 ==")
for s in (0.2, 0.5, 0.8):
    st = global_minimize(dense, s)
    ref = dense_ed(dense, s, 200)
    print(f"  s={s}: classical m2z={st.m2z:+.4f}  ED={ref.m2z:+.4f}  "
          f"diff={abs(st.m2z-ref.m2z):.4f}")

print("\n== gap extrapolation at xi12=-4 (clean points) ==")
spec4 = ModelSpec.dense(xi=(0.0, 0.0, -4.0))
sizes = [100, 200, 400]
for s in (0.15, 0.25, 0.35):
    gaps = gap_sequence(spec4, s, sizes)
    ex = extrapolate_gap(sizes, gaps)
    d1 = gaps_at(spec4, s).delta1
    print(f"  s={s}: ED gaps {np.round(gaps, 4).tolist()} -> {ex:.4f}, "
          f"harmonic {d1:.4f} ({abs(ex-d1)/d1:.2%})")

print("\n== finite-size gap at the transition point shrinks with N ==")
rep = detect_transition(dense)
print(f"  transition at s*={rep.s_star:.5f}")
for N in (40, 80, 120):
    r = dense_ed(dense, rep.s_star, N)
    print(f"  N={N:4d}: gap={r.gap:.6f}")

print("\n== sparse model vs full-space ED at N=12 ==")
for xi in (0.0, 2.0):
    spec = ModelSpec.sparse(xi=(0.0, 0.0, xi))
    for s in (0.2, 0.8):
        sol = global_saddle(spec, s)
        ref = sparse_ed(spec, s, 12)
        print(f"  xi12={xi} s={s}: saddle m2z={sol.m2z:+.4f}  ED={ref.m2z:+.4f}  "
              f"diff={abs(sol.m2z-ref.m2z):.4f}")
