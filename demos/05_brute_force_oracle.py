#!/usr/bin/env python3
"""Corroborating closed forms by brute force.

For gamma with a catalogued periodic expansion, the minimum of
n * ||n*alpha - gamma|| over a window [10^3, 10^6] should land within a
percent of the exact constant.  The oracle walks the distance records of
the window in exact arithmetic, so the window minimum itself is exact.
"""

import time

from inhomspec import (
    ClassId,
    class_tsequence,
    delta_closed_form,
    gamma_value,
    liminf_estimate,
    m_value,
    make_alpha,
)

samples = [
    ((4, 7), ClassId("Sk", k=0)),
    ((4, 8), ClassId("Sk1", k=0)),
    ((5, 7), ClassId("S0")),
    ((2, 6), ClassId("S-1")),
    ((5, 10), ClassId("S-2")),
    ((8, 12), ClassId("Sk1", k=0)),
]

print("class            exact M         window minima (10^3..10^4, ..10^5, ..10^6)")
t0 = time.time()
for ab, cls in samples:
    al = make_alpha(*ab)
    seq = class_tsequence(cls, al)
    gamma = gamma_value(seq, al)
    M = m_value(delta_closed_form(cls, al), al)
    tab = liminf_estimate(al, gamma, target_m=M, two_sided=True)
    mins = "  ".join(w.window_min.decimal(8) for w in tab.windows)
    print(f"({ab[0]},{ab[1]:2d}) {cls.delta_label:10s} {M.decimal(8)}   {mins}"
          f"   stabilized={tab.stabilized}")
print(f"\nall windows searched in {time.time() - t0:.2f} s")

print("\nA lattice point for contrast: gamma = 5*alpha dips to an exact zero")
al = make_alpha(4, 8)
tab = liminf_estimate(al, al.eta * 5, ((1, 100), (100, 10_000)))
for w in tab.windows:
    print(f"  window [{w.n_lo}, {w.n_hi}]: min = {w.window_min.decimal(8)} at n = {w.argmin_n}")
