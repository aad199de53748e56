#!/usr/bin/env python3
"""Corroborating closed forms with the exact oracle.

oracle_m walks the strict distance records of n*alpha - gamma from n = 1 on
both sides, until the walk's normalized state repeats.  M is then the least
|N(e)|/|alpha - alpha'| over one cycle of records: an exact value, compared
with the closed form by ==.  The certificate is the cycle's length in records
and the n of its first record (negative on the n < 0 side).  A window
minimum, by contrast, only bounds M from above, and only once the window
spans a whole cycle.
"""

import time

from inhomspec import (
    ClassId,
    brute_force_min,
    class_tsequence,
    delta_closed_form,
    gamma_value,
    m_value,
    make_alpha,
    oracle_m,
)

samples = [
    ((4, 7), ClassId("Sk", k=0)),
    ((4, 8), ClassId("Sk1", k=0)),
    ((5, 7), ClassId("S0")),
    ((2, 6), ClassId("S-1")),
    ((5, 10), ClassId("S-2")),
    ((8, 12), ClassId("Sk1", k=0)),
]

print("class             closed-form M    oracle M         equal  cycle  from n")
t0 = time.time()
for ab, cls in samples:
    al = make_alpha(*ab)
    gamma = gamma_value(class_tsequence(cls, al), al)
    M = m_value(delta_closed_form(cls, al), al)
    got = oracle_m(al, gamma)
    print(f"({ab[0]},{ab[1]:2d}) {cls.delta_label:11s} {M.decimal(12)}   "
          f"{got.m.decimal(12)}   {got.m == M!s:5}  {got.cycle_records:5d}  "
          f"{got.cycle_start_n:6d}")
print(f"\nall cycles walked in {time.time() - t0:.2f} s")

print("\nWindow minima for (5,7) delta_0 close in on M as the window moves out:")
al = make_alpha(5, 7)
gamma = gamma_value(class_tsequence(ClassId("S0"), al), al)
for lo, hi in ((3, 4), (4, 5), (5, 6), (20, 30)):
    rep = brute_force_min(al, gamma, 10**lo, 10**hi, two_sided=True)
    print(f"  window [10^{lo}, 10^{hi}]: min = {rep.window_min.decimal(15)} "
          f"at n = {rep.argmin_n}")

print("\nA lattice point is outside the definition: gamma = 5*alpha is refused")
al = make_alpha(4, 8)
try:
    oracle_m(al, al.eta * 5)
except ValueError as ex:
    print(f"  ValueError: {ex}")
rep = brute_force_min(al, al.eta * 5, 1, 100)
print(f"  while the window [1, 100] dips to {rep.window_min.decimal(8)} at n = {rep.argmin_n}")
