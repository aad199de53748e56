#!/usr/bin/env python3
"""The full value catalogue above the first limit point, for any (a, b).

Every value is exact; the ordering is certified by sign tests.  The largest
point is always isolated, and the printout shows the gap.
"""

from inhomspec import (
    make_alpha,
    spectrum_catalog,
    isolation_gap,
    euclidean_test,
    covered_pairs,
)


def show(a, b, kmax=5):
    cat = spectrum_catalog(make_alpha(a, b), kmax=kmax)
    print(f"\n(a,b) = ({a},{b})   [classes down to the first limit point]")
    for p in cat.points:
        tag = {"isolated": " ", "family_member": "f", "limit_point": "*"}[p.kind]
        arrow = {"increasing": "up", "decreasing": "down", "none": "  "}[p.direction]
        print(f"  {tag} {p.label:14s} {arrow:4s} M* = {p.m_star.decimal(12)}   M = {p.m.decimal(12)}")
    print(f"  isolation gap: {isolation_gap(cat).decimal(12)}")


show(4, 8)    # the sqrt(14) example: one isolated point, then a family
show(5, 10)   # the second value is itself a (non-isolated) limit point
show(3, 4)    # smallest quotients: a decreasing family above the limit
show(2, 9)

print("\n== norm-Euclidean criterion across small pairs ==")
print("pair       rho          threshold    norm-Euclidean")
for a, b in covered_pairs(2, 6, 3, 9):
    r = euclidean_test(make_alpha(a, b))
    print(f"({a},{b:2d})   {r.rho.decimal(9)}  {r.threshold.decimal(9)}  {r.verdict}")

print("\nsqrt(14) aside: (4,8) has exactly one spectrum point above 1/(2 sqrt 14):")
rep = euclidean_test(make_alpha(4, 8))
print("  points above threshold:", rep.points_above, " verdict:", rep.verdict)
