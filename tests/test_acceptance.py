"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Every comparison marked exact is a QuadNum equality or sign test; no
tolerance hides behind a float.
"""

from fractions import Fraction as F

from inhomspec.quadfield import qnum
from inhomspec.ncf import make_alpha, ncf_expand
from inhomspec.expansion import (
    TSequence,
    d_plus,
    gamma_value,
    m_star,
    m_value,
    reflect,
    repeated_t_bound,
)
from inhomspec.spectrum import (
    ClassId,
    class_tsequence,
    covered_pairs,
    delta_closed_form,
    family_limit,
    isolation_gap,
    spectrum_catalog,
    verify_equivalence,
)
from inhomspec.oracle import brute_force_min

from catalog_reference import expected_rho

GRID = list(covered_pairs())


def _report(n, name, ok):
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


def test_criterion_1_radical_anchors():
    al = make_alpha(8, 12)
    ok = family_limit("Sk6", al).same_value(
        qnum(F(-1320256308, 2209), F(112387809, 2209), 138)
    )
    al = make_alpha(6, 10)
    ok &= family_limit("Sk7", al).same_value(
        qnum(F(6329319, 40), F(-6551443, 600), 210)
    )
    ok &= delta_closed_form(ClassId("Sk4", k=1), al).same_value(
        qnum(F(703, 40), F(-703, 600), 210)
    )
    _report(1, "radical anchors, exact", ok)


def test_criterion_2_catalogue_evaluator_equivalence():
    checked, ok = 0, True
    for a, b in GRID:
        for res in verify_equivalence(make_alpha(a, b), kmax=4):
            checked += 1
            if not res.ok:
                ok = False
                print(f"  mismatch at ({a},{b}) {res.cls}")
    _report(2, f"catalogue-evaluator equivalence ({checked} cases)", ok and checked > 900)


def test_criterion_3_rho_star_and_isolation():
    ok = True
    for a, b in GRID:
        al = make_alpha(a, b)
        cat = spectrum_catalog(al, kmax=4)
        if cat.rho_star.cls != expected_rho(al):
            ok = False
            print(f"  rho* mismatch at ({a},{b})")
        if isolation_gap(cat).sign() <= 0:
            ok = False
            print(f"  non-positive gap at ({a},{b})")
    _report(3, "rho* identification and isolation", ok)


def test_criterion_4_family_convergence():
    ok = True
    for a, b in GRID:
        al = make_alpha(a, b)
        cat = spectrum_catalog(al, kmax=2)
        for fam in cat.families:
            k0 = min(fam.k_listed)
            vals = []
            for k in range(k0, k0 + 11):
                try:
                    vals.append(delta_closed_form(ClassId(fam.family, k=k), al))
                except Exception:
                    break
            want = 1 if fam.direction == "increasing" else -1
            for u, v in zip(vals, vals[1:]):
                if (v - u).sign() != want:
                    ok = False
                    print(f"  monotonicity broken: ({a},{b}) {fam.family}")
                du, dv = u - fam.limit, v - fam.limit
                if (du * du - dv * dv).sign() <= 0:
                    ok = False
                    print(f"  |delta_k - delta_inf| not shrinking: ({a},{b}) {fam.family}")
    # (5,10): the second largest value is a non-isolated limit point,
    # approached from below within 1e-6 by k <= 40
    al = make_alpha(5, 10)
    lim = family_limit("Sk2", al)
    close = False
    for k in range(1, 41):
        d = lim - delta_closed_form(ClassId("Sk2", k=k), al)
        if d.sign() <= 0:
            ok = False
            print(f"  delta_{{{k},2}} not below its limit at (5,10)")
        if d < F(1, 10**6):
            close = True
            break
    ok &= close
    _report(4, "family convergence (incl. the (5,10) limit-from-below case)", ok)


def test_criterion_5_sqrt14_single_point():
    cat = spectrum_catalog(make_alpha(4, 8), kmax=8)
    # 1/(2 sqrt 14) inside the working field: sqrt(896) = 8 sqrt(14)
    thr = 1 / qnum(0, F(2, 8), 896)
    assert thr.same_value(1 / qnum(0, 2, 14))
    above = [
        p for p in cat.points
        if p.kind != "limit_point" and (p.m * p.m - thr * thr).sign() > 0
    ]
    # family tail and limit stay below the threshold, so kmax cannot add more
    below_limit = (m_value(cat.first_limit_point, cat.alpha) < thr)
    _report(5, "sqrt(14): exactly one point above 1/(2 sqrt 14)",
            len(above) == 1 and below_limit)


def test_criterion_6_oracle_corroboration():
    samples = [
        ((4, 7), ClassId("Sk", k=0)),
        ((4, 8), ClassId("Sk1", k=0)),
        ((5, 7), ClassId("S0")),
        ((2, 6), ClassId("S-1")),
        ((2, 7), ClassId("S0t", t=3)),
        ((3, 4), ClassId("S-6")),
        ((3, 5), ClassId("S-7")),
        ((5, 10), ClassId("S-2")),
        ((6, 10), ClassId("Sk4", k=1)),
        ((8, 12), ClassId("Sk1", k=0)),
        ((7, 9), ClassId("S-3")),
        ((2, 13), ClassId("S0t", t=5)),
    ]
    ok = True
    for ab, cls in samples:
        al = make_alpha(*ab)
        seq = class_tsequence(cls, al)
        gamma = gamma_value(seq, al)
        target = m_value(delta_closed_form(cls, al), al)
        rep = brute_force_min(al, gamma, 10**3, 10**6, target_m=target, two_sided=True)
        if rep.relative_gap >= 1e-2:
            ok = False
            print(f"  oracle gap {rep.relative_gap:.2e} at {ab} {cls}")
    # beyond the named samples: corroborate rho* over the whole grid
    for a, b in GRID:
        al = make_alpha(a, b)
        cat = spectrum_catalog(al, kmax=2)
        gamma = gamma_value(class_tsequence(cat.rho_star.cls, al), al)
        rep = brute_force_min(al, gamma, 10**3, 10**6,
                              target_m=cat.rho_star.m, two_sided=True)
        if rep.relative_gap >= 1e-2:
            ok = False
            print(f"  rho* oracle gap {rep.relative_gap:.2e} at ({a},{b})")
    _report(6, f"oracle corroboration ({len(samples)} samples + grid rho*, rel 1e-2)", ok)


def test_criterion_7_identity_suite():
    ok = True
    for a, b in GRID:
        al = make_alpha(a, b)
        one = al.one
        ok &= al.eta * a == one + al.D
        ok &= al.beta * b == one + al.D
        for j in (1, 2):
            q = al.partial_quotient(j)
            for t in range(0, q + 1):
                ok &= repeated_t_bound(al, j, t) == 1 - t * al.alpha_at(j - 1) + al.D
        # sequence-level identities on the top two catalogue classes
        cat = spectrum_catalog(al, kmax=2)
        seqs = []
        for p in cat.points:
            if p.kind == "limit_point" or p.cls.k is None and p.cls.t is None:
                continue
            try:
                seqs.append(class_tsequence(p.cls, al))
            except Exception:
                continue
            if len(seqs) == 2:
                break
        for seq in seqs:
            L = len(seq.period)
            for i in range(1, L + 1):
                j = i + 2 if i + 2 <= L else i + 2 - L
                rhs = (
                    seq.period_t(i + 1) * al.alpha_at(i)
                    + seq.period_t(i + 2) * al.D
                    + al.D * d_plus(TSequence(seq.period), j, al)
                )
                ok &= d_plus(TSequence(seq.period), i, al) == rhs
            base = m_star(seq, al)
            ok &= m_star(reflect(seq, al), al) == base
            ok &= m_star(seq.rotated(1), al) == base
        if not ok:
            print(f"  identity failure at ({a},{b})")
            break
    _report(7, "identity suite (exact, across the grid)", ok)


def test_criterion_8_ncf_round_trip():
    e = ncf_expand(qnum(0, 1, 14))
    ok = (e.integer_part, e.preperiod, e.period) == (4, (), (4, 8))
    for a, b in GRID:
        r = ncf_expand(make_alpha(a, b).eta)
        if (r.integer_part, r.preperiod, r.period) != (0, (), (a, b)):
            ok = False
            print(f"  round trip failed at ({a},{b})")
    _report(8, "negative-CF round trips", ok)
