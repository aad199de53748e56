import dataclasses
import hashlib
import random
from fractions import Fraction as F

import pytest

from inhomspec import spectrum
from inhomspec.cli import main
from inhomspec.quadfield import qnum
from inhomspec.ncf import make_alpha
from inhomspec.expansion import gamma_value, m_star, reflect
from inhomspec.spectrum import (
    _CLASSES,
    _LARGE_K,
    _member,
    _Pair,
    ApplicabilityError,
    ClassId,
    ExcludedCaseError,
    SpectrumCatalog,
    class_tsequence,
    covered_pairs,
    delta_closed_form,
    equivalence_cases,
    euclidean_test,
    family_limit,
    isolation_gap,
    odd_params,
    regime,
    spectrum_catalog,
    verify_equivalence,
)

from catalog_reference import expected_rho, reference_catalog
from json_reference import _plain


# ---------------------------------------------------------------- plumbing

def test_regimes():
    assert regime(make_alpha(4, 7)) == "even-odd"
    assert regime(make_alpha(4, 8)) == "even-even"
    assert regime(make_alpha(5, 8)) == "odd"
    assert regime(make_alpha(2, 5)) == "two"
    with pytest.raises(ExcludedCaseError):
        regime(make_alpha(2, 4))


def test_odd_params():
    p = odd_params(make_alpha(5, 10))
    assert (p.m, p.n, p.s, p.r) == (0, 2, -2, 10)
    p = odd_params(make_alpha(5, 7))
    assert (p.m, p.r) == (1, 2)
    p = odd_params(make_alpha(3, 4))
    assert (p.m, p.r) == (0, 4)
    p = odd_params(make_alpha(9, 13))
    assert (p.m, p.r) == (1, 4)
    with pytest.raises(ApplicabilityError):
        odd_params(make_alpha(4, 7))


def test_class_labels():
    assert ClassId("Sk1", k=3).label == "S_{3,1}"
    assert ClassId("Sk1", k=3).delta_label == "delta_{3,1}"
    assert ClassId("S-5").label == "S_{-5}"
    assert ClassId("S0t", t=4).label == "S_{0,4}"
    assert ClassId("S2k", k=2).label == "S_4"
    assert ClassId("S2k+1", k=2).label == "S_5"
    assert ClassId("Sk1").label == "S_{inf,1}"


# ------------------------------------------------------- class sequences

def test_sequences_match_block_strings():
    assert class_tsequence(ClassId("Sk1", k=0), make_alpha(4, 8)).period == (0, 0)
    assert class_tsequence(ClassId("S0"), make_alpha(5, 7)).period == (-1, 1)
    assert class_tsequence(ClassId("S-2"), make_alpha(2, 7)).period == (2, -3, 2, -1)
    assert class_tsequence(ClassId("Sk", k=1), make_alpha(4, 7)).period == (
        0, -1, 0, 1, 0, -1, 0, -1, 0, 1, 0, 1
    )
    assert class_tsequence(ClassId("Sk9", k=0), make_alpha(9, 11)).period == (
        1, -3, 3, -3, 1, 1
    )


def test_a2_alternate_periods_are_reflections():
    # each a = 2 class lists two periods; they are digit reflections
    al = make_alpha(2, 9)
    s = class_tsequence(ClassId("S2k+1", k=1), al)  # (a,-1,0,-1)(a,-3,a,-1)
    assert reflect(s, al).period == (2, -1, 0, -1, 2, -1, 2, -3)
    al = make_alpha(2, 8)
    s = class_tsequence(ClassId("S2k+1", k=1), al)  # (a,-2,0,0)(a,-2)
    assert reflect(s, al).period == (2, 0, 0, -2, 2, -2)
    s = class_tsequence(ClassId("S2k", k=1), al)  # (a,-4)(a,-2)
    assert reflect(s, al).period == (2, 0, 2, -2)


def test_reflect_gives_one_minus_alpha_minus_gamma():
    # gamma(reflect(s)) = 1 - eta - gamma(s) up to Z + eta Z, and exactly
    # when no digit is maximal
    for a, b in covered_pairs():
        al = make_alpha(a, b)
        for cls in equivalence_cases(al, 2):
            s = class_tsequence(cls, al)
            diff = gamma_value(reflect(s, al), al) + gamma_value(s, al) - (1 - al.eta)
            n = diff.q / al.eta.q
            assert n.denominator == 1 and (diff.p - n * al.eta.p).denominator == 1
            if all(t != al.partial_quotient(i) for i, t in enumerate(s.period, 1)):
                assert diff == 0, (a, b, cls)


def test_s_minus4_uses_s_blocks_at_m1():
    # at m = 1 the class switches to B_s B'_s
    assert class_tsequence(ClassId("S-4"), make_alpha(5, 7)).period == (-1, -1, 1, 1)
    assert class_tsequence(ClassId("S-4"), make_alpha(5, 12)).period == (-1, 2, 1, -2)


def test_inapplicable_class_raises():
    with pytest.raises(ApplicabilityError):
        class_tsequence(ClassId("Sk3", k=1), make_alpha(4, 8))  # wrong regime
    with pytest.raises(ApplicabilityError):
        delta_closed_form(ClassId("S-5"), make_alpha(3, 8))  # needs a >= 5, m = 1
    with pytest.raises(ApplicabilityError):
        delta_closed_form(ClassId("Sk2", k=2), make_alpha(7, 16))  # m != 0
    with pytest.raises(ApplicabilityError):
        class_tsequence(ClassId("Sk1", k=-1), make_alpha(4, 8))  # k < 0
    with pytest.raises(ApplicabilityError):
        ClassId("S0t", t=4, k=2)  # a t-class given k
    with pytest.raises(ApplicabilityError):
        ClassId("Sk1", t=3)  # a k-family given t


@pytest.mark.parametrize("family, ab", [
    ("Sk", (5, 7)),     # odd
    ("Sk8", (4, 8)),    # even-even
    ("Sk1", (2, 6)),    # a = 2
    ("Sk1", (4, 7)),    # even-odd
])
def test_family_limit_outside_its_regime_raises(family, ab):
    with pytest.raises(ApplicabilityError):
        family_limit(family, make_alpha(*ab))


# ------------------------------------------------------- closed forms

def test_radical_anchor_8_12():
    # family limit at (8,12): (112387809/2209) sqrt138 - 1320256308/2209
    al = make_alpha(8, 12)
    expect = qnum(F(-1320256308, 2209), F(112387809, 2209), 138)
    assert family_limit("Sk6", al).same_value(expect)


def test_radical_anchors_6_10():
    al = make_alpha(6, 10)
    inf7 = qnum(F(6329319, 40), F(-6551443, 600), 210)
    d14 = qnum(F(703, 40), F(-703, 600), 210)
    assert family_limit("Sk7", al).same_value(inf7)
    assert delta_closed_form(ClassId("Sk4", k=1), al).same_value(d14)


def test_rho_star_even_even():
    al = make_alpha(4, 8)
    assert delta_closed_form(ClassId("Sk1", k=0), al) == (1 - al.eta) * (1 - al.beta)


def test_delta0_even_odd():
    al = make_alpha(4, 7)
    expect = (1 - al.beta - F(1, 7)) * (1 - al.eta + al.eta / 7)
    assert delta_closed_form(ClassId("Sk", k=0), al) == expect


def test_a2_values():
    al = make_alpha(2, 6)
    e, b = al.eta, al.beta
    assert delta_closed_form(ClassId("S0t", t=2), al) == e
    assert delta_closed_form(ClassId("S-1"), al) == e * (1 - b) ** 2
    assert family_limit("S2k", al) == e * ((1 - b) ** 2 - b**2)
    al = make_alpha(2, 5)
    assert delta_closed_form(ClassId("S0t", t=3), al) == al.eta * F(2, 3)
    al = make_alpha(2, 9)
    # the brute-force oracle confirms this closed form over eta*(1 - 1/(b^2-b))
    expect = al.eta * (1 - (al.beta / (1 - al.D)) ** 2)
    assert delta_closed_form(ClassId("S0t", t=3), al) == expect
    assert family_limit("S2k+1", al) == al.eta * ((1 - al.beta) ** 2 - al.beta**4 / 4)


def test_limit_equals_kterm_dropped():
    # every k-family member k = k0..8 that applies moves strictly toward the
    # family limit, from the side its entry declares, at every covered pair
    # and at two off-grid pairs for the families the grid never reaches
    checked = set()
    for a, b in [*covered_pairs(), (10, 16), (12, 18)]:
        al = make_alpha(a, b)
        reg = regime(al)
        for (r, family), entry in _CLASSES.items():
            if r != reg or entry.param != "k":
                continue
            vals = []
            for k in range(entry.k0, 9):
                if (reg, family) == ("even-even", "Sk4") and (
                    k == 0 or (k, a, b) == (1, 6, 10)
                ):
                    continue  # explicit overrides, off the family formula
                try:
                    vals.append(delta_closed_form(ClassId(family, k=k), al))
                except ApplicabilityError:
                    continue
            if not vals:
                continue
            lim = family_limit(family, al)
            gaps = [v - lim if entry.direction == "decreasing" else lim - v
                    for v in vals]
            assert all(g > 0 for g in gaps), (a, b, family)
            assert all(x > y for x, y in zip(gaps, gaps[1:])), (a, b, family)
            checked.add((reg, family))
    assert checked == {key for key, e in _CLASSES.items() if e.param == "k"}


def test_delta_m2_overlap_branches_agree():
    # b = 3a/2 hits both branch conditions; they must agree there
    al = make_alpha(10, 15)
    delta_closed_form(ClassId("S-2"), al)  # BranchDisagreement would raise


def test_delta_m1_odd_boundary_branches_agree():
    # r = a + 1 satisfies both r <= a+1 and r >= a+1
    for ab in ((5, 6), (5, 16), (7, 22), (3, 7), (9, 10)):
        al = make_alpha(*ab)
        assert odd_params(al).r == al.a + 1
        delta_closed_form(ClassId("S-1"), al)


# ------------------------------------------------------- equivalence

def test_equivalence_spot_pairs():
    for ab in ((4, 7), (4, 8), (5, 7), (5, 10), (2, 6), (3, 5), (6, 10)):
        for res in verify_equivalence(make_alpha(*ab), kmax=3):
            assert res.ok, (ab, res.cls)


def test_equivalence_case_order_is_pinned():
    # bench/workloads.py shuffles and samples these cases with a seeded RNG,
    # so the yield order is part of what the benchmark measures
    for kmax, count, digest in (
        (1, 587, "052fcccb0b335ca16b0085703cf751aaf0d1ffb29e68b819605a54b41a201389"),
        (4, 977, "db149448d926905b4eb8ebf72f537bac46776ff0c9a9f091abe7d9d46190c165"),
    ):
        h = hashlib.sha256()
        n = 0
        for a, b in covered_pairs():
            for cls in equivalence_cases(make_alpha(a, b), kmax):
                h.update(f"{a},{b},{cls.family},{cls.k},{cls.t};".encode())
                n += 1
        assert (n, h.hexdigest()) == (count, digest), kmax


def test_class_table_declares_plain_then_k_then_t_per_regime():
    # equivalence_cases reads the table in one pass and yields plain classes,
    # then k-families, then t-classes: that order is the declaration order
    rank = {None: 0, "k": 1, "t": 2}
    regimes = {}
    for (reg, _), entry in _CLASSES.items():
        regimes.setdefault(reg, []).append(rank[entry.param])
    assert set(regimes) == {"even-odd", "even-even", "odd", "two"}
    for reg, ranks in regimes.items():
        assert ranks == sorted(ranks), reg


def test_closed_forms_match_the_evaluator_at_every_pair_to_b_40():
    # every case equivalence_cases yields at kmax 4, at each of the 739 pairs
    # the catalogue pins cover
    n = 0
    for a, b in covered_pairs(2, 39, 3, 40):
        for res in verify_equivalence(make_alpha(a, b), 4):
            assert res.ok, (a, b, res.cls)
            n += 1
    assert n == 9216


def test_even_even_sk4_k0_matches_its_three_branch_form_to_b_120():
    # the k = 0 member keeps its own form at the two ends of the range of b
    # and is the family formula's k = 0 value in between; this is the form
    # with the middle branch written out
    def three_branch(al):
        a, b, e, B, D = al.a, al.b, al.eta, al.beta, al.D
        g = 2 * D
        u = g * (1 - 2 * B) / (1 - D)
        v = g * (2 - e) / (1 - D)
        if b >= max(3 * a - 6, 2 * a):
            return (1 + 3 * B - u) * (1 - 3 * e + v)
        if b <= min(a + 6, 2 * a - 2):
            return (1 - 5 * B + u) * (1 + e - v)
        return (1 - 3 * B + u) * (1 - e + v)

    middle = 0
    for a in range(4, 119, 2):
        for b in range(a + 2, 121, 2):
            al = make_alpha(a, b)
            assert delta_closed_form(ClassId("Sk4", k=0), al) == three_branch(al), (a, b)
            middle += not (b >= max(3 * a - 6, 2 * a) or b <= min(a + 6, 2 * a - 2))
    assert middle == 954


def test_closed_forms_match_the_evaluator_past_k_4():
    # every k-family member at k = 8 and 16 that applies, at every covered
    # pair and at two off-grid pairs for the families the grid never reaches;
    # equivalence_cases stops at k = 4 and skips (8,12) Sk6 for k >= 1, whose
    # printed value the evaluator contradicts (ROADMAP item 2): pinned here
    reached, disagree, n = set(), set(), 0
    for a, b in [*covered_pairs(), (10, 16), (12, 18)]:
        al = make_alpha(a, b)
        reg = regime(al)
        for (r, family), entry in _CLASSES.items():
            if r != reg or entry.param != "k":
                continue
            for k in (8, 16):
                cls = ClassId(family, k=k)
                try:
                    closed = delta_closed_form(cls, al)
                except ApplicabilityError:
                    continue
                n += 1
                reached.add((reg, family))
                if closed != m_star(class_tsequence(cls, al), al):
                    disagree.add((a, b, reg, family, k))
    assert reached == {key for key, e in _CLASSES.items() if e.param == "k"}
    assert len(reached) == 22
    assert disagree == {(8, 12, "even-even", "Sk6", 8), (8, 12, "even-even", "Sk6", 16)}
    assert n == 268


def test_rational_members_match_the_plain_formula_past_k_8(monkeypatch):
    # every member _rational returns, at every covered pair and the two
    # off-grid pairs, for k = k0..24 and at the limit k = None, against the
    # formula (x + p*w)(y + q*w), w = u / (1 + h*u), u = (D^n)^k, in plain
    # QuadNum operators
    def plain(Dn, h, x, p, y, q, k):
        if k is None:
            return x * y
        u = Dn**k
        w = u / (1 + h * u)
        return (x + p * w) * (y + q * w)

    calls = []
    real = spectrum._rational

    def recording(*args):
        member = real(*args)
        calls.append((args, member))
        return member

    monkeypatch.setattr(spectrum, "_rational", recording)
    reached, n = set(), 0
    for a, b in [*covered_pairs(), (10, 16), (12, 18)]:
        c = _Pair(make_alpha(a, b))
        for (reg, family), entry in _CLASSES.items():
            if reg != c.regime or entry.param != "k":
                continue
            calls.clear()
            _member(c, family)
            if not calls:
                continue
            (args, member), = calls
            reached.add((reg, family))
            assert member(None) == plain(*args, None), (a, b, family)
            for k in range(entry.k0, 25):
                assert member(k) == plain(*args, k), (a, b, family, k)
                n += 1
    assert len(reached) == 21  # the 20 shared members and even-even Sk4's family
    assert n == 13401


def test_negative_kmax_is_refused():
    al = make_alpha(4, 8)
    with pytest.raises(ValueError, match="kmax must be >= 0"):
        list(equivalence_cases(al, -1))
    with pytest.raises(ValueError, match="kmax must be >= 0"):
        verify_equivalence(al, kmax=-1)
    # kmax = 0 keeps each family's k = 0 member
    assert ClassId("Sk1", k=0) in list(equivalence_cases(al, 0))
    assert all(r.ok for r in verify_equivalence(al, kmax=0))


def test_equivalence_counts_something():
    cases = list(equivalence_cases(make_alpha(5, 10), kmax=4))
    labels = {c.label for c in cases}
    assert "S_0" in labels and "S_{-2}" in labels and "S_{4,2}" in labels


# ------------------------------------------------------- catalogue

def test_catalog_4_8():
    cat = spectrum_catalog(make_alpha(4, 8), kmax=6)
    labels = [p.label for p in cat.points]
    assert labels[:4] == ["delta_{0,1}", "delta_{0,5}", "delta_{1,1}", "delta_{2,1}"]
    assert "delta_{0,4}" not in labels  # needs 2a <= b <= 3a-6
    assert cat.points[-1].kind == "limit_point"
    assert cat.rho_star.cls == ClassId("Sk1", k=0)


def test_catalog_5_10_second_value_is_the_limit():
    cat = spectrum_catalog(make_alpha(5, 10), kmax=6)
    assert cat.rho_star.cls == ClassId("S-2")
    assert cat.points[1].kind == "limit_point"
    assert cat.points[1].cls.family == "Sk2"
    assert isolation_gap(cat) == cat.points[0].m_star - cat.points[1].m_star
    # increasing family sits below its limit
    fam = cat.families[0]
    assert fam.direction == "increasing"
    assert all(
        delta_closed_form(ClassId("Sk2", k=k), cat.alpha) < fam.limit
        for k in fam.k_listed
    )


def test_catalog_3_4():
    cat = spectrum_catalog(make_alpha(3, 4), kmax=4)
    labels = [p.label for p in cat.points]
    assert labels[0] == "delta_{-6}"
    assert "delta_{-8}" in labels
    assert all(
        p.m_star > cat.first_limit_point
        for p in cat.points
        if p.kind != "limit_point"
    )


def test_catalog_ordering_strict():
    for ab in ((4, 6), (6, 8), (8, 12), (2, 10), (7, 9), (3, 6)):
        cat = spectrum_catalog(make_alpha(*ab), kmax=5)
        for x, y in zip(cat.points, cat.points[1:]):
            assert x.m_star > y.m_star


def test_catalog_m_normalization():
    cat = spectrum_catalog(make_alpha(4, 8), kmax=3)
    for p in cat.points:
        assert p.m * cat.alpha.norm_factor == p.m_star


def test_catalog_rho_matches_expected_branch_on_grid():
    for a, b in covered_pairs():
        al = make_alpha(a, b)
        cat = spectrum_catalog(al, kmax=2)
        assert cat.rho_star.cls == expected_rho(al), (a, b)
        assert isolation_gap(cat).sign() > 0


def test_catalog_values_positive_below_one():
    for ab in ((4, 7), (5, 10), (2, 13), (8, 12), (3, 5)):
        cat = spectrum_catalog(make_alpha(*ab), kmax=4)
        for p in cat.points:
            assert 0 < p.m_star < 1


def test_catalog_json_schema():
    cat = spectrum_catalog(make_alpha(4, 8), kmax=2)
    d = _plain(cat.json_tree(), 10)
    assert set(d) == {"a", "b", "N", "rho_star", "first_limit_point", "points", "kmax"}
    assert d["a"] == 4 and d["b"] == 8 and d["N"] == 896
    for pt in d["points"]:
        assert set(pt) == {"label", "k", "m_star", "m", "kind", "direction"}
        assert set(pt["m_star"]) == {"p", "q", "N", "approx"}
    # rho* and the limit point reuse their points' rendering, or render anew
    assert d["rho_star"] == cat.rho_star.m_star.to_json(10)
    assert d["first_limit_point"] == cat.first_limit_point.to_json(10)
    top = _plain(dataclasses.replace(cat, points=cat.points[:1]).json_tree(), 10)
    assert top["first_limit_point"] == cat.first_limit_point.to_json(10)


def test_catalog_csv_rows():
    rows = spectrum_catalog(make_alpha(4, 8), kmax=2).to_csv_rows(digits=8)
    assert rows[0] == ["label", "k", "kind", "direction", "m_star", "m"]
    assert all(len(r) == 6 for r in rows)


def test_catalog_kmax_validation():
    with pytest.raises(ValueError):
        spectrum_catalog(make_alpha(4, 8), kmax=0)


def test_isolation_gap_needs_two_points():
    cat = spectrum_catalog(make_alpha(4, 8), kmax=2)
    single = SpectrumCatalog(
        alpha=cat.alpha, kmax=1, points=cat.points[:1],
        first_limit_point=cat.first_limit_point, families=(),
    )
    with pytest.raises(ValueError):
        isolation_gap(single)


def test_tie_merged_at_2_10():
    # delta_{0,6} equals delta_{-1} exactly at (2,10); one point remains
    al = make_alpha(2, 10)
    d1 = delta_closed_form(ClassId("S0t", t=6), al)
    d2 = delta_closed_form(ClassId("S-1"), al)
    assert d1 == d2
    cat = spectrum_catalog(al, kmax=3)
    assert len([p for p in cat.points if p.m_star == d1]) == 1


def test_one_large_k_decides_whether_a_family_goes_on_forever():
    # the catalogue asks each k-family's side condition at one large k only;
    # that is sound while, for k >= 2, every condition is one on the pair
    for a, b in covered_pairs(2, 39, 3, 40):
        c = _Pair(make_alpha(a, b))
        for (reg, f), entry in _CLASSES.items():
            if reg == c.regime and entry.param == "k":
                at_large_k = entry.applies(c, _LARGE_K)
                assert all(entry.applies(c, k) == at_large_k for k in range(2, 12)), (a, b, f)


def _assert_matches_reference(a, b, kmax):
    al = make_alpha(a, b)
    cat = spectrum_catalog(al, kmax=kmax)
    points, limit, families = reference_catalog(al, kmax)
    got = [(p.cls, p.kind, p.direction, p.m_star) for p in cat.points]
    want = [(p.cls, p.kind, p.direction, p.m_star) for p in points]
    assert got == want, (a, b, kmax)
    assert cat.first_limit_point == limit, (a, b, kmax)
    assert {f.family for f in cat.families} == set(families), (a, b, kmax)
    assert cat.rho_star.cls == expected_rho(al), (a, b, kmax)


@pytest.mark.parametrize("kmax", [1, 8])
def test_derived_catalog_matches_the_stated_layout(kmax):
    # every point (class, kind, direction, exact value), the limit point and
    # the listed families, against the layout stated pair by pair
    for a, b in covered_pairs(2, 39, 3, 40):
        _assert_matches_reference(a, b, kmax)


def test_derived_catalog_matches_the_stated_layout_beyond_b_40():
    # pairs outside the grid the layout was written on, so that a rule
    # fitted to the pinned pairs alone fails here
    rng = random.Random(20161)
    wide = rng.sample(list(covered_pairs(2, 69, 41, 70)), 150)
    for a, b in wide:
        _assert_matches_reference(a, b, 4)


def test_structure_table_matches_the_abstract():
    # for each pair: the rank of the first limit point among the values, and
    # whether a listed family approaches it from above (infinitely many values
    # above the limit)
    odd_ranks, fourth, from_above, even_even_finite = {}, [], [], {}
    for a, b in covered_pairs(2, 39, 3, 40):
        cat = spectrum_catalog(make_alpha(a, b), kmax=2)
        assert isolation_gap(cat).sign() > 0, (a, b)
        rank = 1 + [p.kind for p in cat.points].index("limit_point")
        above = any(f.direction == "decreasing" for f in cat.families)
        if a % 2 == 1:
            if above:
                from_above.append((a, b))
            else:
                odd_ranks[rank] = odd_ranks.get(rank, 0) + 1
                if rank == 4:
                    fourth.append((a, b))
        elif b % 2 == 1:
            assert above, (a, b)
        elif a >= 4 and not above:
            even_even_finite[a, b] = rank
    assert odd_ranks == {2: 299, 3: 57, 4: 2}
    assert fourth == [(5, 7), (7, 9)]
    assert from_above == [(3, 4), (3, 5), (3, 6)]
    special = {
        (a, b) for a in range(4, 40, 2) for b in (2 * a - 2, a + 2, a + 4) if b <= 40
    } - {(4, 6), (4, 8), (8, 12)}
    assert set(even_even_finite) == special
    assert {ab: r for ab, r in even_even_finite.items() if r != 3} == {(6, 10): 4}


def test_decreasing_families_that_go_on_forever_reach_the_first_limit_point():
    # why the catalogue takes such a family only through its listing
    n = 0
    for a, b in covered_pairs(2, 39, 3, 40):
        al = make_alpha(a, b)
        c = _Pair(al)
        limit = spectrum_catalog(al, kmax=1).first_limit_point
        for (reg, f), entry in _CLASSES.items():
            if (reg == c.regime and entry.direction == "decreasing"
                    and entry.applies(c, _LARGE_K)):
                assert family_limit(f, al) == limit, (a, b, f)
                n += 1
    assert n == 378


def test_listed_members_sit_on_their_side_of_the_first_limit_point():
    # a decreasing family's members lie above L and an increasing family's
    # below it; the one exception is even-even Sk4's k = 0 override at
    # b = a + 6, which lies below L and is listed as a decreasing member
    wrong = []
    for a, b in covered_pairs(2, 39, 3, 40):
        cat = spectrum_catalog(make_alpha(a, b), kmax=2)
        limit = cat.first_limit_point
        for p in cat.points:
            side = (p.m_star > limit) - (p.m_star < limit)
            if p.kind == "family_member" and side != (
                    1 if p.direction == "decreasing" else -1):
                wrong.append((a, b, p.cls))
    assert wrong == [(a, a + 6, ClassId("Sk4", k=0)) for a in range(12, 35, 2)]


def test_table_words_outside_their_side_conditions_add_no_value():
    # every entry's word where its applies() is False: plain classes, k = 0..4
    # and t = 0..5 at each pair with b <= 30.  A word either lands below the
    # first limit point or equals a listed value, so no side condition hides
    # a value above L.  The counts pin the table: an edit must explain them.
    params = {None: (None,), "k": range(5), "t": range(6)}
    words = refused = below = listed = 0
    for a, b in covered_pairs(2, 29, 3, 30):
        al = make_alpha(a, b)
        c = _Pair(al)
        cat = spectrum_catalog(al, 8)
        values = {pt.m_star for pt in cat.points}
        for (reg, f), entry in _CLASSES.items():
            if reg != c.regime:
                continue
            for p in params[entry.param]:
                if entry.applies(c, p):
                    continue
                words += 1
                try:
                    v = m_star(entry.period(c, p), al)
                except ValueError:  # a digit out of range
                    refused += 1
                    continue
                if v < cat.first_limit_point:
                    below += 1
                else:
                    assert v in values, (a, b, f, p)
                    listed += 1
    assert (words, refused, below, listed) == (13259, 2954, 9701, 604)


# ------------------------------------------------------- euclid

def test_euclid_count_matches_a_deep_catalogue():
    # where the first limit point is below the threshold, points_above is the
    # number of values above it in a catalogue listed far past any crossing
    n = 0
    for a, b in covered_pairs(2, 39, 3, 40):
        al = make_alpha(a, b)
        rep = euclidean_test(al)
        if rep.points_above is None:
            continue
        n += 1
        deep = spectrum_catalog(al, kmax=30)
        assert rep.points_above == sum(p.m > rep.threshold for p in deep.points), (a, b)
    assert n == 19


def test_euclid_refuses_a_decreasing_member_above_the_threshold(monkeypatch, capsys):
    # the count reads the kmax = 1 catalogue, which is complete only while no
    # decreasing family's k = 1 member is above the threshold; at (4,8) the
    # limit point is below it, and a k = 1 member at rho's value is not
    real = spectrum.spectrum_catalog

    def with_member_above(alpha, kmax=8):
        cat = real(alpha, kmax)
        member = dataclasses.replace(
            cat.points[0], cls=ClassId(cat.families[0].family, k=1),
            kind="family_member", direction="decreasing")
        return dataclasses.replace(cat, points=(member,) + cat.points)

    monkeypatch.setattr(spectrum, "spectrum_catalog", with_member_above)
    with pytest.raises(RuntimeError, match="k = 1 member is above the threshold"):
        euclidean_test(make_alpha(4, 8))
    assert main(["euclid", "--a", "4", "--b", "8"]) == 1
    assert capsys.readouterr().err.startswith("error: a decreasing family's k = 1")


def test_euclid_4_8():
    rep = euclidean_test(make_alpha(4, 8))
    assert rep.verdict is False
    assert rep.points_above == 1
    # threshold is 1/(2 sqrt14) exactly
    assert (rep.threshold * rep.threshold).same_value(qnum(F(1, 56), 0, 14))
    assert rep.min_poly == (F(-8), F(2))
    # rho = 5/(8 sqrt 14) exactly
    assert rep.rho.same_value(qnum(0, F(5, 112), 14))


def test_euclid_scaling_invariance():
    rep = euclidean_test(make_alpha(4, 8))
    thr = rep.threshold
    assert (rep.rho < thr) == (rep.rho * 56 < thr * 56)


def test_euclid_small_pairs_verdict_true():
    # small-discriminant pairs come out norm-Euclidean, large ones do not
    assert euclidean_test(make_alpha(2, 5)).verdict is True
    assert euclidean_test(make_alpha(3, 4)).verdict is True
    assert euclidean_test(make_alpha(8, 12)).verdict is False
    assert euclidean_test(make_alpha(6, 13)).verdict is False


# --------------------------------------------- off-grid regression anchors

def test_equivalence_off_grid_families():
    # classes whose side conditions never trigger inside the small grid
    cases = [
        ((10, 16), ClassId("Sk3", k=2)),   # b = 2a - 4, a >= 10
        ((10, 16), ClassId("Sk4", k=1)),
        ((12, 18), ClassId("Sk4", k=3)),   # a + 6 <= b <= 2a - 6
        ((13, 17), ClassId("S-5")),        # low branch r <= a - 9
        ((13, 17), ClassId("Sk5", k=2)),
        ((17, 21), ClassId("S-5")),        # b = a + 4 >= 17 catalogue case
    ]
    from inhomspec.expansion import m_star as _ms
    for ab, cls in cases:
        al = make_alpha(*ab)
        assert delta_closed_form(cls, al) == _ms(class_tsequence(cls, al), al), (ab, cls)


def test_catalog_b_a4_geq_17():
    # r = 4, b = a + 4 >= 17: delta_{-5} is the second largest value
    cat = spectrum_catalog(make_alpha(13, 17), kmax=3)
    assert [p.label for p in cat.points[:2]] == ["delta_0", "delta_{-5}"]


def test_random_words_never_beat_the_catalogue():
    # isolation and completeness, probed from below: no valid periodic word
    # exceeds rho*, and any word value above the first limit point is one of
    # the catalogued values
    import random
    from inhomspec.expansion import DigitRangeError, TSequence
    from inhomspec.expansion import m_star as _ms

    rng = random.Random(20260809)
    for ab in ((4, 8), (5, 7), (2, 7), (3, 5), (6, 10)):
        al = make_alpha(*ab)
        cat = spectrum_catalog(al, kmax=12)
        rho = cat.rho_star.m_star
        values = {p.m_star for p in cat.points}
        for _ in range(120):
            pairs = rng.choice((1, 2, 3))
            w = []
            for i in range(pairs):
                w.append(2 * rng.randrange(al.a) - (al.a - 2))
                w.append(2 * rng.randrange(al.b) - (al.b - 2))
            try:
                ms = _ms(TSequence(tuple(w)).validate(al), al)
            except DigitRangeError:
                continue  # reflection carries out of range: not a valid target
            assert not ms > rho, (ab, w)
            if ms > cat.first_limit_point:
                assert ms in values, (ab, w)


def test_a2_wide_b_off_grid():
    # isqrt boundary for the extra t-values at wide even/odd b
    for b, extras in ((16, [2, 4, 6]), (21, [3, 5, 7])):
        al = make_alpha(2, b)
        cat = spectrum_catalog(al, kmax=3)
        got = sorted(p.cls.t for p in cat.points if p.cls.family == "S0t")
        assert got == extras
        for res in verify_equivalence(al, kmax=2):
            assert res.ok


@pytest.mark.parametrize("family", ["Sx", "S0t"])
def test_unknown_family_or_missing_t_is_refused(family):
    with pytest.raises(ApplicabilityError):
        ClassId(family)
