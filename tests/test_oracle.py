from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from inhomspec.ncf import make_alpha
from inhomspec.expansion import gamma_value, m_value
from inhomspec.spectrum import (
    ClassId,
    class_tsequence,
    covered_pairs,
    delta_closed_form,
    spectrum_catalog,
)
from inhomspec.oracle import brute_force_min, oracle_m
from inhomspec.quadfield import QuadNum
from json_reference import _plain
from child_python import python_command
from oracle_reference import loop_min

A48 = make_alpha(4, 8)


def _gamma_of(cls, alpha):
    return gamma_value(class_tsequence(cls, alpha), alpha)


def _near(value, target, rel):
    # |value - target| < rel * target, decided exactly
    return target * (1 - rel) < value < target * (1 + rel)


def test_degenerate_gamma_in_lattice():
    # gamma = alpha: n = 1 already hits an exact zero
    rep = brute_force_min(A48, A48.eta, 1, 50)
    assert (rep.window_min, rep.argmin_n) == (0, 1)
    assert loop_min(A48, A48.eta, 1, 50) == (0, 1, 1)


def test_each_term_exact():
    g = _gamma_of(ClassId("Sk1", k=0), A48)
    rep = brute_force_min(A48, g, 1000, 1400)
    # the reported minimum is an exact QuadNum, reproducible term by term
    n = rep.argmin_n
    x = A48.eta * n - g
    d = x - (x + type(g)(1, 0, g.N) / 2).floor()
    if d.sign() < 0:
        d = -d
    assert d * n == rep.window_min


def test_hybrid_matches_exact_loop():
    g = _gamma_of(ClassId("Sk1", k=0), A48)
    fast = brute_force_min(A48, g, 1000, 4000)
    assert (fast.window_min, fast.argmin_n) == loop_min(A48, g, 1000, 4000)[:2]


def test_determinism():
    g = _gamma_of(ClassId("S0"), make_alpha(5, 7))
    al = make_alpha(5, 7)
    r1 = brute_force_min(al, g, 10**3, 10**5)
    r2 = brute_force_min(al, g, 10**3, 10**5)
    assert r1 == r2
    assert oracle_m(al, g) == oracle_m(al, g)


def test_window_corroborates_exact_m():
    al = make_alpha(4, 8)
    cls = ClassId("Sk1", k=0)
    g = _gamma_of(cls, al)
    M = m_value(delta_closed_form(cls, al), al)
    assert oracle_m(al, g).m == M
    rep = brute_force_min(al, g, 10**3, 10**6, target_m=M)
    assert rep.target_m == M and _near(rep.window_min, M, F(1, 100))


def test_reflection_symmetry_of_windows():
    g = _gamma_of(ClassId("Sk1", k=0), A48)
    r1 = brute_force_min(A48, g, 10**3, 10**5)
    r2 = brute_force_min(A48, 1 - A48.eta - g, 10**3, 10**5)
    assert r1.window_min == r2.window_min
    assert oracle_m(A48, g).m == oracle_m(A48, 1 - A48.eta - g).m


def test_oracle_m_equals_the_closed_forms_on_the_grid():
    # two-sided, exact, at all 977 equivalence_cases(alpha, 4) of covered_pairs();
    # the digest pins every certificate, in that order
    import hashlib
    from inhomspec.spectrum import covered_pairs, equivalence_cases

    n = longest = 0
    digest = hashlib.sha256()
    for a, b in covered_pairs():
        al = make_alpha(a, b)
        for cls in equivalence_cases(al, 4):
            got = oracle_m(al, _gamma_of(cls, al))
            assert got.m == m_value(delta_closed_form(cls, al), al), (a, b, cls)
            digest.update(repr((got.m, got.cycle_records, got.cycle_start_n)).encode())
            longest = max(longest, got.cycle_records)
            n += 1
    assert (n, longest) == (977, 193)
    assert digest.hexdigest() == (
        "ff8e1612eec571553bd881af191e798c359e699612e9f7d4d6398f1e898f9e62")


def test_oracle_m_refuses_lattice_targets():
    # gamma in Z + alpha*Z is outside the definition of M(alpha, gamma)
    for g in (A48.eta, A48.eta * 5, A48.eta * -3 + 2, A48.one * 7,
              7, A48.eta * -12 + 5, A48.eta * 1000 - 3):
        with pytest.raises(ValueError, match="Z \\+ alpha\\*Z"):
            oracle_m(A48, g)
    # a window still reports what it sees: gamma = 5*alpha is an exact zero at n = 5
    rep = brute_force_min(A48, A48.eta * 5, 1, 100)
    assert (rep.window_min, rep.argmin_n) == (0, 5)
    assert brute_force_min(A48, A48.eta * 5, 100, 1000).window_min > 0
    # a near miss is not refused
    assert oracle_m(A48, A48.eta / 2).m > 0
    for g in (F(1, 3), A48.eta + F(1, 2), (A48.eta * 5 + 1) / 3):
        assert oracle_m(A48, g).m > 0


def test_oracle_m_certificate_is_pinned():
    al = make_alpha(5, 7)
    got = oracle_m(al, _gamma_of(ClassId("S0"), al))
    assert (got.cycle_records, got.cycle_start_n) == (4, 16)
    got = oracle_m(make_alpha(5, 8), _gamma_of(ClassId("S-2"), make_alpha(5, 8)))
    assert got.cycle_start_n < 0  # the class attains its constant on the n < 0 side


def test_oracle_m_matches_far_windows_on_random_targets():
    # targets r + (k/31)*alpha off the catalogue and off the lattice: a window
    # past the start of a whole cycle of records comes within O(1/n) of M
    import random

    rng = random.Random(11)
    for _ in range(8):
        al = make_alpha(*rng.choice(((3, 5), (4, 7), (4, 8), (5, 7), (2, 9))))
        g = al.eta * F(rng.randint(1, 30), 31) + F(rng.randint(-99, 99), rng.randint(1, 30))
        M = oracle_m(al, g).m
        rep = brute_force_min(al, g, 10**100, 10**700, two_sided=True)
        assert _near(rep.window_min, M, F(1, 10**30)), (al.a, al.b, g)


def test_a_window_short_of_a_cycle_misses_m():
    # this target's cycle has 1,380 records and spans more than the 240
    # decades of [10^60, 10^300], whose minimum is over 4x M
    al = make_alpha(5, 7)
    g = al.eta * F(28, 31) + F(11, 7)
    got = oracle_m(al, g)
    assert (got.cycle_records, got.cycle_start_n) == (1380, -6)
    assert brute_force_min(al, g, 10**60, 10**300, two_sided=True).window_min > 4 * got.m


def test_equal_products_go_to_the_smallest_n():
    # n = 1 and n = 2 are both strict distance records of n*alpha - gamma, and
    # both products equal 7/3 - sqrt(1085)/15
    al = make_alpha(5, 7)
    g = QuadNum(F(41, 6), F(-1, 6), al.N)
    rep = brute_force_min(al, g, 1, 2)
    assert (rep.argmin_n, rep.records) == (1, 2)
    assert (rep.window_min, rep.argmin_n, rep.records) == loop_min(al, g, 1, 2)
    assert rep.window_min == QuadNum(F(7, 3), F(-1, 15), al.N)


def test_equal_sides_go_to_positive_n():
    # -1/2 = 1/2 mod 1, so both sides of gamma = 1/2 walk the same records
    al = make_alpha(5, 7)
    g = al.one / 2
    assert brute_force_min(al, g, 1, 10**4, two_sided=True).argmin_n == 2720
    assert oracle_m(al, g).cycle_start_n == 17


def test_window_validation():
    with pytest.raises(ValueError):
        brute_force_min(A48, A48.eta, 100, 10)


@pytest.mark.parametrize("lo, hi", [(1000.0, 2000), (1000, 2000.0), (True, 2000),
                                    (1, True), ("1000", 2000)])
def test_window_bounds_must_be_ints(lo, hi):
    with pytest.raises(TypeError):
        brute_force_min(A48, A48.eta / 3, lo, hi)
    with pytest.raises(TypeError):
        brute_force_min(A48, A48.eta / 3, lo, hi, two_sided=True)


def test_report_json():
    g = _gamma_of(ClassId("Sk1", k=0), A48)
    rep = brute_force_min(A48, g, 10**3, 10**4, target_m=g)
    d = _plain(rep.json_tree(), 10)
    assert list(d) == ["n_lo", "n_hi", "window_min", "argmin_n", "records", "target_m"]


def test_hybrid_matches_exact_on_random_gammas():
    import random

    rng = random.Random(5)
    for _ in range(8):
        g = QuadNum(F(rng.randint(0, 999), 1000), F(rng.randint(-99, 99), 1000), A48.N)
        fast = brute_force_min(A48, g, 500, 2500)
        assert (fast.window_min, fast.argmin_n) == loop_min(A48, g, 500, 2500)[:2]


def test_canonical_catalogue_phase_corroborates():
    # the transcribed phase of a catalogued period reconstructs a gamma whose
    # true constant matches; arbitrary rotations need not (admissibility is
    # deliberately unchecked), so this pins the canonical phase
    al = make_alpha(3, 5)
    seq = class_tsequence(ClassId("S-9"), al)
    target = m_value(delta_closed_form(ClassId("S-9"), al), al)
    assert oracle_m(al, gamma_value(seq, al)).m == target


def test_two_sided_window_catches_one_sided_classes():
    # some classes attain their constant only on the n < 0 side
    al = make_alpha(5, 8)
    cls = ClassId("S-2")
    g = gamma_value(class_tsequence(cls, al), al)
    M = m_value(delta_closed_form(cls, al), al)
    one = brute_force_min(al, g, 10**3, 10**6, target_m=M)
    two = brute_force_min(al, g, 10**3, 10**6, target_m=M, two_sided=True)
    assert one.window_min > M * F(11, 10)  # positive side alone misses
    assert two.argmin_n < 0                # the |n| sweep reports the side
    assert oracle_m(al, g).m == M


# ---------------------------------------------------------------------------
# the record walk against the exact loop over every n (the reference)
# ---------------------------------------------------------------------------

def _walk_and_loop(alpha, gamma, lo, hi, two_sided):
    walk = brute_force_min(alpha, gamma, lo, hi, two_sided=two_sided)
    assert (walk.window_min, walk.argmin_n, walk.records) == loop_min(
        alpha, gamma, lo, hi, two_sided)
    return walk


def test_walk_matches_exact_loop_on_random_windows():
    import random
    from inhomspec.spectrum import covered_pairs, equivalence_cases

    rng = random.Random(20161)
    pairs = list(covered_pairs())
    for _ in range(300):
        al = make_alpha(*rng.choice(pairs))
        kind = rng.randrange(3)
        if kind == 0:  # a catalogued target
            g = _gamma_of(rng.choice(list(equivalence_cases(al, 1))), al)
        elif kind == 1:  # a random element of Q(sqrt(N))
            g = QuadNum(F(rng.randint(-999, 999), rng.randint(1, 999)),
                        F(rng.randint(-99, 99), rng.randint(1, 999)), al.N)
        else:  # a lattice point c*eta + d, its zero anywhere or nowhere
            g = al.eta * rng.randint(-50, 3000) + rng.randint(-3, 3)
        lo = rng.choice((1, rng.randint(1, 50), rng.randint(1, 4000)))
        hi = lo + rng.choice((0, 1, rng.randint(0, 1500)))
        _walk_and_loop(al, g, lo, hi, rng.random() < 0.5)


@pytest.mark.parametrize("lo, hi", [(1, 2000), (1, 1), (1234, 1234), (7, 7)])
def test_walk_edge_windows(lo, hi):
    g = _gamma_of(ClassId("Sk1", k=0), A48)
    _walk_and_loop(A48, g, lo, hi, two_sided=True)


def test_walk_lattice_zero_inside_window():
    g = A48.eta * 37 + 2
    rep = _walk_and_loop(A48, g, 10, 400, two_sided=False)
    assert rep.window_min == 0 and rep.argmin_n == 37


def test_walk_lattice_zero_before_window():
    g = A48.eta * 5
    rep = _walk_and_loop(A48, g, 100, 3000, two_sided=True)
    assert rep.window_min > 0


@pytest.mark.parametrize("lo", [1, 7])
def test_walk_residue_exactly_one_half(lo):
    # 7*eta - gamma = -1/2: from n_lo = 7 the first record's interval is all
    # of (0, 1), so every n > 7 improves on it
    g = A48.eta * 7 + F(1, 2)
    _walk_and_loop(A48, g, lo, 900, two_sided=True)


@pytest.mark.parametrize("two_sided", [False, True])
@pytest.mark.parametrize("s", [1, -1])
def test_walk_leaves_when_its_table_runs_out(s, two_sided):
    # gamma sits 10^-30 off the lattice point 5*eta, so the record at n = 5
    # has a residue so small that its step needs a convergent past the
    # window's 12-entry table (t = 10 for s = 1, 11 for s = -1); the walk
    # yields that record and ends
    g = A48.eta * 5 - F(s, 10**30)
    _walk_and_loop(A48, g, 1, 1000, two_sided)


def test_walk_far_window():
    al = make_alpha(5, 7)
    g = _gamma_of(ClassId("S0"), al)
    _walk_and_loop(al, g, 10**12, 10**12 + 2 * 10**4, two_sided=True)


def test_walk_negative_argmin():
    al = make_alpha(5, 8)
    g = _gamma_of(ClassId("S-2"), al)
    rep = _walk_and_loop(al, g, 1000, 5000, two_sided=True)
    assert rep.argmin_n < 0


@pytest.mark.parametrize("ab, cls", [
    ((5, 7), ClassId("S0")),
    ((4, 8), ClassId("Sk1", k=2)),
    ((3, 5), ClassId("S-9")),
])
def test_wide_window_corroborates(ab, cls):
    al = make_alpha(*ab)
    g = _gamma_of(cls, al)
    M = m_value(delta_closed_form(cls, al), al)
    rep = brute_force_min(al, g, 10**20, 10**30, target_m=M, two_sided=True)
    assert _near(rep.window_min, M, F(1, 10**20))
    assert oracle_m(al, g).m == M


def test_oracle_judges_every_listed_catalogue_point():
    # every value the catalogue lists, limit points aside, against the exact
    # M of its own target; (8,12) Sk6 disagrees in the open: the catalogue
    # lists its closed form, which m_star and oracle_m both contradict
    judged, disagree = 0, set()
    for a, b in covered_pairs():
        al = make_alpha(a, b)
        for p in spectrum_catalog(al, kmax=2).points:
            if p.kind == "limit_point":
                continue
            judged += 1
            if oracle_m(al, _gamma_of(p.cls, al)).m != p.m:
                disagree.add((a, b, p.label))
    assert judged == 342
    assert disagree == {(8, 12, "delta_{1,6}"), (8, 12, "delta_{2,6}")}


def test_report_records_pinned():
    al = make_alpha(5, 7)
    g = _gamma_of(ClassId("S0"), al)
    rep = brute_force_min(al, g, 10**3, 10**6, two_sided=True)
    assert rep.records == 28
    assert list(_plain(rep.json_tree(), 18)) == ["n_lo", "n_hi", "window_min", "argmin_n", "records"]


_N_VALUES = (2, 3, 5, 7, 8, 12, 14, 21, 60, 77)
_ints = st.integers(-10**12, 10**12)


@settings(max_examples=400, deadline=None)
@given(_ints, _ints, _ints, _ints, st.sampled_from(_N_VALUES))
@example(7, -3, 1, 1, 2)      # 1 + sqrt(2) has norm -1
@example(-5, 4, -1, 1, 2)     # -1 + sqrt(2): negative part, norm -1
@example(-9, -2, 3, -2, 3)    # 3 - 2*sqrt(3): norm -3
@example(0, 0, 1, 1, 2)
@example(4, 0, -2, 0, 5)      # a rational divisor
@example(10, 0, 3, -1, 7)     # a rational dividend over an irrational
def test_floor_div_matches_quadnum(ux, uy, vx, vy, N):
    from inhomspec.oracle import _floor_div

    assume(vx or vy)
    want = (QuadNum(ux, uy, N) / QuadNum(vx, vy, N)).floor()
    assert _floor_div(ux, uy, vx, vy, N) == want
    # a common factor of dividend and divisor leaves the quotient unchanged
    assert _floor_div(-3 * ux, -3 * uy, -3 * vx, -3 * vy, N) == want


@pytest.mark.parametrize("a, b", [(2, 5), (4, 8), (5, 7), (3, 10)])
@pytest.mark.parametrize("scale", [1, 6, 35])
def test_errors_table_is_signed_by_its_index(a, b, scale):
    # the walk reads |e| from the index's parity and the partial quotients
    # from r, so both must hold over any common denominator z
    from inhomspec.oracle import _errors

    eta = make_alpha(a, b).eta
    z, N = eta._z * scale, eta.N
    entries = _errors(eta._x * scale, eta._y * scale, z, N)
    table = [next(entries) for _ in range(20)]
    # a plain regular continued fraction of eta by QuadNum floors: p, q and
    # the complete quotients, indexed like the table (k = -1 at index 0)
    x, p, q, r = eta, [1, eta.floor()], [0, 1], [None]
    for _ in range(len(table) - 1):
        x = 1 / (x - x.floor())
        c = x.floor()
        p.append(c * p[-1] + p[-2])
        q.append(c * q[-1] + q[-2])
        r.append(x)
    prev = None
    for t, (qt, xt, yt, rt) in enumerate(table):
        e = QuadNum(F(xt, z), F(yt, z), N)
        assert (qt, e, rt) == (q[t], eta * q[t] - p[t], r[t])
        assert e.sign() == (-1 if t % 2 == 0 else 1)
        if t:
            assert rt == -prev / e
            assert rt.floor() == (q[t + 1] - q[t - 1]) // qt  # the next partial quotient
        prev = e


def test_oracle_does_not_import_numpy():
    import os
    import subprocess
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys, inhomspec\n"
        "al = inhomspec.make_alpha(5, 7)\n"
        "inhomspec.brute_force_min(al, al.eta / 3, 1000, 10**6, two_sided=True)\n"
        # not an assert: the child may run under -O
        "if 'numpy' in sys.modules: raise SystemExit('numpy was imported')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([*python_command(), "-c", code], env=env, check=True, timeout=60)
