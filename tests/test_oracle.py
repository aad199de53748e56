import pytest
from hypothesis import assume, example, given, settings, strategies as st

from inhomspec.ncf import make_alpha
from inhomspec.expansion import gamma_value, m_value
from inhomspec.spectrum import ClassId, class_tsequence, delta_closed_form
from inhomspec.oracle import DEFAULT_WINDOWS, brute_force_min, liminf_estimate

A48 = make_alpha(4, 8)


def _gamma_of(cls, alpha):
    return gamma_value(class_tsequence(cls, alpha), alpha)


def test_degenerate_gamma_in_lattice():
    # gamma = alpha: n = 1 already hits an exact zero
    rep = brute_force_min(A48, A48.eta, 1, 50, exact=True)
    assert rep.window_min == 0
    assert rep.argmin_n == 1


def test_each_term_exact():
    g = _gamma_of(ClassId("Sk1", k=0), A48)
    rep = brute_force_min(A48, g, 1000, 1400, exact=True)
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
    slow = brute_force_min(A48, g, 1000, 4000, exact=True)
    assert fast.window_min == slow.window_min
    assert fast.argmin_n == slow.argmin_n


def test_determinism():
    g = _gamma_of(ClassId("S0"), make_alpha(5, 7))
    al = make_alpha(5, 7)
    r1 = brute_force_min(al, g, 10**3, 10**5)
    r2 = brute_force_min(al, g, 10**3, 10**5)
    assert r1 == r2


def test_window_corroborates_exact_m():
    al = make_alpha(4, 8)
    cls = ClassId("Sk1", k=0)
    g = _gamma_of(cls, al)
    M = m_value(delta_closed_form(cls, al), al)
    rep = brute_force_min(al, g, 10**3, 10**6, target_m=M)
    assert rep.relative_gap < 1e-2


def test_reflection_symmetry_of_windows():
    g = _gamma_of(ClassId("Sk1", k=0), A48)
    r1 = brute_force_min(A48, g, 10**3, 10**5)
    r2 = brute_force_min(A48, 1 - A48.eta - g, 10**3, 10**5)
    assert r1.window_min == r2.window_min


def test_liminf_estimate_stabilizes():
    al = make_alpha(5, 7)
    cls = ClassId("S0")
    g = _gamma_of(cls, al)
    M = m_value(delta_closed_form(cls, al), al)
    tab = liminf_estimate(al, g, DEFAULT_WINDOWS, target_m=M)
    assert len(tab.windows) == 3
    assert tab.stabilized
    # minima agree with the exact value to 3 decimals by the last window
    assert abs(tab.stabilized_value - float(M)) < 1e-3


def test_liminf_estimate_lattice_gamma_dips_to_zero():
    # gamma = 5*alpha: the window containing n = 5 hits an exact zero
    g = A48.eta * 5
    tab = liminf_estimate(A48, g, ((1, 100), (100, 1000)))
    assert tab.windows[0].window_min == 0
    assert tab.windows[0].argmin_n == 5
    assert tab.windows[1].window_min > 0


def test_window_validation():
    with pytest.raises(ValueError):
        brute_force_min(A48, A48.eta, 100, 10)
    with pytest.raises(ValueError):
        liminf_estimate(A48, A48.eta, ((100, 200), (150, 300)))


@pytest.mark.parametrize("lo, hi", [(1000.0, 2000), (1000, 2000.0), (True, 2000),
                                    (1, True), ("1000", 2000)])
def test_window_bounds_must_be_ints(lo, hi):
    with pytest.raises(TypeError):
        brute_force_min(A48, A48.eta / 3, lo, hi)
    with pytest.raises(TypeError):
        brute_force_min(A48, A48.eta / 3, lo, hi, two_sided=True)


def test_liminf_estimate_needs_a_window():
    with pytest.raises(ValueError):
        liminf_estimate(A48, A48.eta / 3, windows=())


def test_report_json():
    g = _gamma_of(ClassId("Sk1", k=0), A48)
    rep = brute_force_min(A48, g, 10**3, 10**4, target_m=g)
    d = rep.to_json_dict(10)
    assert {"n_lo", "n_hi", "window_min", "argmin_n", "records", "target_m",
            "relative_gap"} <= set(d)


def test_hybrid_matches_exact_on_random_gammas():
    import random
    from fractions import Fraction as F
    from inhomspec.quadfield import QuadNum

    rng = random.Random(5)
    for _ in range(8):
        g = QuadNum(F(rng.randint(0, 999), 1000), F(rng.randint(-99, 99), 1000), A48.N)
        fast = brute_force_min(A48, g, 500, 2500)
        slow = brute_force_min(A48, g, 500, 2500, exact=True)
        assert (fast.window_min, fast.argmin_n) == (slow.window_min, slow.argmin_n)


def test_canonical_catalogue_phase_corroborates():
    # the transcribed phase of a catalogued period reconstructs a gamma whose
    # true constant matches; arbitrary rotations need not (admissibility is
    # deliberately unchecked), so this pins the canonical phase
    from inhomspec.spectrum import ClassId, class_tsequence, delta_closed_form

    al = make_alpha(3, 5)
    seq = class_tsequence(ClassId("S-9"), al)
    target = m_value(delta_closed_form(ClassId("S-9"), al), al)
    rep = brute_force_min(al, gamma_value(seq, al), 10**3, 10**6, target_m=target)
    assert rep.relative_gap < 1e-4


def test_two_sided_window_catches_one_sided_classes():
    # some classes attain their constant only on the n < 0 side
    from inhomspec.spectrum import ClassId, class_tsequence, delta_closed_form

    al = make_alpha(5, 8)
    cls = ClassId("S-2")
    g = gamma_value(class_tsequence(cls, al), al)
    M = m_value(delta_closed_form(cls, al), al)
    one = brute_force_min(al, g, 10**3, 10**6, target_m=M)
    two = brute_force_min(al, g, 10**3, 10**6, target_m=M, two_sided=True)
    assert one.relative_gap > 1e-1      # positive side alone misses
    assert two.relative_gap < 1e-2      # |n| sweep corroborates
    assert two.argmin_n < 0             # and reports the side


# ---------------------------------------------------------------------------
# the record walk against the exact loop over every n (the reference)
# ---------------------------------------------------------------------------

def _walk_and_loop(alpha, gamma, lo, hi, two_sided):
    walk = brute_force_min(alpha, gamma, lo, hi, two_sided=two_sided)
    loop = brute_force_min(alpha, gamma, lo, hi, exact=True, two_sided=two_sided)
    assert (walk.window_min, walk.argmin_n, walk.records) == (
        loop.window_min, loop.argmin_n, loop.records)
    return walk


def test_walk_matches_exact_loop_on_random_windows():
    import random
    from fractions import Fraction as F
    from inhomspec.quadfield import QuadNum
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
    from fractions import Fraction as F

    g = A48.eta * 7 + F(1, 2)
    _walk_and_loop(A48, g, lo, 900, two_sided=True)


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
    assert rep.relative_gap < 1e-20


def test_report_records_pinned():
    al = make_alpha(5, 7)
    g = _gamma_of(ClassId("S0"), al)
    rep = brute_force_min(al, g, 10**3, 10**6, two_sided=True)
    assert rep.records == 28
    assert list(rep.to_json_dict()) == ["n_lo", "n_hi", "window_min", "argmin_n", "records"]


def test_stabilization_verdict_is_exact():
    from fractions import Fraction as F

    al = make_alpha(5, 7)
    g = _gamma_of(ClassId("S0"), al)
    windows = ((10**3, 10**4), (10**4, 10**5))
    assert not liminf_estimate(al, g, windows, rel_tol=0).stabilized
    assert liminf_estimate(al, g, windows, rel_tol=1).stabilized
    assert liminf_estimate(al, g, windows, rel_tol=F(1, 10)).stabilized
    with pytest.raises(TypeError):
        liminf_estimate(al, g, windows, rel_tol=1e-3)


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
    from inhomspec.quadfield import QuadNum

    assume(vx or vy)
    want = (QuadNum(ux, uy, N) / QuadNum(vx, vy, N)).floor()
    assert _floor_div(ux, uy, vx, vy, N) == want
    # a common factor of dividend and divisor leaves the quotient unchanged
    assert _floor_div(-3 * ux, -3 * uy, -3 * vx, -3 * vy, N) == want


def test_oracle_does_not_import_numpy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys, inhomspec\n"
        "al = inhomspec.make_alpha(5, 7)\n"
        "inhomspec.brute_force_min(al, al.eta / 3, 1000, 10**6, two_sided=True)\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
