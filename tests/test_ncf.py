import pytest
from fractions import Fraction as F

from inhomspec.quadfield import QuadNum, qnum
from inhomspec.ncf import NCFExpansion, make_alpha, ncf_expand, NonPeriodicError


def test_make_alpha_2_5():
    al = make_alpha(2, 5)
    # eta = (5 - sqrt15)/2 and beta = 1 - sqrt15/5, D = 4 - sqrt15
    assert al.eta.same_value(qnum(F(5, 2), F(-1, 2), 15))
    assert al.beta.same_value(qnum(1, F(-1, 5), 15))
    assert al.D.same_value(qnum(4, -1, 15))


def test_make_alpha_4_8():
    al = make_alpha(4, 8)
    assert al.eta.same_value(qnum(4, -1, 14))
    assert al.beta.same_value(qnum(2, F(-1, 2), 14))
    assert al.D.same_value(qnum(15, -4, 14))
    assert al.eta * 4 == 1 + al.D  # a*eta = 1 + D


def test_norm_factor_is_four_times_one_minus_d():
    al = make_alpha(4, 8)
    assert al.norm_factor == 4 * (1 - al.D)
    assert al.norm_factor.same_value(qnum(-56, 16, 14))
    assert al == make_alpha.__wrapped__(4, 8)


def test_a_eta_b_beta_identities_on_grid():
    # make_alpha's docstring derives these; nothing checks them at construction.
    # Every pair 2 <= a < b <= 40: the covered ones and (2, 3), (2, 4)
    for b in range(3, 41):
        for a in range(2, b):
            al = make_alpha(a, b)
            one = al.one
            assert al.eta * a == one + al.D
            assert al.beta * b == one + al.D
            assert QuadNum(0, 0, al.N) < al.beta < al.eta < one
            assert al.D < one


def test_make_alpha_rejects_bad_quotients():
    with pytest.raises(ValueError):
        make_alpha(1, 3)
    with pytest.raises(ValueError):
        make_alpha(5, 5)
    with pytest.raises(ValueError):
        make_alpha(6, 4)


def test_sqrt14_expansion():
    e = ncf_expand(qnum(0, 1, 14))
    assert e.integer_part == 4
    assert e.preperiod == ()
    assert e.period == (4, 8)
    assert e.period_two() == (4, 8)


def test_eta_purely_periodic():
    e = ncf_expand(make_alpha(2, 5).eta)
    assert (e.integer_part, e.preperiod, e.period) == (0, (), (2, 5))


def test_golden_ratio_period_one():
    e = ncf_expand((1 + qnum(0, 1, 5)) / 2)
    assert e.integer_part == 2
    assert e.preperiod == ()
    assert e.period == (3,)


def test_round_trip_over_grid():
    # every covered pair; ncf_expand finds the period through QuadNum dict
    # keys, so equal remainders must hash equal however they were computed
    for a in range(2, 14):
        for b in range(a + 1, 15):
            e = ncf_expand(make_alpha(a, b).eta)
            assert (e.integer_part, e.preperiod, e.period) == (0, (), (a, b))


def test_digits_at_least_two():
    for x in (qnum(0, 1, 14), qnum(7, F(-3, 2), 19), qnum(0, 1, 2) / 3):
        e = ncf_expand(x)
        assert all(d >= 2 for d in e.preperiod + e.period)


def test_rational_rejected():
    with pytest.raises(NonPeriodicError):
        ncf_expand(qnum(F(22, 7), 0, 5))


def test_period_detection_is_minimal():
    # period (3) must not be reported as (3, 3)
    e = ncf_expand((1 + qnum(0, 1, 5)) / 2)
    assert len(e.period) == 1


def test_period_not_found_within_max_terms():
    from inhomspec.ncf import PeriodNotFoundError
    with pytest.raises(PeriodNotFoundError):
        ncf_expand(qnum(0, 1, 14), max_terms=1)


@pytest.mark.parametrize("max_terms", [0, -5])
def test_non_positive_max_terms_is_refused(max_terms):
    with pytest.raises(ValueError, match="max_terms must be >= 1"):
        ncf_expand(qnum(0, 1, 14), max_terms=max_terms)


def _squarefree_split(n):
    s, d = 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        d += 1
    return s, n


def _tail_fixed_point(period):
    # y = 1/(p1 - 1/(p2 - ... 1/(pm - y))): compose Moebius maps 1/(p - z)
    A, B, C, D = 1, 0, 0, 1
    for p in period:
        # [[A,B],[C,D]] * [[0,1],[-1,p]]
        A, B, C, D = -B, A + B * p, -D, C + D * p
    # fixed point: C y^2 + (D - A) y - B = 0, root in (0, 1)
    disc = (D - A) ** 2 + 4 * B * C
    s, n0 = _squarefree_split(disc)
    if n0 == 1:
        raise AssertionError("tail came out rational")
    root = qnum(F(A - D, 2 * C), F(s, 2 * C), n0)
    if not (0 < root < 1):
        root = qnum(F(A - D, 2 * C), F(-s, 2 * C), n0)
    assert 0 < root < 1
    return root


def _reconstruct(exp):
    y = _tail_fixed_point(exp.period)
    for p in reversed(exp.preperiod):
        y = 1 / (p - y)  # peel the preperiod back on
    if exp.integer_part == 0:
        return y
    return exp.integer_part - y


def test_expansion_reconstructs_value():
    # independent oracle: solve the periodic tail as a Moebius fixed point
    # and undo the head; the result must equal the input exactly
    cases = [
        qnum(0, 1, 14),
        qnum(0, 1, 2),
        qnum(0, 1, 23),
        (1 + qnum(0, 1, 5)) / 2,
        qnum(F(7, 5), F(-3, 5), 2),
        qnum(F(1, 3), F(1, 3), 7),
        qnum(F(-3, 5), F(2, 5), 13),
        qnum(0, F(1, 2), 11),
        qnum(3, -1, 3),
        make_alpha(3, 11).eta,
        make_alpha(2, 9).beta,
    ]
    for x in cases:
        e = ncf_expand(x)
        assert _reconstruct(e).same_value(x.reduced()), str(e)


def test_long_periods_exist_and_terminate():
    # minus expansions of generic quadratics can have long minimal periods
    e = ncf_expand(qnum(F(-3, 4), F(2, 7), 13), max_terms=4096)
    assert len(e.period) == 2063
    assert all(d >= 2 for d in e.period)


def test_alpha_str_and_period_two_with_preperiod():
    assert str(make_alpha(4, 8)) == "alpha(a=4, b=8)"
    assert NCFExpansion(0, (3,), (4, 8)).period_two() is None


def test_make_alpha_refuses_non_int_quotients_in_either_call_order():
    # the cache must not hand the int pair's alpha to an equal float or Fraction
    with pytest.raises(TypeError):
        make_alpha(17.0, 1000)  # before the int pair is cached
    assert make_alpha(17, 1000).a == 17
    for bad in (17.0, F(17)):
        with pytest.raises(TypeError):
            make_alpha(bad, 1000)
