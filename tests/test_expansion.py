from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import mstar_reference
from inhomspec.quadfield import QuadNum, _ints, _make, qnum
from inhomspec.ncf import make_alpha
from inhomspec.spectrum import ClassId, class_tsequence, covered_pairs, equivalence_cases
from inhomspec import expansion, quadfield, spectrum
from inhomspec.expansion import (
    _mirror_centre,
    _s_ints,
    _tails,
    AlignmentError,
    Block,
    DigitRangeError,
    InvalidBlockError,
    TSequence,
    UndefinedTailError,
    block_digits,
    block_tvalues,
    d_minus,
    d_plus,
    gamma_value,
    m_star,
    m_value,
    max_digit_bound,
    parse_period,
    reflect,
    repeated_t_bound,
    s_star,
    tseq_from_blocks,
)

A47 = make_alpha(4, 7)
A48 = make_alpha(4, 8)
A57 = make_alpha(5, 7)
A25 = make_alpha(2, 5)


# ---------------------------------------------------------------- blocks

def test_block_a1_at_4_7():
    assert block_digits(Block("A", 1), A47) == [("a", 1), ("b", 3)]


def test_block_b1_at_5_7():
    assert block_digits(Block("B", 1), A57) == [("a", 1), ("b", 3)]


def test_block_parity_error():
    with pytest.raises(InvalidBlockError):
        block_digits(Block("A", 1), make_alpha(4, 6))


def test_block_range_error():
    # C needs a >= 4 for a nonnegative odd digit
    with pytest.raises(DigitRangeError):
        block_digits(Block("C", 2), make_alpha(2, 6))


@pytest.mark.parametrize("word, error", [
    ((0, 9), DigitRangeError),   # t_2 = b + 2
    ((6, 1), DigitRangeError),   # t_1 = a + 2
    ((0, -7), DigitRangeError),  # t_2 = -b
    ((1, 1), InvalidBlockError),  # t_1 odd under a = 4
])
def test_validate_rejects_bad_digits(word, error):
    with pytest.raises(error):
        TSequence(word).validate(A47)


def test_block_tvalues():
    assert [t for _, t in block_tvalues(Block("C", 3), make_alpha(8, 13))] == [-2, 3]
    assert [t for _, t in block_tvalues(Block("F", 2), make_alpha(5, 8))] == [5, -2]


def test_long_blocks_at_3_5():
    al = make_alpha(3, 5)
    assert [t for _, t in block_tvalues(Block("H", None), al)] == [1, -3, 3, -3, 1]
    assert [t for _, t in block_tvalues(Block("H'", None), al)] == [-1, 1, 3, 1, -1]
    assert [t for _, t in block_tvalues(Block("G", None), al)] == [-1, 3, -1]


def reference_block_digits(block, a, b):
    """Plain digits (parity, b_i) of a block from its defining formulas.

    Each digit is a fraction with denominator 2; a non-integer digit raises
    InvalidBlockError and one outside [0, q - 1] raises DigitRangeError, the
    first offending digit deciding.
    """
    t, name = block.t, block.name
    offsets = {"A": 0, "B": 1, "C": 2, "E": 3}
    if name.rstrip("'") in offsets or name in ("F", "F'"):
        if t is None:
            raise InvalidBlockError(f"block {name} needs a t parameter")
    elif name in ("G", "H", "H'") and t is not None:
        raise InvalidBlockError(f"block {name} takes no t parameter")
    if name in offsets:
        rows = [("a", F(a - 2 - offsets[name], 2)), ("b", F(b - 2 + t, 2))]
    elif name.rstrip("'") in offsets:
        rows = [("a", F(a - 2 + offsets[name[:-1]], 2)), ("b", F(b - 2 - t, 2))]
    elif name == "F":
        rows = [("a", F(a - 1)), ("b", F(b - 2 - t, 2))]
    elif name == "F'":
        rows = [("a", F(a - 1)), ("b", F(b - 2 + (t - 4), 2))]
    elif name == "G":
        rows = [("b", F(b - 3, 2)), ("a", F(a - 1)), ("b", F(b - 3, 2))]
    elif name in ("H", "H'"):
        half = [("a", F(a - 1, 2)), ("b", F(b - 5, 2))] if name == "H" else [
            ("a", F(a - 3, 2)), ("b", F(b - 1, 2))]
        rows = half + [("a", F(a - 1))] + half[::-1]
    else:
        raise InvalidBlockError(f"unknown block {name!r}")
    out = []
    for parity, digit in rows:
        q = a if parity == "a" else b
        if digit.denominator != 1:
            raise InvalidBlockError(f"{block} digit {digit}")
        if not 0 <= digit <= q - 1:
            raise DigitRangeError(f"{block} digit {digit}")
        out.append((parity, int(digit)))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InvalidBlockError, DigitRangeError) as ex:
        return type(ex)


def test_blocks_match_defining_formulas():
    names = ("A", "B", "C", "E", "A'", "B'", "C'", "E'", "F", "F'", "G", "H", "H'", "Z")
    seen = set()
    for a in range(2, 14):
        for b in range(a + 1, 15):
            al = make_alpha(a, b)
            for name in names:
                for t in (None, *range(-3, b + 3)):
                    blk = Block(name, t)
                    want = _outcome(reference_block_digits, blk, a, b)
                    assert _outcome(block_digits, blk, al) == want
                    if isinstance(want, list):
                        want = [(p, 2 * d - ((a if p == "a" else b) - 2))
                                for p, d in want]
                    assert _outcome(block_tvalues, blk, al) == want
                    seen.add(want if isinstance(want, type) else list)
    assert seen == {list, InvalidBlockError, DigitRangeError}


@pytest.mark.parametrize("name", ["G", "H", "H'"])
def test_fixed_blocks_reject_a_t(name):
    al = make_alpha(3, 5)
    for fn in (block_tvalues, block_digits):
        with pytest.raises(InvalidBlockError, match="takes no t parameter"):
            fn(Block(name, 4), al)


def test_tseq_from_blocks():
    seq = tseq_from_blocks(
        [Block("A", 1), Block("A", 1), Block("A'", 1), Block("A'", 1)], A47
    )
    assert seq.period == (0, 1, 0, 1, 0, -1, 0, -1)
    assert tseq_from_blocks([Block("A", 0)], A48).period == (0, 0)
    assert tseq_from_blocks([Block("C", 3)], make_alpha(8, 13)).period == (-2, 3)


def test_tseq_alignment_errors():
    al = make_alpha(3, 5)
    # a bare G has odd length, and no block at all makes no period
    for blocks in ([Block("G", None)], []):
        with pytest.raises(AlignmentError):
            tseq_from_blocks(blocks, al)
    # H G has odd total length
    with pytest.raises(AlignmentError):
        tseq_from_blocks([Block("H", None)], al)


def test_parse_period():
    assert parse_period("A1 A1 A1' A1'", A47).period == (0, 1, 0, 1, 0, -1, 0, -1)
    assert parse_period("t:(2,-3)", make_alpha(2, 7)).period == (2, -3)
    # a raw word starts odd and is checked once, at those parities
    with pytest.raises(DigitRangeError, match="t_2"):
        parse_period("t:(0,9)", A47)
    assert parse_period("t:(0,1)", A47).period == (0, 1)
    with pytest.raises(InvalidBlockError, match="t_1"):
        parse_period("t:(1,0)", A47)
    # a G-first block string starts even: rotated by one digit into odd-start form
    al = make_alpha(3, 5)
    word = (-1, 3, -1) + (1, -3, 3, -3, 1) + (-1, 3, -1) + (-1, 1, 3, 1, -1)
    assert parse_period("G H G H'", al).period == word[1:] + word[:1]
    for text in ("H7 G9 H'2 G", "H G1 H' G", "H G H'0 G", "H G H2' G"):
        with pytest.raises(InvalidBlockError, match="takes no t parameter"):
            parse_period(text, al)


def test_even_start_rotation():
    al = make_alpha(3, 5)
    # G (H G H' starting even) is the same cyclic word as H G H' G
    direct = tseq_from_blocks(
        [Block(n, None) for n in ("H", "G", "H'", "G")], al
    )
    rotated = tseq_from_blocks(
        [Block(n, None) for n in ("G", "H", "G", "H'")], al
    )
    assert m_star(direct, al) == m_star(rotated, al)


# ---------------------------------------------------------------- gamma

def test_gamma_zero():
    z = TSequence((-(4 - 2), -(8 - 2)))  # all digits zero
    assert gamma_value(z, A48) == 0


def test_gamma_period_a0():
    g = gamma_value(TSequence((0, 0)), A48)
    expect = (A48.eta + 3 * A48.D) / (1 - A48.D)
    assert g == expect
    # and the display form (49 - 13 sqrt14)/(4 sqrt14 - 14)
    num = qnum(49, -13, 14)
    den = qnum(-14, 4, 14)
    assert g.same_value(num / den)


def test_gamma_digit_pair_0_1():
    # digits (0, 1) at (2,5): t = (0, -1); gamma = D/(1-D)
    g = gamma_value(TSequence((0, -1)), A25)
    assert g == A25.D / (1 - A25.D)


def test_gamma_preperiod():
    # prepending one period of the same word shifts nothing
    seq = TSequence((0, 1, 0, -1))
    pre = TSequence((0, 1, 0, -1), preperiod=(0, 1, 0, -1))
    assert gamma_value(seq, A47) == gamma_value(pre, A47)


def test_gamma_truncation_bound():
    al = A48
    seq = TSequence((0, 2, 0, -2))
    g = gamma_value(seq, al)
    pre, per = seq.digits(al)
    assert pre == ()
    bound_c = ((al.a - 1) * al.eta + (al.b - 1) * al.D) / (1 - al.D)
    partial = qnum(0, 0, al.N)
    w = al.one
    for n in range(1, 9):
        i = (n - 1) % (len(per) // 2)
        bo, be = per[2 * i], per[2 * i + 1]
        partial = partial + (bo * al.eta + be * al.D) * w
        w = w * al.D  # w = D^n
        diff = g - partial
        if diff.sign() < 0:
            diff = -diff
        assert diff <= bound_c * w


# ---------------------------------------------------------------- tails

def test_tails_of_constant_b_block():
    # period B_1 at (5,7): t = (-1, 1); d+ at odd index is (beta - D)/(1-D)
    seq = tseq_from_blocks([Block("B", 1)], A57)
    v = (A57.beta - A57.D) / (1 - A57.D)
    assert d_plus(seq, 1, A57) == v
    assert d_minus(seq, 3, A57) == d_minus(seq, 1, A57)


def test_tails_zero_period():
    seq = TSequence((0, 0))
    for i in (1, 2, 3, 4):
        assert d_plus(seq, i, A48) == 0
        assert d_minus(seq, i, A48) == 0


def test_tail_value_from_quadruple_word():
    # cut before the second A_1 of A_1 A_1 A'_1 A'_1: d- = D(1-D)/(1+D^2)
    seq = tseq_from_blocks(
        [Block("A", 1), Block("A", 1), Block("A'", 1), Block("A'", 1)], A47
    )
    D = A47.D
    assert d_minus(seq, 3, A47) == D * (1 - D) / (1 + D**2)
    assert d_plus(seq, 3, A47) == A47.beta * (1 - D) / (1 + D**2)


def test_tail_recurrence():
    # d_i^+ = t_{i+1} alpha_i + t_{i+2} D + D d_{i+2}^+ over whole periods,
    # and d_i^- = alpha_{i-1} (t_i + d_{i-1}^-)
    for al, word in (
        (A47, TSequence((0, 1, 0, 1, 0, -1, 0, -1))),
        (A48, TSequence((0, 2, -2, 2, 0, -2, 2, -2))),
        (A57, TSequence((-1, 1, -1, 3))),
        (A25, TSequence((2, -3, 2, -1))),
    ):
        L = len(word.period)
        for i in range(1, L + 1):
            lhs = d_plus(word, i, al)
            rhs = (
                word.period_t(i + 1) * al.alpha_at(i)
                + word.period_t(i + 2) * al.D
                + al.D * d_plus(word, i + 2 if i + 2 <= L else i + 2 - L, al)
            )
            assert lhs == rhs
            back = al.alpha_at(i - 1) * (
                word.period_t(i) + d_minus(word, i - 1 if i > 1 else L, al)
            )
            assert d_minus(word, i, al) == back


def reference_tails(tseq, i, al):
    """(d_i^-, d_i^+) at global index i >= 1 from the defining series.

    d_i^+ = sum_j (t_{i+2j+1} alpha_i + t_{i+2j+2} D) D^j and
    d_i^- = sum_j (t_{i-2j} alpha_{i-1} + t_{i-2j-1} D) D^j.  The terms that
    reach into the preperiod are summed one by one; from periodic index k on,
    one period of L/2 terms is summed and divided by 1 - D^(L/2).  d_i^- is
    None inside the preperiod.
    """
    D, n = al.D, len(tseq.preperiod)
    half = len(tseq.period) // 2
    m = (n - i) // 2 + 1 if i <= n else 0
    head = qnum(0, 0, al.N)
    for j in range(m):
        head = head + (tseq.t_at(i + 2 * j + 1) * al.alpha_at(i)
                       + tseq.t_at(i + 2 * j + 2) * D) * D**j
    k = i + 2 * m - n
    plus = minus = qnum(0, 0, al.N)
    for j in range(half):
        plus = plus + (tseq.period_t(k + 2 * j + 1) * al.alpha_at(k)
                       + tseq.period_t(k + 2 * j + 2) * D) * D**j
        minus = minus + (tseq.period_t(k - 2 * j) * al.alpha_at(k - 1)
                         + tseq.period_t(k - 2 * j - 1) * D) * D**j
    denom = 1 - D**half
    return (minus / denom if i > n else None), head + D**m * plus / denom


def reference_gamma(tseq, al):
    """gamma = sum_i (b_{2i-1} eta + b_{2i} D) D^(i-1), one pair at a time."""
    pre, per = tseq.digits(al)
    D = al.D
    total = qnum(0, 0, al.N)
    for j in range(0, len(pre), 2):
        total = total + (pre[j] * al.eta + pre[j + 1] * D) * D**(j // 2)
    head = qnum(0, 0, al.N)
    for j in range(0, len(per), 2):
        head = head + (per[j] * al.eta + per[j + 1] * D) * D**(j // 2)
    return total + D**(len(pre) // 2) * head / (1 - D**(len(per) // 2))


def _reference_words():
    al27 = make_alpha(2, 7)
    maximal = TSequence((2, -3, 2, -1, 0, -1))
    yield A47, TSequence((0, 1, 0, 1, 0, -1, 0, -1))  # no maximal digit
    yield al27, maximal
    yield al27, reflect(maximal, al27)
    yield A48, class_tsequence(ClassId("Sk1", k=4), A48)  # a kmax = 4 period
    yield A48, TSequence((0, 2, 0, -2), preperiod=(2, -2, 0, 2))


def test_tails_match_defining_series():
    for al, seq in _reference_words():
        n, L = len(seq.preperiod), len(seq.period)
        assert gamma_value(seq, al) == reference_gamma(seq, al)
        for i in range(1, n + L + 1):
            minus, plus = reference_tails(seq, i, al)
            assert d_plus(seq, i, al) == plus
            if i <= n:
                continue
            assert d_minus(seq, i, al) == minus
            ai, ap = al.alpha_at(i), al.alpha_at(i - 1)
            assert s_star(seq, i - n, al) == (
                (1 - ai + plus) * (1 - ap + minus),
                (1 + ai - plus) * (1 + ap + minus),
                (1 - ai - plus) * (1 - ap - minus),
                (1 + ai + plus) * (1 + ap - minus),
            )


# The tail walk and the s-products against the plain QuadNum formulas, at
# every covered pair and at two pairs beyond the grid.
PROPERTY_PAIRS = [*covered_pairs(), (10, 16), (12, 18)]


@st.composite
def field_values(draw, al):
    """A value of al's field: zero, rational, irrational or negative."""
    kind = draw(st.sampled_from(["zero", "rational", "irrational", "negative"]))
    if kind == "zero":
        return draw(st.sampled_from([0, qnum(0, 0, al.N)]))
    p = draw(st.fractions(min_value=0, max_value=4, max_denominator=50))
    q = draw(st.fractions(min_value=-1, max_value=1, max_denominator=50))
    if kind == "rational":
        return qnum(p, 0, al.N)
    if kind == "irrational":
        return qnum(p, q or 1, al.N)
    return -qnum(p + 1, 0, al.N) + draw(st.sampled_from([0, al.eta, al.D]))


@st.composite
def walks(draw):
    al = make_alpha(*draw(st.sampled_from(PROPERTY_PAIRS)))
    n = draw(st.integers(2, 12))
    ts = [2 * draw(st.integers(0, q - 1)) - (q - 2)
          for q in map(al.partial_quotient, range(1, n + 1))]
    return al, ts, draw(field_values(al))


@given(walks())
@settings(max_examples=200, deadline=None)
def test_tail_walk_matches_the_plain_recurrence(walk):
    al, ts, d = walk
    want = [d]
    for i in range(len(ts), 0, -1):
        want.append(al.alpha_at(i - 1) * (ts[i - 1] + want[-1]))
    want.reverse()
    got = _tails(ts, al, _ints(d))
    assert [_make(*t, al.N) for t in got] == want
    assert got[-1] == _ints(d)


@st.composite
def tail_pairs(draw):
    al = make_alpha(*draw(st.sampled_from(PROPERTY_PAIRS)))
    return al, draw(st.integers(-3, 3)), draw(field_values(al)), draw(field_values(al))


@given(tail_pairs())
@settings(max_examples=200, deadline=None)
def test_s_products_match_the_four_products(case):
    al, i, dm, dp = case
    ai, ap = al.alpha_at(i), al.alpha_at(i - 1)
    xy, z = _s_ints(_ints(1 - ai), _ints(1 - ap), _ints(dm), _ints(dp), al.N)
    assert tuple(_make(x, y, z, al.N) for x, y in xy) == (
        (1 - ai + dp) * (1 - ap + dm),
        (1 + ai - dp) * (1 + ap + dm),
        (1 - ai - dp) * (1 - ap - dm),
        (1 + ai + dp) * (1 + ap - dm),
    )


@st.composite
def periodic_words(draw):
    """A valid period of length 2-16 at a property pair; about half of them
    are given a maximal digit, so the reflection path is taken."""
    al = make_alpha(*draw(st.sampled_from(PROPERTY_PAIRS)))
    qs = [al.partial_quotient(i) for i in range(1, 2 * draw(st.integers(1, 8)) + 1)]
    bs = [draw(st.integers(0, q - 1)) for q in qs]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(qs) - 1))
        bs[k] = qs[k] - 1
    return al, TSequence(tuple(2 * b - (q - 2) for b, q in zip(bs, qs)))


@given(periodic_words())
@settings(max_examples=300, deadline=None)
def test_m_star_matches_the_quadnum_reference(case):
    al, seq = case
    want = mstar_reference.m_star(seq.period, al)
    if want is None:  # the reflection carries a digit out of range
        with pytest.raises(DigitRangeError):
            m_star(seq, al)
    else:
        assert m_star(seq, al) == want
    # every product, also those that never reach the minimum
    minus, plus = mstar_reference.tails(seq.period, al)
    for i in range(len(seq.period)):
        assert s_star(seq, i, al) == mstar_reference.products(al, i, minus[i], plus[i])


def assert_matches_the_reference(al, seq):
    """m_star (or its DigitRangeError), every s_star and d_minus at every
    index of the period, against the QuadNum reference."""
    want = mstar_reference.m_star(seq.period, al)
    if want is None:  # the reflection carries a digit out of range
        with pytest.raises(DigitRangeError):
            m_star(seq, al)
    else:
        assert m_star(seq, al) == want
    L = len(seq.period)
    minus, plus = mstar_reference.tails(seq.period, al)
    for i in range(1, L + 1):
        assert d_minus(seq, i, al) == minus[i % L]
        assert s_star(seq, i, al) == mstar_reference.products(
            al, i, minus[i % L], plus[i % L])


def has_centre(word, r):
    return all(word[j] == word[(r - j) % len(word)] for j in range(len(word)))


@st.composite
def palindromic_words(draw):
    """A valid period of length 2-16 at a property pair that reads the same
    backwards about an even centre r, period[j] == period[(r - j) % L]: a
    random word whose digit at each j is replaced by its mirror's when the
    mirror comes first.  j and r - j share a parity, so the digit stays
    valid.  About half of them are given a maximal digit, and its mirror with
    it, so the reflection path is taken."""
    al = make_alpha(*draw(st.sampled_from(PROPERTY_PAIRS)))
    L = 2 * draw(st.integers(1, 8))
    r = 2 * draw(st.integers(0, L // 2 - 1))
    qs = [al.partial_quotient(i) for i in range(1, L + 1)]
    ts = [2 * draw(st.integers(0, q - 1)) - (q - 2) for q in qs]
    if draw(st.booleans()):
        k = draw(st.integers(0, L - 1))
        ts[k] = ts[(r - k) % L] = qs[k]
    for j in range(L):
        ts[j] = ts[min(j, (r - j) % L)]
    return al, TSequence(tuple(ts))


@given(palindromic_words())
@settings(max_examples=200, deadline=None)
def test_palindromic_words_match_the_quadnum_reference(case):
    al, seq = case
    r = _mirror_centre(seq.period)
    assert r is not None and r % 2 == 0 and has_centre(seq.period, r)
    assert_matches_the_reference(al, seq)


@pytest.mark.parametrize("word, centre", [
    ((0, 0, 2, 2), None),  # a palindrome about the odd centre 1 only
    ((0, 0, 2, 2, 0, 0, 2, 2), None),  # about 1 and 5, both odd
    ((0, 0, 2, 0, 0, 2), 4),  # about 1, and about 4 one rotation period on
    ((-2, -4, 0, 4), None),  # no centre at all
    ((4, -2, 0, 2), None),  # no centre, a maximal digit: reflects to (4, 0, 0, -4)
    ((0, 0, 0, 0), 0),
    ((0, 2, 0, -2), 2),
])
def test_mirror_centre_is_the_least_even_centre(word, centre):
    assert _mirror_centre(word) == centre
    assert [r for r in range(0, len(word), 2) if has_centre(word, r)][:1] == (
        [] if centre is None else [centre])
    assert_matches_the_reference(A48, TSequence(word))


def test_m_star_work_on_the_grid_is_pinned(monkeypatch):
    # one m_star pass over the 977 grid cases: of the 1,164 words it
    # evaluates (a class word, or its reflection), 965 are palindromes about
    # an even centre, which skip the two walks of the reversed word and take
    # the minimum over half the indices (without that, 4,656 walks and 9,754
    # index evaluations)
    calls = {"_tails": 0, "_s_ints": 0, "words": 0, "palindromes": 0}

    def counted(name):
        fn = getattr(expansion, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(expansion, name, wrapper)

    counted("_tails")
    counted("_s_ints")

    def centre(period):
        r = _mirror_centre(period)
        calls["words"] += 1
        calls["palindromes"] += r is not None
        return r
    monkeypatch.setattr(expansion, "_mirror_centre", centre)
    for a, b in covered_pairs():
        al = make_alpha(a, b)
        for cls in equivalence_cases(al, 4):
            m_star(class_tsequence(cls, al), al)
    assert calls == {"_tails": 2726, "_s_ints": 6287, "words": 1164, "palindromes": 965}


def test_catalog_work_on_the_grid_is_pinned(monkeypatch):
    # one spectrum_catalog(alpha, 8) pass over the 739 pairs with b <= 40:
    # every QuadNum the pass builds (one _make each), the form set-ups and
    # the points.  The _make count holds while each pair's shared values
    # (_Pair) are computed once per call and M is formed on ints, its
    # factor 1/(4(1 - D)) one _div of the _Pair's 1 - D
    alphas = [make_alpha(a, b) for a, b in covered_pairs(2, 39, 3, 40)]
    calls = {"_make": 0, "_member": 0, "points": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    make = counted("_make", quadfield._make)  # spectrum imports it by name
    monkeypatch.setattr(quadfield, "_make", make)
    monkeypatch.setattr(spectrum, "_make", make)
    monkeypatch.setattr(spectrum, "_member", counted("_member", spectrum._member))
    for alpha in alphas:
        calls["points"] += len(spectrum.spectrum_catalog(alpha, 8).points)
    assert calls == {"_make": 71261, "_member": 4382, "points": 8836}


def test_d_minus_undefined_in_preperiod():
    seq = TSequence((2, -2), preperiod=(0, 2))
    for i in (1, 2):  # 2 is the last preperiod index
        with pytest.raises(UndefinedTailError):
            d_minus(seq, i, A48)
    # d_plus is fine there
    assert d_plus(seq, 1, A48) is not None
    # the first periodic index reads the bare period's d^- at its index 1
    assert d_minus(seq, 3, A48) == d_minus(TSequence((2, -2)), 1, A48)


# ---------------------------------------------------------------- s functions

def test_s_star_zero_tails():
    s1, s2, s3, s4 = s_star(TSequence((0, 0)), 1, A48)
    e, b = A48.eta, A48.beta
    assert s1 == (1 - b) * (1 - e)
    assert s3 == s1
    assert s2 == (1 + b) * (1 + e) and s2 > 1
    assert s4 == s2


def test_s_star_b_block():
    seq = tseq_from_blocks([Block("B", 1), Block("B", 3)], A57)
    s1 = s_star(seq, 1, A57)[0]
    vplus = d_plus(seq, 1, A57)
    vminus = d_minus(seq, 1, A57)
    assert s1 == (1 - A57.beta + vplus) * (1 - A57.eta + vminus)


# ---------------------------------------------------------------- reflect

def test_reflect_negation():
    assert reflect(TSequence((0, 1, 0, -1)), A47).period == (0, -1, 0, 1)


def test_reflect_fixed_point():
    assert reflect(TSequence((0, 0)), A48).period == (0, 0)


def test_reflect_maximal_digits():
    al = make_alpha(2, 7)
    # (a,-3,a,-1) reflects onto its own rotation: a stays, -3 and -1 swap
    assert reflect(TSequence((2, -3, 2, -1)), al).period == (2, -1, 2, -3)
    # F_t partner: (a,-t) <-> (a,t-4)
    assert reflect(TSequence((2, -3)), al).period == (2, -1)


def test_reflect_with_preperiod():
    al = make_alpha(2, 7)
    # the first period digit is maximal: the last preperiod digit takes the carry
    r = reflect(TSequence((2, -3, 2, -1), preperiod=(0, -1)), al)
    assert (r.preperiod, r.period) == ((0, -1), (2, -1, 2, -3))
    # a maximal digit at the left edge of the preperiod
    r = reflect(TSequence((0, -1, 0, 1), preperiod=(2, -3)), al)
    assert (r.preperiod, r.period) == ((2, 1), (0, 1, 0, -1))
    # the period wraps round: its last digit b carries into its first
    assert reflect(TSequence((0, 1, 0, 7)), A47).period == (-2, -1, -2, 7)
    # left of the preperiod counts as non-maximal, though the period ends on b
    r = reflect(TSequence((0, 1, 0, 7), preperiod=(0, 1)), A47)
    assert (r.preperiod, r.period) == ((0, -1), (-2, -1, -2, 7))
    # the period reads cyclically, so a maximal last preperiod digit carries
    # only into its left neighbour, in range at (4,7) and out of range at (2,7)
    r = reflect(TSequence((2, 1), preperiod=(0, 7)), A47)
    assert (r.preperiod, r.period) == ((-2, 7), (-2, -1))
    with pytest.raises(DigitRangeError, match="t_1: t=-2"):
        reflect(TSequence((0, -1), preperiod=(0, 7)), al)
    # two neighbouring maxima are refused, in the preperiod, across its end,
    # and in the period read cyclically; positions count from the preperiod
    for seq, where in [
        (TSequence((0, -1), preperiod=(2, 7)), "t_1 and t_2"),
        (TSequence((2, -1), preperiod=(0, 7)), "t_2 and t_3"),
        (TSequence((2, 1, 0, 7), preperiod=(0, 1)), "t_6 and t_3"),
    ]:
        with pytest.raises(DigitRangeError, match=f"^{where} are adjacent maximal digits$"):
            reflect(seq, al)
    with pytest.raises(DigitRangeError, match="^t_3 and t_4 are adjacent"):
        reflect(TSequence((4, 7), preperiod=(0, 1)), A47)
    # H G H' G at (3,5) with its one-pair rotation as preperiod
    al = make_alpha(3, 5)
    seq = parse_period("H G H' G", al)
    r = reflect(TSequence(seq.period, seq.rotated(1).period), al)
    assert r.preperiod == (3, 1, -1, -1, 3, -1, 1, -3, 3, -3, 1, -1, 3, -1, -1, 3)
    assert r.period == (-1, 1, 3, 1, -1, -1, 3, -1, 1, -3, 3, -3, 1, -1, 3, -1)


def test_reflect_involution():
    al = make_alpha(3, 4)
    for word in ((3, -2, 1, -2), (3, 0, -1, 0), (1, 2, -1, 0)):
        seq = TSequence(word)
        assert reflect(reflect(seq, al), al).period == word


def assert_reflection_carries(word, al):
    """The reflection's tails are the word's negated tails plus a carry:
    d'+_i = -d+_i + 2[t_{i+1} max] - 2 alpha_i [t_i max] and
    d'-_i = -d-_i + 2[t_i max] - 2 alpha_{i-1} [t_{i+1} max], at every index.
    """
    L = len(word)
    top = [int(t == q) for t, q in zip(word, map(al.partial_quotient, range(1, L + 1)))]
    minus, plus = mstar_reference.tails(word, al)
    rminus, rplus = mstar_reference.tails(reflect(TSequence(word), al).period, al)
    for i in range(L):  # t_i is word[i - 1] and t_{i+1} is word[i], read mod L
        here, after = top[i - 1], top[i % L]
        assert rplus[i] == -plus[i] + 2 * after - 2 * al.alpha_at(i) * here
        assert rminus[i] == -minus[i] + 2 * here - 2 * al.alpha_at(i - 1) * after


def test_reflection_of_catalogue_words_carries():
    # every catalogue word with a maximal digit has its maxima isolated
    n = 0
    for a, b in covered_pairs():
        al = make_alpha(a, b)
        for cls in equivalence_cases(al, 4):
            word = class_tsequence(cls, al).period
            if any(t == al.partial_quotient(i) for i, t in enumerate(word, start=1)):
                assert_reflection_carries(word, al)
                n += 1
    assert n == 187


@st.composite
def isolated_maxima_words(draw):
    """A valid period of length 2-16 at a property pair with at least one
    maximal digit and no two maximal digits adjacent, read cyclically; each
    other digit leaves room for the carries its maximal neighbours give it,
    so the reflection stays in range."""
    al = make_alpha(*draw(st.sampled_from(PROPERTY_PAIRS)))
    L = 2 * draw(st.integers(1, 8))
    top = draw(st.lists(st.booleans(), min_size=L, max_size=L))
    # keep a drawn maximum only when its left neighbour, read cyclically, was not drawn
    top = [m and not top[i - 1] for i, m in enumerate(top)]
    assume(any(top))
    word = []
    for i, q in enumerate(map(al.partial_quotient, range(1, L + 1))):
        if top[i]:
            word.append(q)
            continue
        hi = q - 2 - top[i - 1] - top[(i + 1) % L]  # -t - 2*carries >= 2 - q
        assume(hi >= 0)
        word.append(2 * draw(st.integers(0, hi)) - (q - 2))
    return al, tuple(word)


@given(isolated_maxima_words())
@settings(max_examples=100, deadline=None)
def test_reflection_of_isolated_maxima_carries(case):
    al, word = case
    assert_reflection_carries(word, al)


# ---------------------------------------------------------------- m_star

def test_m_star_period_a0():
    ms = m_star(TSequence((0, 0)), A48)
    assert ms == (1 - A48.eta) * (1 - A48.beta)


def test_m_star_s0_even_odd():
    # period A'_1 A_1 at (4,7): (1 - beta - 1/b)(1 - eta + eta/b)
    seq = tseq_from_blocks([Block("A'", 1), Block("A", 1)], A47)
    e, b = A47.eta, A47.beta
    assert m_star(seq, A47) == (1 - b - F(1, 7)) * (1 - e + e / 7)


def test_m_star_reflection_invariance():
    for al, word in (
        (A47, (0, 1, 0, 1, 0, -1, 0, -1)),
        (A48, (0, 2, -2, 2)),
        (A57, (-1, 1, -1, 3)),
    ):
        seq = TSequence(word)
        assert m_star(reflect(seq, al), al) == m_star(seq, al)


def test_m_star_shift_invariance():
    for al, word in ((A48, (0, 0, 0, 2, 0, -2)), (A57, (-1, 1, -1, 3, -1, 3))):
        seq = TSequence(word)
        base = m_star(seq, al)
        for r in range(1, len(word) // 2):
            assert m_star(seq.rotated(r), al) == base


def test_m_star_max_mode_uses_reflection():
    al = make_alpha(2, 7)
    seq = TSequence((2, -3))
    refl = reflect(seq, al)  # (2, -1)
    assert m_star(seq, al) == m_star(refl, al)


def test_m_star_ignores_preperiod():
    seq = TSequence((0, 2, 0, -2), preperiod=(0, 0))
    assert m_star(seq, A48) == m_star(TSequence((0, 2, 0, -2)), A48)


@pytest.mark.parametrize("word, ties, zs", [
    ((0, 0), {(0, 0), (0, 2), (1, 0), (1, 2)}, {128}),
    ((-2, -4, 0, 4), {(0, 0), (1, 0)}, {1605632, 3211264}),
])
def test_m_star_reduces_one_of_equal_minima(word, ties, zs):
    # at (4,8) the least product of (0, 0) is s1* == s3* at both indices, over
    # an unreduced z = 128; (-2, -4, 0, 4) reaches it at two indices over
    # different unreduced z.  The value is the reference's, in lowest terms.
    want = mstar_reference.m_star(word, A48)
    got = m_star(TSequence(word), A48)
    assert got == want and hash(got) == hash(want)
    assert got._z > 0 and gcd(got._x, got._y, got._z) == 1
    minus, plus = mstar_reference.tails(word, A48)
    at = {(i, j) for i in range(len(word)) for j, s in
          enumerate(mstar_reference.products(A48, i, minus[i], plus[i])) if s == want}
    assert at == ties
    assert {_s_ints(_ints(1 - A48.alpha_at(i)), _ints(1 - A48.alpha_at(i - 1)),
                    _ints(minus[i]), _ints(plus[i]), A48.N)[1] for i, _ in ties} == zs


def test_m_star_compares_no_quadnum(monkeypatch):
    # a plain word and one with a maximal digit (2 = a at (2,7)), which takes
    # the reflection path: the minimum is found on ints
    cases = [(A57, (-1, 1, -1, 3)), (make_alpha(2, 7), (2, -3))]
    want = [mstar_reference.m_star(word, al) for al, word in cases]

    def no_cmp(self, other):
        raise AssertionError("QuadNum comparison")

    monkeypatch.setattr(QuadNum, "_cmp", no_cmp)
    assert [m_star(TSequence(word), al) for al, word in cases] == want


def test_m_value_round_trip():
    ms = m_star(TSequence((0, 0)), A48)
    m = m_value(ms, A48)
    assert m * A48.norm_factor == ms
    assert m_value(qnum(0, 0, A48.N), A48) == 0
    assert m.decimal(6) == "0.167038"


# ---------------------------------------------------------------- bounds

def test_max_digit_bound():
    assert max_digit_bound(A48, 2) == A48.beta
    assert max_digit_bound(A48, 1) == A48.eta


def test_repeated_t_bound_identity():
    # (a_j - t) alpha_{j-1} = 1 - t alpha_{j-1} + D
    for al in (A48, A25, A57):
        for j in (1, 2):
            q = al.partial_quotient(j)
            for t in range(0, q + 1):
                lhs = repeated_t_bound(al, j, t)
                assert lhs == 1 - t * al.alpha_at(j - 1) + al.D
    assert repeated_t_bound(A48, 2, 2) == (8 - 2) * A48.beta


def test_repeated_t_bound_range():
    with pytest.raises(ValueError):
        repeated_t_bound(A48, 2, 9)


def test_bound_dominates_catalogue_words():
    # no-max words with |t_even| = t infinitely often obey m* <= 1 - t beta + D
    for al, word, t in (
        (A48, (0, 2, 0, -2), 2),
        (A47, (0, 1, 0, 1, 0, -1, 0, -1), 1),
        (A57, (-1, 1, -1, 3), 3),
    ):
        assert m_star(TSequence(word), al) <= 1 - t * al.beta + al.D


def test_max_digit_bound_dominates():
    # a = 2 words containing t = a obey m* <= eta (j odd)
    al = make_alpha(2, 6)
    for word in ((2, -2), (2, -4, 2, -2), (2, -2, 0, 0)):
        assert m_star(TSequence(word), al) <= al.eta


def test_odd_preperiod_is_refused():
    with pytest.raises(AlignmentError):
        TSequence((0, 0), preperiod=(0,))


def test_d_plus_below_index_one_is_undefined():
    with pytest.raises(UndefinedTailError):
        d_plus(TSequence((0, 0)), 0, make_alpha(4, 8))
