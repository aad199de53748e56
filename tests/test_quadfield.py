import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from inhomspec.quadfield import (
    QuadNum,
    ContextMismatchError,
    InvalidFieldError,
    _check_field,
    _frac,
    qnum,
)


def test_make_rational_embeds():
    x = qnum(F(1, 2), 0, 5)
    assert x.p == F(1, 2) and x.q == 0 and x.N == 5


def test_make_sqrt2():
    assert qnum(0, 1, 2).decimal(5) == "1.41421"


def test_make_rejects_bad_field():
    with pytest.raises(InvalidFieldError):
        qnum(1, 1, 0)
    with pytest.raises(InvalidFieldError):
        qnum(1, 1, -3)
    with pytest.raises(InvalidFieldError):
        qnum(1, 1, 9)


def test_eta_of_4_8_decimal():
    # 4 - sqrt(14), bracketed by isqrt: 0.2583426...
    assert qnum(4, -1, 14).decimal(6) == "0.258343"


def test_mul_collects():
    # (4 - sqrt14)(2 - sqrt14/2) = 8 - 2 sqrt14 - 4 sqrt14 + 14/2 = 15 - 4 sqrt14
    x = qnum(4, -1, 14) * qnum(2, F(-1, 2), 14)
    assert x == qnum(15, -4, 14)


def test_inverse_identity():
    x = qnum(3, 1, 5)
    assert x * x.inverse() == 1
    assert x / x == 1


def test_additive_inverse():
    x = qnum(F(5, 1), -1, 15) / 2
    assert x + (-x) == 0


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        qnum(1, 0, 5) / qnum(0, 0, 5)


def test_context_mismatch():
    with pytest.raises(ContextMismatchError):
        qnum(0, 1, 2) + qnum(0, 1, 3)
    # rational values pass between contexts freely
    assert qnum(3, 0, 2) + qnum(0, 1, 3) == qnum(3, 1, 3)
    # the field rule, for every operator in both operand orders
    r2, r3 = qnum(F(3, 2), 0, 2), qnum(F(3, 2), 0, 3)
    # i3 = sqrt(3) - 1/5 lies above 3/2, and sqrt(2) - 1/5 below it
    i2, i3 = qnum(1, F(1, 3), 2), qnum(F(-1, 5), 1, 3)
    for name, op in BINARY.items():
        # a field-2 rational meets a field-3 irrational in field 3
        for (u, v), same in (((r2, i3), (r3, i3)), ((i3, r2), (i3, r3))):
            got = op(u, v)
            assert got == op(*same), name
            assert not isinstance(got, QuadNum) or got.N == 3, name
        for u, v in ((i2, i3), (i3, i2)):
            if name in ("eq", "ne"):
                assert op(u, v) is (name == "ne")
            else:
                with pytest.raises(ContextMismatchError):
                    op(u, v)


def test_sign_zero():
    assert qnum(0, 0, 7).sign() == 0


def test_sign_cross_multiplication():
    # sqrt2 vs 3/2: 2 < 9/4, so -3/2 + sqrt2 < 0
    assert qnum(F(-3, 2), 1, 2).sign() == -1
    # 15^2 = 225 > 16*14 = 224, so 15 - 4 sqrt14 > 0
    assert qnum(15, -4, 14).sign() == 1


def test_comparisons():
    assert qnum(0, 1, 2) < qnum(3, 0, 2) < qnum(0, 1, 10)
    assert qnum(0, 1, 2) <= qnum(0, 1, 2)


def test_floor_golden_ratio():
    phi = (1 + qnum(0, 1, 5)) / 2
    assert phi.floor() == 1
    assert phi.ceil() == 2


def test_ceil_example():
    # 1/(5 - sqrt15) = (5 + sqrt15)/10 ~ 0.887
    assert (1 / qnum(5, -1, 15)).ceil() == 1


def test_floor_negative():
    assert qnum(0, -1, 2).floor() == -2


def test_decimal_eta_2_5():
    # (5 - sqrt15)/2 = 0.5635083... rounds up at 5 digits
    assert (qnum(5, -1, 15) / 2).decimal(5) == "0.56351"


def test_decimal_zero():
    assert qnum(0, 0, 5).decimal(5) == "0.00000"


def test_decimal_negative():
    assert qnum(0, -1, 2).decimal(4) == "-1.4142"


def test_reduced():
    x = qnum(15, F(-1, 2), 896)  # 896 = 64 * 14
    assert x.reduced() == qnum(15, -4, 14)
    assert x.same_value(qnum(15, -4, 14))


def test_json_round_trip():
    x = qnum(F(-3, 7), F(22, 5), 10)
    j = x.to_json(12)
    assert set(j) == {"p", "q", "N", "approx"}
    assert QuadNum.from_json(j) == x


def test_pow():
    x = qnum(1, 1, 2)
    assert x**0 == 1
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inverse()


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


@st.composite
def quadnums(draw, N=7):
    return QuadNum(draw(rationals), draw(rationals), N)


@given(quadnums(), quadnums(), quadnums())
@settings(max_examples=150, deadline=None)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if x.sign() != 0:
        assert x * x.inverse() == 1


@given(quadnums())
@settings(max_examples=200, deadline=None)
def test_floor_brackets(x):
    n = x.floor()
    assert (x - n).sign() >= 0
    assert (x - (n + 1)).sign() < 0


@given(quadnums())
@settings(max_examples=150, deadline=None)
def test_sign_agrees_with_decimal(x):
    s = x.decimal(30)
    if set(s) <= {"0", ".", "-"}:  # zero at this precision
        return
    assert x.sign() == (-1 if s.startswith("-") else 1)


def test_no_drift_under_long_op_chains():
    # random walk of exact ops must return to the start when inverted
    rng = random.Random(20260809)
    x = QuadNum(F(3, 7), F(1, 3), 11)
    trace = []
    for _ in range(10_000):
        op = rng.choice("asm")
        y = QuadNum(rng.randint(-9, 9), F(rng.randint(1, 9), rng.randint(1, 9)), 11)
        if op == "m" and y.sign() == 0:
            continue
        trace.append((op, y))
        x = {"a": x + y, "s": x - y, "m": x * y}[op]
    for op, y in reversed(trace):
        x = {"a": x - y, "s": x + y, "m": x / y}[op]
    assert x == QuadNum(F(3, 7), F(1, 3), 11)


def test_conjugate_and_norm():
    x = qnum(3, 2, 7)
    assert x.conjugate() == qnum(3, -2, 7)
    assert x.norm() == 9 - 4 * 7
    assert (x * x.conjugate()) == x.norm()


def test_floor_brackets_seeded_thousand():
    rng = random.Random(7)
    for _ in range(1000):
        x = QuadNum(
            F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
            F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
            13,
        )
        n = x.floor()
        assert (x - n).sign() >= 0 and (x - (n + 1)).sign() < 0


def test_rational_divided_by_foreign_irrational():
    # regression: the divisor must not be clobbered during coercion
    x = qnum(3, 0, 5) / qnum(0, 1, 2)  # 3/sqrt(2) = (3/2) sqrt(2)
    assert x == qnum(0, F(3, 2), 2)


# ----------------------------------------------------------------------
# canonical form
# ----------------------------------------------------------------------

N_GRID = 32 * 28  # a b (a b - 4) at (4, 8), not squarefree


def test_equal_values_built_differently_are_equal():
    x, y = qnum(F(2, 4), F(2, 4), N_GRID), qnum(F(1, 2), F(1, 2), N_GRID)
    assert x == y and hash(x) == hash(y)


@given(st.integers(min_value=-10**30, max_value=10**30),
       st.integers(min_value=-10**30, max_value=10**30),
       st.integers(min_value=1, max_value=10**30),
       st.sampled_from([2, 12, 50, 15, N_GRID]))
@settings(max_examples=200, deadline=None)
def test_arithmetic_results_are_canonical(x, y, z, N):
    v = qnum(F(x, z), F(y, z), N)
    w = qnum(F(y, z), F(abs(x) + 1, 3), N)  # irrational, so not zero
    for got, want in ((v * w / w, v), (v - v, 0), (v + w - w, v),
                      ((v * w) ** 2 / (w * w), v * v)):
        assert got == want and hash(got) == hash(want)
        # a non-canonical result would differ from its public rebuild
        assert got == qnum(got.p, got.q, got.N)
    # every operator against every operand kind, on both sides, must leave
    # lowest terms, z > 0
    kinds = (0, -1, -7, 3, BIG, -BIG, x, F(y, z), F(-1, 3), w,
             qnum(F(y, z), 0, N), qnum(F(x + 1, 5), 0, 7))  # 7: never drawn as N
    for other in kinds:
        for name, op in BINARY.items():
            try:
                got = op(v, other)
            except ZeroDivisionError:
                assert other == 0 or v == 0, name
                continue
            if isinstance(got, QuadNum):
                ref = qnum(got.p, got.q, got.N)
                assert (got._x, got._y, got._z) == (ref._x, ref._y, ref._z), name
                assert got._z > 0, name
    for name, op in BINARY.items():
        if name not in ("eq", "ne"):
            with pytest.raises(TypeError):
                op(v, True)


def test_rational_hashes_as_its_fraction():
    assert hash(qnum(F(1, 2), 0, 5)) == hash(F(1, 2))
    assert hash(qnum(7, 0, 5)) == hash(7)
    assert hash(qnum(F(1, 2), 1, 5) - qnum(0, 1, 5)) == hash(F(1, 2))


@given(st.integers(min_value=-10**30, max_value=10**30),
       st.integers(min_value=-10**30, max_value=10**30),
       st.integers(min_value=1, max_value=10**30),
       st.sampled_from([2, 12, 50, 15, N_GRID]),
       st.sampled_from(["zero", "integer", "rational", "irrational"]))
@settings(max_examples=300, deadline=None)
def test_to_json_matches_fraction_reference(x, y, z, N, shape):
    if shape == "zero":
        x = y = 0
    elif shape == "integer":
        y, z = 0, 1
    elif shape == "rational":
        y = 0
    elif y == 0:
        y = 1
    v = qnum(F(x, z), F(y, z), N)
    j = v.to_json(12)
    for key, ref in (("p", F(x, z)), ("q", F(y, z))):
        assert j[key] == f"{ref.numerator}/{ref.denominator}"
    assert j["N"] == N and j["approx"] == v.decimal(12)
    assert QuadNum.from_json(j) == v
    # an arithmetic result serializes like its public rebuild
    w = v * 3 - qnum(0, 1, N) + qnum(0, 1, N)
    assert w.to_json(12) == qnum(3 * F(x, z), 3 * F(y, z), N).to_json(12)


@pytest.mark.parametrize("args, error", [
    ((1, 1, 0), InvalidFieldError),
    ((1, 1, -3), InvalidFieldError),
    ((1, 1, 50 * 50), InvalidFieldError),
    ((1, 1, 5.0), InvalidFieldError),
    ((1, 1, True), InvalidFieldError),
    ((1, 1, "5"), InvalidFieldError),
    ((1.5, 1, 5), TypeError),
    ((1, "1", 5), TypeError),
    ((True, 1, 5), TypeError),
    ((1, None, 5), TypeError),
])
def test_public_constructor_checks(args, error):
    with pytest.raises(error):
        qnum(*args)
    with pytest.raises(error):
        QuadNum(*args)


def test_non_int_exponent_and_foreign_equality():
    x = QuadNum(1, 1, 2)
    with pytest.raises(TypeError):
        x ** 1.5
    assert (x == "x") is False


@pytest.mark.parametrize("p, q, text", [
    (3, 0, "3"),
    (0, 2, "2*sqrt(14)"),
    (1, -2, "1 - 2*sqrt(14)"),
    (F(1, 2), F(1, 3), "1/2 + 1/3*sqrt(14)"),
])
def test_str(p, q, text):
    assert str(QuadNum(p, q, 14)) == text


def test_coefficients_are_read_only():
    x = qnum(F(1, 2), F(3, 4), 5)
    for name in ("p", "q", "N"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)


# ----------------------------------------------------------------------
# reference: the Fraction-pair arithmetic the integer kernel replaced
# ----------------------------------------------------------------------


class RefQuadNum:
    """p + q*sqrt(N) with Fraction p, q, as QuadNum computed it before."""

    __slots__ = ("p", "q", "N")

    def __init__(self, p, q=0, N=2):
        self.p = _frac(p)
        self.q = _frac(q)
        self.N = _check_field(N)

    def _coerce(self, other):
        if isinstance(other, RefQuadNum):
            if other.N == self.N or other.q == 0:
                return RefQuadNum(other.p, other.q, self.N)
            if self.q == 0:
                return other
            raise ContextMismatchError(
                f"cannot mix sqrt({self.N}) and sqrt({other.N}) values"
            )
        return RefQuadNum(_frac(other), 0, self.N)

    def __add__(self, other):
        o = self._coerce(other)
        if o.N != self.N:
            return o + self.p
        return RefQuadNum(self.p + o.p, self.q + o.q, o.N)

    __radd__ = __add__

    def __neg__(self):
        return RefQuadNum(-self.p, -self.q, self.N)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o.N != self.N:
            return o * self.p
        return RefQuadNum(
            self.p * o.p + self.q * o.q * self.N,
            self.p * o.q + self.q * o.p,
            o.N,
        )

    __rmul__ = __mul__

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of exact zero")
        return RefQuadNum(self.p / n, -self.q / n, self.N)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.N != self.N:
            return RefQuadNum(self.p, 0, o.N) * o.inverse()
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponent must be an int")
        if k < 0:
            return self.inverse() ** (-k)
        out = RefQuadNum(1, 0, self.N)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self):
        return RefQuadNum(self.p, -self.q, self.N)

    def norm(self):
        return self.p * self.p - self.q * self.q * self.N

    def is_rational(self):
        return self.q == 0

    def sign(self):
        p, q = self.p, self.q
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        lhs = p * p
        rhs = q * q * self.N
        big_is_p = lhs > rhs
        return (1 if big_is_p else -1) if p > 0 else (-1 if big_is_p else 1)

    def _cmp(self, other):
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (int, F)):
            return self.q == 0 and self.p == other
        if not isinstance(other, RefQuadNum):
            return NotImplemented
        if self.q == 0 and other.q == 0:
            return self.p == other.p
        return self.N == other.N and self.p == other.p and self.q == other.q

    def __hash__(self):
        if self.q == 0:
            return hash(self.p)
        # QuadNum's canonical ints: p = x/z and q = y/z over z = lcm of the
        # reduced denominators
        p, q = self.p, self.q
        z = math.lcm(p.denominator, q.denominator)
        x, y = p.numerator * (z // p.denominator), q.numerator * (z // q.denominator)
        return hash((x, y, z, self.N))

    def __bool__(self):
        return self.sign() != 0

    def _estimate(self, extra_bits=32):
        q = self.q
        if q == 0:
            return self.p
        bits = abs(q.numerator).bit_length() + q.denominator.bit_length() + extra_bits
        s = math.isqrt(self.N << (2 * bits))
        return self.p + q * F(s, 1 << bits)

    def floor(self):
        if self.q == 0:
            return self.p.numerator // self.p.denominator
        n = math.floor(self._estimate())
        while (self - n).sign() < 0:
            n -= 1
        while (self - (n + 1)).sign() >= 0:
            n += 1
        return n

    def ceil(self):
        return -((-self).floor())

    __floor__ = floor
    __ceil__ = ceil

    def decimal(self, digits):
        if digits < 1:
            raise ValueError("digits must be >= 1")
        scale = 10**digits
        v = (self * scale + F(1, 2)).floor()
        sign = "-" if v < 0 else ""
        whole, frac = divmod(abs(v), scale)
        return f"{sign}{whole}.{frac:0{digits}d}"

    def __float__(self):
        return float(self._estimate(96))

    def __repr__(self):
        return f"QuadNum({self.p!r}, {self.q!r}, {self.N})"


def outcome(fn, *args):
    """A comparable record of fn(*args): values as (p, q, N), errors by class."""
    try:
        v = fn(*args)
    except (ArithmeticError, ValueError, TypeError) as ex:
        return type(ex)
    if isinstance(v, (QuadNum, RefQuadNum)):
        return ("value", v.p, v.q, v.N)
    return v


GRID_N = sorted({a * b * (a * b - 4) for a in range(2, 14) for b in range(a + 1, 15)})
FIELDS = st.sampled_from(GRID_N[:20] + GRID_N[-5:] + [2, 5, 12, 50])
BIG = 2**200
big_rationals = st.builds(
    F, st.integers(min_value=-BIG, max_value=BIG), st.integers(min_value=1, max_value=BIG)
)
small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
coefficients = st.one_of(st.just(F(0)), small_rationals, big_rationals)


@st.composite
def near_integer(draw, N):
    """(p, q): p + q*sqrt(N) within 2^-60 of an integer, on either side."""
    q = draw(st.one_of(small_rationals, big_rationals).filter(lambda v: v != 0))
    k = draw(st.integers(min_value=60, max_value=120))
    s = math.isqrt(q.numerator**2 * N << (2 * k))  # s < |q| sqrt(N) q.den 2^k < s + 1
    a = F(s, q.denominator << k)
    n = draw(st.integers(min_value=-10**6, max_value=10**6))
    return (n - a if q > 0 else n + a), q


@st.composite
def specs(draw, N=None):
    """(p, q, N) of a value: general, rational, zero or near an integer."""
    if N is None:
        N = draw(FIELDS)
    kind = draw(st.sampled_from(["general", "rational", "zero", "near"]))
    if kind == "near":
        return (*draw(near_integer(N)), N)
    if kind == "zero":
        return F(0), F(0), N
    p = draw(coefficients)
    return p, (F(0) if kind == "rational" else draw(coefficients)), N


@st.composite
def operands(draw, N):
    """Right operands: same field, another field, an int or a Fraction."""
    kind = draw(st.sampled_from(["same", "same", "foreign", "int", "fraction"]))
    if kind == "same":
        return draw(specs(N))
    if kind == "foreign":
        return draw(specs(draw(FIELDS.filter(lambda M: M != N))))
    if kind == "int":
        return draw(st.integers(min_value=-BIG, max_value=BIG))
    return draw(coefficients)


def both(spec):
    """The spec as (QuadNum, RefQuadNum); ints and Fractions pass as they are."""
    if isinstance(spec, tuple):
        return QuadNum(*spec), RefQuadNum(*spec)
    return spec, spec


BINARY = {
    "add": lambda u, v: u + v,
    "radd": lambda u, v: v + u,
    "sub": lambda u, v: u - v,
    "rsub": lambda u, v: v - u,
    "mul": lambda u, v: u * v,
    "rmul": lambda u, v: v * u,
    "div": lambda u, v: u / v,
    "rdiv": lambda u, v: v / u,
    "eq": lambda u, v: u == v,
    "ne": lambda u, v: u != v,
    "lt": lambda u, v: u < v,
    "le": lambda u, v: u <= v,
    "gt": lambda u, v: u > v,
    "ge": lambda u, v: u >= v,
}

UNARY = {
    "neg": lambda u: -u,
    "inverse": lambda u: u.inverse(),
    "conjugate": lambda u: u.conjugate(),
    "norm": lambda u: u.norm(),
    "sign": lambda u: u.sign(),
    "bool": lambda u: bool(u),
    "is_rational": lambda u: u.is_rational(),
    "floor": lambda u: u.floor(),
    "ceil": lambda u: u.ceil(),
    "math.floor": math.floor,
    "math.ceil": math.ceil,
    "hash": hash,
    "repr": repr,
    "float": float,
    "eq self": lambda u: u == u,
    "lt zero": lambda u: u < 0,
}


@given(specs(), st.data())
@settings(max_examples=400, deadline=None)
def test_binary_ops_match_reference(spec, data):
    x, rx = both(spec)
    y, ry = both(data.draw(operands(spec[2])))
    for name, op in BINARY.items():
        assert outcome(op, x, y) == outcome(op, rx, ry), name


@given(specs(), st.integers(min_value=-4, max_value=6),
       st.integers(min_value=0, max_value=40))
@settings(max_examples=400, deadline=None)
def test_unary_ops_match_reference(spec, k, digits):
    x, rx = both(spec)
    for name, op in UNARY.items():
        assert outcome(op, x) == outcome(op, rx), name
    assert outcome(pow, x, k) == outcome(pow, rx, k)
    assert outcome(x.decimal, digits) == outcome(rx.decimal, digits)


@given(specs(), specs())
@settings(max_examples=200, deadline=None)
def test_results_of_arithmetic_match_reference(s1, s2):
    # second-generation values: the kernel's own results as inputs
    x, rx = both(s1)
    y, ry = both((s2[0], s2[1], s1[2]))
    for name, op in BINARY.items():
        if outcome(op, x, y) is ZeroDivisionError:
            continue
        u, ru = op(x, y), op(rx, ry)
        if isinstance(u, QuadNum):
            for uname, uop in UNARY.items():
                assert outcome(uop, u) == outcome(uop, ru), (name, uname)
            assert outcome(BINARY["eq"], u, x) == outcome(BINARY["eq"], ru, rx)
            assert u.decimal(25) == ru.decimal(25)
