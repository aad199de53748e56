"""Exact arithmetic in a real quadratic field Q(sqrt(N)).

A :class:`QuadNum` is the real number (x + y*sqrt(N))/z, stored as three
arbitrary-precision ints in lowest terms -- gcd(x, y, z) = 1 and z > 0 --
plus N, a fixed positive non-square integer.  This is the integral
representation of quadratic-field elements (Cohen, *A Course in
Computational Algebraic Number Theory*, ch. 5); it is unique, so equality is
equality of the four ints.  The rational coefficients p = x/z and q = y/z of
p + q*sqrt(N) are read-only :class:`fractions.Fraction` properties.

Two constructors:

* ``QuadNum(p, q, N)`` and :func:`qnum` take ints or Fractions, type-check
  them and check that N is a positive non-square int;
* ``_make(x, y, z, N)`` is for the results of arithmetic on values that are
  already valid: it normalises the sign of z and the common gcd and checks
  nothing, since N comes from an operand that passed the public checks.

Code that works on int triples uses four helpers: _ints reads a value's
(x, y, z); _pow raises a triple to a power, as an unreduced triple (the one
repeated-squaring loop, which ``**`` runs too); _div divides one triple by
another into a QuadNum (which ``/`` runs too); and _sign takes the exact sign
of x + y*sqrt(N) for ints x and y that need not be reduced.

All comparisons, floors and printed digits are derived from integer
arithmetic only; hardware floats never enter any decision.  The sign of
x + y*sqrt(N) with x, y of opposite signs compares x^2 with y^2 N.  The
floor takes one integer square root: for y != 0 let s = isqrt(y^2 N); since
sqrt(y^2 N) is irrational it lies strictly between s and s + 1, so the floor
of (x + y*sqrt(N))/z is (x + s)//z when y > 0 and (x - s - 1)//z when y < 0.

Every binary operator and comparison reads its operand through one method,
``QuadNum._parts``, which returns the operand's ints (x, y, z) and the field
N of the result.  That is the one statement of the field rule: values living
in different fields may only be mixed when one of them is rational (y == 0),
whose ints hold in any field, and the result then lives in the irrational
operand's field; two irrationals of different fields raise
:class:`ContextMismatchError`.  N is *not* required to be squarefree.
:meth:`QuadNum.reduced` pulls the square part out of N when a canonical
squarefree representative is wanted.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Union

__all__ = [
    "QuadNum",
    "FieldError",
    "InvalidFieldError",
    "ContextMismatchError",
    "qnum",
]

RationalLike = Union[int, Fraction]


class FieldError(ValueError):
    """Base class for quadratic-field usage errors."""


class InvalidFieldError(FieldError):
    """N is not a positive non-square integer."""


class ContextMismatchError(FieldError):
    """Mixing two genuinely irrational values from different fields."""


def _check_field(N: int) -> int:
    if not isinstance(N, int) or isinstance(N, bool):
        raise InvalidFieldError(f"field constant must be an int, got {N!r}")
    if N <= 0:
        raise InvalidFieldError(f"field constant must be positive, got {N}")
    r = isqrt(N)
    if r * r == N:
        raise InvalidFieldError(f"field constant must not be a perfect square, got {N}")
    return N


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _sign(x: int, y: int, N: int) -> int:
    """Exact sign of x + y*sqrt(N) for ints x, y and non-square N."""
    if y == 0:
        return (x > 0) - (x < 0)
    s = 1 if y > 0 else -1
    if (x > 0) == (y > 0):
        return s
    # opposite signs, or x == 0 < y: the larger square wins (never equal, N is
    # no square)
    return s if y * y * N > x * x else -s


def _floor(x: int, y: int, z: int, N: int) -> int:
    """floor((x + y*sqrt(N))/z) for ints x, y, z > 0 and non-square N."""
    if y == 0:
        return x // z
    s = isqrt(y * y * N)  # s < |y| sqrt(N) < s + 1
    return (x + s) // z if y > 0 else (x - s - 1) // z


_new = object.__new__


def _make(x: int, y: int, z: int, N: int) -> "QuadNum":
    """(x + y*sqrt(N))/z in lowest terms, for z != 0 and an already checked N."""
    if z < 0:
        x, y, z = -x, -y, -z
    g = gcd(x, y, z)
    if g != 1:
        x //= g
        y //= g
        z //= g
    new = _new(QuadNum)
    new._x = x
    new._y = y
    new._z = z
    new._N = N
    return new


def _ints(v) -> tuple[int, int, int]:
    """(x, y, z) with v = (x + y*sqrt(N))/z, for a QuadNum, int or Fraction v."""
    if type(v) is QuadNum:
        return v._x, v._y, v._z
    return v.numerator, 0, v.denominator


def _pow(x: int, y: int, z: int, k: int, N: int) -> tuple[int, int, int]:
    """((x + y*sqrt(N))/z)^k for k >= 0 by repeated squaring, as an
    unreduced triple."""
    ox, oy, oz = 1, 0, 1
    while k:
        if k & 1:
            ox, oy, oz = ox * x + oy * y * N, ox * y + oy * x, oz * z
        k >>= 1
        if k:
            x, y, z = x * x + y * y * N, 2 * x * y, z * z
    return ox, oy, oz


def _div(x1: int, y1: int, z1: int, x2: int, y2: int, z2: int, N: int) -> "QuadNum":
    """(x1 + y1*sqrt(N))/z1 divided by (x2 + y2*sqrt(N))/z2."""
    # multiply through by the conjugate x2 - y2*sqrt(N); N is no square, so
    # the norm is 0 only at 0
    n = x2 * x2 - y2 * y2 * N
    if n == 0:
        raise ZeroDivisionError("inverse of exact zero")
    return _make(z2 * (x1 * x2 - y1 * y2 * N), z2 * (y1 * x2 - x1 * y2), z1 * n, N)


class QuadNum:
    """Immutable exact element (x + y*sqrt(N))/z of Q(sqrt(N))."""

    __slots__ = ("_x", "_y", "_z", "_N")

    def __init__(self, p: RationalLike, q: RationalLike = 0, N: int = 2):
        p, q = _frac(p), _frac(q)
        N = _check_field(N)
        # z = lcm of the reduced denominators leaves gcd(x, y, z) = 1
        z = lcm(p.denominator, q.denominator)
        self._x = p.numerator * (z // p.denominator)
        self._y = q.numerator * (z // q.denominator)
        self._z = z
        self._N = N

    @property
    def p(self) -> Fraction:
        """Rational part x/z."""
        return Fraction(self._x, self._z)

    @property
    def q(self) -> Fraction:
        """Coefficient y/z of sqrt(N)."""
        return Fraction(self._y, self._z)

    @property
    def N(self) -> int:
        return self._N

    # ------------------------------------------------------------------
    # context handling
    # ------------------------------------------------------------------

    def _parts(self, other) -> tuple[int, int, int, int]:
        """(x, y, z, N): `other` as (x + y*sqrt(N))/z, and the field N of a
        result of this value and `other`, or raise.

        N is this value's field, unless this value is rational and `other`
        is an irrational of another field: a rational's ints hold in any
        field.  Two irrationals of different fields raise
        ContextMismatchError; an operand that is not a QuadNum, int or
        Fraction (bool and float included) raises TypeError.
        """
        N = self._N
        if type(other) is QuadNum:
            if other._N != N and other._y != 0:
                if self._y != 0:
                    raise ContextMismatchError(
                        f"cannot mix sqrt({N}) and sqrt({other._N}) values")
                N = other._N
            return other._x, other._y, other._z, N
        if type(other) is int:
            return other, 0, 1, N
        return *_ints(_frac(other)), N

    def is_rational(self) -> bool:
        return self._y == 0

    # ------------------------------------------------------------------
    # ring / field operations
    # ------------------------------------------------------------------

    # Each binary operator reads its operand once, through _parts, and
    # builds its result in the field _parts names with one _make or _div.
    # A rational self's ints hold in any field, so the same formula serves
    # every operand kind.  Every result goes through _make, so each is in
    # the unique lowest-terms form.

    def __add__(self, other) -> "QuadNum":
        x, y, z, N = self._parts(other)
        z1 = self._z
        return _make(self._x * z + x * z1, self._y * z + y * z1, z1 * z, N)

    __radd__ = __add__

    def __neg__(self) -> "QuadNum":
        return _make(-self._x, -self._y, self._z, self._N)

    def __sub__(self, other) -> "QuadNum":
        x, y, z, N = self._parts(other)
        z1 = self._z
        return _make(self._x * z - x * z1, self._y * z - y * z1, z1 * z, N)

    def __rsub__(self, other) -> "QuadNum":
        x, y, z, N = self._parts(other)
        z1 = self._z
        return _make(x * z1 - self._x * z, y * z1 - self._y * z, z1 * z, N)

    def __mul__(self, other) -> "QuadNum":
        x, y, z, N = self._parts(other)
        x1, y1 = self._x, self._y
        return _make(x1 * x + y1 * y * N, x1 * y + y1 * x, self._z * z, N)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        return _div(1, 0, 1, self._x, self._y, self._z, self._N)

    def __truediv__(self, other) -> "QuadNum":
        return _div(self._x, self._y, self._z, *self._parts(other))

    def __rtruediv__(self, other) -> "QuadNum":
        x, y, z, N = self._parts(other)
        return _div(x, y, z, self._x, self._y, self._z, N)

    def __pow__(self, k: int) -> "QuadNum":
        if not isinstance(k, int):
            raise TypeError("exponent must be an int")
        if k < 0:
            return self.inverse() ** (-k)
        return _make(*_pow(self._x, self._y, self._z, k, self._N), self._N)

    def conjugate(self) -> "QuadNum":
        return _make(self._x, -self._y, self._z, self._N)

    def norm(self) -> Fraction:
        """Field norm p^2 - q^2 N (zero iff the value is zero)."""
        x, y, z = self._x, self._y, self._z
        return Fraction(x * x - y * y * self._N, z * z)

    # ------------------------------------------------------------------
    # exact ordering
    # ------------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, by integer comparisons only."""
        return _sign(self._x, self._y, self._N)

    def _cmp(self, other) -> int:
        x, y, z, N = self._parts(other)
        z1 = self._z
        return _sign(self._x * z - x * z1, self._y * z - y * z1, N)

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return (self._y == 0 and self._x == other.numerator
                    and self._z == other.denominator)
        if not isinstance(other, QuadNum):
            return NotImplemented
        if self._y == 0 and other._y == 0:
            return self._x == other._x and self._z == other._z
        return (self._N == other._N and self._x == other._x
                and self._y == other._y and self._z == other._z)

    def __hash__(self):
        if self._y == 0:
            return hash(self.p)  # equal to the hash of the equal int or Fraction
        return hash((self._x, self._y, self._z, self._N))

    def __bool__(self) -> bool:
        return self._x != 0 or self._y != 0

    # ------------------------------------------------------------------
    # floor / ceil / decimal digits
    # ------------------------------------------------------------------

    def floor(self) -> int:
        return _floor(self._x, self._y, self._z, self._N)

    def ceil(self) -> int:
        return -_floor(-self._x, -self._y, self._z, self._N)

    __floor__ = floor
    __ceil__ = ceil

    def decimal(self, digits: int) -> str:
        """Decimal string, correctly rounded to `digits` places.

        The printed value v satisfies |self - v| <= 10^-digits (half an ulp
        plus a possible exact tie rounded up); digits are certified because
        rounding goes through the exact floor, never through floats.
        """
        if digits < 1:
            raise ValueError("digits must be >= 1")
        scale = 10**digits
        # floor(self * scale + 1/2), over the common denominator 2z
        v = _floor(2 * scale * self._x + self._z, 2 * scale * self._y,
                   2 * self._z, self._N)
        sign = "-" if v < 0 else ""
        whole, frac = divmod(abs(v), scale)
        return f"{sign}{whole}.{frac:0{digits}d}"

    def __float__(self) -> float:
        # a rational estimate within 2^-96 of the value, rounded once
        p, q = self.p, self.q
        if q == 0:
            return float(p)
        bits = abs(q.numerator).bit_length() + q.denominator.bit_length() + 96
        s = isqrt(self._N << (2 * bits))  # floor(sqrt(N) * 2^bits)
        return float(p + q * Fraction(s, 1 << bits))

    # ------------------------------------------------------------------
    # normalization / serialization
    # ------------------------------------------------------------------

    def reduced(self) -> "QuadNum":
        """Equal value with the square part of N absorbed into q.

        Uses trial division; intended for the modest N arising here, not as
        a general factorization service.
        """
        n = self._N
        s = 1
        d = 2
        while d * d <= n:
            while n % (d * d) == 0:
                n //= d * d
                s *= d
            d += 1
        if s == 1:
            return self
        return _make(self._x, self._y * s, self._z, n)

    def same_value(self, other: "QuadNum") -> bool:
        """Equality as real numbers, across field contexts."""
        return self.reduced() == other.reduced()

    def _json_fields(self, digits: int) -> tuple[str, str, str]:
        """The texts of p, q and approx, for to_json and _json_leaf."""
        x, y, z = self._x, self._y, self._z
        g, h = gcd(x, z), gcd(y, z)  # p = x/z and q = y/z in lowest terms
        return f"{x // g}/{z // g}", f"{y // h}/{z // h}", self.decimal(digits)

    def to_json(self, digits: int = 18) -> dict:
        """{"p", "q", "N", "approx"}: exact p and q as "num/den", approx to
        `digits` places.

        _json_leaf writes the same dict as JSON text; both take p, q and
        approx from _json_fields, so the two cannot drift apart.
        """
        p, q, approx = self._json_fields(digits)
        return {"p": p, "q": q, "N": self._N, "approx": approx}

    def _json_leaf(self, digits: int, pad: str) -> str:
        """to_json(digits) as json.dumps(..., sort_keys=True, indent=2)
        writes it at indent pad; none of its strings needs escaping."""
        p, q, approx = self._json_fields(digits)
        inner = pad + "  "
        return (f'{{\n{inner}"N": {self._N},\n{inner}"approx": "{approx}",\n'
                f'{inner}"p": "{p}",\n{inner}"q": "{q}"\n{pad}}}')

    @staticmethod
    def from_json(obj: dict) -> "QuadNum":
        return QuadNum(Fraction(obj["p"]), Fraction(obj["q"]), obj["N"])

    def __repr__(self) -> str:
        return f"QuadNum({self.p!r}, {self.q!r}, {self._N})"

    def __str__(self) -> str:
        p, q = self.p, self.q
        if q == 0:
            return str(p)
        lead = f"{p} {'+' if q > 0 else '-'} " if p else ""  # p +- |q|*sqrt(N)
        return f"{lead}{abs(q) if p else q}*sqrt({self._N})"


def qnum(p: RationalLike, q: RationalLike, N: int) -> QuadNum:
    """Construct p + q*sqrt(N); N must be a positive non-square integer."""
    return QuadNum(p, q, N)
