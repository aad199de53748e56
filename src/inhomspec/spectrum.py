"""Named value classes, their exact closed forms, and ordered catalogues.

Three regimes, split by the smaller quotient a:

* a >= 4 even (with b odd / b even subcases),
* a >= 3 odd, parametrized by m and r where b = m*a + r, 0 < r <= 2a, r even,
* a = 2, b >= 5 (b = 3, 4 are excluded).

Each class S_<name> is a family of targets gamma with a specific periodic
digit expansion; its value delta_<name> is the normalized minimum M* shared
by the whole class.

Every class is one entry of the class table, keyed by (regime, family).  The
entry holds the side condition on (a, b) and the parameter, the builder of
the periodic t-sequence, and the closed form.  A k-family's closed form is
written as a function of z = D^k: every k-dependent power in it is
D^(c*k + d) = D^d * z^c.  The entry computes the coefficients that do not
depend on k once per pair and returns the member function (k, z) -> value,
which evaluates only the part in z; a t-family does the same with t.
Because 0 < D < 1, z -> 0 as k -> infinity, so the family limit delta_inf is
the member function at z = 0 and is not written down separately.  A member
whose value the family formula does not give (even-even Sk4 at k = 0, and at
k = 1 for (a, b) = (6, 10)) is an explicit override inside the member
function.  A k-family's entry also records the direction in which its
members approach the limit and the first k the catalogue lists.

From the table this module answers, per class, the t-sequence, the value and
the limit, and derives the catalogue of every spectrum value above the first
limit point, ordered by exact comparison.  The first limit point is the
largest limit among the k-families that go on forever at the pair; the
families with that limit are listed, and every other applicable class or
member above it is an isolated value.  No regime or pair has a layout of its
own, except that at (3,6) one family reaching the limit is not listed (see
_NOT_LISTED).  delta_closed_form,
family_limit, spectrum_catalog and euclidean_test all reach a value through
the same member function; the catalogue builds it once per family and call
and steps z = D^k by one multiply per k.  No value ever touches floating
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import itertools
from typing import Callable, Iterator, Optional

from .quadfield import QuadNum
from .ncf import PeriodTwoAlpha
from .expansion import Block, TSequence, m_star, m_value, tseq_from_blocks

__all__ = [
    "ClassId",
    "SpectrumPoint",
    "SpectrumCatalog",
    "ApplicabilityError",
    "ExcludedCaseError",
    "BranchDisagreement",
    "OddParams",
    "odd_params",
    "regime",
    "class_tsequence",
    "delta_closed_form",
    "family_limit",
    "equivalence_cases",
    "verify_equivalence",
    "spectrum_catalog",
    "isolation_gap",
    "euclidean_test",
    "EuclidReport",
    "covered_pairs",
]


class ApplicabilityError(ValueError):
    """The class (or its closed form) is not defined at this (a, b, k, t)."""


class ExcludedCaseError(ValueError):
    """a = 2 with b = 3 or 4: outside the covered regimes."""


class BranchDisagreement(RuntimeError):
    """Two overlapping regime branches of a closed form gave different values."""


@dataclass(frozen=True)
class ClassId:
    """A class symbol plus its integer parameter, e.g. ('Sk1', k=3)."""

    family: str
    k: Optional[int] = None
    t: Optional[int] = None

    def __post_init__(self):
        if self.family not in _FAMILY_PARAM:
            raise ApplicabilityError(f"unknown class family {self.family!r}")
        want = _FAMILY_PARAM[self.family]
        # k may stay None for a k-family: that denotes the family limit
        if want == "t" and self.t is None:
            raise ApplicabilityError(f"family {self.family} needs t")
        for kind, value in (("k", self.k), ("t", self.t)):
            if value is not None and want != kind:
                raise ApplicabilityError(f"class {self.family} takes no {kind}")

    @property
    def label(self) -> str:
        return _class_label(self)

    @property
    def delta_label(self) -> str:
        return "delta" + _class_label(self)[1:]

    def __str__(self) -> str:
        return self.label


def _class_label(cls: ClassId) -> str:
    f, k = cls.family, cls.k
    if f == "Sk":
        return "S_inf" if k is None else f"S_{k}"
    if f.startswith("Sk"):
        return f"S_{{{'inf' if k is None else k},{f[2:]}}}"
    if f == "S0t":
        return f"S_{{0,{cls.t}}}"
    if f in ("S2k", "S2k+1"):
        if k is None:
            return "S_inf"
        return f"S_{2 * k}" if f == "S2k" else f"S_{2 * k + 1}"
    if f == "S0":
        return "S_0"
    return f"S_{{{f[1:]}}}"  # S-1 .. S-9


def regime(alpha: PeriodTwoAlpha) -> str:
    a, b = alpha.a, alpha.b
    if a == 2:
        if b in (3, 4):
            raise ExcludedCaseError("a = 2 with b = 3 or 4 is out of scope")
        return "two"
    if a % 2 == 1:
        return "odd"
    return "even-odd" if b % 2 == 1 else "even-even"


@dataclass(frozen=True)
class OddParams:
    """b = m*a + r with 0 < r <= 2a and r even; n = m + 2, s = m - 2."""

    m: int
    n: int
    s: int
    r: int

    @staticmethod
    def of(alpha: PeriodTwoAlpha) -> "OddParams":
        a, b = alpha.a, alpha.b
        m0, r0 = divmod(b, a)
        if r0 == 0:
            m, r = m0 - 2, 2 * a
        elif r0 % 2 == 0:
            m, r = m0, r0
        else:
            m, r = m0 - 1, r0 + a
        return OddParams(m=m, n=m + 2, s=m - 2, r=r)

    def v(self, alpha: PeriodTwoAlpha) -> QuadNum:
        return (self.m * alpha.beta - alpha.D) / (1 - alpha.D)


def odd_params(alpha: PeriodTwoAlpha) -> OddParams:
    if alpha.a % 2 == 0:
        raise ApplicabilityError("m, n, s, r are defined for odd a only")
    return OddParams.of(alpha)


# ----------------------------------------------------------------------
# the class table
# ----------------------------------------------------------------------


class _Pair:
    """What a table entry reads at one alpha besides eta, beta and D.

    For odd a, m, n, s, r and v are those of OddParams.
    """

    def __init__(self, alpha: PeriodTwoAlpha):
        self.alpha, self.a, self.b = alpha, alpha.a, alpha.b
        self.regime = regime(alpha)
        if self.regime == "odd":
            p = OddParams.of(alpha)
            self.m, self.n, self.s, self.r, self.v = p.m, p.n, p.s, p.r, p.v(alpha)

    def blocks(self, *specs) -> TSequence:
        """The periodic word of the (block name, t) specs, in order."""
        return tseq_from_blocks([Block(n, t) for n, t in specs], self.alpha)

    def word(self, *ts: int) -> TSequence:
        """The periodic word of the raw t-values."""
        return TSequence(ts).validate(self.alpha)


@dataclass(frozen=True)
class _Class:
    """One (regime, family) of the class table.

    param is None, "k" or "t".  applies(c, p) is the side condition on
    (a, b) and the parameter p; period(c, p) builds the periodic t-sequence.
    form(c, e, B, D) is the closed form at one pair, in e = eta, B = beta and
    D.  For a plain class it is the value.  For a k- or t-family it computes
    the coefficients that do not depend on the parameter once and returns
    the member function member(p, z): the value at parameter p, with
    z = D^p for a k-family (None for a t-class).  The family limit is
    member(None, 0).  A k-family's members approach the limit in
    `direction`, and the catalogue lists them from k = k0.

    A k-family goes on forever at a pair when applies(c, _LARGE_K) holds.
    One large k decides it: for k >= 2 every side condition in the table is
    a condition on the pair alone, written as `k >= k1 and <condition on the
    pair>` or as that condition itself.  An entry must keep to this form.
    """

    param: Optional[str]
    applies: Callable[[_Pair, Optional[int]], bool]
    period: Callable[[_Pair, Optional[int]], TSequence]
    form: Callable[..., object]
    direction: Optional[str]
    k0: Optional[int]


# (regime, family) -> entry.  Within a regime, declaration order is the order
# in which equivalence_cases yields plain classes, k-families and t-classes.
_CLASSES: dict[tuple[str, str], _Class] = {}


def _entry(reg: str, family: str, applies, period, listed=None):
    """Register the decorated closed form as the (regime, family) entry.

    listed = (direction, k0) marks a k-family.
    """

    def register(form):
        param = "k" if listed else "t" if family == "S0t" else None
        direction, k0 = listed or (None, None)
        _CLASSES[reg, family] = _Class(param, applies, period, form, direction, k0)
        return form

    return register


def _always(c: _Pair, p: Optional[int]) -> bool:
    return True


# ---- a >= 4 even, b odd


@_entry("even-odd", "S-1", _always,
        lambda c, k: c.blocks(("A", 1), ("A", 1), ("A'", 1), ("A'", 1)))
def _(c, e, B, D):
    return (1 - B - B * (1 - D) / (1 + D**2)) * (1 - e - D * (1 - D) / (1 + D**2))


@_entry("even-odd", "S-2", _always, lambda c, k: c.blocks(("C", 3)))
def _(c, e, B, D):
    a, b = c.a, c.b
    hi = b >= max(2 * a - 5, Fraction(3 * a, 2))
    lo = b <= min(a + 5, Fraction(3 * a, 2))
    u = (3 * B - 2 * D) / (1 - D)
    w = (2 * e - 3 * D) / (1 - D)
    if not (hi or lo):
        return (1 + B - u) * (1 + e - w)
    val = (1 - B + u) * (1 - e - w) if hi else (1 - B - u) * (1 - e + w)
    # only the overlap evaluates both branches, to check that they agree
    if hi and lo and val != (1 - B - u) * (1 - e + w):
        raise BranchDisagreement(f"delta_-2 branches disagree at (a,b)=({a},{b})")
    return val


@_entry("even-odd", "Sk", _always,
        lambda c, k: c.blocks(
            ("A'", 1), ("A", 1), *(("A'", 1), ("A'", 1), ("A", 1), ("A", 1)) * k
        ),
        listed=("decreasing", 0))
def _(c, e, B, D):
    D2 = D**2
    g = 2 * D * (1 - D) / (1 + D2)
    x = 1 - B - B * (1 - D) * (1 + 2 * D2) / (1 + D2)
    y = 1 - e - D * (1 - D) / (1 + D2)
    BD3 = B * D**3

    def member(k, z):
        z4 = z**4
        w = g * z4 / (1 - D2 * z4)
        return (x - BD3 * w) * (y + w)

    return member


# ---- a >= 4 even, b even


@_entry("even-even", "S-1", _always, lambda c, k: c.blocks(("C", 2)))
def _(c, e, B, D):
    return (1 - 3 * e + 2 * D * (1 - e) / (1 - D)) * (
        1 - B + 2 * B * (1 - e) / (1 - D)
    )


@_entry("even-even", "S-2", lambda c, k: (c.a, c.b) == (4, 6),
        lambda c, k: c.blocks(("A", 2), ("C", 2)))
def _(c, e, B, D):
    return (1 - e - 2 * D / (1 - D) + 2 * e * D / (1 - D**2)) * (
        1 - 3 * B - 2 * B * D / (1 - D) + 2 * D / (1 - D**2)
    )


@_entry("even-even", "Sk1",
        lambda c, k: k == 0 or c.b >= 2 * c.a or (c.a, c.b) == (4, 6),
        lambda c, k: c.blocks(("A", 0), *(("A", 2), ("A'", 2)) * k),
        listed=("decreasing", 0))
def _(c, e, B, D):
    u = 2 * D**2 / (1 + D)
    v = 2 * B / (1 + D)
    x, y = 1 - e + u, 1 - B - v

    def member(k, z):
        z2 = z**2
        w = z2 * (1 - D) / (1 - D * z2)
        return (x - u * w) * (y + v * w)

    return member


@_entry("even-even", "Sk2", lambda c, k: k >= 1 and c.b == 2 * c.a - 2 and c.a >= 8,
        lambda c, k: c.blocks(
            ("A", 2), *[("C", 4)] * k, ("C", 2), ("A'", 2), *[("C'", 4)] * k, ("C'", 2)
        ),
        listed=("increasing", 1))
def _(c, e, B, D):
    D2, BD = D**2, B * D
    g = 2 * D * (1 + D) * (1 - e + D) / (1 - D)
    x = 1 - 3 * e + 2 * D * (2 - e) / (1 - D)
    y = 1 + B - 2 * BD * (1 - e + D) / (1 - D)

    def member(k, z):
        w = g * z / (1 + D2 * z)
        return (x - w) * (y + BD * w)

    return member


@_entry("even-even", "Sk3", lambda c, k: k >= 1 and c.b == 2 * c.a - 4 and c.a >= 10,
        lambda c, k: c.blocks(("C", 4), *(("C", 2), ("C", 4)) * k),
        listed=("decreasing", 1))
def _(c, e, B, D):
    BD = B * D
    g = 2 * D / (1 + D)
    x = 1 - e - 2 * e * D / (1 - D) + 2 * D * (1 + 2 * D) / (1 - D**2)
    y = 1 - 3 * B + 2 * D / (1 - D) - 2 * BD * (2 + D) / (1 - D**2)

    def member(k, z):
        z2 = z**2
        w = g * z2 / (1 - D * z2)
        return (x + w) * (y - BD * w)

    return member


@_entry("even-even", "Sk4",
        lambda c, k: (
            k == 0
            or (k == 1 and (c.a, c.b) == (6, 10))
            or c.a + 6 <= c.b <= 2 * c.a - (4 if k == 1 else 6)
        ),
        lambda c, k: c.blocks(("C", 4), *[("C", 2)] * k),
        listed=("decreasing", 0))
def _(c, e, B, D):
    a, b = c.a, c.b
    g = 2 * D
    x = 1 - e + g * (1 - e) / (1 - D)
    y = 1 - 3 * B + g * (1 - B) / (1 - D)

    def member(k, z):
        # k = 0 has its own closed form, which differs from the family formula
        if k == 0:
            u = g * (1 - 2 * B) / (1 - D)
            v = g * (2 - e) / (1 - D)
            if b >= max(3 * a - 6, 2 * a):
                return (1 + 3 * B - u) * (1 - 3 * e + v)
            if b <= min(a + 6, 2 * a - 2):
                return (1 - 5 * B + u) * (1 + e - v)
            return (1 - 3 * B + u) * (1 - e + v)
        if (a, b) == (6, 10) and k == 1:
            # explicit surd for the one case outside the family formula's range
            return QuadNum(Fraction(703, 40), Fraction(-703, 2400), c.alpha.N)
        w = g * z / (1 - D * z)
        return (x + w) * (y - B * w)

    return member


@_entry("even-even", "Sk5",
        lambda c, k: (
            k == 0
            or c.b <= 2 * c.a - 6
            or (c.a, c.b) == (6, 8)
            or (k == 1 and c.b == 2 * c.a - 4)
        ),
        lambda c, k: c.blocks(("A", 2), *[("C", 2)] * k, ("A'", 2), *[("C'", 2)] * k),
        listed=("increasing", 0))
def _(c, e, B, D):
    g = 2 * D * (1 - 2 * B + D) / (1 - D)
    x = 1 - e + 2 * D * (1 - e) / (1 - D)
    y = 1 - 3 * B + 2 * D * (1 - B) / (1 - D)

    def member(k, z):
        w = g * z / (1 + D * z)
        return (x + e * w) * (y - w)

    return member


@_entry("even-even", "Sk6", lambda c, k: (c.a, c.b) == (8, 12),
        lambda c, k: c.blocks(
            *(("A'", 2), ("C'", 2), ("A", 2), ("C", 2)) * k,
            ("A'", 2), ("C'", 2), ("C'", 2), ("A", 2), ("C", 2), ("C", 2),
        ),
        listed=("decreasing", 0))
def _(c, e, B, D):
    D2, D6 = D**2, D**6
    g = 2 * D**4 * (1 - 2 * B + D) * (1 - D**3) / (1 + D2)
    x = (1 - 3 * e + 2 * D - 2 * D2 + 2 * e * D2
         - 2 * D**3 * (1 - e + D) / (1 + D2))
    y = 1 + B - 2 * D * (1 - B + B * D) / (1 + D2)
    eD2 = e * D2

    def member(k, z):
        z4 = z**4
        w = g * z4 / (1 - D6 * z4)
        return (x - eD2 * w) * (y + w)

    return member


@_entry("even-even", "Sk7", lambda c, k: (c.a, c.b) == (6, 10) and k >= 1,
        lambda c, k: c.blocks(*(("C", 4), ("C", 2)) * k, ("A'", 2), ("A", 2)),
        listed=("increasing", 1))
def _(c, e, B, D):
    # coupling coefficient is eta*D^3, not 2*eta*D^3: derived exactly
    # from the tail sums of the period, which the printed form misstates
    D2, D3 = D**2, D**3
    g = 2 * (1 - 3 * B + D)
    x = (1 + e - 2 * D + 2 * D2 + 2 * e * D3 / (1 - D)
         - 2 * D3 * (1 + 2 * D) / (1 - D2))
    y = 1 - 5 * B + 2 * D / (1 - D) - 2 * B * D * (1 + 2 * D) / (1 - D2)
    eD3 = e * D3

    def member(k, z):
        z2 = z**2
        w = g * z2 / (1 - D2 * z2)
        return (x - eD3 * w) * (y - w)

    return member


# ---- a >= 3 odd


@_entry("odd", "S-1", _always, lambda c, k: c.blocks(("B", c.m), ("B", c.n)))
def _(c, e, B, D):
    a, b, r, v = c.a, c.b, c.r, c.v
    vals = []
    if r <= a + 1:
        vals.append((1 - e * v - 2 * D**2 / (1 - D**2))
                    * (1 - 3 * B - v - 2 * B * D**2 / (1 - D**2)))
    if r >= a + 1:
        vals.append((1 - 2 * e + e * v + 2 * D / (1 - D**2))
                    * (1 - B + v + 2 * B * D / (1 - D**2)))
    # only r = a + 1 evaluates both branches, to check that they agree
    if vals[0] != vals[-1]:
        raise BranchDisagreement(f"delta_-1 branches disagree at (a,b)=({a},{b})")
    return vals[0]


@_entry("odd", "S-2", _always, lambda c, k: c.blocks(("B", c.n)))
def _(c, e, B, D):
    return (1 - e * c.v - 2 * D / (1 - D)) * (1 - 3 * B - c.v - 2 * B * D / (1 - D))


@_entry("odd", "S-3", _always, lambda c, k: c.blocks(("B", c.n), ("B", c.s)))
def _(c, e, B, D):
    return (1 - 2 * e + e * c.v + 2 * e / c.b) * (1 - 3 * B + c.v + 2 * D / c.b)


@_entry("odd", "S-4", _always,
        lambda c, k: c.blocks(("B", c.s), ("B'", c.s)) if c.m == 1
        else c.blocks(("B", c.m), ("B'", c.m)))
def _(c, e, B, D):
    return (1 - 2 * e + e * (c.m + e) / c.b) * (1 - B - (c.m - e) / c.b)


@_entry("odd", "S-5", lambda c, k: c.m == 1 and c.a >= 5,
        lambda c, k: c.blocks(("E", 3)))
def _(c, e, B, D):
    x = 3 * D * (1 - e) / (1 - D)
    y = 3 * D * (1 - B) / (1 - D)
    if c.r >= c.a - 7:
        return (1 - 4 * e + x) * (1 + 2 * B - y)
    return (1 - 2 * e + x) * (1 - 2 * B + y)


@_entry("odd", "S-6", lambda c, k: c.b % 2 == 0, lambda c, k: c.blocks(("F", 2)))
def _(c, e, B, D):
    return e


@_entry("odd", "S-7", lambda c, k: c.b % 2 == 1, lambda c, k: c.blocks(("F", 1)))
def _(c, e, B, D):
    return e * (1 - (B / (1 - D)) ** 2)


@_entry("odd", "S-8", lambda c, k: (c.a, c.b) == (3, 4),
        lambda c, k: c.blocks(("F", 0), ("B", 0)))
def _(c, e, B, D):
    return e * (1 - (B * (1 - e + D) / (1 - D**2)) ** 2)


@_entry("odd", "S-9", lambda c, k: (c.a, c.b) == (3, 5),
        lambda c, k: c.blocks(("H", None), ("G", None), ("H'", None), ("G", None)))
def _(c, e, B, D):
    return e * (1 - ((2 * B - D + D**3 - 2 * B * D**3) / (1 + D**4)) ** 2)


@_entry("odd", "S0", _always, lambda c, k: c.blocks(("B", c.m)))
def _(c, e, B, D):
    return (1 - 2 * e + e * c.v) * (1 - B + c.v)


@_entry("odd", "Sk1", lambda c, k: c.r >= c.a + 3,
        lambda c, k: c.blocks(*[("B", c.n)] * k, ("B", c.m)),
        listed=("increasing", 1))
def _(c, e, B, D):
    g = 2 * D
    x = 1 - 2 * e + e * c.v + g / (1 - D)
    y = 1 - B + c.v + B * g / (1 - D)

    def member(k, z):
        tail = g * z / (1 - D * z)
        return (x - tail) * (y - B * tail)

    return member


@_entry("odd", "Sk2", lambda c, k: k >= 1 and c.m == 0 and c.r >= c.a + 3,
        lambda c, k: c.blocks(
            *[("B", c.n)] * k, ("B", c.m), *[("B'", c.n)] * k, ("B'", c.m)
        ),
        listed=("increasing", 1))
def _(c, e, B, D):
    g = 2 * (B * (1 + D) - D) / (1 - D)
    x = 1 - 2 * e + D * (2 - e) / (1 - D)
    y = 1 - B + D * (1 - 2 * B) / (1 - D)

    def member(k, z):
        eps = g * z / (1 + D * z)
        return (x - e * eps) * (y + D * eps)

    return member


@_entry("odd", "Sk3", lambda c, k: c.r <= c.a + 1 and c.b >= 6,
        lambda c, k: c.blocks(*(("B", c.m), ("B", c.n)) * k, ("B", c.n)),
        listed=("increasing", 1))
def _(c, e, B, D):
    g = 2 * B * D / (1 + D)
    x = 1 - e * c.v - 2 * D / (1 - D**2)
    y = 1 - 3 * B - c.v - 2 * B * D**2 / (1 - D**2)

    def member(k, z):
        z2 = z**2
        eps = g * z2 / (1 - D * z2)
        return (x - e * eps) * (y - eps)

    return member


@_entry("odd", "Sk4", lambda c, k: k >= 1 and c.b == c.a + 1 and c.b >= 6,
        lambda c, k: c.blocks(
            *(("B", c.n), ("B", c.m)) * k, *(("B'", c.n), ("B'", c.m)) * k
        ),
        listed=("increasing", 1))
def _(c, e, B, D):
    eD = e * D
    g = 2 * (1 - Fraction(2, c.b)) / (1 - D)
    x = 1 - eD / (1 - D) + 2 * D**2 / (1 - D**2)
    y = 1 - 3 * B + D / (1 - D) - 2 * B * D**2 / (1 - D**2)

    def member(k, z):
        z2 = z**2
        eps = g * z2 / (1 + z2)
        return (x + eD * eps) * (y - eps)

    return member


@_entry("odd", "Sk5", lambda c, k: c.r <= c.a - 1,
        lambda c, k: c.blocks(*[("B", c.m)] * k, ("B", c.n)),
        listed=("increasing", 1))
def _(c, e, B, D):
    g = 2 * D
    x, y = 1 - e * c.v, 1 - 3 * B - c.v

    def member(k, z):
        tail = g * z / (1 - D * z)
        return (x - tail) * (y - B * tail)

    return member


@_entry("odd", "Sk6", lambda c, k: c.r == 2 and c.b >= 7,
        lambda c, k: c.blocks(
            *(("B", c.n), ("B", c.s)) * k, ("B", c.n), *[("B", c.m)] * k
        ),
        listed=("increasing", 1))
def _(c, e, B, D):
    g = 2 * D / (1 + D)
    h = B * g
    x = 1 - e * c.v
    y = 1 - 3 * B - c.v + 2 * D / c.b

    def member(k, z):
        z2 = z**2
        den = 1 - D * z2 * z
        return (x - g * z * (1 + D * z2) / den) * (y - h * z2 * (1 + z) / den)

    return member


@_entry("odd", "Sk7", lambda c, k: k >= 1 and c.b == 2 * c.a + 2,
        lambda c, k: c.blocks(
            *(("B", c.n), ("B", c.s)) * k, *(("B'", c.n), ("B'", c.s)) * k
        ),
        listed=("increasing", 1))
def _(c, e, B, D):
    eD = e * D
    g = 2 * (1 - Fraction(4, c.b)) / (1 - D)
    x = 1 - eD / (1 - D) + 4 * D**2 / (1 - D**2)
    y = 1 - B + D / (1 - D) - 4 * B / (1 - D**2)

    def member(k, z):
        z2 = z**2
        eps = g * z2 / (1 + z2)
        return (x + eD * eps) * (y - eps)

    return member


@_entry("odd", "Sk8", lambda c, k: k >= 1 and c.b == c.a + 2 and c.b >= 7,
        lambda c, k: c.blocks(*(("B", c.n), ("B", c.s)) * k, ("B'", c.m)),
        listed=("increasing", 1))
def _(c, e, B, D):
    eD2 = e * D**2
    g = 2 * (1 - Fraction(2, c.b))
    x = (1 + D * (1 + D - 4 * D**2) / (1 - D**2)
         - e * D * (1 - 2 * D) / (1 - D))
    y = 1 - 4 * B + D / (1 - D) + B * D * (1 - 3 * D) / (1 - D**2)

    def member(k, z):
        z2 = z**2
        eps = g * z2 / (1 - D * z2)
        return (x - eD2 * eps) * (y - eps)

    return member


@_entry("odd", "Sk9", lambda c, k: c.b == c.a + 2 and c.b >= 11,
        lambda c, k: c.blocks(*[("B", c.m)] * k, ("B'", c.n), ("E'", 3), ("B'", c.s)),
        listed=("increasing", 0))
def _(c, e, B, D):
    D3, eD2 = D**3, e * D**2
    g = 2 * D * (1 - 2 * B + 2 * D - 2 * B * D + D**2)
    x = (1 - 2 * e + 3 * D - 3 * e * D + 3 * D**2 - eD2
         - eD2 * (B - D) / (1 - D))
    y = 1 - 2 * B + D * (1 - B) / (1 - D)

    def member(k, z):
        eps = g * z / (1 - D3 * z)
        return (x - eD2 * eps) * (y - eps)

    return member


@_entry("odd", "Sk10", lambda c, k: (c.a, c.b) == (3, 4) and k >= 1,
        lambda c, k: c.blocks(("F", 2), *(("F", 2), ("B'", 2)) * k),
        listed=("decreasing", 1))
def _(c, e, B, D):
    g = B * (1 - e + D) / (1 + D)
    u = g / (1 - D)
    x, y = 1 - u, 1 + D * u

    def member(k, z):
        z2 = z**2
        eps = g * z2 / (1 - D * z2)
        return e * (x + eps) * (y - D * eps)

    return member


@_entry("odd", "Sk11", lambda c, k: (c.a, c.b) == (3, 5),
        lambda c, k: c.blocks(
            *(("H'", None), ("G", None), ("H", None), ("G", None)) * k,
            ("H", None), ("G", None),
        ),
        listed=("decreasing", 0))
def _(c, e, B, D):
    D4 = D**4
    h = D**3 * (1 - 2 * B - 2 * B * D + D**2) / (1 + D4)
    hD4 = h * D4
    x, y = 1 - 2 * B + D - h, 1 + 2 * B - D - h

    def member(k, z):
        z8 = z**8
        eps = 2 * z8 / (1 - D4 * z8)
        return e * (x + h * eps) * (y - hD4 * eps)

    return member


@_entry("odd", "Sk12", lambda c, k: (c.a, c.b) == (3, 6),
        lambda c, k: c.blocks(("F", 2), *[("B'", 2)] * (k + 1)),
        listed=("decreasing", 0))
def _(c, e, B, D):
    D2 = D**2
    g = B * (1 - e + D) / (1 - D)

    def member(k, z):
        x = g * (1 - D * z) / (1 - D2 * z)
        return e * (1 - x * x)

    return member


# ---- a = 2: the words and values depend on the parity of b


@_entry("two", "S-1", _always,
        lambda c, k: c.word(0, 0) if c.b % 2 == 0
        else c.word(c.a, -1, c.a, -3, c.a, -1, c.a, -1))
def _(c, e, B, D):
    if c.b % 2 == 0:
        return e * (1 - B) ** 2
    return e * (
        (1 - B + B * (1 - D) * D**3 / (1 - D**4)) ** 2
        - (B * (1 + D) * D / (1 - D**4)) ** 2
    )


@_entry("two", "S-2", lambda c, k: c.b % 2 == 1,
        lambda c, k: c.word(c.a, -3, c.a, -1))
def _(c, e, B, D):
    return e * (1 - B + B * D / (1 + D)) ** 2


@_entry("two", "S2k", lambda c, k: k >= 1,
        lambda c, k: c.word(c.a, -4, *(c.a, -2) * k) if c.b % 2 == 0
        else c.word(c.a, -1, *(c.a, -3, c.a, -1) * k),
        listed=("decreasing", 1))
def _(c, e, B, D):
    if c.b % 2 == 0:
        B2 = 2 * B
        B2D, x = B2 * D, 1 - B2

        def member(k, z):
            w = z / (1 - D * z)
            return e * (x - B2D * w) * (1 + B2 * w)

        return member
    g = 2 * B / (1 + D)
    gD2 = g * D**2
    half = B**2 / 2
    x, y = 1 - B - half, 1 - B + half

    def member(k, z):
        z2 = z**2
        w = z2 / (1 - D * z2)
        return e * (x - gD2 * w) * (y + g * w)

    return member


@_entry("two", "S2k+1", _always,
        lambda c, k: c.word(c.a, -2, 0, 0, *(c.a, -2) * k) if c.b % 2 == 0
        else c.word(c.a, -1, 0, -1, *(c.a, -3, c.a, -1) * k),
        listed=("decreasing", 0))
def _(c, e, B, D):
    D2, x = D**2, (1 - B) ** 2
    if c.b % 2 == 0:
        g = B**2

        def member(k, z):
            q = (1 - D * z) / (1 - D2 * z)
            return e * (x - g * q * q)

        return member
    g = B**4 / 4

    def member(k, z):
        z2 = z**2
        q = (1 - z2) / (1 - D2 * z2)
        return e * (x - g * q * q)

    return member


@_entry("two", "S0t", lambda c, t: 2 <= t <= c.b - 2 and (t - c.b) % 2 == 0,
        lambda c, t: c.word(c.a, -t))
def _(c, e, B, D):
    g = B / (1 - D)
    y = 2 - 2 * B

    def member(t, z):
        w = (t - 2) * g
        # t <= b - sqrt(2b-4)  <=>  (b-t)^2 >= 2b-4  (both sides positive)
        if (c.b - t) ** 2 >= 2 * c.b - 4:
            return e * (1 - w) * (1 + w)
        return e * ((y - w) ** 2 - 1)

    return member


# family -> parameter kind (None, "k" or "t")
_FAMILY_PARAM: dict[str, Optional[str]] = {
    family: entry.param for (_, family), entry in _CLASSES.items()
}


# ----------------------------------------------------------------------
# applicability and dispatch
# ----------------------------------------------------------------------


def _param(cls: ClassId) -> Optional[int]:
    return cls.t if cls.family == "S0t" else cls.k


def _applies(cls: ClassId, c: _Pair) -> bool:
    entry = _CLASSES.get((c.regime, cls.family))
    if entry is None or (entry.param == "k" and cls.k < 0):
        return False
    return entry.applies(c, _param(cls))


def _require(cls: ClassId, c: _Pair) -> _Class:
    """The table entry of a class applicable at the pair; raises otherwise."""
    if _FAMILY_PARAM[cls.family] == "k" and cls.k is None:
        raise ApplicabilityError(
            f"{cls} designates a family limit; use family_limit()"
        )
    if not _applies(cls, c):
        raise ApplicabilityError(
            f"class {cls} is not applicable at (a,b)=({c.a},{c.b})"
        )
    return _CLASSES[c.regime, cls.family]


def _member(c: _Pair, family: str) -> Callable[[Optional[int], object], QuadNum]:
    """The member function (p, z) -> value of the family's entry at the pair.

    The entry's parameter-free coefficients are computed here, once; a plain
    class's member returns its value whatever p and z are.
    """
    al, entry = c.alpha, _CLASSES[c.regime, family]
    form = entry.form(c, al.eta, al.beta, al.D)
    return form if entry.param else lambda p, z: form


def _value(member, cls: ClassId, D: QuadNum) -> QuadNum:
    """The member's value at the class's parameter, with z = D^k for a k-family."""
    return member(_param(cls), None if cls.k is None else D**cls.k)


def class_tsequence(cls: ClassId, alpha: PeriodTwoAlpha) -> TSequence:
    """The periodic t-sequence of the class; raises if not applicable."""
    c = _Pair(alpha)
    return _require(cls, c).period(c, _param(cls))


def delta_closed_form(cls: ClassId, alpha: PeriodTwoAlpha) -> QuadNum:
    """Exact value of the class, from its closed form."""
    c = _Pair(alpha)
    _require(cls, c)
    return _value(_member(c, cls.family), cls, alpha.D)


def family_limit(family: str, alpha: PeriodTwoAlpha) -> QuadNum:
    """delta_inf of the family: its member function at z = D^k = 0.

    0 < D < 1, so z = 0 is the k -> infinity limit.
    """
    c = _Pair(alpha)
    entry = _CLASSES.get((c.regime, family))
    if entry is None or entry.param != "k":
        raise ApplicabilityError(f"{family} is not a family in regime {c.regime}")
    return _member(c, family)(None, 0)


# ----------------------------------------------------------------------
# the catalogue
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumPoint:
    cls: ClassId
    m_star: QuadNum
    m: QuadNum
    kind: str  # isolated | family_member | limit_point
    direction: str  # increasing | decreasing | none

    @property
    def label(self) -> str:
        return self.cls.delta_label


@dataclass(frozen=True)
class FamilyInfo:
    family: str
    direction: str
    limit: QuadNum
    k_listed: tuple[int, ...]


@dataclass(frozen=True)
class SpectrumCatalog:
    alpha: PeriodTwoAlpha
    kmax: int
    points: tuple[SpectrumPoint, ...]
    first_limit_point: QuadNum
    families: tuple[FamilyInfo, ...]
    odd_parameters: Optional[OddParams]

    @property
    def rho_star(self) -> SpectrumPoint:
        return self.points[0]

    def to_json_dict(self, digits: int = 18) -> dict:
        points = [
            {
                "label": p.label,
                "k": _param(p.cls),
                "m_star": p.m_star.to_json(digits),
                "m": p.m.to_json(digits),
                "kind": p.kind,
                "direction": p.direction,
            }
            for p in self.points
        ]
        # rho* and the limit point are catalogue points: reuse their rendering
        limit = self.first_limit_point
        limit_json = next(
            (d["m_star"] for p, d in zip(self.points, points) if p.m_star == limit),
            None,
        )
        if limit_json is None:
            limit_json = limit.to_json(digits)
        return {
            "a": self.alpha.a,
            "b": self.alpha.b,
            "N": self.alpha.N,
            "rho_star": points[0]["m_star"],
            "first_limit_point": limit_json,
            "points": points,
            "kmax": self.kmax,
        }

    def to_csv_rows(self, digits: int = 15) -> list[list[str]]:
        rows = [["label", "k", "kind", "direction", "m_star", "m"]]
        for p in self.points:
            param = _param(p.cls)
            rows.append(
                [
                    p.label,
                    "" if param is None else str(param),
                    p.kind,
                    p.direction,
                    p.m_star.decimal(digits),
                    p.m.decimal(digits),
                ]
            )
        return rows


def _build_points(alpha, entries):
    """entries: list of (ClassId, value, kind, direction).  Returns the points
    in decreasing order of value."""
    inv = alpha.norm_factor.inverse()  # M = M* / norm_factor, one division
    pts = [
        SpectrumPoint(cls, ms, ms * inv, kind, direction)
        for cls, ms, kind, direction in entries
    ]
    pts.sort(key=lambda p: p.m_star, reverse=True)
    # distinct classes can share a value (observed once, at (2,10) where the
    # first-branch delta_{0,6} collapses onto delta_{-1}); keep one point
    out = [pts[0]]
    for y in pts[1:]:
        if y.m_star == out[-1].m_star:
            continue
        if not out[-1].m_star > y.m_star:
            raise RuntimeError(
                f"catalogue values not strictly decreasing: {out[-1].label}, {y.label}"
            )
        out.append(y)
    return tuple(out)


# a k beyond every k1 of the table: see _Class for why one k is enough
_LARGE_K = 10**6

# At (3,6) odd Sk2 tends to Sk12's limit from below.  The limit point there is
# the paper's limit from above, reached by Sk12 alone, so Sk2 is not listed.
_NOT_LISTED = ("odd", "Sk2", 3, 6)


def spectrum_catalog(alpha: PeriodTwoAlpha, kmax: int = 8) -> SpectrumCatalog:
    """All spectrum values above the first limit point, exactly ordered.

    The layout follows from the class table.  The first limit point L is the
    largest limit among the k-families that go on forever at the pair.  The
    families whose limit is L are listed in table order, with their members
    for k0 <= k <= kmax (truncation recorded via kmax): a decreasing family's
    members sit above L, an increasing family's below it.  L itself is the
    final value, of kind 'limit_point', labelled by the last listed family.
    Every other value above L is isolated: applicable plain classes and
    t-classes, and members of the other k-families, each walked from k0
    while it applies.  A decreasing family that goes on forever stops at its
    first member not above L; an increasing one lies below its own limit,
    which is at most L, and is not evaluated.  Isolated values do not depend
    on kmax.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    c = _Pair(alpha)
    D = alpha.D
    table = [(f, e) for (reg, f), e in _CLASSES.items() if reg == c.regime]
    forever = {f: _member(c, f) for f, e in table
               if e.param == "k" and e.applies(c, _LARGE_K)}
    limits = {f: member(None, 0) for f, member in forever.items()}
    limit = max(limits.values())
    fams = [f for f in forever
            if limits[f] == limit and (c.regime, f, c.a, c.b) != _NOT_LISTED]

    entries = []
    for f, entry in table:
        if entry.param == "k":
            if f in fams or (f in forever and entry.direction == "increasing"):
                continue
            params = itertools.takewhile(
                lambda k: entry.applies(c, k), itertools.count(entry.k0))
        else:
            each = [None] if entry.param is None else range(2, c.b - 1)
            params = (p for p in each if entry.applies(c, p))
        member = forever.get(f)
        for p in params:
            member = member or _member(c, f)  # built at the first applicable p
            cls = ClassId(f, **{entry.param: p}) if entry.param else ClassId(f)
            value = _value(member, cls, D)
            if value > limit:
                entries.append((cls, value, "isolated", "none"))
            elif f in forever:
                break
    fam_infos = []
    for fam in fams:
        spec, f = _CLASSES[c.regime, fam], forever[fam]
        ks = tuple(range(spec.k0, kmax + 1))
        fam_infos.append(FamilyInfo(fam, spec.direction, limit, ks))
        z = D**spec.k0
        for k in ks:
            if not spec.applies(c, k):
                raise RuntimeError(
                    f"listed family {fam} does not apply at k={k}, "
                    f"(a,b)=({c.a},{c.b})"
                )
            entries.append((ClassId(fam, k=k), f(k, z), "family_member", spec.direction))
            z *= D
    entries.append((ClassId(fams[-1]), limit, "limit_point", "none"))
    return SpectrumCatalog(
        alpha=alpha,
        kmax=kmax,
        points=_build_points(alpha, entries),
        first_limit_point=limit,
        families=tuple(fam_infos),
        odd_parameters=OddParams.of(alpha) if c.regime == "odd" else None,
    )


def isolation_gap(catalog: SpectrumCatalog) -> QuadNum:
    """Exact positive gap between the largest and second largest value."""
    if len(catalog.points) < 2:
        raise ValueError("catalogue has fewer than two points")
    gap = catalog.points[0].m_star - catalog.points[1].m_star
    if gap.sign() <= 0:
        raise RuntimeError("top of the catalogue is not isolated")
    return gap


# ----------------------------------------------------------------------
# equivalence suite and grid helpers
# ----------------------------------------------------------------------


def equivalence_cases(alpha: PeriodTwoAlpha, kmax: int = 4) -> Iterator[ClassId]:
    """Every class whose closed form is realized by its own sequence here.

    This is the applicability set for the evaluator-vs-closed-form check.
    The one carve-out is the (8,12) family 6 with k >= 1, whose printed
    period and printed value are provably inconsistent (the period's exact
    minimum falls below the printed limit value); only k = 0, where both
    sides agree, is checked.

    Plain classes come first, then k-families for k = 0..kmax, then the
    t-classes, each in class-table order.  A negative kmax raises ValueError.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    c = _Pair(alpha)
    params = {None: [None], "k": range(kmax + 1), "t": range(2, alpha.b - 1)}
    table = [(f, e) for (reg, f), e in _CLASSES.items() if reg == c.regime]
    for kind in params:
        for f, entry in table:
            if entry.param != kind:
                continue
            for p in params[kind]:
                if f == "Sk6" and c.regime == "even-even" and p >= 1:
                    continue
                cls = ClassId(f, **{kind: p}) if kind else ClassId(f)
                if _applies(cls, c):
                    yield cls


@dataclass(frozen=True)
class VerifyResult:
    cls: ClassId
    closed_form: QuadNum
    evaluated: QuadNum

    @property
    def ok(self) -> bool:
        return self.closed_form == self.evaluated


def verify_equivalence(alpha: PeriodTwoAlpha, kmax: int = 4) -> list[VerifyResult]:
    """Closed form vs. exact evaluator, for every applicable class."""
    out = []
    for cls in equivalence_cases(alpha, kmax):
        cf = delta_closed_form(cls, alpha)
        ev = m_star(class_tsequence(cls, alpha), alpha)
        out.append(VerifyResult(cls, cf, ev))
    return out


def covered_pairs(
    amin: int = 2, amax: int = 13, bmin: int = 3, bmax: int = 14
) -> Iterator[tuple[int, int]]:
    """(a, b) grid restricted to the covered regimes (drops a=2, b<5)."""
    for a in range(amin, amax + 1):
        for b in range(max(a + 1, bmin), bmax + 1):
            if a == 2 and b < 5:
                continue
            yield a, b


# ----------------------------------------------------------------------
# norm-Euclidean criterion
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EuclidReport:
    rho: QuadNum
    threshold: QuadNum
    verdict: bool
    points_above: Optional[int]  # None: infinitely many (limit >= threshold)
    min_poly: tuple[Fraction, Fraction]  # x^2 + B x + C coefficients (B, C)


def euclidean_test(alpha: PeriodTwoAlpha, kmax: int = 8) -> EuclidReport:
    """Compare the largest plain value rho with 1/sqrt(disc of x^2 + Bx + C).

    The monic minimal polynomial of the purely periodic value is
    x^2 - b x + b/a, so the threshold is 1/sqrt(b^2 - 4b/a) = 1/(b - 2 eta),
    exact in the working field.  The ring criterion reads: norm-Euclidean
    iff rho < threshold.
    """
    cat = spectrum_catalog(alpha, kmax=kmax)
    rho = cat.rho_star.m
    threshold = 1 / (alpha.b - 2 * alpha.eta)
    verdict = rho < threshold
    limit_m = m_value(cat.first_limit_point, alpha)
    if limit_m >= threshold:
        above = None
    else:
        above = 0
        for pt in cat.points:
            if pt.kind == "limit_point":
                continue
            if pt.m > threshold:
                above += 1
        # decreasing families could still be above threshold past kmax
        c = _Pair(alpha)
        for fam in cat.families:
            if fam.direction != "decreasing":
                continue
            f = _member(c, fam.family)
            k = max(fam.k_listed) + 1
            z = alpha.D**k
            while True:
                if k > max(fam.k_listed) + 500:
                    raise RuntimeError("family did not cross the threshold")
                cls = ClassId(fam.family, k=k)
                _require(cls, c)
                if not m_value(f(k, z), alpha) > threshold:
                    break
                above += 1
                k += 1
                z *= alpha.D
    B = Fraction(-alpha.b)
    C = Fraction(alpha.b, alpha.a)
    return EuclidReport(
        rho=rho, threshold=threshold, verdict=verdict,
        points_above=above, min_poly=(B, C),
    )
