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
the periodic t-sequence, and the closed form.  A k-family's closed form is a
function of k alone: every k-dependent power in it is D^(c*k + d).  The
entry computes the coefficients that do not depend on k once per pair and
returns the member function k -> value, which evaluates only the part in k;
a t-family does the same with t.  Because 0 < D < 1, every D^k tends to 0 as
k -> infinity, so the family limit delta_inf is member(None), the member
with D^k set to 0, and is not written down separately.

Twenty k-families have the shape (x + p*w)(y + q*w) with w = u / (1 + h*u)
and u = (D^n)^k, a leading factor eta folded into x and p; their entries
return the shared member _rational(D**n, h, x, p, y, q).  That member is
(x(1 + h*u) + p*u)(y(1 + h*u) + q*u) / (1 + h*u)^2.  It reads the
operands' ints with quadfield's _ints, takes u = (D^n)^k from quadfield's
_pow (the one repeated-squaring loop, which QuadNum's ** also runs), and
reduces the result once.  Three entries keep a member of their own: even-even
Sk4, whose k = 0 member at the two ends of the range of b and (6,10) k = 1
member the family formula does not give (its other members go through
_rational); odd Sk6, which has two different numerators over 1 - D^(3k+1);
and the t-class S0t, whose formula branches on t.
A k-family's entry also records the direction in which its members approach
the limit and the first k the catalogue lists.

From the table this module answers, per class, the t-sequence, the value and
the limit, and derives the catalogue of every spectrum value above the first
limit point, ordered by exact comparison.  The first limit point is the
largest limit among the k-families that go on forever at the pair; the
families with that limit are listed, and every other applicable class or
member above it is an isolated value.  No regime or pair has a layout of its
own, except that at (3,6) one family reaching the limit is not listed (see
_NOT_LISTED).  delta_closed_form, family_limit and spectrum_catalog reach a
value through the same member function, called with the class's parameter
alone; the catalogue builds it once per family and call.  The forms read
the values they share (D^2, 1 - D, ...) from _Pair, which computes each on
first use, once per call.  One enumerator, _params, yields the parameters at
which an entry applies at a pair, for the catalogue and equivalence_cases;
each builds a ClassId only for a parameter it keeps.  A catalogue's
json_tree() is its one point layout: to_csv_rows, which feeds the csv and
table outputs, reads its points.  euclidean_test reads catalogues.  No value ever touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional

from .quadfield import QuadNum, _div, _ints, _make, _pow
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


class OddParams(NamedTuple):
    """b = m*a + r with 0 < r <= 2a and r even; n = m + 2, s = m - 2."""

    m: int
    n: int
    s: int
    r: int


def odd_params(alpha: PeriodTwoAlpha) -> OddParams:
    a, b = alpha.a, alpha.b
    if a % 2 == 0:
        raise ApplicabilityError("m, n, s, r are defined for odd a only")
    m, r = divmod(b, a)
    if r == 0:
        m, r = m - 2, 2 * a
    elif r % 2 == 1:
        m, r = m - 1, r + a
    return OddParams(m=m, n=m + 2, s=m - 2, r=r)


# ----------------------------------------------------------------------
# the class table
# ----------------------------------------------------------------------


class _Pair:
    """What a table entry reads at one alpha besides eta, beta and D.

    For odd a, m, n, s and r are the values of the pair's odd_params, and
    v = (m*beta - D)/(1 - D).  Every entry writes its period with blocks, in
    the paper's block notation.

    The values the closed forms share are attributes, each computed on its
    first read and kept for the life of the _Pair: D2 = D^2, omD = 1 - D,
    opD = 1 + D, twoD = 2*D, omD2 = 1 - D^2, opD2 = 1 + D^2, ome = 1 - eta,
    omB = 1 - beta, om2e = 1 - 2*eta, om3B = 1 - 3*beta, eD = eta*D,
    BD = beta*D and, for odd a, v and ev = eta*v.  So a catalogue computes
    each of them at most once, and delta_closed_form, which builds a _Pair
    per call, pays only for what its one form reads.  A _Pair lives for one
    call; nothing keeps it.
    """

    def __init__(self, alpha: PeriodTwoAlpha):
        self.alpha, self.a, self.b = alpha, alpha.a, alpha.b
        self.D = alpha.D
        self.regime = regime(alpha)
        if self.regime == "odd":
            self.m, self.n, self.s, self.r = odd_params(alpha)

    def blocks(self, *specs) -> TSequence:
        """The periodic word of the (block name, t) specs, in order."""
        return tseq_from_blocks([Block(n, t) for n, t in specs], self.alpha)

    @cached_property
    def D2(self) -> QuadNum:
        return self.D * self.D

    @cached_property
    def omD(self) -> QuadNum:
        return 1 - self.D

    @cached_property
    def opD(self) -> QuadNum:
        return 1 + self.D

    @cached_property
    def twoD(self) -> QuadNum:
        return 2 * self.D

    @cached_property
    def omD2(self) -> QuadNum:
        return 1 - self.D2

    @cached_property
    def opD2(self) -> QuadNum:
        return 1 + self.D2

    @cached_property
    def ome(self) -> QuadNum:
        return 1 - self.alpha.eta

    @cached_property
    def omB(self) -> QuadNum:
        return 1 - self.alpha.beta

    @cached_property
    def om2e(self) -> QuadNum:
        return 1 - 2 * self.alpha.eta

    @cached_property
    def om3B(self) -> QuadNum:
        return 1 - 3 * self.alpha.beta

    @cached_property
    def eD(self) -> QuadNum:
        return self.alpha.eta * self.D

    @cached_property
    def BD(self) -> QuadNum:
        return self.alpha.beta * self.D

    @cached_property
    def v(self) -> QuadNum:
        return (self.m * self.alpha.beta - self.D) / self.omD

    @cached_property
    def ev(self) -> QuadNum:
        return self.alpha.eta * self.v


class _Class(NamedTuple):
    """One (regime, family) of the class table.

    param is None, "k" or "t".  applies(c, p) is the side condition on
    (a, b) and the parameter p; period(c, p) builds the periodic t-sequence.
    form(c, e, B, D) is the closed form at one pair, in e = eta, B = beta, D
    and the values c shares (see _Pair).  For a plain class it is the value.
    For a k- or t-family it computes the coefficients that do not depend on
    the parameter once and returns the member function member(p): the value
    at parameter p.  The family limit of a k-family is member(None).  A
    family's form returns the shared
    member of _rational, the integer kernel for (x + p*w)(y + q*w) with
    w = u / (1 + h*u), u = D^(n*k), except even-even Sk4 (its k = 0
    override at the two ends of the range of b and its (6,10) k = 1
    override; its other members go through _rational), odd
    Sk6 (two numerators over 1 - D^(3k+1)) and the t-class S0t (a branch on
    t).  The coefficients x, p, y, q and h are QuadNums, ints or Fractions.
    A k-family's members approach the limit in `direction`, and the
    catalogue lists or evaluates them from k = k0.

    A k-family goes on forever at a pair when applies(c, _LARGE_K) holds.
    One large k decides it: for k >= 2 every side condition in the table is
    a condition on the pair alone, written as `k >= k1 and <condition on the
    pair>` or as that condition itself.  An entry must keep to this form.
    So a k-family that does not go on forever has no member at k >= 2, and
    the catalogue evaluates such a family at k0 <= k <= 1 only.
    """

    param: Optional[str]
    applies: Callable[[_Pair, Optional[int]], bool]
    period: Callable[[_Pair, Optional[int]], TSequence]
    form: Callable[..., object]
    direction: Optional[str]
    k0: Optional[int]


# (regime, family) -> entry.  Within a regime the entries are declared plain
# classes first, then k-families, then t-classes, and declaration order is the
# order in which equivalence_cases yields them.
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


def _rational(Dn: QuadNum, h, x, p, y, q) -> Callable[[Optional[int]], QuadNum]:
    """The member k -> (x + p*w)(y + q*w), with w = u / (1 + h*u), u = Dn^k.

    At k = None it is x*y, the family limit.  Otherwise it is evaluated in
    ints.
    Write x = X/x_z with X = x_0 + x_1*sqrt(N) for int x_0, x_1, x_z, and
    likewise p, y, q, h and u = U/u_z.  With E = h_z*u_z + H*U,
    1 + h*u = E/(h_z*u_z) and w = h_z*U/E, so

        x + p*w = (p_z*X*E + x_z*h_z*P*U) / (x_z*p_z*E),
        y + q*w = (q_z*Y*E + y_z*h_z*Q*U) / (y_z*q_z*E),

    and the member is the product of the two numerators times conj(E)^2,
    over x_z*p_z*y_z*q_z*norm(E)^2, reduced once by _make.  (U, u_z) is the
    unreduced triple _pow gives for Dn^k.  The scaled pairs p_z*X, x_z*h_z*P,
    q_z*Y, y_z*h_z*Q and the product of the four denominators do not depend
    on k; building them costs a few int products.
    """
    hx, hy, hz = _ints(h)
    (xx, xy, xz), (px, py, pz) = _ints(x), _ints(p)
    (yx, yy, yz), (qx, qy, qz) = _ints(y), _ints(q)
    xx, xy, px, py = pz * xx, pz * xy, xz * hz * px, xz * hz * py
    yx, yy, qx, qy = qz * yx, qz * yy, yz * hz * qx, yz * hz * qy
    den = xz * pz * yz * qz
    (dx, dy, dz), N = _ints(Dn), Dn._N

    def member(k):
        if k is None:
            return x * y
        ux, uy, uz = _pow(dx, dy, dz, k, N)  # U/u_z = Dn^k
        uyN = uy * N
        ex, ey = hz * uz + hx * ux + hy * uyN, hx * uy + hy * ux
        eyN = ey * N
        ax = xx * ex + xy * eyN + px * ux + py * uyN
        ay = xx * ey + xy * ex + px * uy + py * ux
        bx = yx * ex + yy * eyN + qx * ux + qy * uyN
        by = yx * ey + yy * ex + qx * uy + qy * ux
        ax, ay = ax * bx + ay * by * N, ax * by + ay * bx
        exx, eyyN = ex * ex, ey * eyN
        cx, cy = exx + eyyN, -2 * ex * ey  # conj(E)^2
        norm = exx - eyyN
        return _make(ax * cx + ay * cy * N, ax * cy + ay * cx, den * norm * norm, N)

    return member


# ---- a >= 4 even, b odd


@_entry("even-odd", "S-1", _always,
        lambda c, k: c.blocks(("A", 1), ("A", 1), ("A'", 1), ("A'", 1)))
def _(c, e, B, D):
    return (c.omB - B * c.omD / c.opD2) * (c.ome - D * c.omD / c.opD2)


@_entry("even-odd", "S-2", _always, lambda c, k: c.blocks(("C", 3)))
def _(c, e, B, D):
    a, b = c.a, c.b
    hi = b >= max(2 * a - 5, Fraction(3 * a, 2))
    lo = b <= min(a + 5, Fraction(3 * a, 2))
    u = (3 * B - c.twoD) / c.omD
    w = (2 * e - 3 * D) / c.omD
    if not (hi or lo):
        return (1 + B - u) * (1 + e - w)
    val = (c.omB + u) * (c.ome - w) if hi else (c.omB - u) * (c.ome + w)
    # only the overlap evaluates both branches, to check that they agree
    if hi and lo and val != (c.omB - u) * (c.ome + w):
        raise BranchDisagreement(f"delta_-2 branches disagree at (a,b)=({a},{b})")
    return val


@_entry("even-odd", "Sk", _always,
        lambda c, k: c.blocks(
            ("A'", 1), ("A", 1), *(("A'", 1), ("A'", 1), ("A", 1), ("A", 1)) * k
        ),
        listed=("decreasing", 0))
def _(c, e, B, D):
    D2 = c.D2
    g = c.twoD * c.omD / c.opD2
    x = c.omB - B * c.omD * (1 + 2 * D2) / c.opD2
    y = c.ome - D * c.omD / c.opD2
    return _rational(D2**2, -D2, x, -c.BD * D2 * g, y, g)


# ---- a >= 4 even, b even


@_entry("even-even", "S-1", _always, lambda c, k: c.blocks(("C", 2)))
def _(c, e, B, D):
    return (1 - 3 * e + c.twoD * c.ome / c.omD) * (c.omB + 2 * B * c.ome / c.omD)


@_entry("even-even", "S-2", lambda c, k: (c.a, c.b) == (4, 6),
        lambda c, k: c.blocks(("A", 2), ("C", 2)))
def _(c, e, B, D):
    return (c.ome - c.twoD / c.omD + 2 * c.eD / c.omD2) * (
        c.om3B - 2 * c.BD / c.omD + c.twoD / c.omD2
    )


@_entry("even-even", "Sk1",
        lambda c, k: k == 0 or c.b >= 2 * c.a or (c.a, c.b) == (4, 6),
        lambda c, k: c.blocks(("A", 0), *(("A", 2), ("A'", 2)) * k),
        listed=("decreasing", 0))
def _(c, e, B, D):
    u = 2 * c.D2 / c.opD
    v = 2 * B / c.opD
    return _rational(c.D2, -D, c.ome + u, -u * c.omD, c.omB - v, v * c.omD)


@_entry("even-even", "Sk2", lambda c, k: k >= 1 and c.b == 2 * c.a - 2 and c.a >= 8,
        lambda c, k: c.blocks(
            ("A", 2), *[("C", 4)] * k, ("C", 2), ("A'", 2), *[("C'", 4)] * k, ("C'", 2)
        ),
        listed=("increasing", 1))
def _(c, e, B, D):
    BD, f = c.BD, (c.ome + D) / c.omD  # f = (1 - e + D)/(1 - D)
    g = c.twoD * c.opD * f
    x = 1 - 3 * e + c.twoD * (2 - e) / c.omD
    y = 1 + B - 2 * BD * f
    return _rational(D, c.D2, x, -g, y, BD * g)


@_entry("even-even", "Sk3", lambda c, k: k >= 1 and c.b == 2 * c.a - 4 and c.a >= 10,
        lambda c, k: c.blocks(("C", 4), *(("C", 2), ("C", 4)) * k),
        listed=("decreasing", 1))
def _(c, e, B, D):
    BD = c.BD
    g = c.twoD / c.opD
    x = c.ome - 2 * c.eD / c.omD + c.twoD * (1 + c.twoD) / c.omD2
    y = c.om3B + c.twoD / c.omD - 2 * BD * (2 + D) / c.omD2
    return _rational(c.D2, -D, x, g, y, -BD * g)


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
    hi, lo = b >= max(3 * a - 6, 2 * a), b <= min(a + 6, 2 * a - 2)
    g = c.twoD
    family = _rational(D, -D, c.ome + g * c.ome / c.omD, g,
                       c.om3B + g * c.omB / c.omD, -B * g)

    def member(k):
        # at the two ends of the range of b, k = 0 has a closed form of its
        # own, which differs from the family formula; in between it is family(0)
        if k == 0 and (hi or lo):
            u = g * (1 - 2 * B) / c.omD
            v = g * (2 - e) / c.omD
            if hi:
                return (1 + 3 * B - u) * (1 - 3 * e + v)
            return (1 - 5 * B + u) * (1 + e - v)
        if (a, b) == (6, 10) and k == 1:
            # explicit surd for the one case outside the family formula's range
            return QuadNum(Fraction(703, 40), Fraction(-703, 2400), c.alpha.N)
        return family(k)

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
    g = c.twoD * (1 - 2 * B + D) / c.omD
    x = c.ome + c.twoD * c.ome / c.omD
    y = c.om3B + c.twoD * c.omB / c.omD
    return _rational(D, D, x, e * g, y, -g)


@_entry("even-even", "Sk6", lambda c, k: (c.a, c.b) == (8, 12),
        lambda c, k: c.blocks(
            *(("A'", 2), ("C'", 2), ("A", 2), ("C", 2)) * k,
            ("A'", 2), ("C'", 2), ("C'", 2), ("A", 2), ("C", 2), ("C", 2),
        ),
        listed=("decreasing", 0))
def _(c, e, B, D):
    D2 = c.D2
    g = 2 * D**4 * (1 - 2 * B + D) * (1 - D**3) / c.opD2
    x = (1 - 3 * e + c.twoD - 2 * D2 + 2 * e * D2
         - 2 * D**3 * (c.ome + D) / c.opD2)
    y = 1 + B - c.twoD * (c.omB + c.BD) / c.opD2
    return _rational(D**4, -D**6, x, -e * D2 * g, y, g)


@_entry("even-even", "Sk7", lambda c, k: (c.a, c.b) == (6, 10) and k >= 1,
        lambda c, k: c.blocks(*(("C", 4), ("C", 2)) * k, ("A'", 2), ("A", 2)),
        listed=("increasing", 1))
def _(c, e, B, D):
    # coupling coefficient is eta*D^3, not 2*eta*D^3: derived exactly
    # from the tail sums of the period, which the printed form misstates
    D2, D3 = c.D2, D**3
    g = 2 * (c.om3B + D)
    x = (1 + e - c.twoD + 2 * D2 + 2 * e * D3 / c.omD
         - 2 * D3 * (1 + c.twoD) / c.omD2)
    y = 1 - 5 * B + c.twoD / c.omD - 2 * c.BD * (1 + c.twoD) / c.omD2
    return _rational(D2, -D2, x, -e * D3 * g, y, -g)


# ---- a >= 3 odd


@_entry("odd", "S-1", _always, lambda c, k: c.blocks(("B", c.m), ("B", c.n)))
def _(c, e, B, D):
    a, b, r, v = c.a, c.b, c.r, c.v
    vals = []
    if r <= a + 1:
        vals.append((1 - c.ev - 2 * c.D2 / c.omD2)
                    * (c.om3B - v - 2 * B * c.D2 / c.omD2))
    if r >= a + 1:
        vals.append((c.om2e + c.ev + c.twoD / c.omD2)
                    * (c.omB + v + 2 * c.BD / c.omD2))
    # only r = a + 1 evaluates both branches, to check that they agree
    if vals[0] != vals[-1]:
        raise BranchDisagreement(f"delta_-1 branches disagree at (a,b)=({a},{b})")
    return vals[0]


@_entry("odd", "S-2", _always, lambda c, k: c.blocks(("B", c.n)))
def _(c, e, B, D):
    return (1 - c.ev - c.twoD / c.omD) * (c.om3B - c.v - 2 * c.BD / c.omD)


@_entry("odd", "S-3", _always, lambda c, k: c.blocks(("B", c.n), ("B", c.s)))
def _(c, e, B, D):
    return (c.om2e + c.ev + 2 * e / c.b) * (c.om3B + c.v + c.twoD / c.b)


@_entry("odd", "S-4", _always,
        lambda c, k: c.blocks(("B", c.s), ("B'", c.s)) if c.m == 1
        else c.blocks(("B", c.m), ("B'", c.m)))
def _(c, e, B, D):
    return (c.om2e + e * (c.m + e) / c.b) * (c.omB - (c.m - e) / c.b)


@_entry("odd", "S-5", lambda c, k: c.m == 1 and c.a >= 5,
        lambda c, k: c.blocks(("E", 3)))
def _(c, e, B, D):
    x = 3 * D * c.ome / c.omD
    y = 3 * D * c.omB / c.omD
    if c.r >= c.a - 7:
        return (1 - 4 * e + x) * (1 + 2 * B - y)
    return (c.om2e + x) * (1 - 2 * B + y)


@_entry("odd", "S-6", lambda c, k: c.b % 2 == 0, lambda c, k: c.blocks(("F", 2)))
def _(c, e, B, D):
    return e


@_entry("odd", "S-7", lambda c, k: c.b % 2 == 1, lambda c, k: c.blocks(("F", 1)))
def _(c, e, B, D):
    return e * (1 - (B / c.omD) ** 2)


@_entry("odd", "S-8", lambda c, k: (c.a, c.b) == (3, 4),
        lambda c, k: c.blocks(("F", 0), ("B", 0)))
def _(c, e, B, D):
    return e * (1 - (B * (c.ome + D) / c.omD2) ** 2)


@_entry("odd", "S-9", lambda c, k: (c.a, c.b) == (3, 5),
        lambda c, k: c.blocks(("H", None), ("G", None), ("H'", None), ("G", None)))
def _(c, e, B, D):
    return e * (1 - ((2 * B - D + D**3 - 2 * B * D**3) / (1 + D**4)) ** 2)


@_entry("odd", "S0", _always, lambda c, k: c.blocks(("B", c.m)))
def _(c, e, B, D):
    return (c.om2e + c.ev) * (c.omB + c.v)


@_entry("odd", "Sk1", lambda c, k: c.r >= c.a + 3,
        lambda c, k: c.blocks(*[("B", c.n)] * k, ("B", c.m)),
        listed=("increasing", 1))
def _(c, e, B, D):
    g = c.twoD
    x = c.om2e + c.ev + g / c.omD
    y = c.omB + c.v + B * g / c.omD
    return _rational(D, -D, x, -g, y, -B * g)


@_entry("odd", "Sk2", lambda c, k: k >= 1 and c.m == 0 and c.r >= c.a + 3,
        lambda c, k: c.blocks(
            *[("B", c.n)] * k, ("B", c.m), *[("B'", c.n)] * k, ("B'", c.m)
        ),
        listed=("increasing", 1))
def _(c, e, B, D):
    g = 2 * (B * c.opD - D) / c.omD
    x = c.om2e + D * (2 - e) / c.omD
    y = c.omB + D * (1 - 2 * B) / c.omD
    return _rational(D, D, x, -e * g, y, D * g)


@_entry("odd", "Sk3", lambda c, k: c.r <= c.a + 1 and c.b >= 6,
        lambda c, k: c.blocks(*(("B", c.m), ("B", c.n)) * k, ("B", c.n)),
        listed=("increasing", 1))
def _(c, e, B, D):
    g = 2 * c.BD / c.opD
    x = 1 - c.ev - c.twoD / c.omD2
    y = c.om3B - c.v - 2 * B * c.D2 / c.omD2
    return _rational(c.D2, -D, x, -e * g, y, -g)


@_entry("odd", "Sk4", lambda c, k: k >= 1 and c.b == c.a + 1 and c.b >= 6,
        lambda c, k: c.blocks(
            *(("B", c.n), ("B", c.m)) * k, *(("B'", c.n), ("B'", c.m)) * k
        ),
        listed=("increasing", 1))
def _(c, e, B, D):
    eD = c.eD
    g = 2 * (1 - Fraction(2, c.b)) / c.omD
    x = 1 - eD / c.omD + 2 * c.D2 / c.omD2
    y = c.om3B + D / c.omD - 2 * B * c.D2 / c.omD2
    return _rational(c.D2, 1, x, eD * g, y, -g)


@_entry("odd", "Sk5", lambda c, k: c.r <= c.a - 1,
        lambda c, k: c.blocks(*[("B", c.m)] * k, ("B", c.n)),
        listed=("increasing", 1))
def _(c, e, B, D):
    g = c.twoD
    return _rational(D, -D, 1 - c.ev, -g, c.om3B - c.v, -B * g)


@_entry("odd", "Sk6", lambda c, k: c.r == 2 and c.b >= 7,
        lambda c, k: c.blocks(
            *(("B", c.n), ("B", c.s)) * k, ("B", c.n), *[("B", c.m)] * k
        ),
        listed=("increasing", 1))
def _(c, e, B, D):
    g = c.twoD / c.opD
    h = B * g
    x = 1 - c.ev
    y = c.om3B - c.v + c.twoD / c.b

    def member(k):
        z = 0 if k is None else D**k
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
    eD = c.eD
    g = 2 * (1 - Fraction(4, c.b)) / c.omD
    x = 1 - eD / c.omD + 4 * c.D2 / c.omD2
    y = c.omB + D / c.omD - 4 * B / c.omD2
    return _rational(c.D2, 1, x, eD * g, y, -g)


@_entry("odd", "Sk8", lambda c, k: k >= 1 and c.b == c.a + 2 and c.b >= 7,
        lambda c, k: c.blocks(*(("B", c.n), ("B", c.s)) * k, ("B'", c.m)),
        listed=("increasing", 1))
def _(c, e, B, D):
    D2 = c.D2
    eD2 = e * D2
    g = 2 * (1 - Fraction(2, c.b))
    x = (1 + D * (1 + D - 4 * D2) / c.omD2
         - c.eD * (1 - c.twoD) / c.omD)
    y = 1 - 4 * B + D / c.omD + c.BD * (1 - 3 * D) / c.omD2
    return _rational(D2, -D, x, -eD2 * g, y, -g)


@_entry("odd", "Sk9", lambda c, k: c.b == c.a + 2 and c.b >= 11,
        lambda c, k: c.blocks(*[("B", c.m)] * k, ("B'", c.n), ("E'", 3), ("B'", c.s)),
        listed=("increasing", 0))
def _(c, e, B, D):
    D2 = c.D2
    eD2 = e * D2
    g = c.twoD * (1 - 2 * B + c.twoD - 2 * c.BD + D2)
    x = (c.om2e + 3 * D - 3 * c.eD + 3 * D2 - eD2
         - eD2 * (B - D) / c.omD)
    y = 1 - 2 * B + D * c.omB / c.omD
    return _rational(D, -D * D2, x, -eD2 * g, y, -g)


@_entry("odd", "Sk10", lambda c, k: (c.a, c.b) == (3, 4) and k >= 1,
        lambda c, k: c.blocks(("F", 2), *(("F", 2), ("B'", 2)) * k),
        listed=("decreasing", 1))
def _(c, e, B, D):
    g = B * (c.ome + D) / c.opD
    u = g / c.omD
    return _rational(c.D2, -D, e * (1 - u), e * g, 1 + D * u, -D * g)


@_entry("odd", "Sk11", lambda c, k: (c.a, c.b) == (3, 5),
        lambda c, k: c.blocks(
            *(("H'", None), ("G", None), ("H", None), ("G", None)) * k,
            ("H", None), ("G", None),
        ),
        listed=("decreasing", 0))
def _(c, e, B, D):
    D4 = c.D2**2
    h = D**3 * (1 - 2 * B - 2 * c.BD + c.D2) / (1 + D4)
    return _rational(D4**2, -D4, e * (1 - 2 * B + D - h), 2 * e * h,
                     1 + 2 * B - D - h, -2 * h * D4)


@_entry("odd", "Sk12", lambda c, k: (c.a, c.b) == (3, 6),
        lambda c, k: c.blocks(("F", 2), *[("B'", 2)] * (k + 1)),
        listed=("decreasing", 0))
def _(c, e, B, D):
    # e*(1 - X^2) with X = g*(1 - D*u)/(1 - D^2*u) = g + d*w, w = u/(1 - D^2*u),
    # u = D^k
    D2 = c.D2
    g = B * (c.ome + D) / c.omD
    d = g * (D2 - D)
    return _rational(D, -D2, e * (1 - g), -e * d, 1 + g, d)


# ---- a = 2: the words and values depend on the parity of b


@_entry("two", "S-1", _always,
        lambda c, k: c.blocks(("A", 0)) if c.b % 2 == 0
        else c.blocks(("F", 1), ("F", 3), ("F", 1), ("F", 1)))
def _(c, e, B, D):
    if c.b % 2 == 0:
        return e * c.omB**2
    omD4 = 1 - c.D2**2  # 1 - D^4
    return e * (
        (c.omB + B * c.omD * D**3 / omD4) ** 2
        - (B * c.opD * D / omD4) ** 2
    )


@_entry("two", "S-2", lambda c, k: c.b % 2 == 1,
        lambda c, k: c.blocks(("F", 3), ("F", 1)))
def _(c, e, B, D):
    return e * (c.omB + c.BD / c.opD) ** 2


@_entry("two", "S2k", lambda c, k: k >= 1,
        lambda c, k: c.blocks(("F", 4), *[("F", 2)] * k) if c.b % 2 == 0
        else c.blocks(("F", 1), *(("F", 3), ("F", 1)) * k),
        listed=("decreasing", 1))
def _(c, e, B, D):
    if c.b % 2 == 0:
        B2 = 2 * B
        return _rational(D, -D, e * (1 - B2), -e * B2 * D, 1, B2)
    g = 2 * B / c.opD
    half = B**2 / 2
    return _rational(c.D2, -D, e * (c.omB - half), -e * g * c.D2, c.omB + half, g)


@_entry("two", "S2k+1", _always,
        lambda c, k: c.blocks(("F", 2), ("A", 0), *[("F", 2)] * k) if c.b % 2 == 0
        else c.blocks(("F", 1), ("A'", 1), *(("F", 3), ("F", 1)) * k),
        listed=("decreasing", 0))
def _(c, e, B, D):
    # e*((1 - B)^2 - (r*Q)^2) with Q = 1 + d*w, w = u/(1 - D^2*u), u = Dn^k
    D2 = c.D2
    Dn, r, d = (D, B, D2 - D) if c.b % 2 == 0 else (D2, B**2 / 2, D2 - 1)
    return _rational(Dn, -D2, e * (c.omB - r), -e * r * d, c.omB + r, r * d)


@_entry("two", "S0t", lambda c, t: 2 <= t <= c.b - 2 and (t - c.b) % 2 == 0,
        lambda c, t: c.blocks(("F", t)))
def _(c, e, B, D):
    g = B / c.omD
    y = 2 - 2 * B

    def member(t):
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

# regime -> its (family, entry) pairs, in table order
_REGIME_TABLE: dict[str, list[tuple[str, _Class]]] = {
    reg: [(f, e) for (r, f), e in _CLASSES.items() if r == reg]
    for reg in dict.fromkeys(r for r, _ in _CLASSES)
}


# ----------------------------------------------------------------------
# applicability and dispatch
# ----------------------------------------------------------------------


def _param(cls: ClassId) -> Optional[int]:
    return cls.k if cls.t is None else cls.t


def _require(cls: ClassId, c: _Pair) -> _Class:
    """The table entry of a class applicable at the pair; raises otherwise."""
    if _FAMILY_PARAM[cls.family] == "k" and cls.k is None:
        raise ApplicabilityError(
            f"{cls} designates a family limit; use family_limit()"
        )
    entry = _CLASSES.get((c.regime, cls.family))
    if (entry is None or (entry.param == "k" and cls.k < 0)
            or not entry.applies(c, _param(cls))):
        raise ApplicabilityError(
            f"class {cls} is not applicable at (a,b)=({c.a},{c.b})"
        )
    return entry


def _member(c: _Pair, family: str) -> Callable[[Optional[int]], QuadNum]:
    """The member function p -> value of the family's entry at the pair.

    The entry's parameter-free coefficients are computed here, once; a plain
    class's member returns its value whatever p is.
    """
    al, entry = c.alpha, _CLASSES[c.regime, family]
    form = entry.form(c, al.eta, al.beta, al.D)
    return form if entry.param else lambda p: form


def _params(c: _Pair, entry: _Class, ks) -> Iterator[Optional[int]]:
    """The parameters at which the entry applies at the pair, in order.

    That is None for a plain class, t for the t-classes 2 <= t <= b - 2, or
    k in ks for a k-family.  The callers build a ClassId only for the
    parameters they keep (_class_id).
    """
    param = entry.param
    for p in ks if param == "k" else range(2, c.b - 1) if param else (None,):
        if entry.applies(c, p):
            yield p


def _class_id(family: str, entry: _Class, p: Optional[int]) -> ClassId:
    """The class of the entry's family at parameter p."""
    return ClassId(family, **{entry.param: p}) if entry.param else ClassId(family)


def class_tsequence(cls: ClassId, alpha: PeriodTwoAlpha) -> TSequence:
    """The periodic t-sequence of the class; raises if not applicable."""
    c = _Pair(alpha)
    return _require(cls, c).period(c, _param(cls))


def delta_closed_form(cls: ClassId, alpha: PeriodTwoAlpha) -> QuadNum:
    """Exact value of the class, from its closed form."""
    c = _Pair(alpha)
    _require(cls, c)
    return _member(c, cls.family)(_param(cls))


def family_limit(family: str, alpha: PeriodTwoAlpha) -> QuadNum:
    """delta_inf of the family: its member function at k = None.

    Every D^k in a member tends to 0 as k -> infinity, since 0 < D < 1, and
    member(None) is the member with each D^k set to 0.
    """
    c = _Pair(alpha)
    entry = _CLASSES.get((c.regime, family))
    if entry is None or entry.param != "k":
        raise ApplicabilityError(f"{family} is not a family in regime {c.regime}")
    return _member(c, family)(None)


# ----------------------------------------------------------------------
# the catalogue
# ----------------------------------------------------------------------


class SpectrumPoint(NamedTuple):
    cls: ClassId
    m_star: QuadNum
    m: QuadNum
    kind: str  # isolated | family_member | limit_point
    direction: str  # increasing | decreasing | none

    @property
    def label(self) -> str:
        return self.cls.delta_label


class SpectrumCatalog(NamedTuple):
    """One pair's catalogue: its points in decreasing order of value, with
    the listed families' members up to kmax.  The rest is read off the
    points: rho* is the first point, the first limit point L is the value of
    the one point of kind 'limit_point', and the listed families are the
    families of the points of kind 'family_member', each with its direction."""

    alpha: PeriodTwoAlpha
    kmax: int
    points: tuple[SpectrumPoint, ...]

    @property
    def rho_star(self) -> SpectrumPoint:
        return self.points[0]

    @property
    def first_limit_point(self) -> QuadNum:
        return next(p.m_star for p in self.points if p.kind == "limit_point")

    def json_tree(self) -> dict:
        """The JSON layout of the catalogue, with the exact values as
        QuadNum leaves; `catalog` writes it as it stands."""
        return {
            "a": self.alpha.a,
            "b": self.alpha.b,
            "N": self.alpha.N,
            "rho_star": self.points[0].m_star,
            "first_limit_point": self.first_limit_point,
            "points": [
                {
                    "label": p.label,
                    "k": _param(p.cls),
                    "m_star": p.m_star,
                    "m": p.m,
                    "kind": p.kind,
                    "direction": p.direction,
                }
                for p in self.points
            ],
            "kmax": self.kmax,
        }

    def to_csv_rows(self, digits: int = 15) -> list[list[str]]:
        """The points of json_tree() as rows of text under a header row: a
        value to `digits` places, no k as an empty cell."""
        cols = ["label", "k", "kind", "direction", "m_star", "m"]
        return [cols] + [
            [v.decimal(digits) if type(v) is QuadNum else "" if v is None else str(v)
             for v in map(p.get, cols)]
            for p in self.json_tree()["points"]
        ]


def _build_points(c, entries):
    """entries: list of (ClassId, value, kind, direction) at the _Pair c.
    Returns the points in decreasing order of value.

    M = M* / norm_factor = M* * 1/(4(1 - D)) is formed on ints, one _make per
    point, as _rational forms its members; 1/(4(1 - D)) is one _div of c.omD.
    Distinct classes can share a value (observed once, at (2,10) where the
    first-branch delta_{0,6} collapses onto delta_{-1}); the sort is stable,
    so dropping an entry equal to the last one kept keeps the first entry of
    each run of equal values.
    """
    N = c.alpha.N
    ix, iy, iz = _ints(_div(1, 0, 4, *_ints(c.omD), N))
    pts = []
    for cls, ms, kind, direction in sorted(entries, key=itemgetter(1), reverse=True):
        if pts and ms == pts[-1].m_star:
            continue
        x, y, z = _ints(ms)
        m = _make(x * ix + y * iy * N, x * iy + y * ix, z * iz, N)
        pts.append(SpectrumPoint(cls, ms, m, kind, direction))
    return tuple(pts)


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
    for k0 <= k <= kmax (truncation recorded via kmax).  A decreasing
    family's members sit above L and an increasing family's below it, with
    one exception: at b = a + 6 with even a >= 12, even-even Sk4's k = 0
    member, its override at the lower end of the range of b, lies below L
    and is still listed as a decreasing member.  L itself is listed once,
    of kind 'limit_point', labelled by the last listed family, and sorts by
    its value: below the isolated values and the decreasing members, that
    exception aside, and above the increasing members and the exception.  So
    it is the final value only when neither is listed; at (5,7), with
    kmax = 3, it is 4th of 7, above the increasing Sk8's k = 3, 2 and 1.
    Every other value above L is isolated: applicable plain classes and
    t-classes, and the members k0 <= k <= 1 of the k-families that do not go
    on forever (such a family has no member at k >= 2, see _Class).

    A family that goes on forever enters only through the listing.  An
    increasing one lies below its own limit, which is at most L.  A
    decreasing one has limit L, so it is listed.  Within a regime, no two
    decreasing families go on forever at one pair, except a = 2 S2k and
    S2k+1, whose limits are equal.  Beside one of them, the only increasing
    family that goes on forever is even-even Sk5, whose limit x*y is Sk4's,
    except at (3,5) and (3,6), where the decreasing Sk11 and Sk12 are listed.
    Isolated values do not depend on kmax.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    c = _Pair(alpha)
    table = _REGIME_TABLE[c.regime]
    forever = {f: _member(c, f) for f, e in table
               if e.param == "k" and e.applies(c, _LARGE_K)}
    limits = {f: member(None) for f, member in forever.items()}
    limit = max(limits.values())
    fams = [f for f in forever
            if limits[f] == limit and (c.regime, f, c.a, c.b) != _NOT_LISTED]

    entries = []
    for f, entry in table:
        if f in forever:
            continue
        ks = range(entry.k0, 2) if entry.param == "k" else ()
        member = None
        for p in _params(c, entry, ks):
            member = member or _member(c, f)  # built at the first applicable class
            value = member(p)
            if value > limit:
                entries.append((_class_id(f, entry, p), value, "isolated", "none"))
    for fam in fams:
        spec, f = _CLASSES[c.regime, fam], forever[fam]
        for k in range(spec.k0, kmax + 1):
            if not spec.applies(c, k):
                raise RuntimeError(
                    f"listed family {fam} does not apply at k={k}, "
                    f"(a,b)=({c.a},{c.b})"
                )
            entries.append((ClassId(fam, k=k), f(k), "family_member", spec.direction))
    entries.append((ClassId(fams[-1]), limit, "limit_point", "none"))
    return SpectrumCatalog(
        alpha=alpha,
        kmax=kmax,
        points=_build_points(c, entries),
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

    The classes come in class-table order, which declares plain classes
    first, then k-families (here k = 0..kmax), then t-classes.  A negative
    kmax raises ValueError.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    c = _Pair(alpha)
    ks = range(kmax + 1)
    for f, entry in _REGIME_TABLE[c.regime]:
        for p in _params(c, entry, ks):
            if f == "Sk6" and c.regime == "even-even" and p >= 1:
                continue
            yield _class_id(f, entry, p)


class VerifyResult(NamedTuple):
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


class EuclidReport(NamedTuple):
    rho: QuadNum
    threshold: QuadNum
    verdict: bool
    points_above: Optional[int]  # None: infinitely many (limit >= threshold)
    min_poly: tuple[Fraction, Fraction]  # x^2 + B x + C coefficients (B, C)


def euclidean_test(alpha: PeriodTwoAlpha) -> EuclidReport:
    """Compare the largest plain value rho with 1/sqrt(disc of x^2 + Bx + C).

    The monic minimal polynomial of the purely periodic value is
    x^2 - b x + b/a, so the threshold is 1/sqrt(b^2 - 4b/a) = 1/(b - 2 eta),
    exact in the working field.  The ring criterion reads: norm-Euclidean
    iff rho < threshold.  points_above counts the catalogue's distinct values
    above the threshold, None when the first limit point is not below it.
    Isolated values do not depend on kmax, and a decreasing family's members
    fall towards the limit as k grows, so the count reads the kmax = 1
    catalogue.  That count is complete only if no decreasing family's k = 1
    member is above the threshold, as holds at every pair with b <= 300;
    if one is, this raises RuntimeError.
    """
    cat = spectrum_catalog(alpha, kmax=1)
    rho = cat.rho_star.m
    threshold = 1 / (alpha.b - 2 * alpha.eta)
    above = None
    if m_value(cat.first_limit_point, alpha) < threshold:
        # the limit point itself is below the threshold, so it is not counted
        if any(p.direction == "decreasing" and p.cls.k == 1 and p.m > threshold
               for p in cat.points):
            raise RuntimeError("a decreasing family's k = 1 member is above the threshold")
        above = sum(p.m > threshold for p in cat.points)
    return EuclidReport(
        rho=rho, threshold=threshold, verdict=rho < threshold, points_above=above,
        min_poly=(Fraction(-alpha.b), Fraction(alpha.b, alpha.a)),
    )
