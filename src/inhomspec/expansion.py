"""Digit expansions of gamma and the exact normalized-minimum evaluator.

A target gamma is encoded by its digit sequence b_i relative to the period-two
quotients (a at odd indices, b at even indices), stored here in the centered
form t_i = 2*b_i - (a_i - 2).  A digit is valid when t_i has the parity of a_i
and lies in [-(a_i - 2), a_i]; t_i = a_i is the maximal digit.  Named blocks
are constant centered words in which only the maximal digit a depends on the
pair: X_t = (-o, t) and X'_t = (o, -t) with o = 0, 1, 2, 3 for X = A, B, C, E,
F_t = (a, -t), F'_t = (a, t - 4), and the three long blocks used at
(a,b) = (3,5), G = (-1, a, -1) (starting on an even position),
H = (1, -3, a, -3, 1) and H' = (-1, 1, a, 1, -1), which take no t.

For an eventually periodic sequence the machinery below produces, all exactly:

* gamma itself, as gamma = (1 - eta + d_0^+)/2,
* the forward/backward tail sums d_i^+ and d_i^-; when the period is a
  palindrome about an even centre r, d_i^- is d_{1+r-i}^+ and is read off
  the forward tails,
* the four products s_1*(i) ... s_4*(i) built from the tails,
* the normalized approximation constant as the minimum of the applicable
  products over one period (the lim inf of a periodic sequence), with the
  special evaluation mode for sequences whose period contains a maximal
  digit t_i = a_i; for such a palindrome the mirror i -> 1 + r - i pairs
  indices with the same products, and the minimum runs over half of them.

Everything here treats the period as extended bi-infinitely; a preperiod can
be attached for gamma reconstruction but never influences the minimum.

No admissibility check is performed: whether a given digit word really is
the expansion of the gamma it reconstructs is taken on trust.  The
catalogued periods are admissible by construction; an arbitrary word (for
instance a rotated phase of a catalogued one) can reconstruct a gamma whose
true expansion, and hence true constant, differs from the word's minimum.
The brute-force oracle exposes such cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Iterable, Sequence

from .ncf import PeriodTwoAlpha
from .quadfield import QuadNum, _div, _ints, _make, _pow, _sign

__all__ = [
    "Block",
    "TSequence",
    "InvalidBlockError",
    "DigitRangeError",
    "AlignmentError",
    "UndefinedTailError",
    "block_digits",
    "block_tvalues",
    "tseq_from_blocks",
    "parse_period",
    "gamma_value",
    "d_plus",
    "d_minus",
    "s_star",
    "reflect",
    "m_star",
    "m_value",
    "max_digit_bound",
    "repeated_t_bound",
]


class InvalidBlockError(ValueError):
    """Unknown block, or a digit t_i of the wrong parity for a_i."""


class DigitRangeError(ValueError):
    """Digit falls outside [0, a_i - 1]."""


class AlignmentError(ValueError):
    """Block string or preperiod breaks the odd/even pairing."""


class UndefinedTailError(ValueError):
    """Backward tail requested at an index that is not two-sidedly periodic."""


@dataclass(frozen=True)
class Block:
    """A named block of centered digits; t parametrizes the even-position digit."""

    name: str
    t: int | None = None

    def __str__(self) -> str:
        if self.t is None:
            return self.name
        if self.name.endswith("'"):
            return f"{self.name[:-1]}{self.t}'"
        return f"{self.name}{self.t}"


def _digit(t: int, q: int) -> int:
    """Plain digit b = (q - 2 + t)/2 of the centered digit t under quotient q."""
    return (q - 2 + t) // 2


def _check_digit(t: int, q: int, where: Callable[[], str]) -> None:
    """t must have the parity of q and lie in [-(q-2), q], i.e. b in [0, q-1].

    where() names the digit in the error message; it is called only to raise.
    """
    if (t - q) % 2 != 0:
        raise InvalidBlockError(f"{where()}: t={t} has wrong parity for quotient {q}")
    if not -(q - 2) <= t <= q:
        raise DigitRangeError(f"{where()}: t={t} outside [-(q-2), q] for quotient {q}")


# Centered words of the named blocks as functions of (t, a); see the module
# docstring.  G starts on an even position, every other block on an odd one.
_OFFSETS = {"A": 0, "B": 1, "C": 2, "E": 3}
_WORDS = {
    **{x: lambda t, a, o=o: (-o, t) for x, o in _OFFSETS.items()},
    **{x + "'": lambda t, a, o=o: (o, -t) for x, o in _OFFSETS.items()},
    "F": lambda t, a: (a, -t),
    "F'": lambda t, a: (a, t - 4),
    "G": lambda t, a: (-1, a, -1),
    "H": lambda t, a: (1, -3, a, -3, 1),
    "H'": lambda t, a: (-1, 1, a, 1, -1),
}


def block_tvalues(block: Block, alpha: PeriodTwoAlpha) -> list[tuple[str, int]]:
    """Digits of the block in centered t form, as (parity, t_i) pairs."""
    word = _WORDS.get(block.name)
    if word is None:
        raise InvalidBlockError(f"unknown block {block.name!r}")
    if block.name in ("G", "H", "H'"):
        if block.t is not None:
            raise InvalidBlockError(f"block {block.name} takes no t parameter")
    elif block.t is None:
        raise InvalidBlockError(f"block {block.name} needs a t parameter")

    def where() -> str:
        return f"{block} at (a,b)=({alpha.a},{alpha.b})"

    out = []
    for i, t in enumerate(word(block.t, alpha.a), start=1 + (block.name == "G")):
        _check_digit(t, alpha.partial_quotient(i), where)
        out.append(("ba"[i % 2], t))
    return out


def block_digits(block: Block, alpha: PeriodTwoAlpha) -> list[tuple[str, int]]:
    """Digits of the block as (parity, b_i) pairs, validated for (a, b)."""
    return [
        (parity, _digit(t, alpha.a if parity == "a" else alpha.b))
        for parity, t in block_tvalues(block, alpha)
    ]


@dataclass(frozen=True)
class TSequence:
    """Eventually periodic centered digits; index 1 is an odd (a) position.

    The period has even length.  A preperiod, when present, also has even
    length so the pairing is preserved; it matters only to gamma itself.
    """

    period: tuple[int, ...]
    preperiod: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if len(self.period) == 0 or len(self.period) % 2 != 0:
            raise AlignmentError("period length must be even and nonzero")
        if len(self.preperiod) % 2 != 0:
            raise AlignmentError("preperiod length must be even")

    def t_at(self, i: int) -> int:
        """t at global index i >= 1; the period extends bi-infinitely."""
        n = len(self.preperiod)
        if 1 <= i <= n:
            return self.preperiod[i - 1]
        return self.period[(i - n - 1) % len(self.period)]

    def period_t(self, i: int) -> int:
        """t at index i of the bi-infinite periodic part (any integer i)."""
        return self.period[(i - 1) % len(self.period)]

    def validate(self, alpha: PeriodTwoAlpha) -> "TSequence":
        def where() -> str:  # reads the loop's i when a digit fails
            return f"t_{i}"

        for i, t in enumerate(self.preperiod + self.period, start=1):
            _check_digit(t, alpha.partial_quotient(i), where)
        return self

    def rotated(self, pairs: int) -> "TSequence":
        """Cyclic rotation of the period by whole (odd, even) pairs."""
        L = len(self.period)
        s = (2 * pairs) % L
        return TSequence(self.period[s:] + self.period[:s], self.preperiod)

    def digits(self, alpha: PeriodTwoAlpha) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(preperiod, period) as plain digits b_i = (a_i - 2 + t_i)/2."""
        b = tuple(_digit(t, alpha.partial_quotient(i))
                  for i, t in enumerate(self.preperiod + self.period, start=1))
        n = len(self.preperiod)
        return b[:n], b[n:]

    def __str__(self) -> str:
        pre = ",".join(map(str, self.preperiod))
        per = ",".join(map(str, self.period))
        return f"t:[{pre}|({per})*]" if pre else f"t:({per})"


def _start_shift(start: str) -> int:
    """Parity of the first position: 0 for 'odd', 1 for 'even'."""
    if start not in ("odd", "even"):
        raise ValueError("start must be 'odd' or 'even'")
    return int(start == "even")


def _odd_start(ts: list[int], shift: int) -> TSequence:
    """Period of a word whose first digit sits at parity `shift`, unchecked.

    An even-start word is rotated by one digit into the canonical odd-start
    form, which leaves the bi-infinite sequence unchanged.
    """
    return TSequence(tuple(ts[shift:] + ts[:shift]))


def tseq_from_blocks(
    blocks: Iterable[Block],
    alpha: PeriodTwoAlpha,
    start: str = "odd",
) -> TSequence:
    """Concatenate blocks into a periodic TSequence.

    Each block must land on the parity its word starts with (G starts on an
    even position, everything else on odd).  `start` gives the parity of the
    first position; an even-start word is rotated into odd-start form.
    block_tvalues checks each digit at the parity this alignment check gives
    it, so the word is valid as built and is not validated a second time.
    """
    shift = _start_shift(start)
    ts: list[int] = []
    for blk in blocks:
        vals = block_tvalues(blk, alpha)
        parity = "ab"[(len(ts) + shift) % 2]
        if vals[0][0] != parity:
            raise AlignmentError(
                f"block {blk} starts on parity {vals[0][0]!r}, cursor is at {parity!r}"
            )
        ts.extend(t for _, t in vals)
    return _odd_start(ts, shift)


def parse_period(text: str, alpha: PeriodTwoAlpha, start: str = "odd") -> TSequence:
    """Parse 'A1 A1' C3' block notation or a raw 't:(2,-3)' tuple."""
    text = text.strip()
    if text.startswith("t:"):
        body = text[2:].strip().strip("()")
        ts = [int(v) for v in body.split(",") if v.strip()]
        return _odd_start(ts, _start_shift(start)).validate(alpha)
    blocks = []
    for tok in text.split():
        name = tok
        prime = ""
        if name.endswith("'"):
            name, prime = name[:-1], "'"
        head = name.rstrip("-0123456789")
        tail = name[len(head):]
        blocks.append(Block(head + prime, int(tail) if tail else None))
    return tseq_from_blocks(blocks, alpha, start=start)


# ----------------------------------------------------------------------
# exact tail machinery
# ----------------------------------------------------------------------
#
# Every tail below is an int triple (x, y, z) of (x + y*sqrt(N))/z in lowest
# terms with z > 0, the form _make leaves a QuadNum in.  The walks and the
# s-products stay on these triples; a QuadNum is built only where a public
# function returns one, and by the cycle closure's one division.

Triple = tuple[int, int, int]


def _tails(ts: Sequence[int], alpha: PeriodTwoAlpha, d: Triple) -> list[Triple]:
    """Forward tails [d_0^+, ..., d_n^+] over the word ts = (t_1, ..., t_n).

    Walks d_{i-1}^+ = alpha_{i-1} (t_i + d_i^+) back from d_n^+ = d, listed
    as given.  With alpha_{i-1} = (p + q*sqrt(N))/r and d_i^+ = (x, y, z),
    u = x + t_i*z, the next tail is (p*u + q*y*N, p*y + q*u, r*z) divided by
    its gcd: one gcd per step keeps the ints from growing with the word.
    """
    N = alpha.N
    # alpha_{i-1} is eta at odd i and beta at even i
    odd, even = _ints(alpha.eta), _ints(alpha.beta)
    x, y, z = d
    out = [d]
    for i in range(len(ts), 0, -1):
        p, q, r = odd if i % 2 else even
        u = x + ts[i - 1] * z
        x, y, z = p * u + q * y * N, p * y + q * u, r * z
        g = gcd(x, y, z)
        if g != 1:
            x, y, z = x // g, y // g, z // g
        out.append((x, y, z))
    out.reverse()
    return out


def _cycle_tail(period: Sequence[int], alpha: PeriodTwoAlpha) -> Triple:
    """d_0^+ = d_L^+ of the bi-infinite period.

    A walk round the period from 0 ends at c = (1 - D^(L/2)) d_0^+.  With
    D^(L/2) = (x + y*sqrt(N))/z from _pow on D's ints, 1 - D^(L/2) is
    (z - x - y*sqrt(N))/z, and quadfield's _div divides c by it.
    """
    N = alpha.N
    cx, cy, cz = _tails(period, alpha, (0, 0, 1))[0]
    x, y, z = _pow(*_ints(alpha.D), len(period) // 2, N)
    return _ints(_div(cx, cy, cz, z - x, -y, z, N))


def _mirror_centre(period: tuple[int, ...]) -> int | None:
    """The least even r in [0, L) with period[j] == period[(r - j) % L] for
    every j, or None when the period is no palindrome about an even centre.

    That is, the reversed word period[:1] + period[:0:-1] is the period
    rotated by r.  The digits are coded one character each, so one str.find
    of the reversed word in the doubled word, a string search in C, finds
    the least such r of either parity.  The centres form one class modulo the
    word's least rotation period P, which divides L: when the least r is odd
    and P is odd, the next match r + P < L is even, and when P is even every
    centre is odd.  So a second find is needed only after an odd first match.
    """
    code = {t: chr(k) for k, t in enumerate(set(period))}
    word = "".join(map(code.__getitem__, period))
    rev, twice = word[0] + word[:0:-1], word + word[:-1]
    r = twice.find(rev)
    if r > 0 and r % 2:
        r = twice.find(rev, r + 1)
    return r if r >= 0 and r % 2 == 0 else None


def _period_tails(
    period: tuple[int, ...], alpha: PeriodTwoAlpha
) -> tuple[list[Triple], list[Triple], int | None]:
    """(d^-, d^+, r) of the bi-infinite period: each tail list holds reduced
    triples read at i mod L, and r is _mirror_centre(period).

    d^+ is one walk of _tails from _cycle_tail.  The backward recurrence
    d_i^- = alpha_{i-1} (t_i + d_{i-1}^-) is the forward one on the reversed
    word u_k = t_{L+2-k}, read at k = L+1-i; alpha_k = alpha_{i-1} because L
    is even.  When the period is a palindrome about an even centre r,
    t_{r+2-m} = t_m for every m, so d_i^- = sum_k alpha_{i-1} ... alpha_{i-k}
    t_{i+1-k} is d_{1+r-i}^+ = sum_k alpha_{1+r-i} ... alpha_{r-i+k} t_{r+1-i+k}
    term by term (1 + r - i has the parity of i - 1, so the alphas agree),
    and the reversed word's two walks are skipped.  An odd centre would swap
    eta and beta, so it gives no such identity.
    """
    L = len(period)
    plus = _tails(period, alpha, _cycle_tail(period, alpha))
    r = _mirror_centre(period)
    if r is not None:
        return [plus[(1 + r - i) % L] for i in range(L)], plus[:L], r
    rev = period[:1] + period[:0:-1]
    back = _tails(rev, alpha, _cycle_tail(rev, alpha))
    return [back[(1 - i) % L] for i in range(L)], plus[:L], r


def gamma_value(tseq: TSequence, alpha: PeriodTwoAlpha) -> QuadNum:
    """gamma = sum_i (b_{2i-1} eta + b_{2i} D) D^(i-1) = (1 - eta + d_0^+)/2.

    With b_i = (a_i - 2 + t_i)/2 the constant part of the series sums to
    1 - eta, and the t part is the forward tail d_0^+ (alpha_0 = eta).
    """
    tseq.validate(alpha)
    x, y, z = _tails(tseq.preperiod, alpha, _cycle_tail(tseq.period, alpha))[0]
    (cx, cy, cz), _ = _one_minus(alpha)[0]  # 1 - eta = (cx + cy*sqrt(N))/cz
    return _make(cx * z + x * cz, cy * z + y * cz, 2 * cz * z, alpha.N)


def d_plus(tseq: TSequence, i: int, alpha: PeriodTwoAlpha) -> QuadNum:
    """Forward tail sum d_i^+.

    Indices inside the preperiod are allowed: the tail simply runs through
    the remaining preperiod into the periodic part.  Indices beyond the
    preperiod address the bi-infinite periodic extension.
    """
    tseq.validate(alpha)
    if i < 1:
        raise UndefinedTailError("preperiod indices start at 1")
    n = len(tseq.preperiod)
    tails = _tails(tseq.preperiod + tseq.period, alpha, _cycle_tail(tseq.period, alpha))
    return _make(*tails[i if i <= n else n + (i - n) % len(tseq.period)], alpha.N)


def d_minus(tseq: TSequence, i: int, alpha: PeriodTwoAlpha) -> QuadNum:
    """Backward tail sum d_i^-; only defined inside the periodic part."""
    tseq.validate(alpha)
    n = len(tseq.preperiod)
    if i <= n:
        raise UndefinedTailError(
            f"d^- is undefined at preperiod index {i}; the sequence is not "
            "two-sidedly determined there"
        )
    minus = _period_tails(tseq.period, alpha)[0]
    return _make(*minus[(i - n) % len(tseq.period)], alpha.N)


def s_star(
    tseq: TSequence, i: int, alpha: PeriodTwoAlpha
) -> tuple[QuadNum, QuadNum, QuadNum, QuadNum]:
    """(s1*, s2*, s3*, s4*) at index i of the bi-infinite periodic part."""
    tseq.validate(alpha)
    minus, plus, _ = _period_tails(tseq.period, alpha)
    j, N = i % len(tseq.period), alpha.N
    xy, z = _s_ints(*_one_minus(alpha)[j % 2], minus[j], plus[j], N)
    return tuple(_make(x, y, z, N) for x, y in xy)


def _one_minus(alpha: PeriodTwoAlpha) -> tuple[tuple[Triple, Triple], ...]:
    """(1 - alpha_i, 1 - alpha_{i-1}) at even i and at odd i, as triples.

    1 - (x + y*sqrt(N))/z is (z - x, -y, z), still in lowest terms.
    """
    (ex, ey, ez), (bx, by, bz) = _ints(alpha.eta), _ints(alpha.beta)
    ce, cb = (ez - ex, -ey, ez), (bz - bx, -by, bz)
    return (ce, cb), (cb, ce)


def _s_ints(ci: Triple, cp: Triple, dm: Triple, dp: Triple, N: int):
    """((x1, y1), ..., (x4, y4)), z with s_j* = (x_j + y_j*sqrt(N))/z and
    z > 0, from the triples of ci = 1 - alpha_i, cp = 1 - alpha_{i-1} and
    the tails dm = d_i^-, dp = d_i^+; nothing is reduced.

    The eight factors (1 -+ alpha_i +- dp), (1 -+ alpha_{i-1} +- dm) come
    from two per side, since 1 + alpha_i - dp = 2 - (1 - alpha_i + dp) and
    so on:  with u, v = ci +- dp and f, g = cp +- dm,
    s1 = u f, s2 = (2 - u)(2 - g), s3 = v g and s4 = (2 - v)(2 - f).

    u and v are numerator pairs over one denominator zu = z(ci)*z(dp), f and
    g over zf = z(cp)*z(dm), 2 - u is (2*zu - u_x, -u_y) over zu, and the
    four products share z = zu*zf.
    """
    (ax, ay, az), (bx, by, bz) = ci, cp
    (px, py, pz), (mx, my, mz) = dp, dm
    ax, ay, px, py = ax * pz, ay * pz, px * az, py * az
    bx, by, mx, my = bx * mz, by * mz, mx * bz, my * bz
    zu, zf = az * pz, bz * mz
    ux, uy, vx, vy = ax + px, ay + py, ax - px, ay - py
    fx, fy, gx, gy = bx + mx, by + my, bx - mx, by - my
    # 2 - w over the same denominator, for w = u, g, v, f
    ux2, uy2, vx2, vy2 = 2 * zu - ux, -uy, 2 * zu - vx, -vy
    gx2, gy2, fx2, fy2 = 2 * zf - gx, -gy, 2 * zf - fx, -fy
    return (
        (ux * fx + uy * fy * N, ux * fy + uy * fx),
        (ux2 * gx2 + uy2 * gy2 * N, ux2 * gy2 + uy2 * gx2),
        (vx * gx + vy * gy * N, vx * gy + vy * gx),
        (vx2 * fx2 + vy2 * fy2 * N, vx2 * fy2 + vy2 * fx2),
    ), zu * zf


def _is_max(t: int, i: int, alpha: PeriodTwoAlpha) -> bool:
    """t is the maximal digit t = a_i at index i."""
    return t == alpha.partial_quotient(i)


def reflect(tseq: TSequence, alpha: PeriodTwoAlpha) -> TSequence:
    """Digit sequence of 1 - alpha - gamma, up to a vector of Z + alpha Z,
    when no two maximal digits are adjacent (the period read cyclically).

    That vector leaves M unchanged.  Away from maximal digits this is plain
    negation of the t_i.  A maximal digit t_i = a_i stays maximal, and each
    neighbour adjacent to a maximal position picks up an extra -2 (the carry
    produced by reflecting the maximal digit).  Raises DigitRangeError if the
    carry pushes a digit out of range; that cannot happen for the catalogue
    sequences.

    With isolated maxima the reflection's tails are the negated tails plus a
    local carry, [P] being 1 when P holds and 0 otherwise:
    d'+_i = -d+_i + 2[t_{i+1} maximal] - 2 alpha_i [t_i maximal] and
    d'-_i = -d-_i + 2[t_i maximal] - 2 alpha_{i-1} [t_{i+1} maximal], which
    puts gamma + gamma' - (1 - eta) in Z + eta Z.  Two adjacent maxima stay
    as they are and carry into no digit, and the result is then not
    1 - alpha - gamma up to Z + alpha Z.
    """
    tseq.validate(alpha)

    def in_period(i: int) -> bool:  # read cyclically
        return _is_max(tseq.period_t(i), i, alpha)

    def in_preperiod(i: int) -> bool:  # the left edge counts as non-maximal
        return i >= 1 and _is_max(tseq.t_at(i), i, alpha)

    def refl(ts: tuple[int, ...], is_max) -> tuple[int, ...]:
        return tuple(
            t if is_max(i) else -t - 2 * (is_max(i - 1) + is_max(i + 1))
            for i, t in enumerate(ts, start=1)
        )

    return TSequence(
        refl(tseq.period, in_period), refl(tseq.preperiod, in_preperiod)
    ).validate(alpha)


def m_star(tseq: TSequence, alpha: PeriodTwoAlpha) -> QuadNum:
    """Exact normalized approximation constant of the periodic sequence.

    Without maximal digits the lim inf reduces to the minimum of all four
    products over one period of the sequence itself (negating every t maps
    s1 <-> s3 and s2 <-> s4, so the reflection adds nothing).  With maximal
    digits in the period only s1*, s2*, s4* participate, for the sequence
    and for its reflection.  That rests on reflect giving 1 - alpha - gamma
    up to Z + alpha Z, which holds only when no two maximal digits are
    adjacent, the period read cyclically; every catalogue word is such a
    word, and on any other the result need not be the constant.

    Per variant the tails are four int walks of _tails (two to close the
    cycle, then d^+ and d^-) on reduced triples, two when the period is a
    palindrome about an even centre r (see _period_tails), and _s_ints gives
    each index's four products as numerator pairs over one shared
    denominator z, straight from the triples of the two tails and of 1 - eta
    and 1 - beta (computed once per call).

    For such a palindrome the map i -> 1 + r - i (mod L) sends
    (alpha_i, d_i^+) to (alpha_{i-1}, d_i^-) and back, so it fixes s1* and
    s3* and swaps s2* and s4*: the products at i and at its image are the
    same set, and both pick sets, (s1..s4) and (s1, s2, s4), are closed under
    s2 <-> s4.  It has no fixed point, 1 + r being odd and L even, so the L/2
    consecutive indices r/2 + 1 - L/2, ..., r/2 hold one index of each pair
    and the minimum is taken over them alone.  Each variant is tested on its
    own.

    The minimum is found on ints: within an index by the sign of a numerator
    difference, across indices and variants by cross-multiplying with the
    running best (X, Y, Z), the first of equal values kept.  One _make
    reduces the winner, the only QuadNum built.
    """
    tseq.validate(alpha)
    period = TSequence(tseq.period)
    if any(_is_max(t, i, alpha) for i, t in enumerate(period.period, start=1)):
        variants = (period, reflect(period, alpha))
        picks = (0, 1, 3)
    else:
        variants = (period,)
        picks = (0, 1, 2, 3)
    first, *rest = picks
    one_minus = _one_minus(alpha)
    N = alpha.N
    X, Y, Z = 1, 0, 0  # 1/0 is above every product: x*0 - 1*z = -z < 0
    for seq in variants:
        minus, plus, r = _period_tails(seq.period, alpha)
        L = len(seq.period)
        # one index of each mirror pair; a negative i reads the lists at i mod L
        for i in range(L) if r is None else range(r // 2 + 1 - L // 2, r // 2 + 1):
            s, z = _s_ints(*one_minus[i % 2], minus[i], plus[i], N)
            x, y = s[first]
            for j in rest:
                qx, qy = s[j]
                if _sign(qx - x, qy - y, N) < 0:
                    x, y = qx, qy
            if _sign(x * Z - X * z, y * Z - Y * z, N) < 0:
                X, Y, Z = x, y, z
    return _make(X, Y, Z, N)


def m_value(mstar: QuadNum, alpha: PeriodTwoAlpha) -> QuadNum:
    """Plain approximation constant M = M* / (4(1 - D))."""
    return mstar / alpha.norm_factor


def max_digit_bound(alpha: PeriodTwoAlpha, j: int) -> QuadNum:
    """Upper bound alpha_{j-1} when t_k = a_k occurs infinitely often, k = j mod 2."""
    return alpha.alpha_at(j - 1)


def repeated_t_bound(alpha: PeriodTwoAlpha, j: int, t: int) -> QuadNum:
    """Upper bound (a_j - t) alpha_{j-1} when |t_k| >= t infinitely often, k = j mod 2.

    Equals 1 - t*alpha_{j-1} + D exactly.
    """
    quot = alpha.partial_quotient(j)
    if not 0 <= t <= quot:
        raise ValueError(f"need 0 <= t <= {quot}, got {t}")
    return (quot - t) * alpha.alpha_at(j - 1)
