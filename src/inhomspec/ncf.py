"""Negative ("minus") continued fractions and the period-two setup.

A period-two quadratic is fixed by its two partial quotients 2 <= a < b.  The
purely periodic fractional values

    eta  = 1/(a - 1/(b - 1/(a - ...)))      (period a, b)
    beta = 1/(b - 1/(a - 1/(b - ...)))      (period b, a)

live in Q(sqrt(N)) with N = a*b*(a*b - 4); that choice of N clears every
denominator, so no factorization is needed.  D = eta*beta.  The exact
identities a*eta = 1 + D and b*beta = 1 + D are checked at construction time.

:func:`ncf_expand` recovers the minus expansion of an arbitrary quadratic,
detecting the period by exact repetition of the QuadNum remainder.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .quadfield import QuadNum, _check_field, _make

__all__ = [
    "PeriodTwoAlpha",
    "make_alpha",
    "NCFExpansion",
    "ncf_expand",
    "NonPeriodicError",
    "PeriodNotFoundError",
]


class NonPeriodicError(ValueError):
    """Input was rational; minus expansions of rationals terminate."""


class PeriodNotFoundError(RuntimeError):
    """No exact remainder repetition within max_terms steps."""


class PeriodTwoAlpha(NamedTuple):
    """The pair (a, b) with its exact constants eta, beta, D in Q(sqrt(N))."""

    a: int
    b: int
    N: int
    eta: QuadNum
    beta: QuadNum
    D: QuadNum

    def partial_quotient(self, i: int) -> int:
        """Partial quotient at index i (a at odd positions, b at even)."""
        return self.a if i % 2 == 1 else self.b

    def alpha_at(self, i: int) -> QuadNum:
        """beta at odd indices, eta at even indices."""
        return self.beta if i % 2 == 1 else self.eta

    @property
    def one(self) -> QuadNum:
        return QuadNum(1, 0, self.N)

    @property
    def norm_factor(self) -> QuadNum:
        """4(1 - D), the bridge between normalized and plain minima."""
        return (1 - self.D) * 4

    def __str__(self) -> str:
        return f"alpha(a={self.a}, b={self.b})"


@lru_cache(maxsize=None, typed=True)  # 4.0 == 4, but only an int is a quotient
def make_alpha(a: int, b: int) -> PeriodTwoAlpha:
    """Exact constants for the period-two expansion with quotients (a, b)."""
    if not (isinstance(a, int) and isinstance(b, int)):
        raise TypeError("partial quotients must be ints")
    if not 2 <= a < b:
        raise ValueError(f"need 2 <= a < b, got ({a}, {b})")
    ab = a * b
    N = _check_field(ab * (ab - 4))
    # eta = (ab - sqrt(N)) / (2a) = (b - sqrt(b^2 - 4b/a)) / 2
    eta = _make(ab, -1, 2 * a, N)
    beta = _make(ab, -1, 2 * b, N)
    D = eta * beta
    if not (eta * a == 1 + D and beta * b == 1 + D):
        raise RuntimeError(f"a*eta = b*beta = 1 + D fails at ({a}, {b})")
    if not (0 < beta < eta < 1 and D < 1):
        raise RuntimeError(f"0 < beta < eta < 1 and D < 1 fail at ({a}, {b})")
    return PeriodTwoAlpha(a=a, b=b, N=N, eta=eta, beta=beta, D=D)


class NCFExpansion(NamedTuple):
    """x = head - 1/(d1 - 1/(d2 - ...)), or x = 1/(d1 - ...) when head == 0.

    All fractional digits are >= 2.  `preperiod` then `period` list the
    digits; the period repeats forever.
    """

    integer_part: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def period_two(self) -> tuple[int, int] | None:
        """(a, b) when purely periodic with period exactly (a, b), a < b."""
        if self.preperiod or len(self.period) != 2:
            return None
        a, b = self.period
        return (a, b) if a < b else None

    def __str__(self) -> str:
        pre = ",".join(map(str, self.preperiod))
        per = ",".join(map(str, self.period))
        body = (pre + "," if pre else "") + f"({per})*"
        return f"[{self.integer_part}; {body}]^-"


def ncf_expand(x: QuadNum, max_terms: int = 512) -> NCFExpansion:
    """Minus-expansion of a real quadratic irrational, with minimal period.

    For 0 < x < 1 the head is 0 and the digits give x = 1/(d1 - 1/(d2 - ...)),
    matching the purely periodic normal form of eta and beta.  Otherwise the
    head is ceil(x) and the digits expand the defect ceil(x) - x the same way.
    A max_terms below 1 raises ValueError.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if x.q == 0:
        raise NonPeriodicError("rational input has a terminating expansion")
    if 0 < x < 1:
        head, y = 0, x
    else:
        head = x.ceil()
        y = head - x
    digits: list[int] = []
    seen: dict[QuadNum, int] = {}
    for _ in range(max_terms):
        if y in seen:
            cut = seen[y]
            return NCFExpansion(head, tuple(digits[:cut]), tuple(digits[cut:]))
        seen[y] = len(digits)
        inv = 1 / y
        d = inv.ceil()
        digits.append(d)
        y = d - inv
    raise PeriodNotFoundError(f"no period within {max_terms} terms")
