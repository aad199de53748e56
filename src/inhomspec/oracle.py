"""Brute-force corroboration of approximation constants.

The constant being checked is the lim inf over n of |n| * ||n*alpha - gamma||
(distance to the nearest integer).  A windowed minimum over n in [n_lo, n_hi]
with n_lo >= 10^3 approximates it from above; small n must be cut off because
the lim inf ignores finitely many terms.  By default only positive n are
searched.  With two_sided=True (what the CLI always uses) the negative half is
searched too, as positive n against -gamma, and the smaller side wins; a
negative argmin_n marks a minimum from the n < 0 side.  Some classes attain
their constant on one side only.

The window minimum is found by a record walk in exact arithmetic on
eta = alpha.eta, in O(log n_hi) steps per side (Cassels, *An Introduction to
Diophantine Approximation*, ch. III; Sos 1958).  Let n* be the smallest n
attaining the minimum.  Every m in [n_lo, n*) has
||m*eta - gamma|| > ||n*eta - gamma||, or m would give a strictly smaller
product, so n* is a strict distance record counted from n_lo, and the walk
visits only those records.  From a record n with signed residue e
(n*eta - gamma minus its nearest integer), the next record is n + m for the
least m >= 1 whose signed error m*eta - p lies in (-2e, 0), or in (0, 2|e|)
when e < 0.  That is a first return of the rotation by eta into a one-sided
interval, so m is a semiconvergent q_i + j*q_{i+1} of eta's regular
continued fraction, with one exact floor for j.

The walk runs on plain ints.  With Z = lcm of the denominators of eta and
gamma, fixed for the whole walk, every quantity in it -- the residues, their
absolute values, the widths 2|e|, the convergent errors q_k*eta - p_k and the
products |e|*n -- is an int pair (X, Y) standing for (X + Y*sqrt(N))/Z.  Sums
and int multiples act on the pairs, comparisons take the exact sign of a
difference of pairs, the nearest integer of a residue is one exact floor, and
a partial quotient or j is the floor of a quotient of two pairs, taken after
multiplying through by the divisor's conjugate.  Only the final minimum
becomes a QuadNum.  The table of convergents is built once per (eta pair, Z,
N, bit length of n_hi).  A pure QuadNum loop over every n is available via
exact=True; the tests use it as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional, Sequence

from .quadfield import QuadNum, _floor, _make, _sign
from .ncf import PeriodTwoAlpha

__all__ = ["OracleReport", "ConvergenceTable", "brute_force_min", "liminf_estimate"]


@dataclass(frozen=True)
class OracleReport:
    n_lo: int
    n_hi: int
    window_min: QuadNum
    argmin_n: int  # negative: the minimum came from the n < 0 side
    records: int  # distance records visited, summed over the sides searched
    target_m: Optional[QuadNum] = None
    relative_gap: Optional[float] = None

    def to_json_dict(self, digits: int = 18) -> dict:
        out = {
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "window_min": self.window_min.to_json(digits),
            "argmin_n": self.argmin_n,
            "records": self.records,
        }
        if self.target_m is not None:
            out["target_m"] = self.target_m.to_json(digits)
            out["relative_gap"] = self.relative_gap
        return out


def _abs(x: QuadNum) -> QuadNum:
    return -x if x.sign() < 0 else x


def _residue(x: QuadNum) -> QuadNum:
    """x minus its nearest integer, in [-1/2, 1/2)."""
    return x - (x + Fraction(1, 2)).floor()


def _floor_div(ux: int, uy: int, vx: int, vy: int, N: int) -> int:
    """floor((ux + uy*sqrt(N)) / (vx + vy*sqrt(N))) for a nonzero divisor."""
    # multiply through by the conjugate vx - vy*sqrt(N); the norm is not 0
    n = vx * vx - vy * vy * N
    x, y = ux * vx - uy * vy * N, uy * vx - ux * vy
    if n < 0:
        x, y, n = -x, -y, -n
    return _floor(x, y, n, N)


@lru_cache(maxsize=256)
def _convergents(ex: int, ey: int, z: int, N: int, bits: int) -> tuple[tuple[int, ...], ...]:
    """(q_k, x_k, y_k, u_k, v_k) for k = -1, 0, 1, ... of the regular
    continued fraction of eta = (ex + ey*sqrt(N))/z.

    e_k = q_k*eta - p_k = (x_k + y_k*sqrt(N))/z is the signed error and
    (u_k + v_k*sqrt(N))/z its absolute value, with q_{-1} = 0,
    e_{-1} = -1, q_0 = 1 and e_0 = eta - floor(eta); signs alternate, so the
    entry at tuple index t has e < 0 for even t.  The tuple runs until two
    denominators reach 2^bits, so every q_t < 2^bits has entries t + 1 and
    t + 2 after it.
    """
    x0 = ex - _floor(ex, ey, z, N) * z
    table = [(0, -z, 0, z, 0), (1, x0, ey, x0, ey)]
    while table[-2][0] >> bits == 0:
        (q1, x1, y1, u1, v1), (q2, x2, y2, u2, v2) = table[-2], table[-1]
        c = _floor_div(u1, v1, u2, v2, N)  # the next partial quotient
        x, y = x1 + c * x2, y1 + c * y2
        u, v = (x, y) if _sign(x, y, N) > 0 else (-x, -y)
        table.append((q1 + c * q2, x, y, u, v))
    return tuple(table)


def _walk(eta: QuadNum, gamma: QuadNum, n_lo: int, n_hi: int):
    """(min, argmin, records) of n*||n*eta - gamma|| over n in [n_lo, n_hi].

    Visits the strict distance records from n_lo in order, so the smallest
    n attaining the minimum wins a tie.  Every quantity is an int pair
    (x, y) standing for (x + y*sqrt(N))/z over one z for the whole walk.
    """
    N = eta._N
    z = lcm(eta._z, gamma._z)
    ex, ey = eta._x * (z // eta._z), eta._y * (z // eta._z)
    table = _convergents(ex, ey, z, N, n_hi.bit_length())
    n = n_lo
    x = ex * n - gamma._x * (z // gamma._z)
    y = ey * n - gamma._y * (z // gamma._z)
    x -= _floor(2 * x + z, 2 * y, 2 * z, N) * z  # the residue e, in [-1/2, 1/2)
    s = _sign(x, y, N)
    bx, by, best_n, records = s * x * n, s * y * n, n, 1
    # per side of the error sought: the tuple index t of the one-sided
    # semiconvergents q_t + j*q_{t+1}; it only moves forward, as 2|e| shrinks
    start = {-1: 0, 1: 1}
    while s:
        wx, wy = 2 * s * x, 2 * s * y  # the width 2|e|
        t = start[-s]
        while _sign(table[t + 2][3] - wx, table[t + 2][4] - wy, N) >= 0:
            t += 2
            if table[t][0] > n_hi - n:  # the next record lies past n_hi
                return _make(bx, by, z, N), best_n, records
        start[-s] = t
        q0, x0, y0, u0, v0 = table[t]
        q1, x1, y1, u1, v1 = table[t + 1]
        j = max(0, _floor_div(u0 - wx, v0 - wy, u1, v1, N) + 1)
        m = q0 + j * q1
        if m > n_hi - n:
            break
        n += m
        x += x0 + j * x1
        y += y0 + j * y1
        s = _sign(x, y, N)
        records += 1
        vx, vy = s * x * n, s * y * n
        if _sign(vx - bx, vy - by, N) < 0:
            bx, by, best_n = vx, vy, n
    return _make(bx, by, z, N), best_n, records


def brute_force_min(
    alpha: PeriodTwoAlpha,
    gamma: QuadNum,
    n_lo: int,
    n_hi: int,
    target_m: Optional[QuadNum] = None,
    exact: bool = False,
    two_sided: bool = False,
) -> OracleReport:
    """Exact minimum of n * ||n*alpha - gamma|| over n in [n_lo, n_hi].

    With two_sided=True the search honors the |n| in the defining lim inf:
    negative n against gamma equal positive n against -gamma, so both
    targets are searched and the smaller side wins (argmin_n < 0 marks it).
    Some classes attain their constant on one side only.  exact=True checks
    every n in the window instead of walking the records.  The bounds must be
    ints (not bools) with 1 <= n_lo <= n_hi.
    """
    for bound in (n_lo, n_hi):
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise TypeError(f"window bounds must be ints, got {type(bound).__name__}")
    if not 1 <= n_lo <= n_hi:
        raise ValueError("need 1 <= n_lo <= n_hi")
    gamma = alpha.eta._coerce(gamma)
    if two_sided:
        pos = brute_force_min(alpha, gamma, n_lo, n_hi, target_m=target_m, exact=exact)
        neg = brute_force_min(alpha, -gamma, n_lo, n_hi, target_m=target_m, exact=exact)
        records = pos.records + neg.records
        if neg.window_min < pos.window_min:
            return replace(neg, argmin_n=-neg.argmin_n, records=records)
        return replace(pos, records=records)
    if exact:
        # incremental: n*alpha - gamma advances by one addition per step
        x = alpha.eta * n_lo - gamma
        dist = _abs(_residue(x))
        best_n, best, records = n_lo, dist * n_lo, 1
        for n in range(n_lo + 1, n_hi + 1):
            x = x + alpha.eta
            d = _abs(_residue(x))
            if d < dist:
                dist, records = d, records + 1
            v = d * n
            if v < best:
                best_n, best = n, v
    else:
        best, best_n, records = _walk(alpha.eta, gamma, n_lo, n_hi)
    rel = None
    if target_m is not None and target_m.sign() != 0:
        rel = abs(float((best - target_m) / target_m))
    return OracleReport(
        n_lo=n_lo, n_hi=n_hi, window_min=best, argmin_n=best_n, records=records,
        target_m=target_m, relative_gap=rel,
    )


@dataclass(frozen=True)
class ConvergenceTable:
    windows: tuple[OracleReport, ...]
    stabilized: bool
    stabilized_value: Optional[float]

    def to_json_dict(self, digits: int = 18) -> dict:
        return {
            "windows": [w.to_json_dict(digits) for w in self.windows],
            "stabilized": self.stabilized,
            "stabilized_value": self.stabilized_value,
        }


DEFAULT_WINDOWS: tuple[tuple[int, int], ...] = (
    (10**3, 10**4),
    (10**4, 10**5),
    (10**5, 10**6),
)


def liminf_estimate(
    alpha: PeriodTwoAlpha,
    gamma: QuadNum,
    windows: Sequence[tuple[int, int]] = DEFAULT_WINDOWS,
    target_m: Optional[QuadNum] = None,
    rel_tol: Fraction = Fraction(1, 1000),
    two_sided: bool = False,
) -> ConvergenceTable:
    """Window minima plus a stabilization verdict.

    Windows must be increasing and non-overlapping (shared endpoints are
    fine).  The estimate is declared stable when the last two window minima
    u, v satisfy |u - v| <= rel_tol * max(u, v), decided exactly (rel_tol is
    an int or a Fraction); the lim inf is then read off as the last window's
    minimum, rendered as a float.
    """
    if not windows:
        raise ValueError("need at least one window")
    prev_hi = 0
    for lo, hi in windows:
        if not (prev_hi <= lo <= hi):
            raise ValueError("windows must be increasing and non-overlapping")
        prev_hi = hi
    reports = tuple(
        brute_force_min(alpha, gamma, lo, hi, target_m=target_m, two_sided=two_sided)
        for lo, hi in windows
    )
    stabilized = False
    if len(reports) >= 2:
        u, v = reports[-2].window_min, reports[-1].window_min
        stabilized = _abs(u - v) <= max(u, v) * rel_tol
    value = float(reports[-1].window_min) if stabilized else None
    return ConvergenceTable(reports, stabilized, value)
