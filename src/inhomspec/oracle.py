"""Brute-force corroboration of approximation constants.

The constant being checked is M = lim inf over |n| -> inf of
|n| * ||n*alpha - gamma|| (distance to the nearest integer).  Negative n
against gamma equal positive n against -gamma, so each side is a problem in
positive n, and the smaller side wins; a negative n in a result marks the
n < 0 side.  Some classes attain their constant on one side only.

Both entry points walk the strict distance records of n*eta - gamma in exact
arithmetic, eta = alpha.eta (Cassels, *An Introduction to Diophantine
Approximation*, ch. III; Sos 1958).  From a record n with signed residue e
(n*eta - gamma minus its nearest integer), the next record is n + m for the
least m >= 1 whose signed error m*eta - p lies in (-2e, 0), or in (0, 2|e|)
when e < 0.  That is a first return of the rotation by eta into a one-sided
interval, so m is a semiconvergent q_t + j*q_{t+1} of eta's regular
continued fraction, with one exact floor for j.

* oracle_m(alpha, gamma) walks the records from n = 1 until the walk's
  normalized state repeats, and returns M exactly, with the cycle as its
  certificate.  Its docstring gives the argument.
* brute_force_min(alpha, gamma, n_lo, n_hi) returns the exact minimum over a
  window, which only bounds M from above.  Let n* be the smallest n attaining
  it.  Every m in [n_lo, n*) has ||m*eta - gamma|| > ||n*eta - gamma||, or m
  would give a strictly smaller product, so n* is a strict distance record
  counted from n_lo.  The walk from n_lo visits only those records, in
  O(log n_hi) steps per side.

The walks run on plain ints.  With Z = lcm of the denominators of eta and
gamma, fixed for the whole walk, every quantity in it -- the residues, their
absolute values, the widths 2|e|, the convergent errors q_k*eta - p_k and the
products |e|*n -- is an int pair (X, Y) standing for (X + Y*sqrt(N))/Z.  Sums
and int multiples act on the pairs, comparisons take the exact sign of a
difference of pairs, the nearest integer of a residue is one exact floor, and
a partial quotient or j is the floor of a quotient of two pairs, taken after
multiplying through by the divisor's conjugate.  Only a final result, and
oracle_m's state keys, become QuadNums.  The window walk's table of
convergents is built once per (eta pair, Z, N, bit length of n_hi); oracle_m
extends its own table on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import lcm
from typing import Iterator, Optional

from .quadfield import QuadNum, _div, _floor, _make, _sign
from .ncf import PeriodTwoAlpha

__all__ = ["OracleM", "OracleReport", "brute_force_min", "oracle_m"]


@dataclass(frozen=True)
class OracleReport:
    n_lo: int
    n_hi: int
    window_min: QuadNum
    argmin_n: int  # negative: the minimum came from the n < 0 side
    records: int  # distance records visited, summed over the sides searched
    target_m: Optional[QuadNum] = None

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
        return out


@dataclass(frozen=True)
class OracleM:
    m: QuadNum
    cycle_records: int  # records in one cycle of the walk's normalized state
    cycle_start_n: int  # n of the cycle's first record; negative on the n < 0 side


def _floor_div(ux: int, uy: int, vx: int, vy: int, N: int) -> int:
    """floor((ux + uy*sqrt(N)) / (vx + vy*sqrt(N))) for a nonzero divisor."""
    # multiply through by the conjugate vx - vy*sqrt(N); the norm is not 0
    n = vx * vx - vy * vy * N
    x, y = ux * vx - uy * vy * N, uy * vx - ux * vy
    if n < 0:
        x, y, n = -x, -y, -n
    return _floor(x, y, n, N)


def _errors(ex: int, ey: int, z: int, N: int) -> Iterator[tuple[int, ...]]:
    """(q_k, x_k, y_k, u_k, v_k) for k = -1, 0, 1, ... of the regular
    continued fraction of eta = (ex + ey*sqrt(N))/z, without end.

    e_k = q_k*eta - p_k = (x_k + y_k*sqrt(N))/z is the signed error and
    (u_k + v_k*sqrt(N))/z its absolute value, with q_{-1} = 0,
    e_{-1} = -1, q_0 = 1 and e_0 = eta - floor(eta); signs alternate, so the
    entry at list index t has e < 0 for even t.
    """
    x0 = ex - _floor(ex, ey, z, N) * z
    prev, cur = (0, -z, 0, z, 0), (1, x0, ey, x0, ey)
    yield prev
    while True:
        yield cur
        (q1, x1, y1, u1, v1), (q2, x2, y2, u2, v2) = prev, cur
        c = _floor_div(u1, v1, u2, v2, N)  # the next partial quotient
        x, y = x1 + c * x2, y1 + c * y2
        u, v = (x, y) if _sign(x, y, N) > 0 else (-x, -y)
        prev, cur = cur, (q1 + c * q2, x, y, u, v)


@lru_cache(maxsize=256)
def _convergents(ex: int, ey: int, z: int, N: int, bits: int) -> tuple[tuple[int, ...], ...]:
    """The entries of _errors until two denominators reach 2^bits, so every
    q_t < 2^bits has entries t + 1 and t + 2 after it."""
    entries = _errors(ex, ey, z, N)
    table = [next(entries), next(entries)]
    while table[-2][0] >> bits == 0:
        table.append(next(entries))
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
    two_sided: bool = False,
) -> OracleReport:
    """Exact minimum of n * ||n*alpha - gamma|| over n in [n_lo, n_hi].

    With two_sided=True the search honors the |n| in the defining lim inf:
    negative n against gamma equal positive n against -gamma, so both
    targets are searched and the smaller side wins (argmin_n < 0 marks it).
    Some classes attain their constant on one side only.  target_m is only
    carried into the report.  The bounds must be ints (not bools) with
    1 <= n_lo <= n_hi.
    """
    for bound in (n_lo, n_hi):
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise TypeError(f"window bounds must be ints, got {type(bound).__name__}")
    if not 1 <= n_lo <= n_hi:
        raise ValueError("need 1 <= n_lo <= n_hi")
    gamma = alpha.eta._coerce(gamma)
    if two_sided:
        pos = brute_force_min(alpha, gamma, n_lo, n_hi, target_m=target_m)
        neg = brute_force_min(alpha, -gamma, n_lo, n_hi, target_m=target_m)
        records = pos.records + neg.records
        if neg.window_min < pos.window_min:
            return replace(neg, argmin_n=-neg.argmin_n, records=records)
        return replace(pos, records=records)
    best, best_n, records = _walk(alpha.eta, gamma, n_lo, n_hi)
    return OracleReport(
        n_lo=n_lo, n_hi=n_hi, window_min=best, argmin_n=best_n, records=records,
        target_m=target_m,
    )


def _cycle(eta: QuadNum, gamma: QuadNum) -> tuple[QuadNum, int, int]:
    """(M, records in the cycle, n of its first record) on the n > 0 side."""
    N = eta._N
    z = lcm(eta._z, gamma._z)
    ex, ey = eta._x * (z // eta._z), eta._y * (z // eta._z)
    entries = _errors(ex, ey, z, N)
    table = [next(entries) for _ in range(4)]
    n = 1
    x = ex - gamma._x * (z // gamma._z)
    y = ey - gamma._y * (z // gamma._z)
    x -= _floor(2 * x + z, 2 * y, 2 * z, N) * z  # the residue e, in [-1/2, 1/2)
    start = {-1: 0, 1: 1}  # as in _walk
    seen = {}  # key -> (record index, n)
    norms = []  # |x^2 - y^2*N| = z^2 * |N(e)| per record
    while True:
        s = _sign(x, y, N)  # never 0 off the lattice
        wx, wy = 2 * s * x, 2 * s * y
        # the last two entries fall below 2|e|, so t + 2 stays in the table
        while _sign(table[-2][3] - wx, table[-2][4] - wy, N) >= 0:
            table.append(next(entries))
        t = start[-s]
        while _sign(table[t + 2][3] - wx, table[t + 2][4] - wy, N) >= 0:
            t += 2
        start[-s] = t
        q0, x0, y0, u0, v0 = table[t]
        q1, x1, y1, u1, v1 = table[t + 1]
        if t >= 2:
            u, v = table[t - 1][3:]
            key = (_div(x, y, 1, u0, v0, 1, N), _div(u, v, 1, u0, v0, 1, N))
            if key in seen:
                first, first_n = seen[key]
                m = _make(0, min(norms[first:]), 2 * abs(ey) * z * N, N)
                return m, len(norms) - first, first_n
            seen[key] = len(norms), n
        norms.append(abs(x * x - y * y * N))
        j = max(0, _floor_div(u0 - wx, v0 - wy, u1, v1, N) + 1)
        n += q0 + j * q1
        x += x0 + j * x1
        y += y0 + j * y1


def oracle_m(alpha: PeriodTwoAlpha, gamma: QuadNum) -> OracleM:
    """M(alpha, gamma) exactly, certified by one cycle of the record walk.

    Each side walks the strict distance records from n = 1, as the window
    walk does but with no upper bound.  Let t be the convergent index a step
    uses, so its semiconvergents are q_t + j*q_{t+1}, and e_t the signed
    error of q_t.  The step's key is (e/|e_t|, |e_{t-1}|/|e_t|), the sign of
    the first entry being the sign of e; it is kept from the first step with
    t >= 2 on.  The walk stops at the first key it has seen before, and M on
    that side is the least |N(e)|/|eta - eta'| over the records of the
    cycle, N the field norm and ' the conjugate.  The smaller side wins, and
    cycle_start_n < 0 marks the n < 0 side.  Why this is M:

    1. A step depends only on e and on the table from t - 1 onward.  The
       per-side indices only move forward, and |e_{t-1}| > |e_t| >= 2|e|
       (only a step with t = 1 can have |e_t| < 2|e|).  So every
       later step, whose |e| is smaller, uses an index >= t - 1, and finds
       it from e and the table alone.
    2. The complete quotient |e_{t-1}|/|e_t| fixes that table up to one
       scale, since |e_{k+1}| = |e_{k-1}| - floor(|e_{k-1}|/|e_k|)*|e_k|.
       So a repeated key repeats the walk scaled by the ratio of the two
       steps' |e_t|.  That ratio spans whole periods of eta's continued
       fraction, so it is a unit, and |N(e)| repeats with the records.
    3. n = (e - e' + gamma - gamma')/(eta - eta'), so
       n*e = (-N(e) + e^2 + e*(gamma - gamma'))/(eta - eta').  As e -> 0
       along the records, n|e| tends to |N(e)|/|eta - eta'| on each record
       of the cycle, and the lim inf over the records is their least value.
    4. For any n, the last record m <= n has m*d(m) <= n*d(n), d the
       distance to the nearest integer, since m <= n and d(m) <= d(n).  So M
       is the lim inf over the records.
    5. There are only finitely many keys, so the walk stops.  eta's complete
       quotients are periodic.  e/|e_t| lies in finitely many lattices fixed
       by eta and gamma, and it and its conjugate are bounded, because the
       partial quotients of eta and n|e| along the records are.

    gamma in Z + alpha*Z is refused with ValueError: M(alpha, gamma) is not
    defined there, and a walk reaches e = 0 on one side when gamma is not an
    integer.
    """
    eta = alpha.eta
    gamma = eta._coerce(gamma)
    c = gamma.q / eta.q
    rest = gamma - eta * c.numerator
    if c.denominator == 1 and rest == rest.floor():
        raise ValueError("gamma lies in Z + alpha*Z, where M(alpha, gamma) is not defined")
    pos, neg = _cycle(eta, gamma), _cycle(eta, -gamma)
    if neg[0] < pos[0]:
        return OracleM(neg[0], neg[1], -neg[2])
    return OracleM(*pos)
