"""Brute-force corroboration of approximation constants.

The constant being checked is M = lim inf over |n| -> inf of
|n| * ||n*alpha - gamma|| (distance to the nearest integer).  Negative n
against gamma equal positive n against -gamma, so each side is a problem in
positive n.  The smaller side wins, a tie goes to n > 0, and a negative n in
a result marks the n < 0 side.  Some classes attain their constant on one
side only.

One walk, _records, visits the strict distance records of n*eta - gamma in
exact arithmetic, eta = alpha.eta (Cassels, *An Introduction to Diophantine
Approximation*, ch. III; Sos 1958).  From a record n with signed residue e
(n*eta - gamma minus its nearest integer), the next record is n + m for the
least m >= 1 whose signed error m*eta - p lies in (-2e, 0), or in (0, 2|e|)
when e < 0.  That is a first return of the rotation by eta into a one-sided
interval, so m is a semiconvergent q_t + j*q_{t+1} of eta's regular
continued fraction, with one exact floor for j.  Two entry points consume
the walk, each on both sides:

* brute_force_min(alpha, gamma, n_lo, n_hi) takes the exact minimum over a
  window, which only bounds M from above.  Let n* be the smallest n
  attaining it.  Every m in [n_lo, n*) has ||m*eta - gamma|| > ||n*eta -
  gamma||, or m would give a strictly smaller product, so n* is a strict
  distance record counted from n_lo.  The walk from n_lo visits only those
  records, in O(log n_hi) steps per side, and is left as soon as q_t shows
  that the next one lies past n_hi.  Its table of convergents is built once
  per (eta pair, Z, N, bit length of n_hi) and cached.
* oracle_m(alpha, gamma) walks the records from n = 1 until the walk's
  normalized state repeats, and returns M exactly, with the cycle as its
  certificate.  Its docstring gives the argument.  Its two sides share one
  table, which the walk extends as it needs.

The walk runs on plain ints.  With Z = lcm of the denominators of eta and
gamma, fixed for the whole walk, every quantity in it -- the signed residues,
the signed convergent errors e_k = q_k*eta - p_k and the products |e|*n -- is
an int pair (X, Y) standing for (X + Y*sqrt(N))/Z.  The table stores no
absolute value: its entry at index t has e < 0 for even t, so each |e| is e
times the sign its index fixes.  Sums and int multiples act on the pairs,
comparisons take the exact sign of a sum of pairs, the nearest integer of a
residue is one exact floor, and j is the floor of a quotient of two pairs,
taken after multiplying through by the divisor's conjugate.  The table's
complete quotients |e_{k-1}|/|e_k|, a final result and oracle_m's state keys
are QuadNums.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from math import lcm
from typing import Iterator, Optional, Sequence

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

    def json_tree(self) -> dict:
        """The JSON layout of the report, one key per field (target_m only
        when it is set), with the exact values as QuadNum leaves; `oracle`
        writes it as it stands."""
        tree = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.target_m is None:
            del tree["target_m"]
        return tree


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


def _errors(ex: int, ey: int, z: int, N: int) -> Iterator[tuple]:
    """(q_k, x_k, y_k, r_k) for k = -1, 0, 1, ... of the regular continued
    fraction of eta = (ex + ey*sqrt(N))/z, without end.

    e_k = q_k*eta - p_k = (x_k + y_k*sqrt(N))/z is the signed error, with
    q_{-1} = 0, e_{-1} = -1, q_0 = 1 and e_0 = eta - floor(eta); signs
    alternate, so the entry at list index t has e < 0 for even t.  r_k =
    |e_{k-1}|/|e_k| = -e_{k-1}/e_k is the complete quotient, a QuadNum (None
    for k = -1), and floor(r_k) the next partial quotient.
    """
    x0 = ex - _floor(ex, ey, z, N) * z
    prev, cur = (0, -z, 0, None), (1, x0, ey, _div(z, 0, 1, x0, ey, 1, N))
    yield prev
    while True:
        yield cur
        (q1, x1, y1, _), (q2, x2, y2, r) = prev, cur
        c = r.floor()  # the next partial quotient: e_{k+1} = e_{k-1} + c*e_k
        x, y = x1 + c * x2, y1 + c * y2
        prev, cur = cur, (q1 + c * q2, x, y, _div(-x2, -y2, 1, x, y, 1, N))


@lru_cache(maxsize=256)
def _convergents(ex: int, ey: int, z: int, N: int, bits: int) -> tuple[tuple, ...]:
    """The entries of _errors until two denominators reach 2^bits, so every
    q_t < 2^bits has entries t + 1 and t + 2 after it."""
    entries = _errors(ex, ey, z, N)
    table = [next(entries), next(entries)]
    while table[-2][0] >> bits == 0:
        table.append(next(entries))
    return tuple(table)


def _pairs(eta: QuadNum, gamma: QuadNum) -> tuple[int, ...]:
    """(ex, ey, gx, gy, z, N): eta = (ex + ey*sqrt(N))/z and gamma likewise,
    over z = the lcm of their denominators.  gamma is read by eta._parts, so
    N is eta's field (eta is irrational), and a gamma irrational in another
    field raises ContextMismatchError."""
    gx, gy, gz, N = eta._parts(gamma)
    z = lcm(eta._z, gz)
    e, g = z // eta._z, z // gz
    return eta._x * e, eta._y * e, gx * g, gy * g, z, N


def _records(
    ex: int, ey: int, gx: int, gy: int, z: int, N: int, n: int,
    table: Sequence[tuple], entries: Iterator[tuple],
) -> Iterator[tuple[int, ...]]:
    """Yield (n, x, y, s, t) for each strict distance record of
    n*eta - gamma from the given n on, in order.

    e = (x + y*sqrt(N))/z is the record's signed residue, s its sign, and t
    the index of the step's semiconvergents q_t + j*q_{t+1}.  t is even when
    s > 0, so e_t has the sign -s and e_{t+1} the sign s: the step seeks the
    first t with |e_{t+2}| < 2|e|, that is s*(e_{t+2} + 2e) > 0, and takes
    j = floor((|e_t| - 2|e|)/|e_{t+1}|) + 1 = floor(-(e_t + 2e)/e_{t+1}) + 1
    (or 0).  table holds the first entries of _errors(ex, ey, z, N), and the
    walk appends the rest from entries as it needs them.  It ends after an
    exact zero, and after a record whose step needs an entry that neither
    holds; q_t then only bounds that step from below.
    """
    x = ex * n - gx
    y = ey * n - gy
    x -= _floor(2 * x + z, 2 * y, 2 * z, N) * z  # the residue e, in [-1/2, 1/2)
    # indexed by s > 0: the first t to try, even for e > 0 as the errors
    # sought are then negative; it only moves forward, as 2|e| shrinks
    start = [1, 0]
    while True:
        s = _sign(x, y, N)
        wx, wy = 2 * x, 2 * y  # 2e
        t = start[s > 0]
        while s:
            try:  # stop at the first |e_{t+2}| < 2|e|
                if s * _sign(table[t + 2][1] + wx, table[t + 2][2] + wy, N) > 0:
                    break
                t += 2
            except IndexError:  # past the end of the table: extend it from entries
                entry = next(entries, None)
                if entry is None:  # q_t only bounds this record's step
                    yield n, x, y, s, t
                    return
                table.append(entry)
        start[s > 0] = t
        yield n, x, y, s, t
        if not s:
            return
        (q0, x0, y0, _), (q1, x1, y1, _) = table[t], table[t + 1]
        j = max(0, _floor_div(-x0 - wx, -y0 - wy, x1, y1, N) + 1)
        n += q0 + j * q1
        x += x0 + j * x1
        y += y0 + j * y1


def _off_lattice(alpha: PeriodTwoAlpha, gamma: QuadNum) -> tuple[int, ...]:
    """_pairs(alpha.eta, gamma), refusing gamma in Z + alpha*Z with
    ValueError: gamma - c*eta, with c = gy/ey an int, must not be the int
    (gx - c*ex)/z."""
    ex, ey, gx, gy, z, N = ints = _pairs(alpha.eta, gamma)
    c, r = divmod(gy, ey)
    if r == 0 and (gx - c * ex) % z == 0:
        raise ValueError("gamma lies in Z + alpha*Z, where M(alpha, gamma) is not defined")
    return ints


def _smaller_side(pos: tuple, neg: tuple) -> tuple:
    """The side of (value, n, ...) with the smaller value, from the walks for
    gamma and -gamma: a tie goes to n > 0, and a negative n marks n < 0."""
    return (neg[0], -neg[1], *neg[2:]) if neg[0] < pos[0] else pos


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
    eta = alpha.eta
    ex, ey, gx, gy, z, N = _pairs(eta, gamma)
    table = _convergents(ex, ey, z, N, n_hi.bit_length())

    def side(gx: int, gy: int) -> tuple[QuadNum, int, int]:
        # the records from n_lo visit the smallest n attaining the minimum
        records = 0
        for n, x, y, s, t in _records(ex, ey, gx, gy, z, N, n_lo, table, iter(())):
            if n > n_hi:  # the last step passed n_hi
                break
            vx, vy = s * x * n, s * y * n
            if not records or _sign(vx - bx, vy - by, N) < 0:
                bx, by, best_n = vx, vy, n
            records += 1
            if table[t][0] > n_hi - n:  # the next record lies past n_hi
                break
        return _make(bx, by, z, N), best_n, records

    best, best_n, records = side(gx, gy)
    if two_sided:
        neg = side(-gx, -gy)
        best, best_n = _smaller_side((best, best_n), neg[:2])
        records += neg[2]
    return OracleReport(
        n_lo=n_lo, n_hi=n_hi, window_min=best, argmin_n=best_n, records=records,
        target_m=target_m,
    )


def oracle_m(alpha: PeriodTwoAlpha, gamma: QuadNum) -> OracleM:
    """M(alpha, gamma) exactly, certified by one cycle of the record walk.

    Each side walks the strict distance records from n = 1, with no upper
    bound.  Let t be the index of a step's semiconvergents q_t + j*q_{t+1},
    and e_t the signed error of q_t.  The step's key is
    (e/|e_t|, |e_{t-1}|/|e_t|), the sign of the first entry being the sign
    of e; it is kept from the first step with t >= 2 on.  Both entries are
    read from e and table entry t: e_t has the sign -s, s the sign of e (see
    _records), so e/|e_t| = -s*e/e_t, and |e_{t-1}|/|e_t| is the entry's r_t.
    The walk stops at the first key it has seen before, and M on that side is
    the least |N(e)|/|eta - eta'| over the records of the cycle, N the field
    norm and ' the conjugate.  The smaller side wins, and cycle_start_n < 0
    marks the n < 0 side.  Why this is M:

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

    gamma in Z + alpha*Z is refused with ValueError (see _off_lattice):
    M(alpha, gamma) is not defined there, and a walk reaches e = 0 on one
    side when gamma is not an integer.
    """
    ex, ey, gx, gy, z, N = _off_lattice(alpha, gamma)
    table, entries = [], _errors(ex, ey, z, N)  # both sides extend one table

    def side(gx: int, gy: int) -> tuple[QuadNum, int, int]:
        seen = {}  # key -> (record index, n)
        norms = []  # |x^2 - y^2*N| = z^2 * |N(e)| per record
        for n, x, y, s, t in _records(ex, ey, gx, gy, z, N, 1, table, entries):
            if t >= 2:
                _, xt, yt, r = table[t]
                key = (_div(-s * x, -s * y, 1, xt, yt, 1, N), r)
                if key in seen:
                    first, first_n = seen[key]
                    m = _make(0, min(norms[first:]), 2 * abs(ey) * z * N, N)
                    return m, first_n, len(norms) - first
                seen[key] = len(norms), n
            norms.append(abs(x * x - y * y * N))

    m, n, cycle = _smaller_side(side(gx, gy), side(-gx, -gy))
    return OracleM(m, cycle, n)
