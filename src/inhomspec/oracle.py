"""Brute-force corroboration of approximation constants.

The constant being checked is the lim inf over n of |n| * ||n*alpha - gamma||
(distance to the nearest integer).  A windowed minimum over n in [n_lo, n_hi]
with n_lo >= 10^3 approximates it from above; small n must be cut off because
the lim inf ignores finitely many terms.  By default only positive n are
swept.  With two_sided=True (what the CLI always uses) the negative half is
swept too, as positive n against -gamma, and the smaller side wins; a
negative argmin_n marks a minimum from the n < 0 side.  Some classes attain
their constant on one side only.

The sweep runs in scaled integer arithmetic: alpha and gamma are rounded to
64-bit fixed point and n*A - G is walked with exact wraparound (numpy uint64),
so the only error is the initial rounding, bounded by (n_hi + 1) * 2^-64 in
the residue and by n_hi^2 * 2^-64 + a few ulps in the objective.  Every
candidate within that certified slack of the apparent minimum is then
re-evaluated in exact QuadNum arithmetic, so the reported window minimum is
exact.  A pure QuadNum loop is available via exact=True for small windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .quadfield import QuadNum
from .ncf import PeriodTwoAlpha

__all__ = ["OracleReport", "ConvergenceTable", "brute_force_min", "liminf_estimate"]

_CHUNK = 1 << 20


@dataclass(frozen=True)
class OracleReport:
    n_lo: int
    n_hi: int
    window_min: QuadNum
    argmin_n: int  # negative: the minimum came from the n < 0 side
    target_m: Optional[QuadNum] = None
    relative_gap: Optional[float] = None

    def to_json_dict(self, digits: int = 18) -> dict:
        out = {
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "window_min": self.window_min.to_json(digits),
            "argmin_n": self.argmin_n,
        }
        if self.target_m is not None:
            out["target_m"] = self.target_m.to_json(digits)
            out["relative_gap"] = self.relative_gap
        return out


def _nearest_distance(x: QuadNum) -> QuadNum:
    """||x||, the exact distance to the nearest integer."""
    d = x - (x + Fraction(1, 2)).floor()
    return -d if d.sign() < 0 else d


def _exact_term(alpha: PeriodTwoAlpha, gamma: QuadNum, n: int) -> QuadNum:
    """n * ||n*alpha - gamma||, every step exact."""
    return _nearest_distance(alpha.eta * n - gamma) * n


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

    With two_sided=True the sweep honors the |n| in the defining lim inf:
    negative n against gamma equal positive n against -gamma, so both
    targets are swept and the smaller side wins (argmin_n < 0 marks it).
    Some classes attain their constant on one side only.
    """
    if not 1 <= n_lo <= n_hi:
        raise ValueError("need 1 <= n_lo <= n_hi")
    gamma = alpha.eta._coerce(gamma)
    if two_sided:
        pos = brute_force_min(alpha, gamma, n_lo, n_hi, target_m=target_m, exact=exact)
        neg = brute_force_min(alpha, -gamma, n_lo, n_hi, target_m=target_m, exact=exact)
        if neg.window_min < pos.window_min:
            return OracleReport(
                n_lo=n_lo, n_hi=n_hi, window_min=neg.window_min,
                argmin_n=-neg.argmin_n, target_m=neg.target_m,
                relative_gap=neg.relative_gap,
            )
        return pos
    if exact:
        # incremental: n*alpha - gamma advances by one addition per step
        x = alpha.eta * n_lo - gamma
        best_n, best = n_lo, _nearest_distance(x) * n_lo
        for n in range(n_lo + 1, n_hi + 1):
            x = x + alpha.eta
            v = _nearest_distance(x) * n
            if v < best:
                best_n, best = n, v
        return _finish(alpha, gamma, n_lo, n_hi, best, best_n, target_m)

    scale = 1 << 64
    A = int(((alpha.eta * scale) + Fraction(1, 2)).floor()) % scale
    G = int(((gamma * scale) + Fraction(1, 2)).floor()) % scale
    a_u = np.uint64(A)
    g_u = np.uint64(G)
    # certified slack: rounding of A, G contributes <= (n+1)/2 scaled units to
    # the residue, hence <= n*(n+1)/2 * 2^-64 to the objective; float rounding
    # of the product adds a few ulps.  The true argmin's approximation can sit
    # up to twice that above the apparent minimum, so candidates keep 2*slack.
    slack = 2 * ((n_hi * (n_hi + 1) / 2 + n_hi) / scale + 1e-9)

    best_val = np.inf
    cand_ns: list[int] = []
    for lo in range(n_lo, n_hi + 1, _CHUNK):
        hi = min(lo + _CHUNK - 1, n_hi)
        ns = np.arange(lo, hi + 1, dtype=np.uint64)
        r = ns * a_u - g_u  # exact mod 2^64
        dist = np.minimum(r, np.uint64(0) - r).astype(np.float64) / scale
        vals = dist * ns.astype(np.float64)
        m = float(vals.min())
        best_val = min(best_val, m)
        keep = vals <= best_val + slack
        cand_ns.extend(int(v) for v in ns[keep])
        if len(cand_ns) > 200000:  # re-tighten against the running minimum
            cand_ns = [n for n in cand_ns if _approx(n, A, G, scale) <= best_val + slack]

    cand_ns = [n for n in cand_ns if _approx(n, A, G, scale) <= best_val + slack]
    best = None
    best_n = None
    for n in cand_ns:
        v = _exact_term(alpha, gamma, n)
        if best is None or v < best:
            best, best_n = v, n
    return _finish(alpha, gamma, n_lo, n_hi, best, best_n, target_m)


def _approx(n: int, A: int, G: int, scale: int) -> float:
    r = (n * A - G) % scale
    return min(r, scale - r) / scale * n


def _finish(alpha, gamma, n_lo, n_hi, best, best_n, target_m):
    rel = None
    if target_m is not None and target_m.sign() != 0:
        rel = abs(float((best - target_m) / target_m))
    return OracleReport(
        n_lo=n_lo, n_hi=n_hi, window_min=best, argmin_n=best_n,
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
    rel_tol: float = 1e-3,
    two_sided: bool = False,
) -> ConvergenceTable:
    """Window minima plus a stabilization verdict.

    Windows must be increasing and non-overlapping (shared endpoints are
    fine).  The estimate is declared stable when the last two window minima
    agree to rel_tol; the lim inf is then read off as the last window's
    minimum.
    """
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
    value = None
    if len(reports) >= 2:
        u, v = float(reports[-2].window_min), float(reports[-1].window_min)
        if v == u == 0:
            stabilized = True
        elif max(abs(u), abs(v)) > 0:
            stabilized = abs(u - v) <= rel_tol * max(abs(u), abs(v))
    if stabilized:
        value = float(reports[-1].window_min)
    return ConvergenceTable(reports, stabilized, value)
