"""The exact loop over every n of a window: the reference for the record walk.

brute_force_min walks only the strict distance records of a window.  This
module checks every n in the window in QuadNum arithmetic instead; tests
compare the two.  They share nothing but QuadNum.
"""

from fractions import Fraction


def _dist(x):
    """||x||: the distance from x to its nearest integer."""
    r = x - (x + Fraction(1, 2)).floor()
    return -r if r.sign() < 0 else r


def loop_min(alpha, gamma, n_lo, n_hi, two_sided=False):
    """(window_min, argmin_n, records) of n * ||n*alpha - gamma|| over n in
    [n_lo, n_hi], as brute_force_min reports them.

    records counts the strict distance records from n_lo.  With
    two_sided=True, -gamma is searched too and its side wins only when it is
    strictly smaller; its argmin is then negative.
    """
    gamma = alpha.eta._coerce(gamma)
    if two_sided:
        pos = loop_min(alpha, gamma, n_lo, n_hi)
        neg = loop_min(alpha, -gamma, n_lo, n_hi)
        records = pos[2] + neg[2]
        if neg[0] < pos[0]:
            return neg[0], -neg[1], records
        return pos[0], pos[1], records
    # incremental: n*alpha - gamma advances by one addition per step
    x = alpha.eta * n_lo - gamma
    dist = _dist(x)
    best_n, best, records = n_lo, dist * n_lo, 1
    for n in range(n_lo + 1, n_hi + 1):
        x = x + alpha.eta
        d = _dist(x)
        if d < dist:
            dist, records = d, records + 1
        v = d * n
        if v < best:
            best_n, best = n, v
    return best, best_n, records
