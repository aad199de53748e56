"""The catalogue layout stated pair by pair: the reference for the derived one.

spectrum_catalog derives which classes sit above the first limit point from
the class table.  This module states the same layout per regime and per
special pair, and the class expected on top, as they were written before the
derivation.  Tests compare the two; they share only the closed forms.
"""

import math

from inhomspec.spectrum import (
    _CLASSES,
    ClassId,
    _build_points,
    _member,
    _Pair,
    _param,
    _require,
    odd_params,
    regime,
)


def expected_rho(alpha):
    """The class of the largest catalogue value."""
    reg = regime(alpha)
    a, b = alpha.a, alpha.b
    if reg == "even-odd":
        if b in (a + 1, a + 3) or b >= 2 * a - 3:
            return ClassId("Sk", k=0)
        return ClassId("S-2")
    if reg == "even-even":
        return ClassId("Sk1", k=0)
    if reg == "odd":
        if (a, b) == (3, 4):
            return ClassId("S-6")
        if (a, b) == (3, 5):
            return ClassId("S-7")
        p = odd_params(alpha)
        if 2 <= p.r <= a - 1:
            return ClassId("S0")
        if p.r == a + 1:
            return ClassId("S-1")
        return ClassId("S-2")
    return ClassId("S0t", t=2 if b % 2 == 0 else 3)


def layout(alpha):
    """(isolated classes, listed families); the limit point is the first family's."""
    c = _Pair(alpha)
    reg, a, b = c.regime, alpha.a, alpha.b
    if reg == "even-odd":
        iso = [ClassId("S-1")]
        if a + 3 <= b <= 2 * a - 3:
            iso.append(ClassId("S-2"))
        fams = ["Sk"]
    elif reg == "even-even":
        if (a, b) == (8, 12):
            iso = [ClassId("Sk1", k=0), ClassId("Sk5", k=1)]
            fams = ["Sk6"]
        elif (a, b) == (6, 10):
            iso = [ClassId("Sk1", k=0), ClassId("Sk5", k=0), ClassId("Sk4", k=1)]
            fams = ["Sk7"]
        elif b >= 2 * a or (a, b) == (4, 6):
            iso = [ClassId("Sk5", k=0)]
            if 2 * a <= b <= 3 * a - 6:
                iso.append(ClassId("Sk4", k=0))
            if (a, b) == (4, 6):
                iso.append(ClassId("S-2"))
            fams = ["Sk1"]
        elif b == 2 * a - 2 and a >= 8:
            iso = [ClassId("Sk1", k=0), ClassId("Sk4", k=0)]
            fams = ["Sk2"]
        elif b == 2 * a - 4 and a >= 10:
            iso = [
                ClassId("Sk1", k=0),
                ClassId("Sk4", k=0),
                ClassId("Sk4", k=1),
                ClassId("Sk5", k=1),
            ]
            fams = ["Sk3"]
        else:  # b <= 2a-6, or (6,8)
            iso = [ClassId("Sk1", k=0), ClassId("S-1")]
            fams = ["Sk5"]
            if a + 6 <= b <= 2 * a - 6:
                fams.append("Sk4")
    elif reg == "odd":
        m, r = c.m, c.r
        if (a, b) == (3, 4):
            iso = [ClassId("S-6"), ClassId("S-8")]
            fams = ["Sk10"]
        elif (a, b) == (3, 5):
            iso = [ClassId("S-7"), ClassId("S-9")]
            fams = ["Sk11"]
        elif (a, b) == (3, 6):
            iso = [ClassId("S-2"), ClassId("S-6")]
            fams = ["Sk12"]
        elif (a, b) in ((5, 7), (7, 9)):
            iso = [ClassId("S0"), ClassId("S-3"), ClassId("S-4")]
            fams = ["Sk8"]
        elif r >= a + 3:
            iso = [ClassId("S-2")]
            fams = ["Sk1" if m >= 1 else "Sk2"]
        elif r == a + 1:
            iso = [ClassId("S-1")]
            fams = ["Sk3" if m >= 1 else "Sk4"]
        elif 4 <= r <= a - 1:
            iso = [ClassId("S0")]
            if b == a + 4 and b >= 17:
                iso.append(ClassId("S-5"))
            fams = ["Sk5"]
        else:  # r == 2
            iso = [ClassId("S0")]
            if m >= 3:
                iso.append(ClassId("S-3"))
                fams = ["Sk6"]
            elif m == 2:
                iso.append(ClassId("S-3"))
                fams = ["Sk7"]
            else:  # m == 1, a >= 9 (a in (5,7) handled as specials)
                iso.append(ClassId("S-5"))
                fams = ["Sk9"]
    else:  # a == 2
        if b % 2 == 0:
            iso = [ClassId("S0t", t=2), ClassId("S-1")]
        else:
            iso = [ClassId("S0t", t=3), ClassId("S-2"), ClassId("S-1")]
        if b >= 8:
            tmax = 2 + math.isqrt(2 * b - 4)
            start = 4 if b % 2 == 0 else 5
            for tt in range(start, tmax + 1, 2):
                iso.append(ClassId("S0t", t=tt))
        # both families have the same limit, delta_inf
        fams = ["S2k+1", "S2k"]
    return iso, fams


def reference_catalog(alpha, kmax):
    """(points, first limit point, listed families) of the stated layout."""
    c = _Pair(alpha)
    iso, fams = layout(alpha)
    members = {f: _member(c, f) for f in {*fams, *(cls.family for cls in iso)}}
    entries = []
    for cls in iso:
        _require(cls, c)
        entries.append((cls, members[cls.family](_param(cls)), "isolated", "none"))
    for fam in fams:
        spec, f = _CLASSES[c.regime, fam], members[fam]
        for k in range(spec.k0, kmax + 1):
            cls = ClassId(fam, k=k)
            _require(cls, c)
            entries.append((cls, f(k), "family_member", spec.direction))
    limit = members[fams[0]](None)
    entries.append((ClassId(fams[0]), limit, "limit_point", "none"))
    return _build_points(c, entries), limit, fams
