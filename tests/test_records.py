"""The contract of the package's plain records, one instance of each.

Each record prints, hashes, refuses assignment and builds from keywords or
positions as it always has; only the variant through _replace is new.
"""

import pytest

from inhomspec.ncf import make_alpha, ncf_expand
from inhomspec.expansion import Block, gamma_value
from inhomspec.spectrum import (
    ClassId,
    class_tsequence,
    euclidean_test,
    odd_params,
    spectrum_catalog,
    verify_equivalence,
)
from inhomspec.oracle import brute_force_min, oracle_m

A39, A48, A57 = make_alpha(3, 9), make_alpha(4, 8), make_alpha(5, 7)
G57 = gamma_value(class_tsequence(ClassId("S0"), A57), A57)

# (builder, field names, repr) of one instance of each record
RECORDS = {
    "PeriodTwoAlpha": (
        lambda: A48, ("a", "b", "N", "eta", "beta", "D"),
        "PeriodTwoAlpha(a=4, b=8, N=896, eta=QuadNum(Fraction(4, 1), Fraction(-1, 8), 896),"
        " beta=QuadNum(Fraction(2, 1), Fraction(-1, 16), 896),"
        " D=QuadNum(Fraction(15, 1), Fraction(-1, 2), 896))",
    ),
    "NCFExpansion": (
        lambda: ncf_expand(A48.eta), ("integer_part", "preperiod", "period"),
        "NCFExpansion(integer_part=0, preperiod=(), period=(4, 8))",
    ),
    "Block": (lambda: Block("A", 1), ("name", "t"), "Block(name='A', t=1)"),
    "Block-default": (lambda: Block("G"), ("name", "t"), "Block(name='G', t=None)"),
    "OddParams": (
        lambda: odd_params(A57), ("m", "n", "s", "r"), "OddParams(m=1, n=3, s=-1, r=2)",
    ),
    "FamilyInfo": (
        lambda: spectrum_catalog(A57, kmax=1).families[0],
        ("family", "direction", "limit", "k_listed"),
        "FamilyInfo(family='Sk8', direction='increasing',"
        " limit=QuadNum(Fraction(175922, 217), Fraction(-186822, 7595), 1085), k_listed=(1,))",
    ),
    "SpectrumPoint": (
        lambda: spectrum_catalog(A39, kmax=1).points[0],
        ("cls", "m_star", "m", "kind", "direction"),
        "SpectrumPoint(cls=ClassId(family='S-2', k=None, t=None),"
        " m_star=QuadNum(Fraction(150, 23), Fraction(-50, 207), 621),"
        " m=QuadNum(Fraction(0, 1), Fraction(25, 4761), 621), kind='isolated', direction='none')",
    ),
    "SpectrumCatalog": (
        lambda: spectrum_catalog(A39, kmax=1),
        ("alpha", "kmax", "points", "first_limit_point", "families"),
        "SpectrumCatalog(alpha=PeriodTwoAlpha(a=3, b=9, N=621,"
        " eta=QuadNum(Fraction(9, 2), Fraction(-1, 6), 621),"
        " beta=QuadNum(Fraction(3, 2), Fraction(-1, 18), 621),"
        " D=QuadNum(Fraction(25, 2), Fraction(-1, 2), 621)), kmax=1,"
        " points=(SpectrumPoint(cls=ClassId(family='S-2', k=None, t=None),"
        " m_star=QuadNum(Fraction(150, 23), Fraction(-50, 207), 621),"
        " m=QuadNum(Fraction(0, 1), Fraction(25, 4761), 621), kind='isolated', direction='none'),"
        " SpectrumPoint(cls=ClassId(family='Sk1', k=None, t=None),"
        " m_star=QuadNum(Fraction(840, 23), Fraction(-100, 69), 621),"
        " m=QuadNum(Fraction(-15, 46), Fraction(55, 3174), 621),"
        " kind='limit_point', direction='none'),"
        " SpectrumPoint(cls=ClassId(family='Sk1', k=1, t=None),"
        " m_star=QuadNum(Fraction(1082, 207), Fraction(-1082, 5589), 621),"
        " m=QuadNum(Fraction(0, 1), Fraction(541, 128547), 621),"
        " kind='family_member', direction='increasing')),"
        " first_limit_point=QuadNum(Fraction(840, 23), Fraction(-100, 69), 621),"
        " families=(FamilyInfo(family='Sk1', direction='increasing',"
        " limit=QuadNum(Fraction(840, 23), Fraction(-100, 69), 621), k_listed=(1,)),))",
    ),
    "VerifyResult": (
        lambda: verify_equivalence(A57, kmax=0)[0], ("cls", "closed_form", "evaluated"),
        "VerifyResult(cls=ClassId(family='S-1', k=None, t=None),"
        " closed_form=QuadNum(Fraction(1570, 217), Fraction(-314, 1519), 1085),"
        " evaluated=QuadNum(Fraction(1570, 217), Fraction(-314, 1519), 1085))",
    ),
    "EuclidReport": (
        lambda: euclidean_test(A57),
        ("rho", "threshold", "verdict", "points_above", "min_poly"),
        "EuclidReport(rho=QuadNum(Fraction(0, 1), Fraction(157, 33635), 1085),"
        " threshold=QuadNum(Fraction(0, 1), Fraction(1, 217), 1085), verdict=False,"
        " points_above=1, min_poly=(Fraction(-7, 1), Fraction(7, 5)))",
    ),
    "OracleReport": (
        lambda: brute_force_min(A57, G57, 1, 100),
        ("n_lo", "n_hi", "window_min", "argmin_n", "records", "target_m"),
        "OracleReport(n_lo=1, n_hi=100,"
        " window_min=QuadNum(Fraction(-5, 1), Fraction(24, 155), 1085),"
        " argmin_n=1, records=5, target_m=None)",
    ),
    "OracleM": (
        lambda: oracle_m(A57, G57), ("m", "cycle_records", "cycle_start_n"),
        "OracleM(m=QuadNum(Fraction(0, 1), Fraction(157, 33635), 1085),"
        " cycle_records=4, cycle_start_n=16)",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_keeps_its_contract(name):
    build, names, text = RECORDS[name]
    rec = build()
    values = tuple(getattr(rec, n) for n in names)
    assert repr(rec) == text
    assert hash(rec) == hash(values)
    for attr in (names[0], "other"):
        with pytest.raises(AttributeError):
            setattr(rec, attr, values[0])
    cls = type(rec)
    assert cls(*values) == cls(**dict(zip(names, values))) == rec


def test_defaults_are_kept():
    assert Block("G") == Block("G", None) and Block("G").t is None
    build, names, _ = RECORDS["OracleReport"]
    rep = build()
    assert type(rep)(*(getattr(rep, n) for n in names[:-1])) == rep
    assert rep.target_m is None


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_a_tuple_with_replace(name):
    build, names, _ = RECORDS[name]
    rec = build()
    values = tuple(getattr(rec, n) for n in names)
    assert rec == values and tuple(rec) == values and len(rec) == len(names)
    assert rec._fields == names and tuple(rec._asdict().values()) == values
    changed = rec._replace(**{names[0]: None})
    assert changed[0] is None and changed[1:] == values[1:]
