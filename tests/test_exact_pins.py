"""Exact values of the catalogue and the norm-Euclidean report over every pair
2 <= a < b <= 40, of the oracle over the 977-case grid, and of the exact
evaluator over the grid and every short word at four pairs.

The catalogue pins were recorded from the code before the closed forms were
split into per-pair coefficients and member functions of z = D^k, the oracle
pin from the walk in QuadNum arithmetic, the evaluator pins from the tail walk
in QuadNum operators; a faster evaluation must leave every exact value, and
every printed byte, unchanged.
"""

import contextlib
import hashlib
import io
import json
from itertools import product
from pathlib import Path

import pytest

from inhomspec.cli import main
from inhomspec.expansion import DigitRangeError, TSequence, gamma_value, m_star
from inhomspec.ncf import make_alpha
from inhomspec.spectrum import (
    _CLASSES,
    ApplicabilityError,
    class_tsequence,
    covered_pairs,
    delta_closed_form,
    equivalence_cases,
    family_limit,
)

CATALOG_REFS = Path(__file__).resolve().parents[1] / "bench" / "refs" / "catalog.json"
PAIRS = list(covered_pairs(2, 39, 3, 40))


def test_catalog_stdout_matches_the_bench_references():
    ref = json.loads(CATALOG_REFS.read_text())
    assert ref["kmax"] == 8 and len(ref["digests"]) == len(PAIRS) == 739
    for a, b in PAIRS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["catalog", "--a", str(a), "--b", str(b), "--kmax", "8"])
        assert code == 0, (a, b)
        got = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert got == ref["digests"][f"{a},{b}"], (a, b)


def test_euclid_stdout_is_pinned_at_every_pair():
    # exit code and stdout of `euclid` at every pair; 19 of the 739 have a
    # finite points_above_threshold
    h = hashlib.sha256()
    for a, b in PAIRS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["euclid", "--a", str(a), "--b", str(b)])
        h.update(f"{a},{b},{code}:".encode() + buf.getvalue().encode())
    assert h.hexdigest() == (
        "7fec5821e47c10508bf21e87f1b60b70ae246f078d5068fdc3504a1409a5425d"
    )


@pytest.mark.parametrize("fmt, digest", [
    ("csv", "47083c80f8790af2f3eddba2d3e803c54b47d0fd069a900e0bfc6fba3735ab1a"),
    ("json", "008dd9bc624d5f5fff0ee7be25aece1b815169dc47270f38a5b23ba0d0850a6e"),
])
def test_sweep_stdout_is_pinned_over_every_pair(fmt, digest):
    # exit code and stdout of one `sweep` over all 739 pairs
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["sweep", "--grid", "2..39,3..40", "--format", fmt])
    got = hashlib.sha256(f"{code}:".encode() + buf.getvalue().encode()).hexdigest()
    assert got == digest


def test_closed_forms_and_limits_are_pinned():
    # repr of every equivalence case at kmax 4, then the limit of every
    # k-family of the table at the pair (the exception class where it raises)
    families = sorted({f for (_, f), e in _CLASSES.items() if e.param == "k"})
    h = hashlib.sha256()
    n = 0
    for a, b in PAIRS:
        al = make_alpha(a, b)
        for cls in equivalence_cases(al, 4):
            value = delta_closed_form(cls, al)
            h.update(f"{a},{b},{cls.family},{cls.k},{cls.t}:{value!r};".encode())
            n += 1
        for f in families:
            try:
                value = repr(family_limit(f, al))
            except ApplicabilityError as ex:
                value = type(ex).__name__
            h.update(f"{a},{b},{f}:{value};".encode())
    assert n == 9216
    assert h.hexdigest() == (
        "fd245fa225e9d60db3e7b01176bd3c851fd883e0731d70b650648ed28a1563db"
    )


def test_oracle_walk_is_pinned_on_wide_windows():
    # every two-sided record walk over the 977 equivalence_cases(alpha, 4) of
    # covered_pairs(), at [10^3, 10^6] and at [10^20, 10^30]: exact minimum,
    # argmin and record count, recorded from the QuadNum walk before the walk
    # moved to integer pairs over one common denominator
    from inhomspec.oracle import brute_force_min

    h = hashlib.sha256()
    n = 0
    for a, b in covered_pairs():
        al = make_alpha(a, b)
        for cls in equivalence_cases(al, 4):
            g = gamma_value(class_tsequence(cls, al), al)
            for lo, hi in ((10**3, 10**6), (10**20, 10**30)):
                r = brute_force_min(al, g, lo, hi, two_sided=True)
                h.update(f"{a},{b},{cls.family},{cls.k},{cls.t},{lo},{hi}:"
                         f"{r.window_min.p},{r.window_min.q},{r.argmin_n},"
                         f"{r.records};".encode())
                n += 1
    assert n == 2 * 977
    assert h.hexdigest() == (
        "20e8ebbb8d4a548cf4b0e611da9d79b38f838908e8de2aba305cce1371d036df"
    )


@pytest.mark.parametrize("fmt, digest", [
    ("csv", "9361531f7ba836bf7fc9cba3a119e29931c4654ee7ae46fe5f79f5bbfbf36d39"),
    ("table", "69ce8a4e2e0393193bcd67da54c9061a049e324ce24642be8052d85be86e584e"),
])
def test_catalog_csv_and_table_stdout_is_pinned_at_every_pair(fmt, digest):
    # exit code and stdout of `catalog --kmax 8` in the csv and table forms;
    # the json form is pinned pair by pair against the bench references above
    h = hashlib.sha256()
    for a, b in PAIRS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["catalog", "--a", str(a), "--b", str(b), "--kmax", "8",
                         "--format", fmt])
        h.update(f"{a},{b},{code}:".encode() + buf.getvalue().encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("digits, digest", [
    ("1", "662b5d550d679a7d41fa8cc920c7346444656a7c388b60d06f0de0de30ec2340"),
    ("40", "cff0a3cd1e3e1f746d62781cd981bbc3823f1f049de2e1d1a872e4f573aa2d97"),
])
def test_catalog_json_stdout_is_pinned_at_other_digits(digits, digest):
    # exit code and stdout of `catalog --kmax 8 --digits` at the 739 pairs,
    # recorded from the writer that rendered each value as a to_json dict
    h = hashlib.sha256()
    for a, b in PAIRS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["catalog", "--a", str(a), "--b", str(b), "--kmax", "8",
                         "--digits", digits])
        h.update(f"{a},{b},{code}:".encode() + buf.getvalue().encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["oracle", "--a", "5", "--b", "7", "--class", "S0", "--digits", "3"],
     "67cb049534168781530e5d94c6aa267d1e2f4a2f9d64ac01d3e49a9b5fc3d78b"),
    (["euclid", "--a", "5", "--b", "10", "--digits", "3"],
     "18711b56b68c1c1f91e3cc927c71bc188c178dc0d7057d46541afa73acc7176d"),
    (["ncf", "0", "1", "14", "--digits", "3"],
     "fb7711ce164bbb34f27a73fe5c7722df403470f86a9ffb2e46eb5b0ca0c36870"),
])
def test_json_stdout_is_pinned_at_three_digits(argv, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    got = hashlib.sha256(f"{code}:".encode() + buf.getvalue().encode()).hexdigest()
    assert got == digest


def _evaluator_words():
    """(alpha, word) for every equivalence case at kmax 4 of covered_pairs(),
    then every valid word of length 2 and 4 at four pairs, once bare and once
    behind a 2-digit preperiod (the valid pairs taken in turn)."""
    for a, b in covered_pairs():
        al = make_alpha(a, b)
        for cls in equivalence_cases(al, 4):
            yield al, class_tsequence(cls, al)
    for a, b in ((3, 4), (4, 8), (5, 7), (2, 7)):
        al = make_alpha(a, b)
        pairs = list(product(range(2 - a, a + 1, 2), range(2 - b, b + 1, 2)))
        for n, word in enumerate((*pairs, *(p + q for p in pairs for q in pairs))):
            yield al, TSequence(word)
            yield al, TSequence(word, pairs[n % len(pairs)])


def test_evaluator_outcomes_are_pinned():
    # repr of m_star and gamma_value on every word, as the word makes it: 32
    # m_star zeros (lattice targets), 316 negative m_star values (inadmissible
    # words) and 1,292 DigitRangeErrors (a reflection's carry out of range)
    h = hashlib.sha256()
    n = 0
    for al, seq in _evaluator_words():
        for f in (m_star, gamma_value):
            try:
                value = repr(f(seq, al))
            except DigitRangeError as ex:
                value = type(ex).__name__
            h.update(f"{al.a},{al.b},{seq}:{value};".encode())
        n += 1
    assert n == 6341
    assert h.hexdigest() == (
        "37e444383079833bde546633f21e07769329e388627dacfae13d2e3bd0cca50d"
    )


def test_verify_grid_stdout_is_pinned():
    # exit code and stdout of `verify` over the 977 grid cases at 30 digits
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "--grid", "2..13,3..14", "--digits", "30"])
    got = hashlib.sha256(f"{code}:".encode() + buf.getvalue().encode()).hexdigest()
    assert got == "63dbdc4f721ff71c5361abc8d7b54fec7dba98cea925f7b5175f3080d7b30334"
