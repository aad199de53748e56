import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import inhomspec
from inhomspec.cli import _build_parser, _json_text, main
from inhomspec.expansion import _WORDS, gamma_value, m_star, m_value
from inhomspec.ncf import make_alpha
from inhomspec.oracle import brute_force_min
from inhomspec.quadfield import QuadNum
from inhomspec.spectrum import (
    _FAMILY_PARAM, BranchDisagreement, ClassId, class_tsequence, covered_pairs,
    equivalence_cases, spectrum_catalog,
)

from child_python import python_command
from json_reference import _plain


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--a", "4", "--b", "8", "--kmax", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == 4 and doc["b"] == 8
    assert doc["points"][0]["label"] == "delta_{0,1}"


def test_catalog_table(capsys):
    code, out, _ = run(capsys, "catalog", "--a", "2", "--b", "6",
                       "--format", "table", "--digits", "8")
    assert code == 0
    assert "delta_{0,2}" in out


def test_catalog_byte_stable(capsys):
    args = ("catalog", "--a", "5", "--b", "10", "--kmax", "4")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def _main_text(argv):
    """(code, stdout, stderr) of one run of main; the code of a SystemExit,
    which argparse raises, counts as main's return value."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as ex:
            code = ex.code
    return code, out.getvalue(), err.getvalue()


@given(st.integers(0, 12), st.integers(0, 12), st.integers(-1, 9), st.integers(-1, 20),
       st.sampled_from(["json", "csv", "table"]))
@example(2, 3, 8, 15, "json")
@example(2, 4, 8, 15, "csv")
@example(7, 5, 8, 15, "table")
@settings(max_examples=300, deadline=None)
def test_catalog_argv_exits_0_or_2_and_repeats_its_bytes(a, b, kmax, digits, fmt):
    # excluded, reversed and equal pairs, a kmax or --digits below 1: exit 2
    # with one error line and nothing on stdout; otherwise exit 0.  A second
    # run in the same process prints the same bytes: no catalogue call
    # carries values into the next
    argv = ["catalog", "--a", str(a), "--b", str(b), "--kmax", str(kmax),
            "--digits", str(digits), "--format", fmt]
    code, out, err = _main_text(argv)
    assert code in (0, 2) and "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == "" and out
        if fmt == "json":
            doc = json.loads(out)
            assert (doc["a"], doc["b"], doc["kmax"]) == (a, b, kmax)
    assert _main_text(argv) == (code, out, err)


# value pools for each option of the parser by dest, valid nine times in
# ten; an option without a pool of its own draws from the pool of its type
def _mostly(valid, invalid):
    return st.integers(0, 9).flatmap(lambda i: valid if i else invalid)


def _ints(lo, hi, *invalid):
    return _mostly(st.integers(lo, hi), st.sampled_from(invalid)).map(str)


_WINDOW = _mostly(st.sampled_from([1, 2, 10, 100, 1000, 10**4]), st.sampled_from([0, -1])).map(str)
_RANGE = st.tuples(st.integers(2, 5), st.integers(2, 5)).map(lambda r: f"{r[0]}..{r[1]}")
_FRACTIONS = _mostly(st.sampled_from(["0", "1", "-1", "5/2", "-1/3"]), st.sampled_from(["1/0", "x"]))
_PAIRS = _mostly(st.sampled_from(list(covered_pairs(2, 7, 3, 8))),
                 st.tuples(st.integers(-1, 8), st.integers(-1, 8)))
# oracle targets that hold at their pair: each class the evaluator checks there
_TARGETS = [(a, b, cls) for a, b in covered_pairs(2, 7, 3, 8)
            for cls in equivalence_cases(make_alpha(a, b), 2)]
_POOLS = {
    "kmax": _ints(0, 4, -1),
    "digits": _ints(1, 18, -1, 0),
    "grid": _mostly(
        st.tuples(_RANGE, st.integers(3, 8), st.integers(3, 8)).map(lambda g: f"{g[0]},{g[1]}..{g[2]}"),
        st.sampled_from(["2..x,3..4", "2..3", "", "3..2,5..6"])),
    "cls": _mostly(st.sampled_from(sorted(_FAMILY_PARAM)), st.sampled_from(["S9", ""])),
    "k": _ints(0, 6, -2, -1),
    "t": _ints(-6, 6, 9),
    "period": _mostly(
        st.one_of(
            # a raw word of at most 4 digits, or 1 to 4 named blocks
            st.lists(st.integers(-9, 9), max_size=4).map(lambda ts: f"t:({','.join(map(str, ts))})"),
            st.lists(st.sampled_from(sorted(_WORDS)).flatmap(lambda name: st.sampled_from(
                [name] + [f"{name}{t}" for t in (-1, 0, 1, 2)])), min_size=1, max_size=4).map(" ".join)),
        st.just("junk")),
    "nmin": _WINDOW,
    "nmax": _WINDOW,
    "p": _FRACTIONS,
    "q": _FRACTIONS,
    "N": _ints(2, 15, -3, 0, 1, 4),
    "max_terms": _ints(1, 512, -5, 0),
    int: _ints(0, 8, -2),
    str: st.sampled_from(["", "x", "0"]),
}


def _pool(action):
    if action.dest in _POOLS:
        return _POOLS[action.dest]
    if action.choices:
        return st.sampled_from(list(action.choices) + ["bogus"])
    return _POOLS[action.type or str]


def _subparsers():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


@st.composite
def _argvs(draw):
    """argv for one subcommand read from the parser: its positionals (one
    sometimes left out), a third of its options, --a and --b as one pair,
    for `oracle` often a target that holds at the pair, and sometimes an
    option of another subcommand, all options in any order."""
    subs = _subparsers()
    name = draw(st.sampled_from(sorted(subs)))
    actions = {a.dest: a for a in subs[name]._actions if not isinstance(a, argparse._HelpAction)}
    values = {d: draw(_pool(a)) for d, a in actions.items()
              if not a.option_strings or draw(st.integers(0, 2)) == 0}
    if {"a", "b"} <= actions.keys() and draw(st.integers(0, 9)):
        values["a"], values["b"] = map(str, draw(_PAIRS))
    if "cls" in actions and draw(st.booleans()):
        a, b, cls = draw(st.sampled_from(_TARGETS))
        for d in ("cls", "k", "t", "period"):
            values.pop(d, None)
        values.update(a=str(a), b=str(b))
        if draw(st.booleans()):
            target = zip(("cls", "k", "t"), (cls.family, cls.k, cls.t))
            values.update((d, str(v)) for d, v in target if v is not None)
        else:
            values["period"] = str(class_tsequence(cls, make_alpha(a, b)))
    words = [v for d, v in values.items() if not actions[d].option_strings]
    if words and draw(st.integers(0, 9)) == 0:
        del words[draw(st.integers(0, len(words) - 1))]
    chunks = [[draw(st.sampled_from(actions[d].option_strings)), v]
              for d, v in values.items() if actions[d].option_strings]
    if draw(st.integers(0, 9)) == 0:
        other = [a for sp in subs.values() for a in sp._actions
                 if a.option_strings and not isinstance(a, argparse._HelpAction)]
        a = draw(st.sampled_from(other))
        chunks.append([a.option_strings[-1], draw(_pool(a))])
    chunks = draw(st.permutations(chunks))
    return [name] + words + [w for c in chunks for w in c]


@given(_argvs())
# a word with two adjacent maximal digits, once exit 1 with a FAIL line, exits
# 2 with its error: line; a lattice target with a window, once exit 0, exits 2
@example(["oracle", "--a", "4", "--b", "8", "--period", "t:(4,8)"])
@example(["oracle", "--a", "4", "--b", "8", "--period", "t:(-2,-6)", "--nmin", "10", "--nmax", "100"])
@settings(max_examples=600, deadline=None)
def test_every_subcommand_keeps_the_exit_contract(argv):
    # codes 0, 1 and 2 only, no traceback; 2 says why, 1 comes with a FAIL
    # or error: line; JSON output parses; a second run prints the same bytes
    code, out, err = _main_text(argv)
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert "error:" in err
    if code == 1:
        assert "FAIL" in out + err or "error:" in err
    # every output but verify's and a csv or table format is JSON
    if code != 2 and argv[0] != "verify" and "csv" not in argv and "table" not in argv:
        json.loads(out)
    assert _main_text(argv)[:2] == (code, out)


@pytest.mark.parametrize("argv", [[]] + [[name] for name in sorted(_subparsers())])
def test_help_exits_0_with_usage_on_stdout(argv):
    # top level and each subcommand the parser holds; the parser is cached,
    # so a second run must print the same bytes
    code, out, err = _main_text(argv + ["--help"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: inhomspec {' '.join(argv)}".rstrip() + " ")
    assert _main_text(argv + ["--help"]) == (code, out, err)


def test_verify_single_pair(capsys):
    code, out, _ = run(capsys, "verify", "--a", "4", "--b", "7", "--kmax", "2")
    assert code == 0
    assert "OK: 0 mismatches" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("where", [("--a", "4", "--b", "8"), ("--grid", "4..5,5..8")])
def test_verify_negative_kmax_is_usage_error(capsys, where):
    code, out, err = run(capsys, "verify", *where, "--kmax", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: kmax must be >= 0\n"


def test_verify_kmax_zero_checks_the_k0_members(capsys):
    code, out, _ = run(capsys, "verify", "--a", "4", "--b", "8", "--kmax", "0")
    assert code == 0
    assert "PASS (4,8) delta_{0,1}:" in out and "delta_{1,1}" not in out
    assert out.endswith("OK: 0 mismatches\n")


def test_verify_grid(capsys):
    code, out, _ = run(capsys, "verify", "--grid", "4..5,5..8", "--kmax", "1")
    assert code == 0
    assert "PASS (5,8)" in out


@pytest.mark.parametrize("ab", [("--a", "4", "--b", "8"), ("--a", "4"), ("--b", "8")])
def test_verify_grid_with_a_or_b_is_usage_error(capsys, ab):
    code, out, err = run(capsys, "verify", *ab, "--grid", "2..3,5..6")
    assert (code, out) == (2, "")
    assert err == "error: --grid and --a/--b exclude each other\n"


def test_verify_without_pair_or_grid_is_usage_error(capsys):
    code, out, err = run(capsys, "verify")
    assert (code, out) == (2, "")
    assert err == "error: verify needs --a/--b or --grid\n"


@pytest.mark.parametrize("grid", ["2..x,3..4", "2..3"])
def test_malformed_grid_is_usage_error(capsys, grid):
    code, out, err = run(capsys, "verify", "--grid", grid)
    assert (code, out) == (2, "")
    assert err == f"error: bad --grid {grid!r} (want 'amin..amax,bmin..bmax')\n"


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("grid", ["2..2,3..4", "5..4,3..9"])
def test_empty_grid_is_usage_error(capsys, command, grid):
    code, out, err = run(capsys, command, "--grid", grid)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "no covered" in err


def test_oracle_class(capsys):
    code, out, _ = run(capsys, "oracle", "--a", "4", "--b", "8",
                       "--class", "Sk1", "--k", "0",
                       "--nmin", "1000", "--nmax", "20000")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "delta_{0,1}"
    assert doc["report"]["argmin_n"] >= 1000


def test_oracle_period_string(capsys):
    code, out, _ = run(capsys, "oracle", "--a", "4", "--b", "8", "--period", "t:(0,0)")
    assert code == 0
    doc = json.loads(out)
    assert QuadNum.from_json(doc["oracle_m"]) == QuadNum.from_json(doc["exact_m"])


def test_oracle_windows_default(capsys):
    # without --nmin/--nmax: the evaluator's M, the exact oracle's, and its cycle
    code, out, _ = run(capsys, "oracle", "--a", "5", "--b", "7", "--class", "S0")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["a", "b", "class", "cycle_records", "cycle_start_n",
                           "exact_m", "gamma", "oracle_m"]
    assert QuadNum.from_json(doc["oracle_m"]) == QuadNum.from_json(doc["exact_m"])
    assert (doc["cycle_records"], doc["cycle_start_n"]) == (4, 16)


def test_oracle_disagreement_exits_1(capsys, monkeypatch):
    # an evaluator that returns minus the true constant: stdout is printed as
    # usual, and stderr names the two values
    import inhomspec.cli as cli_mod

    monkeypatch.setattr(cli_mod, "m_star", lambda tseq, alpha: -m_star(tseq, alpha))
    code, out, err = run(capsys, "oracle", "--a", "5", "--b", "7", "--class", "S0")
    assert code == 1
    doc = json.loads(out)
    assert QuadNum.from_json(doc["exact_m"]) == -QuadNum.from_json(doc["oracle_m"])
    got = QuadNum.from_json(doc["oracle_m"])
    assert err == f"FAIL: oracle_m={got.decimal(15)} exact_m={(-got).decimal(15)}\n"


def test_oracle_adjacent_maximal_digits_is_usage_error(capsys):
    # reflect cannot carry past two neighbouring maxima; the evaluator once
    # returned minus the constant on this word and exited 1
    code, out, err = run(capsys, "oracle", "--a", "4", "--b", "8", "--period", "t:(4,8)")
    assert (code, out) == (2, "")
    assert err == "error: t_1 and t_2 are adjacent maximal digits\n"


def test_sweep(capsys):
    code, out, _ = run(capsys, "sweep", "--grid", "4..4,5..9",
                       "--format", "csv", "--digits", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("a,b,rho_star_label")
    assert len(lines) - 1 == 5  # (4,b) for b in 5..9


def test_ncf_command(capsys):
    code, out, _ = run(capsys, "ncf", "0", "1", "14")
    assert code == 0
    doc = json.loads(out)
    assert doc["integer_part"] == 4
    assert doc["period"] == [4, 8]


def test_ncf_negative_fraction_needs_a_double_dash():
    # argparse reads -1/3 as an option, so N goes missing; after -- it is p,
    # and -1 reads as a negative number without one
    code, out, err = _main_text(["ncf", "-1/3", "1", "14"])
    assert code == 2 and out == "" and "error:" in err
    code, out, err = _main_text(["ncf", "--", "-1/3", "1", "14"])
    assert code == 0 and err == "" and json.loads(out)["integer_part"] == 4
    code, out, err = _main_text(["ncf", "-1", "1", "14"])
    assert code == 0 and err == "" and json.loads(out)["integer_part"] == 3


def test_ncf_rational_error(capsys):
    code, _, err = run(capsys, "ncf", "3/2", "0", "5")
    assert code == 2
    assert "error" in err


def test_euclid_command(capsys):
    code, out, _ = run(capsys, "euclid", "--a", "4", "--b", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["norm_euclidean"] is False
    assert doc["points_above_threshold"] == 1


@pytest.mark.parametrize("argv", [
    ("catalog", "--b", "7"),
    ("oracle", "--a", "5", "--class", "S0"),
    ("euclid", "--a", "5"),
], ids=["catalog", "oracle", "euclid"])
def test_missing_ab_is_usage_error(argv):
    code, out, err = _main_text(list(argv))
    assert (code, out) == (2, "")
    missing = "--b" if "--a" in argv else "--a"
    assert err.endswith(f"inhomspec {argv[0]}: error: the following arguments "
                        f"are required: {missing}\n")


def test_bad_subcommand_exits_2():
    with pytest.raises(SystemExit) as ex:
        main(["frobnicate"])
    assert ex.value.code == 2


def test_excluded_case_is_config_error(capsys):
    code, _, err = run(capsys, "catalog", "--a", "2", "--b", "4")
    assert code == 2


def test_verify_failure_exits_1(capsys, monkeypatch):
    import inhomspec.cli as cli_mod
    from inhomspec.spectrum import ClassId
    from inhomspec.quadfield import QuadNum

    class FakeResult:
        cls = ClassId("S0")
        closed_form = QuadNum(1, 0, 5)
        evaluated = QuadNum(Fraction(1, 2), Fraction(1, 3), 5)
        ok = False

    monkeypatch.setattr(cli_mod, "verify_equivalence", lambda *a, **k: [FakeResult()])
    code = cli_mod.main(["verify", "--a", "5", "--b", "7", "--digits", "6"])
    out = capsys.readouterr().out
    assert code == 1
    # the residual is closed - evaluated = 1/2 - sqrt(5)/3 = -0.245356...
    assert out == (f"FAIL (5,7) {ClassId('S0').delta_label}: closed=1.000000 "
                   "evaluated=1.245356 residual=-0.245356\n"
                   "FAILED: 1 mismatches\n")


def test_sweep_and_euclid_byte_stable(capsys):
    for args in (("sweep", "--grid", "4..4,5..8", "--format", "json"),
                 ("euclid", "--a", "5", "--b", "10")):
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("oracle", "--a", "5", "--b", "7", "--class", "S0", "--kmax", "3"),
    ("oracle", "--a", "5", "--b", "7", "--class", "S0", "--format", "csv"),
    ("verify", "--a", "4", "--b", "7", "--format", "json"),
    ("euclid", "--a", "4", "--b", "7", "--format", "json"),
    ("euclid", "--a", "4", "--b", "8", "--kmax", "8"),
    ("sweep", "--grid", "4..4,5..6", "--kmax", "8"),
])
def test_unread_options_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as ex:
        main(list(argv))
    assert ex.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_oracle_class_with_wrong_parameter_kind(capsys):
    code, out, err = run(capsys, "oracle", "--a", "2", "--b", "8", "--class", "S0t",
                         "--t", "4", "--k", "9", "--nmin", "1000", "--nmax", "2000")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_oracle_period_with_t_on_a_fixed_block(capsys):
    code, out, err = run(capsys, "oracle", "--a", "3", "--b", "5", "--period",
                         "H7 G9 H'2 G", "--nmin", "1000", "--nmax", "2000")
    assert (code, out) == (2, "")
    assert err == "error: block H takes no t parameter\n"


# (window options, n_lo and n_hi they give); with one bound given, the other
# takes its default
@pytest.mark.parametrize("bound", [
    (("--nmin", "1000", "--nmax", "2000", "--nmin", "0"), 0, 2000),
    (("--nmin", "1000", "--nmax", "2000", "--nmax", "0"), 1000, 0),
    (("--nmax", "10"), 1000, 10),
])
def test_oracle_zero_window_bound_is_usage_error(capsys, bound):
    window, lo, hi = bound
    code, out, err = run(capsys, "oracle", "--a", "5", "--b", "7", "--class", "S0", *window)
    assert code == 2
    assert out == ""
    assert err == (f"error: need 1 <= --nmin <= --nmax, got --nmin {lo} and --nmax {hi}"
                   " (defaults 1000 and 1000000)\n")


def test_oracle_wide_window(capsys):
    code, out, err = run(capsys, "oracle", "--a", "5", "--b", "7", "--class", "S0",
                         "--nmin", str(10**20), "--nmax", str(10**30))
    assert code == 0
    assert "error:" not in err
    report = json.loads(out)["report"]
    assert "relative_gap" not in report
    got, want = (QuadNum.from_json(report[k]) for k in ("window_min", "target_m"))
    assert -want < (got - want) * 10**20 < want


def test_oracle_exact_without_window_is_usage_error(capsys):
    # the exact loop over every n is gone, with or without a window
    for window in ((), ("--nmin", "1000", "--nmax", "1200")):
        with pytest.raises(SystemExit) as ex:
            main(["oracle", "--a", "5", "--b", "7", "--class", "S0", "--exact", *window])
        assert ex.value.code == 2
        assert "unrecognized arguments: --exact" in capsys.readouterr().err


def test_oracle_lattice_target_is_usage_error(capsys, monkeypatch):
    # no catalogued word gives gamma in Z + alpha*Z, so one is put in its place
    import inhomspec.cli as cli_mod

    monkeypatch.setattr(cli_mod, "gamma_value", lambda tseq, alpha: alpha.eta * 5)
    code, out, err = run(capsys, "oracle", "--a", "5", "--b", "7", "--class", "S0")
    assert (code, out) == (2, "")
    assert err == "error: gamma lies in Z + alpha*Z, where M(alpha, gamma) is not defined\n"


@pytest.mark.parametrize("window", [(), ("--nmin", "10", "--nmax", "100")])
def test_oracle_lattice_period_is_usage_error_with_or_without_window(capsys, window):
    # t:(-2,-6) at (4, 8) gives gamma = 0; a window refuses it as the exact form does
    code, out, err = run(capsys, "oracle", "--a", "4", "--b", "8",
                         "--period", "t:(-2,-6)", *window)
    assert (code, out) == (2, "")
    assert err == "error: gamma lies in Z + alpha*Z, where M(alpha, gamma) is not defined\n"


def test_oracle_without_class_or_period_is_usage_error():
    code, out, err = _main_text(["oracle", "--a", "5", "--b", "7"])
    assert (code, out) == (2, "")
    assert err.endswith("inhomspec oracle: error: one of the arguments --class "
                        "--period is required\n")


def test_oracle_family_without_k_is_usage_error(capsys):
    code, out, err = run(capsys, "oracle", "--a", "4", "--b", "8", "--class", "Sk1")
    assert (code, out) == (2, "")
    assert err == "error: S_{inf,1} designates a family limit; use family_limit()\n"


def test_oracle_class_with_period_is_usage_error():
    code, out, err = _main_text(["oracle", "--a", "5", "--b", "7", "--class", "S0",
                                 "--period", "t:(1,-1)", "--nmin", "1000", "--nmax", "2000"])
    assert (code, out) == (2, "")
    assert err.endswith("inhomspec oracle: error: argument --period: not allowed "
                        "with argument --class\n")


@pytest.mark.parametrize("extra", [("--k", "3"), ("--t", "9"), ("--k", "3", "--t", "9")])
def test_oracle_period_with_k_or_t_is_usage_error(capsys, extra):
    code, out, err = run(capsys, "oracle", "--a", "5", "--b", "7", "--period",
                         "t:(1,-1)", *extra, "--nmin", "1000", "--nmax", "2000")
    assert (code, out) == (2, "")
    assert err == "error: --k and --t apply to --class, not to --period\n"


def test_oracle_period_align_default_is_odd(capsys):
    # a raw word starts odd: t:(-2,2) prints what t:(2,-2) read from an even
    # start printed, and t:(2,-2) is another word
    base = ("oracle", "--a", "4", "--b", "8", "--nmin", "1000", "--nmax", "2000")
    code, out, err = run(capsys, *base, "--period", "t:(-2,2)")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c156713645d58819343ce92a31c1d40145168b3c7ff0bcfc18df2727e90d8b7e")
    assert run(capsys, *base, "--period", "t:(2,-2)")[1] != out


@pytest.mark.parametrize("target, argv", [
    ("spectrum_catalog", ("catalog", "--a", "4", "--b", "8")),
    ("spectrum_catalog", ("sweep", "--grid", "4..4,5..6")),
    ("euclidean_test", ("euclid", "--a", "4", "--b", "8")),
])
@pytest.mark.parametrize("exc", [
    BranchDisagreement("Sk1 branches disagree"),
    RuntimeError("family did not cross the threshold"),
])
def test_catalogue_self_check_failure_exits_1(capsys, monkeypatch, target, argv, exc):
    import inhomspec.cli as cli_mod

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli_mod, target, fail)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {exc}\n"


def test_ncf_period_limit_is_usage_error(capsys):
    # PeriodNotFoundError is a RuntimeError, but the limit is the user's
    code, out, err = run(capsys, "ncf", "0", "1", "14", "--max-terms", "1")
    assert (code, out, err) == (2, "", "error: no period within 1 terms\n")


@pytest.mark.parametrize("max_terms", ["0", "-5"])
def test_ncf_non_positive_max_terms_is_usage_error(capsys, max_terms):
    code, out, err = run(capsys, "ncf", "0", "1", "14", "--max-terms", max_terms)
    assert (code, out, err) == (2, "", "error: max_terms must be >= 1\n")


@pytest.mark.parametrize("argv, digest", [
    (("sweep", "--grid", "4..6,5..12", "--format", "json"),
     "0a19e38c2804f9d4cec0b9c7d00ff5cd0be52094b205815fb5ab3acaa7c5b615"),
    (("oracle", "--a", "5", "--b", "7", "--class", "S0", "--nmin", "1000",
      "--nmax", "20000"),
     "4129c9a2edc294a8133b80aad822cf053bd5ec7c1c7d5ebd1c1fe631c7954ed5"),
    (("oracle", "--a", "5", "--b", "7", "--class", "S0"),
     "22bf5fd7dffbd17f93acd0e2002af0d86c4bc893936919c9f48c94653fa0202e"),
    (("ncf", "0", "1", "14"),
     "93bd3dc7e28167fd4fb653fdd5f08451e1e6ce4e0c14551d6bd468c3a8c08612"),
    (("euclid", "--a", "5", "--b", "10"),
     "7d13807382f3d42e678ce80e7488ee8c20191347798d9a14a42821bcf1ff0cc7"),
])
def test_json_stdout_is_pinned(capsys, argv, digest):
    # recorded from json.dumps(sort_keys=True, indent=2) output
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


json_leaves = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1, -1]),
    st.integers(min_value=-2**200, max_value=2**200),
    st.text(), st.sampled_from(["", "\x00\x1f\n\t\"\\/", "é ∑ \u2028 😀", "\x7f"]),
)
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.text(), kids, max_size=5),
    ),
    max_leaves=30,
)


def _nested(depth):
    tree = {}
    for i in range(depth):
        tree = {"k": [tree, i, True], "": []} if i % 2 else [tree, {}, None]
    return tree


@given(json_trees)
@example({"a": True, "b": 1, "d": None, "e": {}, "f": []})
@example(_nested(60))
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)


@pytest.mark.parametrize("tree", [1.0, [0, float("inf")], {"a": [], "b": -0.5}])
def test_json_writer_refuses_floats(tree):
    # no subcommand prints a float, so the writer renders none
    with pytest.raises(TypeError, match="^Object of type float is not JSON serializable$"):
        _json_text(tree)


_coeffs = st.one_of(st.just(0), st.integers(-9, 9),
                    st.integers(-10**60, 10**60))
quad_leaves = st.builds(
    lambda x, y, z, N: QuadNum(Fraction(x, z), Fraction(y, z), N),
    _coeffs,
    st.one_of(st.just(0), _coeffs),
    st.one_of(st.just(1), st.integers(1, 10**60)),
    st.sampled_from([2, 3, 14, 1085, 2300, 10**12 + 1]),
)


def _quad_trees(depth):
    leaves = st.one_of(quad_leaves, st.none(), st.integers(-10, 10), st.text(max_size=3))
    if depth == 0:
        return leaves
    kids = _quad_trees(depth - 1)
    return st.one_of(
        leaves,
        st.lists(kids, max_size=3),
        st.lists(kids, max_size=2).map(tuple),
        st.dictionaries(st.text(max_size=3), kids, max_size=3),
    )


@given(_quad_trees(6), st.integers(1, 40))
@example(QuadNum(0, 0, 2), 1)
@example({"m": [QuadNum(Fraction(-7, 3), Fraction(10**60, 11), 5)], "k": None}, 40)
@settings(max_examples=300, deadline=None)
def test_json_writer_renders_quadnum_leaves_as_their_dicts(tree, digits):
    assert _json_text(tree, digits) == json.dumps(
        _plain(tree, digits), sort_keys=True, indent=2)


@pytest.mark.parametrize("a, b", [(5, 7), (4, 7), (4, 8), (2, 9)])
def test_catalog_json_is_its_json_tree_with_plain_leaves(capsys, a, b):
    # one pair per regime: odd, even-odd, even-even, a = 2
    code, out, _ = run(capsys, "catalog", "--a", str(a), "--b", str(b))
    assert code == 0
    assert json.loads(out) == _plain(spectrum_catalog(make_alpha(a, b), 8).json_tree(), 15)


def test_oracle_window_json_is_its_json_tree_with_plain_leaves(capsys):
    code, out, _ = run(capsys, "oracle", "--a", "5", "--b", "7", "--class", "S0",
                       "--nmin", "1000", "--nmax", "20000")
    assert code == 0
    alpha = make_alpha(5, 7)
    tseq = class_tsequence(ClassId("S0"), alpha)
    target = m_value(m_star(tseq, alpha), alpha)
    rep = brute_force_min(alpha, gamma_value(tseq, alpha), 1000, 20000,
                          target_m=target, two_sided=True)
    assert json.loads(out)["report"] == _plain(rep.json_tree(), 15)


@pytest.mark.parametrize("digits", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ("catalog", "--a", "4", "--b", "7"),
    ("catalog", "--a", "4", "--b", "7", "--format", "csv"),
    ("catalog", "--a", "4", "--b", "7", "--format", "table"),
    ("oracle", "--a", "5", "--b", "7", "--class", "S0"),
    ("oracle", "--a", "5", "--b", "7", "--class", "S0", "--nmin", "1000",
     "--nmax", "2000"),
    ("euclid", "--a", "5", "--b", "10"),
    ("ncf", "0", "1", "14"),
    ("sweep", "--grid", "4..5,7..8"),
    ("verify", "--a", "4", "--b", "7"),
])
def test_digits_below_one_is_usage_error(capsys, argv, digits):
    code, out, err = run(capsys, *argv, "--digits", digits)
    assert (code, out, err) == (2, "", "error: digits must be >= 1\n")


def _python(*args, stdout=subprocess.PIPE):
    src = str(Path(inhomspec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([*python_command(), *args], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=120)


def _python_m(*argv, stdout=subprocess.PIPE):
    return _python("-m", "inhomspec", *argv, stdout=stdout)


def test_child_python_runs_under_the_same_flags():
    got = _python("-c", "import sys; print(sys.flags.optimize, "
                  "sys.flags.dev_mode, sys.warnoptions)")
    want = f"{sys.flags.optimize} {sys.flags.dev_mode} {sys.warnoptions}\n"
    assert (got.returncode, got.stdout) == (0, want)


def test_python_m_inhomspec_runs_the_cli(capsys):
    argv = ("catalog", "--a", "3", "--b", "5")
    got = _python_m(*argv)
    assert (got.returncode, got.stdout) == run(capsys, *argv)[:2]
    assert got.returncode == 0
    assert _python_m("catalog", "--no-such-option").returncode == 2


def test_closed_stdout_exits_2_without_a_traceback():
    # the read end is closed before the child starts, so its output cannot be
    # delivered: exit 2, not 0 (which would pass `verify | head` unchecked)
    # or 1 (a disagreement), and nothing on stderr
    r, w = os.pipe()
    os.close(r)
    try:
        got = _python_m("catalog", "--a", "4", "--b", "8", stdout=w)
    finally:
        os.close(w)
    assert (got.returncode, got.stderr) == (2, "")


# main on a closed stdout; then, on stderr, its exit code, how many fds
# os.open returned during main and which of them are still open
_MAIN_ON_A_CLOSED_STDOUT = """
import os, sys
from inhomspec.cli import main
opened, os_open = [], os.open
def record(*args, **kwargs):
    opened.append(os_open(*args, **kwargs))
    return opened[-1]
os.open = record
code = main(["catalog", "--a", "4", "--b", "8"])
def is_open(fd):
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True
print(code, len(opened), [fd for fd in opened if is_open(fd)], file=sys.stderr)
"""


def test_closed_stdout_leaves_no_descriptor_open():
    # the handler opens devnull to take over fd 1; once dup2 has copied it,
    # the fd os.open returned is closed
    r, w = os.pipe()
    os.close(r)
    try:
        got = _python("-c", _MAIN_ON_A_CLOSED_STDOUT, stdout=w)
    finally:
        os.close(w)
    assert (got.returncode, got.stderr) == (0, "2 1 []\n")


def test_json_writer_refuses_what_json_dumps_refuses():
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        _json_text(object())
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        json.dumps(object())


def test_json_writer_leaves_no_reference_cycles():
    # a writer that leaves cycles keeps its fragments alive until the cyclic
    # collector runs; each render runs once first, so lazy imports and caches
    # are not counted
    argvs = (["catalog", "--a", "3", "--b", "5"],
             ["oracle", "--a", "5", "--b", "7", "--class", "S0",
              "--nmin", "1000", "--nmax", "20000"])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        for argv in argvs:
            assert main(argv) == 0
    gc.disable()
    try:
        gc.collect()
        with contextlib.redirect_stdout(buf):
            for argv in argvs:
                assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_main_reuses_one_parser_across_subcommands(capsys):
    import inhomspec.cli as cli_mod

    cli_mod._build_parser.cache_clear()
    code, out, _ = run(capsys, "catalog", "--a", "4", "--b", "8", "--kmax", "2",
                       "--format", "csv")
    assert code == 0 and out.startswith("label,")
    code, out, _ = run(capsys, "verify", "--a", "4", "--b", "7", "--kmax", "1")
    assert code == 0 and out.endswith("OK: 0 mismatches\n")
    # the csv choice of the first call does not stick to the shared parser
    code, out, _ = run(capsys, "catalog", "--a", "4", "--b", "8", "--kmax", "2")
    assert code == 0 and json.loads(out)["a"] == 4
    assert cli_mod._build_parser.cache_info().misses == 1
