import hashlib
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from inhomspec.cli import _json_text, main
from inhomspec.quadfield import QuadNum
from inhomspec.spectrum import BranchDisagreement


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


def test_sweep(capsys):
    code, out, _ = run(capsys, "sweep", "--grid", "4..4,5..9",
                       "--format", "csv", "--kmax", "2", "--digits", "8")
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


def test_missing_ab_is_usage_error(capsys):
    code, _, err = run(capsys, "catalog")
    assert code == 2


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
        evaluated = QuadNum(2, 0, 5)
        ok = False

    monkeypatch.setattr(cli_mod, "verify_equivalence", lambda *a, **k: [FakeResult()])
    code = cli_mod.main(["verify", "--a", "5", "--b", "7"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "FAILED: 1 mismatches" in out


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


@pytest.mark.parametrize("bound", [("--nmin", "0"), ("--nmax", "0")])
def test_oracle_zero_window_bound_is_usage_error(capsys, bound):
    code, out, err = run(capsys, "oracle", "--a", "5", "--b", "7", "--class", "S0",
                         "--nmin", "1000", "--nmax", "2000", *bound)
    assert code == 2
    assert out == ""
    assert err == "error: need 1 <= n_lo <= n_hi\n"


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


def test_oracle_class_with_period_is_usage_error(capsys):
    code, out, err = run(capsys, "oracle", "--a", "5", "--b", "7", "--class", "S0",
                         "--period", "t:(1,-1)", "--nmin", "1000", "--nmax", "2000")
    assert (code, out) == (2, "")
    assert err == "error: --class and --period exclude each other\n"


@pytest.mark.parametrize("extra", [("--k", "3"), ("--t", "9"), ("--k", "3", "--t", "9")])
def test_oracle_period_with_k_or_t_is_usage_error(capsys, extra):
    code, out, err = run(capsys, "oracle", "--a", "5", "--b", "7", "--period",
                         "t:(1,-1)", *extra, "--nmin", "1000", "--nmax", "2000")
    assert (code, out) == (2, "")
    assert err == "error: --k and --t apply to --class, not to --period\n"


@pytest.mark.parametrize("align", ["odd", "even"])
def test_oracle_class_with_align_is_usage_error(capsys, align):
    code, out, err = run(capsys, "oracle", "--a", "5", "--b", "7", "--class", "S0",
                         "--align", align, "--nmin", "1000", "--nmax", "2000")
    assert (code, out) == (2, "")
    assert err == "error: --align applies to --period, not to --class\n"


def test_oracle_period_align_default_is_odd(capsys):
    base = ("oracle", "--a", "4", "--b", "8", "--period", "t:(2,-2)",
            "--nmin", "1000", "--nmax", "2000")
    default = run(capsys, *base)
    assert default[0] == 0
    assert run(capsys, *base, "--align", "odd") == default
    assert run(capsys, *base, "--align", "even") != default


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
    st.floats(allow_nan=True, allow_infinity=True),
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
@example({"a": True, "b": 1, "c": 1.0, "d": None, "e": {}, "f": []})
@example(_nested(60))
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)


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
