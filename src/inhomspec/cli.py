"""Command-line interface.

Subcommands:

* catalog  -- spectrum values above the first limit point for one (a, b)
* verify   -- closed form vs. exact evaluator, one pair or a grid
* oracle   -- the exact oracle's M for a class or raw period, or a window
* sweep    -- per-pair summary rows over a grid
* ncf      -- minus continued fraction expansion of p/q + r/s * sqrt(N)
* euclid   -- norm-Euclidean criterion for one (a, b)

Exit status: 0 on success; 1 when a verification fails (a `verify` case
whose closed form and evaluated value differ, printed as a FAIL line that
ends in residual=, the closed form minus the evaluated value; or an
`oracle` call without a window whose oracle_m differs from exact_m, with
stdout as usual and one "FAIL: ..." line on stderr) or a catalogue
self-check fails (a RuntimeError such as BranchDisagreement, printed as
"error: ..."); 2 on bad usage, including a missing --a or --b, an
`oracle` call with both or neither of --class and --period (argparse's
usage error), an `ncf` expansion that finds no period within --max-terms,
or a --max-terms below 1, a `verify` call with --grid and --a or --b, an
`oracle` call with --k or --t beside --period, which ignores them, a period
with two adjacent maximal digits or a target gamma in Z + alpha*Z, and an
option a subcommand does not read, such as `euclid --kmax` or `sweep
--kmax`; 2 also when stdout is closed before the output is written
(`verify --grid ... | head -1`), since the output was not delivered and a
`verify` cut short has not checked every case.
Output is byte-stable for fixed inputs: keys are sorted and decimal digit
counts are fixed by --digits.  JSON is written as json.dumps(obj,
sort_keys=True, indent=2) writes it, each exact value as QuadNum.to_json's
dict.  `catalog` and an `oracle` window print SpectrumCatalog.json_tree()
and OracleReport.json_tree() as they stand; that tree is the one layout.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from fractions import Fraction

from .quadfield import QuadNum
from .ncf import PeriodNotFoundError, make_alpha, ncf_expand
from .expansion import gamma_value, m_star, m_value, parse_period
from .oracle import _off_lattice, brute_force_min, oracle_m
from .spectrum import (
    ClassId,
    covered_pairs,
    class_tsequence,
    euclidean_test,
    isolation_gap,
    spectrum_catalog,
    verify_equivalence,
)

__all__ = ["main"]


def _parse_grid(spec: str) -> list[tuple[int, int]]:
    try:
        a_part, b_part = spec.split(",")
        amin, amax = (int(v) for v in a_part.split(".."))
        bmin, bmax = (int(v) for v in b_part.split(".."))
    except ValueError as ex:
        raise ValueError(f"bad --grid {spec!r} (want 'amin..amax,bmin..bmax')") from ex
    pairs = list(covered_pairs(amin, amax, bmin, bmax))
    if not pairs:
        raise ValueError(f"--grid {spec!r} holds no covered (a, b) pair")
    return pairs


_json_str = json.encoder.encode_basestring_ascii

# the exact type of a scalar -> its JSON text; True is a bool, not an int 1
_JSON_SCALARS = {
    str: _json_str,
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    int: int.__repr__,
}


def _json_text(obj, digits: int = 18, pad: str = "") -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it at indent
    pad, where each QuadNum leaf stands for its to_json(digits) dict.

    json's indenting encoder is pure Python and slow; this writes the same
    bytes for the str-keyed trees of str, int, bool, None, QuadNum, list,
    tuple and dict the subcommands print, without first turning each QuadNum
    into a dict: a scalar through _JSON_SCALARS, a QuadNum through
    QuadNum._json_leaf, and a container by joining its children's text, each
    rendered at pad + "  ".  A dict writes its scalar and QuadNum values in
    place, the same two ways, and calls this function only for a value that
    is itself a container (or a type it refuses); a list calls it for every
    child, since only `ncf`'s two short int lists hold scalars.  A float, which
    no subcommand prints, raises the TypeError json raises for an unknown
    type.  The whole text is built before anything is printed, so a --digits
    below 1 raises first.
    """
    render = _JSON_SCALARS.get(type(obj))
    if render is not None:
        return render(obj)
    if type(obj) is QuadNum:
        return obj._json_leaf(digits, pad)
    inner = pad + "  "
    if isinstance(obj, dict):
        brackets = "{}"
        items = []
        for k in sorted(obj):
            v = obj[k]
            render = _JSON_SCALARS.get(type(v))
            text = (render(v) if render is not None
                    else v._json_leaf(digits, inner) if type(v) is QuadNum
                    else _json_text(v, digits, inner))
            items.append(f"{_json_str(k)}: {text}")
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = [_json_text(v, digits, inner) for v in obj]
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _emit_rows(fmt: str, rows) -> None:
    """rows, a header row first, as csv or as a table of padded columns."""
    if fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
        return
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))


def _cmd_catalog(args) -> int:
    cat = spectrum_catalog(make_alpha(args.a, args.b), kmax=args.kmax)
    if args.format == "json":
        print(_json_text(cat.json_tree(), args.digits))
    else:
        _emit_rows(args.format, cat.to_csv_rows(digits=args.digits))
    return 0


def _cmd_verify(args) -> int:
    if args.grid and (args.a is not None or args.b is not None):
        raise ValueError("--grid and --a/--b exclude each other")
    pairs = _parse_grid(args.grid) if args.grid else [(args.a, args.b)]
    if any(v is None for v in pairs[0]):
        raise ValueError("verify needs --a/--b or --grid")
    failures = 0
    for a, b in pairs:
        for res in verify_equivalence(make_alpha(a, b), kmax=args.kmax):
            line = (f"({a},{b}) {res.cls.delta_label}: "
                    f"closed={res.closed_form.decimal(args.digits)} "
                    f"evaluated={res.evaluated.decimal(args.digits)}")
            if res.ok:
                print(f"PASS {line}")
            else:
                failures += 1
                residual = res.closed_form - res.evaluated
                print(f"FAIL {line} residual={residual.decimal(args.digits)}")
    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} mismatches")
    return 0 if failures == 0 else 1


def _cmd_oracle(args) -> int:
    if args.period is not None and (args.k is not None or args.t is not None):
        raise ValueError("--k and --t apply to --class, not to --period")
    alpha = make_alpha(args.a, args.b)
    if args.period is not None:
        tseq = parse_period(args.period, alpha)
        label = str(tseq)
    else:
        cls = ClassId(args.cls, k=args.k, t=args.t)
        tseq = class_tsequence(cls, alpha)
        label = cls.delta_label
    gamma = gamma_value(tseq, alpha)
    target = m_value(m_star(tseq, alpha), alpha)
    out = {"a": args.a, "b": args.b, "class": label, "gamma": gamma}
    failed = False
    if args.nmin is None and args.nmax is None:
        got = oracle_m(alpha, gamma)
        out.update(exact_m=target, oracle_m=got.m,
                   cycle_records=got.cycle_records,
                   cycle_start_n=got.cycle_start_n)
        failed = got.m != target
    else:
        _off_lattice(alpha, gamma)  # refused here too, before anything is printed
        lo = 10**3 if args.nmin is None else args.nmin
        hi = 10**6 if args.nmax is None else args.nmax
        if not 1 <= lo <= hi:
            raise ValueError(f"need 1 <= --nmin <= --nmax, got --nmin {lo} and "
                             f"--nmax {hi} (defaults {10**3} and {10**6})")
        rep = brute_force_min(alpha, gamma, lo, hi, target_m=target, two_sided=True)
        out["report"] = rep.json_tree()
    print(_json_text(out, args.digits))
    if failed:
        print(f"FAIL: oracle_m={got.m.decimal(args.digits)} "
              f"exact_m={target.decimal(args.digits)}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    pairs = _parse_grid(args.grid) if args.grid else list(covered_pairs())
    rows = [["a", "b", "rho_star_label", "rho_star", "second", "gap", "first_limit_point"]]
    for a, b in pairs:
        # the rows read the top two values and L, which no kmax >= 2 changes:
        # a listed decreasing family's two largest members are k0 and k0 + 1,
        # both <= 2, and an increasing family's members lie below L
        cat = spectrum_catalog(make_alpha(a, b), kmax=2)
        gap = isolation_gap(cat)
        rows.append([
            a, b, cat.rho_star.label,
            cat.rho_star.m_star.decimal(args.digits),
            cat.points[1].m_star.decimal(args.digits),
            gap.decimal(args.digits),
            cat.first_limit_point.decimal(args.digits),
        ])
    if args.format == "json":
        head, *body = rows
        print(_json_text([dict(zip(head, r)) for r in body], args.digits))
    else:
        _emit_rows(args.format, rows)
    return 0


def _cmd_ncf(args) -> int:
    x = QuadNum(Fraction(args.p), Fraction(args.q), args.N)
    exp = ncf_expand(x, max_terms=args.max_terms)
    out = {
        "value": x,
        "integer_part": exp.integer_part,
        "preperiod": list(exp.preperiod),
        "period": list(exp.period),
        "display": str(exp),
    }
    print(_json_text(out, args.digits))
    return 0


def _cmd_euclid(args) -> int:
    rep = euclidean_test(make_alpha(args.a, args.b))
    B, C = rep.min_poly
    print(_json_text({
        "a": args.a, "b": args.b,
        "min_poly": {"B": str(B), "C": str(C)},
        "rho": rep.rho,
        "threshold": rep.threshold,
        "norm_euclidean": rep.verdict,
        "points_above_threshold": rep.points_above,
    }, args.digits))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged.

    Handlers are bound as functions, and each reads the module's globals
    when it runs.
    """
    p = argparse.ArgumentParser(
        prog="inhomspec",
        description="Exact inhomogeneous spectra of period-two quadratics.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, need_ab=True, kmax=8, fmt=False):
        # need_ab: --a/--b required (True), optional (False) or absent (None)
        if need_ab is not None:
            sp.add_argument("--a", type=int, required=need_ab)
            sp.add_argument("--b", type=int, required=need_ab)
        if kmax is not None:
            sp.add_argument("--kmax", type=int, default=kmax)
        if fmt:
            sp.add_argument("--format", choices=("json", "csv", "table"),
                            default="json")
        sp.add_argument("--digits", type=int, default=15)

    sp = sub.add_parser("catalog", help="spectrum values above the first limit point")
    common(sp, fmt=True)
    sp.set_defaults(fn=_cmd_catalog)

    sp = sub.add_parser("verify", help="closed forms vs. the exact evaluator")
    common(sp, need_ab=False, kmax=4)
    sp.add_argument("--grid", help="amin..amax,bmin..bmax")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("oracle", help="exact M, or a window minimum, for a class")
    common(sp, kmax=None)
    target = sp.add_mutually_exclusive_group(required=True)
    target.add_argument("--class", dest="cls", help="class family, e.g. S0, S-2, Sk1, S0t")
    target.add_argument("--period", help="block string 'A1 A1'' or raw 't:(2,-3)'")
    sp.add_argument("--k", type=int)
    sp.add_argument("--t", type=int)
    sp.add_argument("--nmin", type=int)
    sp.add_argument("--nmax", type=int)
    sp.set_defaults(fn=_cmd_oracle)

    sp = sub.add_parser("sweep", help="summary rows over an (a,b) grid")
    common(sp, need_ab=None, kmax=None, fmt=True)
    sp.add_argument("--grid", help="amin..amax,bmin..bmax")
    sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("ncf", help="minus expansion of p + q*sqrt(N)")
    sp.add_argument("p", help="rational, e.g. 0 or 5/2; a negative fraction "
                    "such as -1/3 needs -- before p")
    sp.add_argument("q", help="rational coefficient of sqrt(N); a negative fraction as for p")
    sp.add_argument("N", type=int)
    sp.add_argument("--max-terms", type=int, default=512)
    sp.add_argument("--digits", type=int, default=15)
    sp.set_defaults(fn=_cmd_ncf)

    sp = sub.add_parser("euclid", help="norm-Euclidean criterion for (a,b)")
    common(sp, kmax=None)
    sp.set_defaults(fn=_cmd_euclid)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # point fd 1 at devnull so the interpreter's last flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except (ValueError, ZeroDivisionError, PeriodNotFoundError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except RuntimeError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
