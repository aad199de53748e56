"""Command-line interface.

Subcommands:

* catalog  -- spectrum values above the first limit point for one (a, b)
* verify   -- closed form vs. exact evaluator, one pair or a grid
* oracle   -- the exact oracle's M for a class or raw period, or a window
* sweep    -- per-pair summary rows over a grid
* ncf      -- minus continued fraction expansion of p/q + r/s * sqrt(N)
* euclid   -- norm-Euclidean criterion for one (a, b)

Exit status: 0 on success; 1 when a verification fails or a catalogue
self-check fails (a RuntimeError such as BranchDisagreement, printed as
"error: ..."); 2 on bad usage, including an `ncf` expansion that finds no
period within --max-terms, or a --max-terms below 1, and an `oracle` call
with an option its target ignores (--k or --t with --period, --align with
--class) or a target gamma in Z + alpha*Z.
Output is byte-stable for fixed inputs: keys are sorted and decimal digit
counts are fixed by --digits.  JSON is written as json.dumps(obj,
sort_keys=True, indent=2) writes it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from math import inf

from .quadfield import QuadNum
from .ncf import PeriodNotFoundError, make_alpha, ncf_expand
from .expansion import gamma_value, m_star, m_value, parse_period
from .oracle import brute_force_min, oracle_m
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


def _class_from_args(args) -> ClassId:
    if args.cls is None:
        raise ValueError("--class (or --period) is required here")
    return ClassId(args.cls, k=args.k, t=args.t)


_json_str = json.encoder.encode_basestring_ascii


def _json_text(obj, pad: str = "") -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it.

    json's indenting encoder is pure Python and slow; this writes the same
    bytes for the str-keyed trees of str, int, float, bool, None, list, tuple
    and dict the subcommands print.
    """
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == inf:
            return "Infinity"
        if obj == -inf:
            return "-Infinity"
        return float.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = [_json_text(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(body) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = [_json_str(k) + ": " + _json_text(v, inner) for k, v in sorted(obj.items())]
        return "{\n" + inner + (",\n" + inner).join(body) + "\n" + pad + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit_json(obj) -> None:
    print(_json_text(obj))


def _emit_csv(rows) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _emit_table(rows) -> None:
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))


def _cmd_catalog(args) -> int:
    cat = spectrum_catalog(make_alpha(args.a, args.b), kmax=args.kmax)
    if args.format == "json":
        _emit_json(cat.to_json_dict(digits=args.digits))
    else:
        rows = cat.to_csv_rows(digits=args.digits)
        (_emit_csv if args.format == "csv" else _emit_table)(rows)
    return 0


def _cmd_verify(args) -> int:
    pairs = _parse_grid(args.grid) if args.grid else [(args.a, args.b)]
    if any(v is None for v in pairs[0]):
        raise ValueError("verify needs --a/--b or --grid")
    failures = 0
    for a, b in pairs:
        for res in verify_equivalence(make_alpha(a, b), kmax=args.kmax):
            ok = res.ok
            failures += 0 if ok else 1
            print(f"{'PASS' if ok else 'FAIL'} ({a},{b}) {res.cls.delta_label}: "
                  f"closed={res.closed_form.decimal(args.digits)} "
                  f"evaluated={res.evaluated.decimal(args.digits)}")
    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} mismatches")
    return 0 if failures == 0 else 1


def _cmd_oracle(args) -> int:
    if args.period and args.cls is not None:
        raise ValueError("--class and --period exclude each other")
    if args.period and (args.k is not None or args.t is not None):
        raise ValueError("--k and --t apply to --class, not to --period")
    if args.cls is not None and args.align is not None:
        raise ValueError("--align applies to --period, not to --class")
    alpha = make_alpha(args.a, args.b)
    if args.period:
        tseq = parse_period(args.period, alpha, start=args.align or "odd")
        label = str(tseq)
    else:
        cls = _class_from_args(args)
        tseq = class_tsequence(cls, alpha)
        label = cls.delta_label
    gamma = gamma_value(tseq, alpha)
    target = m_value(m_star(tseq, alpha), alpha)
    out = {"a": args.a, "b": args.b, "class": label,
           "gamma": gamma.to_json(args.digits)}
    if args.nmin is None and args.nmax is None:
        got = oracle_m(alpha, gamma)
        out.update(exact_m=target.to_json(args.digits),
                   oracle_m=got.m.to_json(args.digits),
                   cycle_records=got.cycle_records,
                   cycle_start_n=got.cycle_start_n)
    else:
        lo = 10**3 if args.nmin is None else args.nmin
        hi = 10**6 if args.nmax is None else args.nmax
        rep = brute_force_min(alpha, gamma, lo, hi, target_m=target, two_sided=True)
        out["report"] = rep.to_json_dict(args.digits)
    _emit_json(out)
    return 0


def _cmd_sweep(args) -> int:
    pairs = _parse_grid(args.grid) if args.grid else list(covered_pairs())
    rows = [["a", "b", "rho_star_label", "rho_star", "second", "gap", "first_limit_point"]]
    for a, b in pairs:
        cat = spectrum_catalog(make_alpha(a, b), kmax=args.kmax)
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
        _emit_json([dict(zip(head, r)) for r in body])
    else:
        (_emit_csv if args.format == "csv" else _emit_table)(rows)
    return 0


def _cmd_ncf(args) -> int:
    x = QuadNum(Fraction(args.p), Fraction(args.q), args.N)
    exp = ncf_expand(x, max_terms=args.max_terms)
    out = {
        "value": x.to_json(args.digits),
        "integer_part": exp.integer_part,
        "preperiod": list(exp.preperiod),
        "period": list(exp.period),
        "display": str(exp),
    }
    _emit_json(out)
    return 0


def _cmd_euclid(args) -> int:
    rep = euclidean_test(make_alpha(args.a, args.b), kmax=args.kmax)
    B, C = rep.min_poly
    _emit_json({
        "a": args.a, "b": args.b,
        "min_poly": {"B": str(B), "C": str(C)},
        "rho": rep.rho.to_json(args.digits),
        "threshold": rep.threshold.to_json(args.digits),
        "norm_euclidean": rep.verdict,
        "points_above_threshold": rep.points_above,
    })
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
        if need_ab:
            sp.add_argument("--a", type=int, required=False)
            sp.add_argument("--b", type=int, required=False)
        if kmax is not None:
            sp.add_argument("--kmax", type=int, default=kmax)
        if fmt:
            sp.add_argument("--format", choices=("json", "csv", "table"),
                            default="json")
        sp.add_argument("--digits", type=int, default=15)

    sp = sub.add_parser("catalog", help="spectrum values above the first limit point")
    common(sp, fmt=True)
    sp.set_defaults(fn=_cmd_catalog, need_ab=True)

    sp = sub.add_parser("verify", help="closed forms vs. the exact evaluator")
    common(sp, kmax=4)
    sp.add_argument("--grid", help="amin..amax,bmin..bmax")
    sp.set_defaults(fn=_cmd_verify, need_ab=False)

    sp = sub.add_parser("oracle", help="exact M, or a window minimum, for a class")
    common(sp, kmax=None)
    sp.add_argument("--class", dest="cls", help="class family, e.g. S0, S-2, Sk1, S0t")
    sp.add_argument("--k", type=int)
    sp.add_argument("--t", type=int)
    sp.add_argument("--period", help="block string 'A1 A1'' or raw 't:(2,-3)'")
    sp.add_argument("--align", choices=("odd", "even"),
                    help="position of a period's first digit (default odd)")
    sp.add_argument("--nmin", type=int)
    sp.add_argument("--nmax", type=int)
    sp.set_defaults(fn=_cmd_oracle, need_ab=True)

    sp = sub.add_parser("sweep", help="summary rows over an (a,b) grid")
    common(sp, need_ab=False, fmt=True)
    sp.add_argument("--grid", help="amin..amax,bmin..bmax")
    sp.set_defaults(fn=_cmd_sweep, need_ab=False)

    sp = sub.add_parser("ncf", help="minus expansion of p + q*sqrt(N)")
    sp.add_argument("p", help="rational, e.g. 0 or 5/2")
    sp.add_argument("q", help="rational coefficient of sqrt(N)")
    sp.add_argument("N", type=int)
    sp.add_argument("--max-terms", type=int, default=512)
    sp.add_argument("--digits", type=int, default=15)
    sp.set_defaults(fn=_cmd_ncf, need_ab=False)

    sp = sub.add_parser("euclid", help="norm-Euclidean criterion for (a,b)")
    common(sp)
    sp.set_defaults(fn=_cmd_euclid, need_ab=True)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "need_ab", False) and (args.a is None or args.b is None):
        print("error: --a and --b are required", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, PeriodNotFoundError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except RuntimeError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
