"""Record the reference outputs the benchmark checks against.

    python3 bench/make_refs.py

Writes bench/refs/catalog.json (sha256 of the stdout of ``inhomspec catalog
--kmax 8`` for every pair 2 <= a < b <= 40) and bench/refs/oracle.json (the
exact two-sided window minimum and argmin over [10^3, 10^6] for every case of
equivalence_cases(alpha, 1) on covered_pairs()).  Both are keyed by input, so
any seed's draw can be checked.  Run it only on code whose outputs are known
to be right: a later change is checked against what this records.
"""

import json
import sys

from run import REFS, SRC, Program
from workloads import (
    CATALOG_B_MAX,
    CATALOG_KMAX,
    ORACLE_KMAX,
    ORACLE_WINDOW,
    case_key,
    digest,
    run_catalog,
    window_record,
)


def catalog_ref(prog) -> dict:
    digests = {}
    for a, b in prog.pkg.covered_pairs(2, CATALOG_B_MAX - 1, 3, CATALOG_B_MAX):
        rc, out = run_catalog(prog.cli, a, b)
        if rc != 0:
            raise SystemExit(f"catalog ({a},{b}) exited {rc}")
        digests[f"{a},{b}"] = digest(out)
    return {"kmax": CATALOG_KMAX, "digests": digests}


def oracle_ref(prog) -> dict:
    pkg = prog.pkg
    lo, hi = ORACLE_WINDOW
    cases = {}
    for a, b in pkg.covered_pairs():
        alpha = pkg.make_alpha(a, b)
        for cls in prog.spectrum.equivalence_cases(alpha, ORACLE_KMAX):
            tseq = pkg.class_tsequence(cls, alpha)
            gamma = pkg.gamma_value(tseq, alpha)
            target = pkg.m_value(pkg.m_star(tseq, alpha), alpha)
            rep = pkg.brute_force_min(alpha, gamma, lo, hi, target_m=target, two_sided=True)
            cases[case_key(a, b, cls)] = window_record(rep)
    return {"window": [lo, hi], "kmax": ORACLE_KMAX, "cases": cases}


def main() -> int:
    sys.path.insert(0, str(SRC))
    prog = Program()
    REFS.mkdir(exist_ok=True)
    for name, build in (("catalog.json", catalog_ref), ("oracle.json", oracle_ref)):
        with open(REFS / name, "w") as fh:
            json.dump(build(prog), fh, indent=0, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
