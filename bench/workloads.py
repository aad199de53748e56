"""The three benchmark workloads: inputs, one operation, and its check.

Each workload is a closed loop with one caller: the next operation starts when
the previous one returns.  ``prepare`` builds the inputs from the seed and is
the set-up the benchmark times; ``op`` is the timed operation; ``check``
returns None when the operation's output is right, or a reason when it is not.
``kernel`` names the calibration kernel (calibrate.py) whose speed the op's
time tracks.
Everything reaches the program through its public API, looked up on the
imported modules at call time, so a traced run sees the rebound functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

CATALOG_KMAX = 8
CATALOG_B_MAX = 40
ORACLE_KMAX = 1
ORACLE_WINDOW = (10**3, 10**6)
ORACLE_TARGETS = 100


def case_key(a, b, cls) -> str:
    """Input key of one (pair, class) case; labels alone can collide."""
    return f"{a},{b},{cls.family},{cls.k},{cls.t}"


def catalog_argv(a: int, b: int) -> list[str]:
    return ["catalog", "--a", str(a), "--b", str(b), "--kmax", str(CATALOG_KMAX)]


def run_catalog(cli, a: int, b: int) -> tuple[int, bytes]:
    """``inhomspec catalog`` in-process: exit code and captured stdout bytes."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(catalog_argv(a, b))
    return rc, buf.getvalue().encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def window_record(report) -> dict:
    """The exact window minimum and its argmin, as stored in the reference."""
    w = report.window_min
    return {"p": str(w.p), "q": str(w.q), "N": w.N, "argmin_n": report.argmin_n}


class VerifyGrid:
    """Closed form against the exact evaluator over the whole tested grid.

    One op is one equivalence case: class_tsequence, m_star,
    delta_closed_form and an exact ==.  All 977 cases of
    equivalence_cases(alpha, 4) over covered_pairs(); the seed sets the
    order.  The evaluator's QuadNum multiply/divide does the work here.
    """

    name = "verify-grid"
    kernel = "python"
    ref_file = None

    def prepare(self, prog, rng, limit):
        pkg, spectrum = prog.pkg, prog.spectrum
        items = []
        for a, b in pkg.covered_pairs():
            alpha = pkg.make_alpha(a, b)
            items.extend((a, b, alpha, cls) for cls in spectrum.equivalence_cases(alpha, 4))
        rng.shuffle(items)
        return items[:limit] if limit else items

    def key(self, item) -> str:
        a, b, _, cls = item
        return case_key(a, b, cls)

    def op(self, prog, item):
        pkg = prog.pkg
        _, _, alpha, cls = item
        evaluated = pkg.m_star(pkg.class_tsequence(cls, alpha), alpha)
        closed = pkg.delta_closed_form(cls, alpha)
        return closed == evaluated

    def check(self, item, result, ref):
        return None if result is True else "closed form != evaluated"


class CatalogWide:
    """``inhomspec catalog --kmax 8`` for every pair 2 <= a < b <= 40.

    One op is cli.main(["catalog", ...]) with stdout captured: closed forms,
    the exact sort and the decimal rendering, with no m_star call.  The seed
    sets the order of the 739 pairs; make_alpha runs in set-up.
    """

    name = "catalog-wide"
    kernel = "python"
    ref_file = "catalog.json"

    def prepare(self, prog, rng, limit):
        pkg = prog.pkg
        items = list(pkg.covered_pairs(2, CATALOG_B_MAX - 1, 3, CATALOG_B_MAX))
        for a, b in items:
            pkg.make_alpha(a, b)
        rng.shuffle(items)
        return items[:limit] if limit else items

    def key(self, item) -> str:
        return f"{item[0]},{item[1]}"

    def op(self, prog, item):
        return run_catalog(prog.cli, *item)

    def check(self, item, result, ref):
        rc, out = result
        if rc != 0:
            return f"exit code {rc}"
        want = ref["digests"].get(self.key(item))
        if digest(out) != want:
            return "stdout digest differs from the reference"
        return None


class OracleWindow:
    """Two-sided brute_force_min over [10^3, 10^6] for seeded targets.

    The seed draws 100 (pair, class) cases from equivalence_cases(alpha, 1)
    over covered_pairs(); gamma and the exact target M are built in set-up.
    The op is numpy-bound with a handful of exact QuadNum re-evaluations.
    """

    name = "oracle-window"
    kernel = "numpy"
    ref_file = "oracle.json"

    def prepare(self, prog, rng, limit):
        pkg, spectrum = prog.pkg, prog.spectrum
        cases = []
        for a, b in pkg.covered_pairs():
            alpha = pkg.make_alpha(a, b)
            cases.extend((a, b, alpha, cls) for cls in spectrum.equivalence_cases(alpha, ORACLE_KMAX))
        cases = rng.sample(cases, min(limit or ORACLE_TARGETS, ORACLE_TARGETS))
        items = []
        for a, b, alpha, cls in cases:
            tseq = pkg.class_tsequence(cls, alpha)
            gamma = pkg.gamma_value(tseq, alpha)
            target = pkg.m_value(pkg.m_star(tseq, alpha), alpha)
            items.append((a, b, alpha, cls, gamma, target))
        return items

    def key(self, item) -> str:
        a, b, _, cls, _, _ = item
        return case_key(a, b, cls)

    def op(self, prog, item):
        _, _, alpha, _, gamma, target = item
        lo, hi = ORACLE_WINDOW
        return prog.pkg.brute_force_min(alpha, gamma, lo, hi, target_m=target, two_sided=True)

    def check(self, item, result, ref):
        want = ref["cases"].get(self.key(item))
        if window_record(result) != want:
            return "window minimum or argmin differs from the reference"
        return None


WORKLOADS = {w.name: w for w in (VerifyGrid(), CatalogWide(), OracleWindow())}


def load_ref(workload, refs_dir: Path):
    """The workload's reference outputs, keyed by input (None if it needs none)."""
    if workload.ref_file is None:
        return None
    with open(refs_dir / workload.ref_file) as fh:
        return json.load(fh)

