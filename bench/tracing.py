"""In-memory tracing for a benchmark run, installed from outside the program.

The tracer rebinds module attributes of the imported package:

* each function in SPANNED is replaced, in every package module that holds
  it (including the names cli and spectrum import), by a wrapper that
  records a span: name, start, end, parent and a few attributes;
* QuadNum's public operators and constructor get counters and accumulated
  time instead of spans, because there are millions of calls.  Time, and
  the widest coefficient of a result, are taken at the outermost QuadNum
  call only, so nested calls are not timed twice; counts include nested
  calls.

Spans stay in memory until ``write_spans``.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

SPANNED = (
    ("cli", "main"),
    ("spectrum", "spectrum_catalog"),
    ("spectrum", "delta_closed_form"),
    ("spectrum", "family_limit"),
    ("spectrum", "class_tsequence"),
    ("expansion", "m_star"),
    ("expansion", "gamma_value"),
    ("oracle", "brute_force_min"),
    ("ncf", "make_alpha"),
)

QUADNUM_KINDS = {
    "new": ("__init__",),
    "arith": (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__", "__pow__",
        "inverse", "conjugate", "norm",
    ),
    "cmp": ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "sign"),
    "floor": ("floor", "__floor__"),
}

# m_star periods longer than this many digits are the slow tail
LONG_PERIOD = 24
# brute_force_min floors A and G once per side before it sweeps
ROUNDING_FLOORS_PER_SIDE = 2


def _span_attrs(name, bound):
    """Attributes kept on a span, from the call's bound arguments."""
    args = bound.arguments
    if name == "expansion.m_star":
        return {"period_len": len(args["tseq"].period)}
    if name == "oracle.brute_force_min":
        return {
            "n_lo": args["n_lo"],
            "n_hi": args["n_hi"],
            "two_sided": args.get("two_sided", False),
        }
    return None


class Tracer:
    """Spans and QuadNum counters for one run of one workload."""

    def __init__(self):
        self.clock = time.perf_counter
        self.t0 = self.clock()
        # span: [name, parent index, start, end, floors at start, floors at end, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts = dict.fromkeys(QUADNUM_KINDS, 0)
        self.max_bits = 0  # widest numerator or denominator seen, in bits
        self._quadnum = None
        self._qn = [0, 0.0]  # [inside a QuadNum call, accumulated seconds]

    # -- spans ---------------------------------------------------------

    def open_span(self, name, attrs=None) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, self.clock(), None,
               self.counts["floor"], None, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close_span(self, rec) -> None:
        rec[3] = self.clock()
        rec[5] = self.counts["floor"]
        self._stack.pop()

    def _spanned(self, name, fn):
        sig = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.open_span(name, _span_attrs(name, sig.bind(*args, **kwargs)))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close_span(rec)

        return wrapper

    # -- QuadNum counters ----------------------------------------------

    def _counted(self, kind, fn):
        counts, state, clock = self.counts, self._qn, self.clock
        observe = self._observe
        is_init = fn.__name__ == "__init__"

        def wrapper(*args, **kwargs):
            counts[kind] += 1
            if state[0]:
                return fn(*args, **kwargs)
            state[0] = 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                state[1] += clock() - start
                state[0] = 0
            observe(args[0] if is_init else out)
            return out

        return wrapper

    def _observe(self, value) -> None:
        """Track the widest coefficient among outermost QuadNum results."""
        if isinstance(value, self._quadnum):
            p, q = value.p, value.q
            bits = max(p.numerator.bit_length(), p.denominator.bit_length(),
                       q.numerator.bit_length(), q.denominator.bit_length())
            if bits > self.max_bits:
                self.max_bits = bits

    # -- installation --------------------------------------------------

    def install(self, prog) -> None:
        """Rebind the package's public functions and QuadNum's operators."""
        modules = prog.modules()
        for modname, attr in SPANNED:
            orig = getattr(getattr(prog, modname), attr)
            wrapped = self._spanned(f"{modname}.{attr}", orig)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
        qn = self._quadnum = prog.quadfield.QuadNum
        for kind, names in QUADNUM_KINDS.items():
            for attr in names:
                setattr(qn, attr, self._counted(kind, qn.__dict__[attr]))

    # -- results -------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[3] - rec[2]
        return [rec[3] - rec[2] - c for rec, c in zip(self.spans, child)]

    def layer_metrics(self, ops_per_s: float) -> dict:
        """Per-layer metrics, each as {"value": ..., "unit": ...}."""
        self_s = self.self_times()
        calls = defaultdict(int)
        secs = defaultdict(float)
        m_star_long_s = 0.0
        m_star_max_len = 0
        n_swept = 0
        sweep_s = 0.0
        exact_evals = 0
        for rec, s in zip(self.spans, self_s):
            name, attrs = rec[0], rec[6]
            calls[name] += 1
            secs[name] += s
            if name == "expansion.m_star":
                m_star_max_len = max(m_star_max_len, attrs["period_len"])
                if attrs["period_len"] > LONG_PERIOD:
                    m_star_long_s += s
            elif name == "oracle.brute_force_min" and not attrs["two_sided"]:
                n_swept += attrs["n_hi"] - attrs["n_lo"] + 1
                sweep_s += rec[3] - rec[2]
                exact_evals += rec[5] - rec[4] - ROUNDING_FLOORS_PER_SIDE
        closed = ("spectrum.delta_closed_form", "spectrum.family_limit")
        values = {
            "quadfield.new": (self.counts["new"], "count"),
            "quadfield.arith": (self.counts["arith"], "count"),
            "quadfield.cmp": (self.counts["cmp"], "count"),
            "quadfield.floor": (self.counts["floor"], "count"),
            "quadfield.self_s": (self._qn[1], "s"),
            "quadfield.max_bits": (self.max_bits, "bits"),
            "ncf.make_alpha_s": (secs["ncf.make_alpha"], "s"),
            "expansion.m_star_calls": (calls["expansion.m_star"], "count"),
            "expansion.m_star_s": (secs["expansion.m_star"], "s"),
            "expansion.m_star_long_s": (m_star_long_s, "s"),
            "expansion.m_star_max_len": (m_star_max_len, "count"),
            "expansion.gamma_value_s": (secs["expansion.gamma_value"], "s"),
            "spectrum.closed_form_calls": (sum(calls[n] for n in closed), "count"),
            "spectrum.closed_form_s": (sum(secs[n] for n in closed), "s"),
            "spectrum.catalog_self_s": (secs["spectrum.spectrum_catalog"], "s"),
            "spectrum.class_tsequence_s": (secs["spectrum.class_tsequence"], "s"),
            "oracle.n_swept": (n_swept, "count"),
            "oracle.sweep_n_per_s": (n_swept / sweep_s if sweep_s else 0.0, "1/s"),
            "oracle.exact_evals": (exact_evals, "count"),
            "cli.render_s": (secs["cli.main"], "s"),
            "trace.ops_per_s": (ops_per_s, "1/s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def write_spans(self, path: Path, header: dict) -> None:
        out = dict(header)
        out["spans"] = [
            {"id": i, "parent": rec[1], "name": rec[0],
             "start": rec[2] - self.t0, "end": rec[3] - self.t0, "attrs": rec[6]}
            for i, rec in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(out, fh)
