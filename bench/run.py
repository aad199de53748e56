"""Run one benchmark workload against the package in this checkout's src/.

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

One process runs one workload.  Set-up (a fresh import of the package,
make_alpha and input generation from the seed) is repeated SETUP_REPEATS
times and its median reported as setup_s.  The timed part is a closed loop
over whole passes of the inputs, as many as fit in --seconds (at least one),
so every run measures the same mix of work whatever the machine's speed.
Each output is checked; a wrong or failed op counts against ok_ratio.
Timings are scaled to a machine of fixed speed by reference kernels sampled
during the run (calibrate.py); the raw figures are kept in the record.

With --trace 1 the package's public functions and QuadNum's operators are
wrapped (see tracing.py), set-up runs once, exactly one pass is made so the
counts repeat, and the per-layer metrics are printed instead.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it is the run's record: revision, Python,
numpy, nproc, seed, n_ops, fail_ratio, the raw timings and the first
failures.  Both are also written, with the spans of a traced run, under
.bench_out/ in the checkout.
"""

import os

# pinned before numpy is imported, so the oracle's sweep stays single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

from calibrate import Calibrator
from tracing import Tracer
from workloads import WORKLOADS, load_ref

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFS = BENCH / "refs"
SETUP_REPEATS = 5
MODULES = ("quadfield", "ncf", "expansion", "spectrum", "oracle", "cli")
CLOCK = time.perf_counter


class Program:
    """The package and its modules, freshly imported from SRC."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "inhomspec" or m.startswith("inhomspec.")]:
            del sys.modules[name]
        self.pkg = importlib.import_module("inhomspec")
        if SRC not in Path(self.pkg.__file__).resolve().parents:
            raise ImportError(f"inhomspec imported from {self.pkg.__file__}, not {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"inhomspec.{name}"))

    def modules(self):
        return [self.pkg] + [getattr(self, name) for name in MODULES]


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile_ms(latencies, pct):
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1] * 1e3


def setup(workload, seed, limit, tracer=None):
    """Import, make_alpha and input generation; returns (program, inputs, seconds)."""
    gc.collect()
    start = CLOCK()
    prog = Program()
    if tracer is not None:
        tracer.install(prog)
        rec = tracer.open_span("bench.setup")
    items = workload.prepare(prog, random.Random(seed), limit)
    if tracer is not None:
        tracer.close_span(rec)
    return prog, items, CLOCK() - start


def run_passes(workload, prog, items, ref, seconds, tracer=None, calibrator=None):
    """Closed loop over whole passes.

    Returns (starts, latencies, failures, passes): each op's start time and
    raw duration, the failed ops, and the number of passes made.
    """
    starts, latencies, failures = [], [], []
    passes = 0
    start = CLOCK()
    while True:
        for item in items:
            if tracer is not None:
                rec = tracer.open_span("bench.op", {"key": workload.key(item)})
            t0 = CLOCK()
            try:
                result = workload.op(prog, item)
            except Exception as ex:  # a failed op is counted, not fatal
                result, reason = None, f"{type(ex).__name__}: {ex}"
            else:
                reason = None
            latencies.append(CLOCK() - t0)
            starts.append(t0)
            if tracer is not None:
                tracer.close_span(rec)
            if reason is None:
                reason = workload.check(item, result, ref)
            if reason is not None:
                failures.append({"key": workload.key(item), "reason": reason})
            if calibrator is not None:
                calibrator.maybe_sample()
        passes += 1
        elapsed = CLOCK() - start
        # stop before a pass that would end past --seconds: every pass is whole
        if tracer is not None or elapsed * (passes + 1) / passes > seconds:
            return starts, latencies, failures, passes


def traced_run(workload, args, ref):
    """One traced set-up and pass, raw timings; returns what timed_run does."""
    tracer = Tracer()
    prog, items, _ = setup(workload, args.seed, args.limit, tracer)
    gc.collect()
    _, latencies, failures, passes = run_passes(workload, prog, items, ref, args.seconds, tracer)
    metrics = tracer.layer_metrics(len(latencies) / sum(latencies))
    stem = f"{args.workload}-seed{args.seed}-trace1"
    tracer.write_spans(OUT / f"{stem}.spans.json", {"workload": args.workload, "seed": args.seed})
    return metrics, len(latencies), failures, passes, {}


def timed_run(workload, args, ref):
    """Untraced set-ups and passes, timings scaled to reference machine speed.

    Returns (metrics, n_ops, failures, passes, calibration record).
    """
    setup_cal = Calibrator("python")
    setup_cal.sample()
    raw_setups, setups = [], []
    for _ in range(SETUP_REPEATS):
        t0 = CLOCK()
        prog, items, seconds = setup(workload, args.seed, args.limit)
        setup_cal.sample()
        raw_setups.append(seconds)
        setups.append(seconds * setup_cal.scale_at(t0))
    gc.collect()
    op_cal = Calibrator(workload.kernel)
    op_cal.sample()
    starts, raw_ops, failures, passes = run_passes(workload, prog, items, ref, args.seconds,
                                                   calibrator=op_cal)
    op_cal.sample()
    ops = [lat * op_cal.scale_at(t0) for t0, lat in zip(starts, raw_ops)]
    n_ops = len(ops)

    def timings(lats, setup_times):
        return {
            "ops_per_s": n_ops / sum(lats),
            "op_p50_ms": percentile_ms(lats, 50),
            "op_p90_ms": percentile_ms(lats, 90),
            "setup_s": statistics.median(setup_times),
        }

    scaled = timings(ops, setups)
    metrics = {
        "ops_per_s": {"value": scaled["ops_per_s"], "unit": "1/s"},
        "op_p50_ms": {"value": scaled["op_p50_ms"], "unit": "ms"},
        "op_p90_ms": {"value": scaled["op_p90_ms"], "unit": "ms"},
        "ok_ratio": {"value": (n_ops - len(failures)) / n_ops, "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "setup_s": {"value": scaled["setup_s"], "unit": "s"},
    }
    calibration = {
        "raw": timings(raw_ops, raw_setups),
        "kernel": workload.kernel,
        "kernel_median_s": op_cal.median_s(),
        "kernel_samples": len(op_cal.took),
    }
    return metrics, n_ops, failures, passes, calibration


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=0,
                    help="use only the first N inputs (smoke tests)")
    ap.add_argument("--refs", type=Path, default=REFS,
                    help="directory of reference outputs")
    args = ap.parse_args(argv)

    if not (SRC / "inhomspec" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    ref = load_ref(workload, args.refs)
    OUT.mkdir(exist_ok=True)

    run = traced_run if args.trace else timed_run
    metrics, n_ops, failures, passes, calibration = run(workload, args, ref)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": passes,
        "n_ops": n_ops,
        "fail_ratio": len(failures) / n_ops,
        "revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **calibration,
        "failures": failures[:20],
    }
    result = {
        "correct": not failures,
        "attempted": n_ops,
        "failed": len(failures),
        "metrics": metrics,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
