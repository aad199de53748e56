"""Run every workload, each in a fresh process, and print its metrics.

    python3 bench/report.py [--seed 1] [--seconds 30] [--trace]

Prints, per workload, every end-to-end metric with its unit, n_ops and
fail_ratio.  With --trace it also makes the traced run and prints the
per-layer metrics and the tracing overhead: untraced raw ops_per_s over
traced ops_per_s (traced timings are not scaled).  Exits 1 if any
workload's outputs were wrong.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    *_, record_line, result_line = proc.stdout.splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


def show(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", action="store_true", help="also make the traced run")
    args = ap.parse_args()
    all_correct = True
    for workload in WORKLOADS:
        record, result = run(workload, args.seed, args.seconds, 0)
        all_correct &= result["correct"]
        print(f"{workload}  seed={record['seed']} n_ops={record['n_ops']} "
              f"fail_ratio={record['fail_ratio']:.6g} revision={record['revision'][:12]} "
              f"python={record['python']} numpy={record['numpy']} nproc={record['nproc']}")
        show(result["metrics"])
        if args.trace:
            _, traced = run(workload, args.seed, args.seconds, 1)
            all_correct &= traced["correct"]
            layers = traced["metrics"]
            print("  -- traced run")
            show(layers)
            overhead = record["raw"]["ops_per_s"] / layers["trace.ops_per_s"]["value"]
            print(f"  {'trace.overhead':28s} {overhead:>16.6g} x")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
