"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json
is emitted, that a corrupted reference makes ops fail, and that the
benchmark refuses to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, run_py=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(run_py), "--seed", "3", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_two(proc):
    assert proc.returncode == 0, proc.stderr
    *_, record, result = proc.stdout.splitlines()
    return json.loads(record)["record"], json.loads(result)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted(workload, trace, kind):
    record, result = last_two(bench("--workload", workload, "--trace", str(trace), "--limit", "3"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and record["fail_ratio"] == 0
    assert record["n_ops"] == result["attempted"] == 3
    for key in ("revision", "python", "numpy", "nproc", "seed"):
        assert key in record
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want


def test_corrupted_reference_digest_fails_ops(tmp_path):
    refs = tmp_path / "refs"
    shutil.copytree(BENCH / "refs", refs)
    ref = json.loads((refs / "catalog.json").read_text())
    ref["digests"] = {k: "0" * 64 for k in ref["digests"]}
    (refs / "catalog.json").write_text(json.dumps(ref))
    record, result = last_two(bench("--workload", "catalog-wide", "--limit", "2",
                                    "--refs", str(refs)))
    assert record["fail_ratio"] > 0
    assert not result["correct"] and result["failed"] == 2
    assert result["metrics"]["ok_ratio"]["value"] < 1


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify-grid", cwd=tmp_path, run_py=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
