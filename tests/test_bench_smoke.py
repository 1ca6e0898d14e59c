"""The benchmark's smoke run: every workload on tiny inputs, all oracles.

`python3 bench/run.py --smoke` runs each workload once plain and once
traced, checks every operation against its independent oracle and the
metric names against BENCHMARK.json, prints one status line per run and
writes each run's result to bench/out/<workload>-seed1-trace<t>/.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_runs_clean():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert len(lines) == 2 * len(workloads)
    for line in lines:
        assert line.startswith("ok ") and line.endswith(" failed=0"), line
    for name in workloads:
        for trace in (0, 1):
            path = ROOT / "bench" / "out" / f"{name}-seed1-trace{trace}"
            result = json.loads((path / "result.json").read_text())
            assert result["correct"] is True
            assert result["failed"] == 0
            assert result["attempted"] > 0
