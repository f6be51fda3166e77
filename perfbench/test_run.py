"""Self-check of the benchmark, at a small size.

    python3 -m pytest perfbench

Every workload must emit every metric BENCHMARK.json names, with its unit,
and fail no operation on the current code; the correctness gate must reject
outputs that are wrong or not repeatable; and a directory holding only the
benchmark (no package sources) must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FLOORS = json.loads((HERE / "reference.json").read_text())["floors"]
TOLERANCE = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "accuracy_digits")

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_emits_every_metric_and_fails_nothing(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "small")
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    assert detail["seed"] == 3 and detail["environment"]["nproc"] >= 1
    if trace:
        assert values["trace.self_sum_frac"] == pytest.approx(1.0, abs=1e-9)
    else:
        assert all(values[m["name"]] > 0 for m in wanted)


def test_gate_rejects_wrong_or_unrepeatable_output(tmp_path):
    workload = workloads.EvaluateLarge(1, "small", FLOORS["evaluate_large"]["small"], TOLERANCE, tmp_path)
    assert all(o.ok for o in workload.setup())
    _, velocities = workload.call(time.perf_counter)
    assert workload.check(velocities)[0].ok

    last_bit = velocities.copy()
    last_bit[0, 0] = np.nextafter(last_bit[0, 0], np.inf)
    assert not workload.check(last_bit)[0].ok  # not repeatable

    inaccurate = velocities * 1.01
    workload.reference = inaccurate.copy()
    assert not workload.check(inaccurate)[0].ok  # repeatable but two digits short

    non_finite = velocities.copy()
    non_finite[-1, 1] = np.nan
    workload.reference = non_finite.copy()
    assert not workload.check(non_finite)[0].ok


def test_sweep_gate_rejects_budget_violation(tmp_path):
    workload = workloads.StudySweep(1, "small", FLOORS["study_sweep"]["small"], TOLERANCE, tmp_path)
    try:
        assert all(o.ok for o in workload.setup())
        _, out = workload.call(time.perf_counter)
        assert all(o.ok for o in workload.check(out))
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        row[header.index("bound_violations")] = "1"
        out.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
        outcomes = workload.check(out)
        assert not outcomes[0].ok and all(o.ok for o in outcomes[1:])
    finally:
        workload.close()


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "evaluate_large", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
