"""Smoke test of the benchmark itself: every workload at a tiny replication count.

    python3 -m pytest -q bench/test_bench.py

Kept out of the tier-1 suite (``testpaths`` lists only ``tests/``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from workloads import DEFAULT_SEED, HELD_OUT_SEED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, seed: int = 0):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_traced_checksum_agrees(workload, seed):
    outputs = {}
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = _run(ROOT, workload, trace, seed)
        assert done.returncode == 0, done.stderr
        report_line, result_line = done.stdout.strip().splitlines()[-2:]
        result = json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in declared}
        outputs[trace] = (json.loads(report_line)["report"], result["metrics"])
    untraced, traced = outputs[0][0], outputs[1][0]
    assert untraced["stopped_sha256"] == traced["stopped_sha256"]
    assert untraced["reference_sha_match"] and traced["reference_sha_match"]
    assert outputs[1][1]["montecarlo.stopped_sha_match"]["value"] == 1
    assert outputs[1][1]["trace.coverage_frac"]["value"] >= 0.9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
