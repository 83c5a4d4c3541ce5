"""Smoke test of the campaign benchmark: every workload at minimal length.

Run from the repository root:

    python3 -m pytest campaign_bench/test_smoke.py -q

Each run measures no longer than the pairs behind the workload's exact
counts take, so the whole file takes a few minutes.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MINIMAL = ["--seed", "7", "--seconds", "0"]
EXACT = ("consumed_n_mean", "evaluated_n_mean", "repeat_rate", "accuracy_hit_rate")

sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402


def run_bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "campaign_bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=300, check=False,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result, "\n".join(lines[:-1])


def printed(text, name, unit):
    return re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)", text, re.M)


def test_spec_lists_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == ["early_stop", "deep_scan", "ais_tracking"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        m: bench.END_TO_END[m] for m in bench.RESULT_END_TO_END}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", ["early_stop", "deep_scan", "ais_tracking"])
def test_traced_run_passes_checks_and_prints_every_metric(workload):
    result, text = result_of(run_bench("--workload", workload, "--trace", "1", *MINIMAL))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.PER_LAYER
    for name, unit in {**bench.END_TO_END, **bench.PER_LAYER}.items():
        assert printed(text, name, unit), name
    assert "FAIL" not in text
    assert "PASS trace_does_not_perturb" in text


def test_untraced_run_repeats_exact_counts():
    first, text = result_of(run_bench("--workload", "early_stop", "--trace", "0", *MINIMAL))
    second, _ = result_of(run_bench("--workload", "early_stop", "--trace", "0", *MINIMAL))
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        m: bench.END_TO_END[m] for m in bench.RESULT_END_TO_END}
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert "env: nproc=" in text and "kernel_backend=" in text


def test_without_library_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "campaign_bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "early_stop", "--seed", "0", "--seconds", "1",
                     "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
