"""Tests of the benchmark itself: every workload at smoke size emits every
metric that BENCHMARK.json names, with its unit, and runs its output checks.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

CHECKS = {
    "mc_study": {"mc_exit_zero", "mc_replications_accounted"},
    "fit_sweep": {"fit_residual", "fit_ci_brackets_estimate"},
    "sampler_stream": {
        "criterion8_mean_window", "criterion8_dispersion_window", "criterion7_iid_sandwich",
    },
}
REPEAT_CHECKS = {
    "mc_study": ("rerun_outputs_byte_identical", "traced_outputs_byte_identical"),
    "fit_sweep": ("estimates_repeat", "traced_estimates_repeat"),
    "sampler_stream": ("same_stream_same_draws", "traced_same_stream_same_draws"),
}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _checks(stdout):
    out = {}
    for line in stdout.splitlines():
        if line.startswith("check "):
            name, rest = line[len("check "):].split(": ", 1)
            out[name] = rest.split()[0]
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_and_checks(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.3",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name

    checks = _checks(proc.stdout)
    untraced, traced = REPEAT_CHECKS[workload]
    expected = CHECKS[workload] | {traced if trace else untraced}
    if trace:
        expected |= {"trace_spans_consistent"}
        for span in ("estimate.build_design", "estimate.solve_cls", "cli.mc"):
            assert result["metrics"][f"{span}.calls"]["value"] >= 1
    assert expected <= set(checks)
    assert set(checks.values()) == {"PASS"}


def test_mc_study_reproduces_readme_rows_at_seed_11():
    proc = _bench("--workload", "mc_study", "--seed", "11", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert _checks(proc.stdout).get("readme_T200_rows") == "PASS"
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fit_sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
