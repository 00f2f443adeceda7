"""The benchmark's own tests, at tiny scale.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import harness
import workloads

RUN = harness.BENCH_DIR / "run.py"
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

harness.use_checkout_sources()


def _run(*args, cwd=harness.ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), "--seed", "7", "--seconds", "0.1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    host = json.loads(lines[-2])
    assert host["host"]["nproc"] >= 1 and host["host"]["python"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        harness.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref-campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _perturb_steps(outcome):
    return replace(outcome, steps=outcome.steps + 1)


def _checked(workload, units) -> harness.Checks:
    checks = harness.Checks()
    workload.check(units, 7, checks)
    return checks


def test_perturbed_campaign_outcome_fails_ref_checks():
    workload = workloads.WORKLOADS["ref-campaign"]("tiny")
    workload.prepare()
    unit = workload.unit()
    assert _checked(workload, [unit]).ok_frac == 1.0
    result = unit.result
    unit.result = replace(
        result,
        estimates=tuple(
            replace(e, outcomes=tuple(_perturb_steps(o) for o in e.outcomes))
            for e in result.estimates
        ),
    )
    assert _checked(workload, [unit]).ok_frac < 1.0


def test_perturbed_pilot_fails_rare_checks():
    workload = workloads.WORKLOADS["rare-smr"]("tiny")
    workload.prepare()
    unit = workload.unit()
    assert _checked(workload, [unit]).ok_frac == 1.0
    estimate = unit.result
    unit.result = replace(
        estimate,
        pilot_outcomes=tuple(_perturb_steps(o) for o in estimate.pilot_outcomes),
    )
    assert _checked(workload, [unit]).ok_frac < 1.0


def test_perturbed_warm_record_fails_stress_checks():
    workload = workloads.WORKLOADS["stress-pool"]("tiny")
    workload.prepare()
    unit = workload.unit()
    workload.discard(unit)
    assert _checked(workload, [unit]).ok_frac == 1.0
    warm = unit.extra["warm"]
    unit.extra["warm"] = replace(
        warm,
        estimates=tuple(
            replace(e, outcomes=tuple(_perturb_steps(o) for o in e.outcomes))
            for e in warm.estimates
        ),
    )
    assert _checked(workload, [unit]).ok_frac < 1.0


def test_quarantined_task_counts_as_failed():
    from repro.supervision import TaskFailure

    workload = workloads.WORKLOADS["stress-pool"]("tiny")
    workload.prepare()
    unit = workload.unit()
    workload.discard(unit)
    failure = TaskFailure(
        index=0, label="task", seeds=(1,), attempts=3, kind="error", error="boom"
    )
    unit.result = replace(unit.result, failures=(failure,))
    checks = _checked(workload, [unit])
    assert checks.failed >= 1 and checks.ok_frac < 1.0


def test_drifting_work_counts_fail():
    checks = harness.Checks()
    harness.check_counts_repeat(checks, [{"events": 10}, {"events": 10}, {"events": 11}])
    assert checks.attempted == 2 and checks.failed == 1
