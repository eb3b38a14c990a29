"""Smoke test of the wall-clock benchmark at a tiny size.

Run from the repository root::

    python3 -m pytest wallbench/test_smoke.py -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402

TINY = ["--seconds", "0", "--days", "2"]


def invoke(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "wallbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    completed = invoke("--workload", workload, "--seed", "3",
                       "--trace", str(trace), *TINY)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = last_json(completed.stdout)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= (1 if trace else run.MIN_JOBS)
    kind = "per_layer" if trace else "end_to_end"
    emitted = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert emitted == run.declared_metrics()[kind]
    values = {name: metric["value"]
              for name, metric in result["metrics"].items()}
    if trace:
        assert_bypassed_layers_read_zero(workload, values)
    else:
        assert all(value > 0 for value in values.values()), values


def assert_bypassed_layers_read_zero(workload: str, values: dict) -> None:
    spec = workloads.WORKLOADS[workload]
    idle = []
    if not spec.reuse:
        idle += ["insights.fetches", "insights.fetch_s",
                 "optimizer.matches_per_job", "optimizer.proposals_per_job",
                 "selection.epoch_s", "selection.candidates",
                 "selection.selected", "storage.views_sealed",
                 "storage.views_claimed", "views_reused_per_job"]
        # Matching and buildout are still entered, and return at once.
        for name in ("optimizer.match_s", "optimizer.buildout_s"):
            assert values[name] < 0.05 * values["backends.execute_s"]
    if not spec.workers:
        idle += ["scheduler.queue_wait_ms_p50", "scheduler.worker_busy_frac"]
    if not spec.journal:
        idle += ["lifecycle.journal_appends", "lifecycle.journal_s",
                 "lifecycle.snapshots", "lifecycle.snapshot_s"]
    else:
        assert values["lifecycle.snapshots"] > 0
        assert values["scheduler.worker_busy_frac"] > 0
    assert {name: values[name] for name in idle} == dict.fromkeys(idle, 0)
    assert values["engine.compile_self_s"] > 0
    assert values["backends.execute_s"] > 0


def test_gate_trips_on_one_corrupted_row_digest(monkeypatch, capsys):
    original = workloads.row_digest
    calls = itertools.count()

    def corrupt_fifth(rows):
        digest = original(rows)
        return "0" * len(digest) if next(calls) == 4 else digest

    monkeypatch.setattr(workloads, "row_digest", corrupt_fifth)
    code = run.main(["--workload", "cook-reuse", "--seed", "3", *TINY])
    output = capsys.readouterr().out
    assert code == 1
    assert last_json(output)["correct"] is False
    assert "differ from the reuse-free reference" in output


def test_gate_accepts_agreeing_passes_and_flags_a_single_mismatch():
    spec = workloads.WorkloadSpec(name="tiny", backend="memory", reuse=True,
                                  days=2)
    inputs = workloads.make_inputs(spec, seed=5)
    scratch = ROOT / ".wallbench"
    scratch.mkdir(exist_ok=True)
    passes = [workloads.replay(spec, inputs, str(scratch)) for _ in range(2)]
    reference = workloads.replay(workloads.reference_spec(spec), inputs,
                                 str(scratch)).digests
    assert run.gate(passes, reference) == []
    key = next(iter(reference))
    corrupted = dict(reference, **{key: "0" * 64})
    problems = run.gate(passes, corrupted)
    assert len(problems) == 2 and key in problems[0]


def test_the_seed_determines_the_inputs():
    def jobs(seed: int):
        spec = workloads.WORKLOADS["cook-reuse"]
        inputs = workloads.make_inputs(spec, seed)
        return [(job.template.sql, job.submit_time, job.params)
                for day in range(2) for job in inputs.jobs_for_day(day)]

    assert jobs(1) == jobs(1)
    assert jobs(1) != jobs(2)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "wallbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = invoke("--workload", "cook-reuse", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
