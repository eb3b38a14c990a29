#!/usr/bin/env python3
"""Wall-clock benchmark of the reuse stack, end to end and per layer.

Run from the repository root::

    python3 wallbench/run.py --workload cook-reuse --seed 1 --trace 0
    python3 wallbench/run.py --workload all --seed 1 --seconds 50

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced passes with traced ones and reports the
per-layer metrics plus the tracing overhead, writing every span to
``.wallbench/trace-<workload>.jsonl``.  The metric names and units are
the ones declared in ``BENCHMARK.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run whose correctness gate fails still prints it, with
``"correct": false``, and exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fewest jobs one run measures, so that p95 has ten samples beyond it.
MIN_JOBS = 200
#: Fewest passes of one run: the fastest-of estimate and the decision
#: check both need repeats.
MIN_PASSES = 2
#: Set-ups timed on their own before each pass (the pass adds its own).
SETUPS_PER_PASS = 4
CHILD_TIMEOUT_S = 170


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' (each in its own "
                             "process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--days", type=int, default=None,
                        help="simulated days per pass (smaller for smoke "
                             "runs)")
    parser.add_argument("--reference", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """metric name -> unit, for the end-to-end and per-layer sets."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in declared[kind]}
            for kind in ("end_to_end", "per_layer")}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    import workloads
    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.days is not None:
        spec = dataclasses.replace(spec, days=args.days)
    inputs = workloads.make_inputs(spec, args.seed)
    scratch_root = ROOT / ".wallbench"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        if args.reference:
            result = workloads.replay(workloads.reference_spec(spec), inputs,
                                      scratch)
            print(json.dumps(result.digests))
            return 0 if not result.failed else 1
        reference = compute_reference(args)
        if reference is None:
            return 2
        return measure(args, spec, inputs, reference, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def child_command(args: argparse.Namespace, workload: str) -> List[str]:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.days is not None:
        command += ["--days", str(args.days)]
    return command


def compute_reference(args: argparse.Namespace) -> Optional[Dict[str, str]]:
    """Reuse-free row digests, replayed in a child process outside the
    timed region (so they add nothing to this process's peak memory)."""
    completed = subprocess.run(
        child_command(args, args.workload) + ["--reference"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if completed.returncode != 0 or not completed.stdout.strip():
        sys.stderr.write(completed.stderr)
        print("error: the reference replay failed", file=sys.stderr)
        return None
    return json.loads(completed.stdout.strip().splitlines()[-1])


def measure(args, spec, inputs, reference: Dict[str, str],
            scratch: str) -> int:
    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    setups: List[float] = []
    plain: List = []
    traced: List = []
    deadline = time.perf_counter() + args.seconds
    while True:
        setups += [workloads.time_setup(spec, inputs, scratch)
                   for _ in range(SETUPS_PER_PASS)]
        tracing = tracer is not None and len(plain) > len(traced)
        if tracing:
            tracer.install()
        try:
            result = workloads.replay(spec, inputs, scratch,
                                      tracer if tracing else None)
        finally:
            if tracing:
                tracer.remove()
        setups.append(result.setup_s)
        (traced if tracing else plain).append(result)
        enough = (len(plain) >= MIN_PASSES
                  and sum(p.jobs for p in plain) >= MIN_JOBS
                  if tracer is None else len(traced) >= 1)
        if enough and time.perf_counter() >= deadline:
            break
    every = plain + traced
    problems = gate(every, reference)
    attempted = sum(p.jobs for p in every)
    failed = sum(p.failed for p in every)
    declared = declared_metrics()
    if tracer is None:
        metrics = end_to_end(plain, setups)
        units = declared["end_to_end"]
    else:
        metrics = per_layer(spec, plain, traced, tracer)
        units = declared["per_layer"]
        tracer.write(str(ROOT / ".wallbench" / f"trace-{spec.name}.jsonl"))
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    report(args, spec, plain, traced, setups, metrics,
           {**declared["end_to_end"], **declared["per_layer"]},
           len(reference), problems)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if not problems else 1


# --------------------------------------------------------------------- #
# the correctness gate

def gate(passes, reference: Dict[str, str]) -> List[str]:
    """Every job completed, returned the reuse-free rows, and every pass
    built and reused the same views per job (per wave, when waves run)
    and ended with the same catalog."""
    problems: List[str] = []
    for index, result in enumerate(passes):
        if result.failed:
            problems.append(f"pass {index}: {result.failed} of "
                            f"{result.jobs} jobs failed")
        differ = [key for key in reference
                  if result.digests.get(key) != reference[key]]
        extra = set(result.digests) - set(reference)
        if differ or extra:
            first = (differ or sorted(extra))[0]
            problems.append(
                f"pass {index}: {len(differ) + len(extra)} jobs differ from "
                f"the reuse-free reference (first: {first})")
    if len({result.decision_digest() for result in passes}) > 1:
        problems.append("views built/reused per job or wave, or the "
                        "catalog digest, differ between passes")
    return problems


# --------------------------------------------------------------------- #
# metrics

def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def fastest_segments(passes) -> List:
    """Each timed section at its fastest replay over the passes, as
    (seconds, jobs).  Other processes on the machine only ever add time to
    a section, so the fastest of identical replays is the steadiest
    estimate of what the program itself spends."""
    return [(min(seconds for seconds, _ in column), column[0][1])
            for column in zip(*(result.segments for result in passes))]


def jobs_per_s(passes) -> float:
    segments = fastest_segments(passes)
    return (sum(jobs for _, jobs in segments)
            / sum(seconds for seconds, _ in segments))


def job_latencies_ms(passes) -> List[float]:
    """One sample per job: its section's fastest replay (a wave's jobs
    all share the wave's time)."""
    return [seconds * 1e3 for seconds, jobs in fastest_segments(passes)
            for _ in range(jobs)]


def end_to_end(passes, setups: List[float]) -> Dict[str, float]:
    latencies = job_latencies_ms(passes)
    jobs = sum(result.jobs for result in passes)
    reused = sum(result.counters["views_reused"] for result in passes)
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": jobs_per_s(passes),
        "job_ms_p50": statistics.median(latencies),
        "job_ms_p95": percentile(latencies, 0.95),
        "failed_frac": sum(r.failed for r in passes) / jobs,
        "views_reused_per_job": reused / jobs,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def moved_decisions(passes) -> float:
    """Jobs per pass whose own build/reuse counts differ from the first
    pass's, averaged over the later passes."""
    later = passes[1:]
    return (sum(result.moved_decisions(passes[0]) for result in later)
            / len(later) if later else 0.0)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(spec, plain, traced, tracer) -> Dict[str, float]:
    from tracing import SELF_TIMES

    passes = len(traced)
    jobs = sum(result.jobs for result in traced)
    totals: Dict[str, float] = {}
    for result in traced:
        for name, value in result.counters.items():
            totals[name] = totals.get(name, 0) + value
    self_s = tracer.self_times()
    calls = tracer.span_counts()
    counts = tracer.counts
    metrics = {name: sum(self_s.get(span, 0.0) for span in spans) / passes
               for name, spans in SELF_TIMES.items()}
    untraced_rate = jobs_per_s(plain)
    traced_rate = jobs_per_s(traced)
    recurring = sum(result.recurring_jobs for result in traced)
    metrics.update({
        "signatures.strict_calls_per_job":
            calls["signatures.strict"] / jobs,
        "signatures.recurring_calls_per_job":
            calls["signatures.recurring"] / jobs,
        "optimizer.estimate_calls_per_job":
            calls["optimizer.estimate"] / jobs,
        "optimizer.matches_per_job": counts["matches"] / jobs,
        "optimizer.proposals_per_job": counts["proposals"] / jobs,
        "insights.fetches": totals["fetches"] / passes,
        "insights.retries": totals["retries"] / passes,
        "insights.cache_hit_frac": _ratio(
            totals["cache_hits"],
            totals["cache_hits"] + totals["cache_misses"]),
        "insights.degraded": totals["degraded"] / passes,
        "insights.lock_denied_frac": _ratio(
            totals["locks_denied"],
            totals["locks_denied"] + totals["locks_acquired"]),
        "backends.rows_processed_per_job": counts["rows_processed"] / jobs,
        "backends.materialize_calls": counts["spools"] / passes,
        "storage.bytes_put": totals["bytes_put"] / passes,
        "storage.views_sealed": totals["views_built"] / passes,
        "storage.views_claimed": totals["views_reused"] / passes,
        "storage.reads_per_write": _ratio(totals["views_reused"],
                                          totals["views_built"]),
        "storage.views_purged": totals["views_purged"] / passes,
        "lifecycle.journal_appends": totals["journal_appends"] / passes,
        "lifecycle.snapshots": calls["lifecycle.snapshot"] / passes,
        "workload.jobs": jobs / passes,
        "workload.recurring_share": recurring / jobs,
        "workload.adhoc_share": (jobs - recurring) / jobs,
        "workload.rows_loaded": counts["rows_loaded"] / passes,
        "selection.candidates": counts["candidates"] / passes,
        "selection.selected": counts["selected"] / passes,
        "scheduler.queue_wait_ms_p50": (
            statistics.median(tracer.queue_waits_ms)
            if tracer.queue_waits_ms else 0.0),
        "scheduler.worker_busy_frac": _ratio(
            tracer.worker_busy_s(), spec.workers * tracer.waves_s()),
        "scheduler.moved_decisions": moved_decisions(plain + traced),
        "views_reused_per_job": totals["views_reused"] / jobs,
        "failed_frac": sum(r.failed for r in plain + traced)
                       / sum(r.jobs for r in plain + traced),
        "trace.untraced_jobs_per_s": untraced_rate,
        "trace.traced_jobs_per_s": traced_rate,
        "trace.overhead_frac": 1.0 - traced_rate / untraced_rate,
    })
    return metrics


# --------------------------------------------------------------------- #
# human-readable report (printed before the JSON line)

def report(args, spec, plain, traced, setups, metrics, units,
           references: int, problems) -> None:
    every = plain + traced
    first = every[0]
    loop = (f"closed loop, 1 submitter, waves on {spec.workers} workers"
            if spec.workers else "closed loop, 1 client")
    print(f"workload {spec.name}  seed {args.seed}  {spec.days} days/pass  "
          f"{first.jobs} jobs/pass  {spec.backend}  {loop}")
    if not args.trace:
        samples = first.jobs
        beyond = samples - math.ceil(0.95 * samples)
        fastest = f"fastest of {len(plain)} passes"
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "jobs_per_s": f"each section at its {fastest}",
            "job_ms_p50": f"n={samples} jobs, each at its {fastest}",
            "job_ms_p95": f"n={samples}, {beyond} beyond",
        }
        for name in ("setup_s", "jobs_per_s", "job_ms_p50", "job_ms_p95",
                     "failed_frac", "views_reused_per_job", "peak_rss_mb"):
            print(f"  {name:<22} {metrics[name]:>12.4f} "
                  f"{units.get(name, ''):<10} {notes.get(name, '')}")
    else:
        for name in sorted(metrics):
            print(f"  {name:<36} {metrics[name]:>14.4f} "
                  f"{units.get(name, '')}")
        print(f"  tracing overhead: {metrics['trace.traced_jobs_per_s']:.2f} "
              f"traced vs {metrics['trace.untraced_jobs_per_s']:.2f} "
              f"untraced jobs/s")
    counters = first.counters
    print(f"  inputs: {first.jobs} jobs/pass, recurring share "
          f"{first.recurring_jobs / first.jobs:.3f}, ad-hoc share "
          f"{1 - first.recurring_jobs / first.jobs:.3f}; per pass "
          f"{counters['views_built']} views built, "
          f"{counters['views_reused']} reused, "
          f"{counters['retries']} fault-free insights retries")
    if spec.workers:
        print(f"  {moved_decisions(every):.2f} jobs/pass built or reused a "
              f"different number of views than in the first pass (which "
              f"of a wave's concurrent jobs builds a shared view follows "
              f"thread timing; wave totals and the catalog are gated)")
    if problems:
        for problem in problems:
            print(f"  GATE FAILED: {problem}")
    else:
        print(f"  gate ok: {sum(r.jobs for r in every)} jobs over "
              f"{len(every)} passes match {references} reuse-free "
              f"digests; decisions {first.decision_digest()[:16]} "
              f"catalog {first.catalog_digest[:16]}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process."""
    import workloads
    status = 0
    summary = {}
    for name in workloads.WORKLOADS:
        completed = subprocess.run(child_command(args, name),
                                   capture_output=True, text=True,
                                   timeout=CHILD_TIMEOUT_S + 120, cwd=ROOT)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            status = 1
        if lines and lines[-1].startswith("{"):
            summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
