"""Run one workload of the repo benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload ref-campaign --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload: untimed warm-up (byte-compile, one
throwaway fresh-interpreter set-up), fresh-interpreter set-up probes,
then whole units repeated for ``--seconds`` (at least three), then the
correctness checks.  ``--trace 1`` is the separate traced run that
reports the per-layer metrics.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is the host fingerprint and the exact work counts.
Metric names and units come from ``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import time

import harness

SETUP_PROBES = {"full": 7, "tiny": 1}
MIN_UNITS = {"full": 3, "tiny": 1}


def load_spec() -> dict:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure(workload, seed: int, seconds: float, checks) -> tuple[dict, list, dict]:
    """End-to-end metrics of the timed run, its units and raw readings."""
    import workloads

    harness.compile_sources()
    harness.run_setup_probe(workload.name, workload.scale)
    setup = [
        harness.run_setup_probe(workload.name, workload.scale)
        for _ in range(SETUP_PROBES[workload.scale])
    ]
    workload.prepare()
    warm_up = workloads.WORKLOADS[workload.name]("tiny")
    warm_up.prepare()
    warm_up.discard(warm_up.unit())
    units, seconds_at_reference, readings = [], [], []
    began = time.perf_counter()
    with harness.HostMeter(harness.OUT / "meter") as meter:
        while len(units) < MIN_UNITS[workload.scale] or time.perf_counter() - began < seconds:
            gc.collect()
            unit = workload.unit()
            normalised, reading = meter.normalise(unit.wall)
            workload.discard(unit)
            units.append(unit)
            seconds_at_reference.append(normalised)
            readings.append(reading)
    rss = harness.peak_rss_mb()
    workload.check(units, seed, checks)
    metrics = {
        "runs_per_s": harness.median(
            [u.runs / s for u, s in zip(units, seconds_at_reference)]
        ),
        "time_to_ci_s": harness.median(seconds_at_reference),
        "setup_s": harness.median([at_reference for at_reference, _ in setup]),
        "peak_rss_mb": rss,
        "ok_frac": checks.ok_frac,
    }
    raw = {
        "runs_per_s": harness.median([u.runs / u.wall for u in units]),
        "time_to_ci_s": harness.median([u.wall for u in units]),
        "setup_s": harness.median([raw for _, raw in setup]),
        "host_speed": harness.median([r["speed"] for r in readings]),
        "bursts_per_unit": harness.median([r["bursts"] for r in readings]),
    }
    return metrics, units, raw


def trace(workload, seed: int, names: list[str], checks) -> tuple[dict, list, dict]:
    """Per-layer metrics of the traced run and its units."""
    import workloads

    trace_dir = harness.OUT / "trace" / f"{workload.name}-seed{seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    workload.prepare()
    warm_up = workloads.WORKLOADS[workload.name]("tiny")
    warm_up.prepare()
    warm_up.discard(warm_up.unit())
    recorder = harness.SpanRecorder()
    metrics, units = workload.layers(recorder, trace_dir, checks)
    metrics.update(workloads.zeros(names, workload.idle_layers))
    workload.check(units, seed, checks)
    recorder.write(trace_dir / "spans.jsonl")
    (trace_dir / "layers.json").write_text(json.dumps(metrics, indent=2) + "\n")
    return metrics, units, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    spec = load_spec()
    try:
        harness.use_checkout_sources()
    except harness.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload](args.scale)
    checks = harness.Checks()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [metric["name"] for metric in declared]
    if args.trace:
        values, units, raw = trace(workload, args.seed, names, checks)
    else:
        values, units, raw = measure(workload, args.seed, args.seconds, checks)
    if sorted(values) != sorted(names):
        raise RuntimeError(
            f"measured metrics {sorted(values)} differ from BENCHMARK.json {sorted(names)}"
        )
    for failure in checks.failures():
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "host": harness.host_fingerprint(),
                "workload": workload.name,
                "scale": workload.scale,
                "seed": args.seed,
                "trace": args.trace,
                "units": len(units),
                "counts": units[0].counts,
                "raw": raw,
            }
        )
    )
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
            for metric in declared
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
