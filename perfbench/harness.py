"""Shared machinery of the benchmark: paths, statistics, spans, probes.

Everything here measures ``repro`` from the outside and changes no file
under ``src/``.  Timings wrap calls into its public functions.  Where a
timing has to sit inside a call (each task of ``TaskExecutor.map``, each
``Simulator.run`` for the host meter, each ``fork_trajectory``), the
benchmark wraps that public function for the duration of a ``with``
block and restores it on exit.
"""

from __future__ import annotations

import cProfile
import json
import os
import pickle
import platform
import pstats
import resource
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import calibration
from calibration import host_sample, seconds_at_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch area of a run (cache directories, traces); listed in .gitignore.
OUT = ROOT / ".perfbench"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def use_checkout_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and verify it."""
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingProgram(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != PACKAGE:
        raise MissingProgram(f"imported repro from {repro.__file__}, not {PACKAGE}")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def outcome_key(outcome) -> tuple:
    """The fields of a run's verdict that no optimisation may change."""
    return (
        outcome.compromised,
        outcome.steps,
        outcome.time,
        outcome.cause,
        outcome.probes_direct,
        outcome.probes_indirect,
    )


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# Host-speed meter
# ----------------------------------------------------------------------
class HostMeter:
    """Samples host speed between simulation runs, in every process.

    Wraps ``Simulator.run``: it times each call and then samples the
    host (:func:`~calibration.host_sample`) in the same process, so the
    host is sampled hundreds of times per unit, interleaved with the
    work, in the pool workers too (they are forked with the wrapper in
    place and append their samples to a per-process file).
    :meth:`normalise` turns a unit's wall time into seconds at reference
    host speed (see :mod:`calibration`).
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self._original = None
        self._files: dict[int, int] = {}

    def __enter__(self) -> "HostMeter":
        from repro.sim.engine import Simulator

        self.directory.mkdir(parents=True, exist_ok=True)
        self._reset()
        calibration.prepare()
        self._original = original = Simulator.run
        meter = self

        def metered_run(sim, *args, **kwargs):
            began = time.perf_counter()
            try:
                return original(sim, *args, **kwargs)
            finally:
                run = time.perf_counter() - began
                meter._record(run, *host_sample(run))

        Simulator.run = metered_run
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.sim.engine import Simulator

        Simulator.run = self._original
        self._reset()

    def _record(self, run: float, burst: float, elapsed: float) -> None:
        """Append one (run, burst, elapsed) sample to this process's file."""
        pid = os.getpid()
        fd = self._files.get(pid)
        if fd is None:
            # A forked worker inherits the parent's table; it opens its own.
            self._files = {}
            fd = self._files[pid] = os.open(
                self.directory / f"{pid}.bursts",
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
        os.write(fd, np.array([run, burst, elapsed], dtype=np.float64).tobytes())

    def _reset(self) -> None:
        for fd in self._files.values():
            os.close(fd)
        self._files = {}
        for path in self.directory.glob("*.bursts"):
            path.unlink()

    def normalise(self, wall: float) -> tuple[float, dict]:
        """``(seconds at reference speed, raw readings)``; resets the meter.

        The bursts are subtracted from the wall, spread over the
        processes that ran them.  The rest is divided by the unit's
        effective host speed: the runs' seconds over the same runs at
        reference speed.
        """
        per_process = [
            np.frombuffer(path.read_bytes(), dtype=np.float64).reshape(-1, 3)
            for path in sorted(self.directory.glob("*.bursts"))
        ]
        self._reset()
        if not per_process:
            return wall, {"wall": wall, "bursts": 0, "speed": 1.0}
        runs = sum(float(samples[:, 0].sum()) for samples in per_process)
        at_reference = sum(
            seconds_at_reference(
                list(samples[:, 0]),
                list(samples[:, 1]),
                calibration.AFTER_RUN_REFERENCE_S,
            )
            for samples in per_process
        )
        sampling = sum(float(samples[:, 2].sum()) for samples in per_process)
        speed = runs / at_reference if at_reference else 1.0
        busy = wall - sampling / len(per_process)
        count = sum(len(samples) for samples in per_process)
        return busy / speed, {"wall": wall, "bursts": count, "speed": speed}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
class Checks:
    """Named pass/fail correctness checks; ``ok_frac`` is passed / attempted."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.results.append((name, bool(passed), detail))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, passed, _ in self.results if not passed)

    @property
    def ok_frac(self) -> float:
        return ratio(self.attempted - self.failed, self.attempted)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, passed, detail in self.results if not passed]


def check_counts_repeat(checks: Checks, counts: list[dict]) -> None:
    """Every unit of a run did identical work: its exact counts agree."""
    first = counts[0]
    for i, other in enumerate(counts[1:], start=1):
        checks.add(
            f"work counts of unit {i} equal unit 0",
            other == first,
            f"{other} != {first}",
        )


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """Benchmark-side spans, kept in memory and written out at the end.

    A span has a name, start and end (``time.monotonic``, comparable
    across the processes of one host), the id of the span open around
    it, and a request id: the seed of the run or campaign it serves.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request_id=None, **fields):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "request_id": request_id,
            **fields,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.monotonic()
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._open.pop()

    def add(self, name: str, start: float, end: float, request_id=None, **fields):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "request_id": request_id,
            "start": start,
            "end": end,
            **fields,
        }
        self.spans.append(record)
        return record

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, default=str) + "\n")


def campaign_span_seconds(trace_path: Path) -> dict[str, float]:
    """Total seconds per span name in a ``repro.telemetry`` JSONL trace."""
    totals: dict[str, float] = defaultdict(float)
    if trace_path.is_file():
        for line in trace_path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if "span" in record:
                totals[record["span"]] += record["seconds"]
    return dict(totals)


# ----------------------------------------------------------------------
# Executor tracing: time every TaskExecutor.map call and every task
# ----------------------------------------------------------------------
class TimedResult:
    """A task's result plus where and when it ran (picklable)."""

    __slots__ = ("value", "start", "end", "pid")

    def __init__(self, value, start: float, end: float, pid: int) -> None:
        self.value = value
        self.start = start
        self.end = end
        self.pid = pid

    def __reduce__(self):
        return (TimedResult, (self.value, self.start, self.end, self.pid))


class TimedTask:
    """Picklable wrapper timing one call of a task function in-process."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def __call__(self, task):
        start = time.monotonic()
        value = self.fn(task)
        return TimedResult(value, start, time.monotonic(), os.getpid())


class ExecutorTrace:
    """Wraps ``TaskExecutor.map`` to time each call and each task.

    Results are unwrapped before the caller sees them (streaming
    callbacks included), so the campaign code runs unchanged.  Records
    one entry per map call: its wall interval, worker count and, per
    task, the in-process interval, worker pid and pickled result size.
    """

    def __init__(self, recorder: SpanRecorder | None = None) -> None:
        self.recorder = recorder
        self.maps: list[dict] = []
        self._original = None

    def __enter__(self) -> "ExecutorTrace":
        from repro.mc.executor import TaskExecutor

        self._original = original = TaskExecutor.map
        trace = self

        def traced_map(executor, fn, tasks, on_result=None):
            tasks = list(tasks)
            record = {"workers": executor.workers, "tasks": []}

            def unwrap(result):
                if isinstance(result, TimedResult):
                    return result.value
                return result

            callback = None
            if on_result is not None:
                def callback(index, result):
                    on_result(index, unwrap(result))

            record["start"] = time.monotonic()
            if callback is None:
                raw = original(executor, TimedTask(fn), tasks)
            else:
                raw = original(executor, TimedTask(fn), tasks, on_result=callback)
            record["end"] = time.monotonic()
            for result in raw:
                if isinstance(result, TimedResult):
                    record["tasks"].append(
                        {
                            "start": result.start,
                            "end": result.end,
                            "pid": result.pid,
                            "bytes": len(pickle.dumps(result.value)),
                        }
                    )
            trace.maps.append(record)
            if trace.recorder is not None:
                trace.recorder.add(
                    "TaskExecutor.map",
                    record["start"],
                    record["end"],
                    tasks=len(tasks),
                    workers=executor.workers,
                )
                for task in record["tasks"]:
                    trace.recorder.add(
                        "task", task["start"], task["end"], pid=task["pid"]
                    )
            return [unwrap(result) for result in raw]

        TaskExecutor.map = traced_map
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.mc.executor import TaskExecutor

        TaskExecutor.map = self._original

    # -- summaries -----------------------------------------------------
    def tasks(self) -> list[dict]:
        return [task for record in self.maps for task in record["tasks"]]

    def map_seconds(self) -> float:
        return sum(record["end"] - record["start"] for record in self.maps)

    def dispatch_latencies(self) -> list[float]:
        """Per task: seconds from when a worker could take it to its start.

        A task can start once its map call has begun and the worker that
        ran it has finished its previous task, so queueing behind other
        tasks is excluded; what remains is pickling, IPC and wake-up.
        """
        latencies = []
        for record in self.maps:
            free: dict[int, float] = {}
            for task in sorted(record["tasks"], key=lambda t: t["start"]):
                ready = max(record["start"], free.get(task["pid"], record["start"]))
                latencies.append(max(task["start"] - ready, 0.0))
                free[task["pid"]] = task["end"]
        return latencies


# ----------------------------------------------------------------------
# Profiler shares
# ----------------------------------------------------------------------
def package_of(filename: str) -> str:
    """The ``repro`` sub-package a profiled function lives in."""
    if filename == "~" or filename.startswith("<"):
        return "builtins"
    prefix = str(PACKAGE) + os.sep
    if not filename.startswith(prefix):
        return "other"
    parts = filename[len(prefix):].split(os.sep)
    return parts[0] if len(parts) > 1 else "repro"


def package_shares(profile: cProfile.Profile) -> dict[str, float]:
    """Share of total self time (tottime) spent in each package."""
    totals: dict[str, float] = defaultdict(float)
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profile).stats.items():
        totals[package_of(filename)] += tottime
    grand = sum(totals.values())
    return {name: ratio(value, grand) for name, value in sorted(totals.items())}


def profiled(fn, *args, **kwargs):
    """Run ``fn`` under cProfile; returns ``(result, shares)``."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profile.disable()
    return result, package_shares(profile)


# ----------------------------------------------------------------------
# Fresh-interpreter set-up probes
# ----------------------------------------------------------------------
PROBE_TIMEOUT_S = 120


class SetupReached(BaseException):
    """Raised by the first task a set-up probe dispatches; carries its start.

    A ``BaseException`` so that no retry or quarantine layer absorbs it:
    it unwinds the campaign (closing any pool) back to the probe.
    """


class FirstTask:
    """Picklable task function that stops a probe when a task starts."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def __call__(self, task):
        raise SetupReached(time.monotonic())


def run_setup_probe(workload: str, scale: str) -> tuple[float, float]:
    """``(seconds at reference host speed, raw seconds)`` of one set-up.

    Raw seconds run from spawning a fresh interpreter to its first task
    start.  The stretches between the probe's import-time bursts are
    scaled to reference speed by the bursts next to them.
    """
    command = [
        sys.executable,
        str(BENCH_DIR / "setup_probe.py"),
        "--workload",
        workload,
        "--scale",
        scale,
    ]
    spawned = time.monotonic()
    done = subprocess.run(
        command,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"set-up probe for {workload} failed ({done.returncode}): "
            f"{done.stderr.strip()[-2000:]}"
        )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    work, bursts, since = [], [], spawned
    for start, elapsed, burst in report["bursts"]:
        work.append(start - since)
        bursts.append(burst)
        since = start + elapsed
    work.append(report["first_task"] - since)
    bursts.append(bursts[-1])
    raw = report["first_task"] - spawned
    at_reference = seconds_at_reference(
        work, bursts, calibration.BETWEEN_IMPORTS_REFERENCE_S
    )
    return at_reference, raw


def compile_sources() -> None:
    """Byte-compile the program and the benchmark (untimed warm-up)."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(PACKAGE), str(BENCH_DIR)],
        cwd=ROOT,
        capture_output=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
