"""The benchmark's three workloads, each a closed loop of one caller.

A *unit* is one call that a user of ``repro`` makes and waits on: one
reference campaign, one stressed pool campaign (plus its warm rerun), or
one splitting estimate.  Every unit of a workload runs the same seeds, so
repeated units do identical simulated work and the host is the only
source of variation between them.  ``--seed`` draws the correctness
samples and the model seeds that the checks use, never the timed work.

Each workload offers:

* ``prepare()`` — imports and composition (part of ``setup_s``);
* ``unit()`` — one timed unit, returning a :class:`Unit`;
* ``check(units, seed, checks)`` — correctness, outside the timed region;
* ``layers(recorder, trace_dir, checks)`` — the traced run's
  per-layer metrics.
"""

from __future__ import annotations

import gc
import math
import random
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path

import harness
from harness import (
    Checks,
    ExecutorTrace,
    SpanRecorder,
    campaign_span_seconds,
    median,
    outcome_key,
    pct,
    profiled,
    ratio,
)

#: Per-layer metric prefixes, by the layer group that produces them.
CACHE_LAYERS = ("cache.",)
RARE_LAYERS = ("rare.",)
SUPERVISION_LAYERS = ("supervision.",)
SCENARIO_BUILD = ("scenarios.build_ms",)


@dataclass
class Unit:
    """One timed unit: wall time, the work it did and what it returned."""

    wall: float
    runs: int
    counts: dict
    result: object
    extra: dict = field(default_factory=dict)


def _timed(call):
    """``(result, wall seconds, monotonic start, monotonic end)`` of ``call()``."""
    start = time.monotonic()
    began = time.perf_counter()
    result = call()
    wall = time.perf_counter() - began
    return result, wall, start, time.monotonic()


# ----------------------------------------------------------------------
# Per-run layers shared by every workload
# ----------------------------------------------------------------------
def run_counter_layers(outcomes) -> dict:
    """Exact per-run work counts, folded from the runs' telemetry samples."""
    from repro.telemetry.registry import fold_run_metrics

    totals = fold_run_metrics(o.metrics for o in outcomes)
    runs = len(outcomes)
    probes = totals.probes_direct + totals.probes_indirect
    return {
        "sim.events_per_run": ratio(totals.events_executed, runs),
        "sim.heap_compactions_per_run": ratio(totals.heap_compactions, runs),
        "attacker.probes_per_run": ratio(probes, runs),
        "attacker.events_per_probe": ratio(totals.events_executed, probes),
        "attacker.ff_arms_per_run": ratio(totals.fast_forward_arms, runs),
        "net.messages_per_run": ratio(totals.messages_sent, runs),
        "net.elided_per_run": ratio(totals.events_elided, runs),
        "net.dropped_frac": ratio(totals.messages_dropped, totals.messages_sent),
    }


def replay_runs(recorder: SpanRecorder, runs, max_steps: int, scenario=None):
    """Replay runs through the public composition path, timing each call.

    ``run_protocol_lifetime`` is exactly compose → start → run (with
    cyclic GC paused) → read the verdict; doing those steps here times
    each one.  Returns ``(timings, outcomes)``; ``timings["compose_ms"]``
    is the median ``compose_deployment`` time alone.
    """
    from repro.core.experiment import compose_deployment, outcome_from_deployment

    compose, build, loop, whole, outcomes = [], [], [], [], []
    for spec, seed in runs:
        with recorder.span("run", request_id=seed) as run_span:
            with recorder.span("compose_deployment", request_id=seed) as composed:
                deployed = compose_deployment(
                    spec, seed=seed, max_steps=max_steps, scenario=scenario
                )
            with recorder.span("DeployedSystem.start", request_id=seed) as started:
                deployed.start()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                with recorder.span("Simulator.run", request_id=seed) as looped:
                    deployed.sim.run(until=max_steps * spec.period)
            finally:
                if gc_was_enabled:
                    gc.enable()
            with recorder.span("outcome_from_deployment", request_id=seed):
                outcomes.append(outcome_from_deployment(deployed, seed, max_steps))
        compose.append(composed["end"] - composed["start"])
        build.append(started["end"] - run_span["start"])
        loop.append(looped["end"] - looped["start"])
        whole.append(run_span["end"] - run_span["start"])
    events = sum(o.events for o in outcomes)
    timings = {
        "compose_ms": median(compose) * 1e3,
        "core.build_ms": median(build) * 1e3,
        "core.run_ms_p50": median(whole) * 1e3,
        "core.run_ms_p95": pct(whole, 95) * 1e3,
        "sim.loop_ms": median(loop) * 1e3,
        "sim.events_per_s": ratio(events, sum(loop)),
    }
    return timings, outcomes


def share_layers(shares: dict) -> dict:
    """Per-package self-time shares under the metric names."""
    return {
        "sim.self_share": shares.get("sim", 0.0),
        "attacker.self_share": shares.get("attacker", 0.0),
        "net.self_share": shares.get("net", 0.0),
        "randomization.self_share": shares.get("randomization", 0.0),
        "replication.self_share": shares.get("replication", 0.0),
        "scenarios.self_share": sum(
            shares.get(name, 0.0) for name in ("scenarios", "faults", "workloads")
        ),
    }


def executor_layers(trace: ExecutorTrace, wall: float) -> dict:
    """Executor and campaign-orchestration layers of one traced unit."""
    tasks = trace.tasks()
    task_seconds = [t["end"] - t["start"] for t in tasks]
    workers = max((m["workers"] for m in trace.maps), default=1)
    first = trace.maps[0] if trace.maps else None
    spawn = 0.0
    if first is not None and first["workers"] > 1 and first["tasks"]:
        spawn = min(t["start"] for t in first["tasks"]) - first["start"]
    return {
        "executor.pool_spawn_s": spawn,
        "executor.task_ms_p50": median(task_seconds) * 1e3,
        "executor.task_ms_p95": pct(task_seconds, 95) * 1e3,
        "executor.pool_efficiency": ratio(sum(task_seconds), wall * workers),
        "executor.dispatch_ms_per_task": median(trace.dispatch_latencies()) * 1e3,
        "executor.result_kb_per_task": ratio(
            sum(t["bytes"] for t in tasks), len(tasks)
        )
        / 1024.0,
        "campaign.rounds": float(len(trace.maps)),
        "campaign.overhead_frac": ratio(wall - trace.map_seconds(), wall),
    }


def snapshot_ms(result, repeats: int = 5) -> float:
    """Median milliseconds of ``CampaignResult.metrics_snapshot()``."""
    seconds = []
    for _ in range(repeats):
        began = time.perf_counter()
        result.metrics_snapshot()
        seconds.append(time.perf_counter() - began)
    return median(seconds) * 1e3


def zeros(names, prefixes) -> dict:
    """Layers a workload does not exercise: reported as 0."""
    return {n: 0.0 for n in names if any(n.startswith(p) for p in prefixes)}


@contextmanager
def campaign_tracing(path):
    """``repro.telemetry`` span tracing into ``path`` for the block."""
    from repro.telemetry.spans import disable_tracing, enable_tracing

    enable_tracing(path)
    try:
        yield
    finally:
        disable_tracing()


def campaign_span_layers(trace_dir, traces: int) -> dict:
    """``campaign.prepare`` / ``campaign.fold`` milliseconds from repro's spans.

    Only the fixed-count campaign path emits these spans; elsewhere they
    read 0.
    """
    spans = [
        campaign_span_seconds(trace_dir / f"campaign-{i}.jsonl") for i in range(traces)
    ]
    return {
        "campaign.prepare_ms": median([s.get("campaign.prepare", 0.0) for s in spans]) * 1e3,
        "campaign.fold_ms": median([s.get("campaign.fold", 0.0) for s in spans]) * 1e3,
    }


def trace_overhead(untraced, traced) -> float:
    """Traced ÷ untraced median unit wall − 1."""
    walls = [unit.wall for unit, _, _ in traced]
    return ratio(median(walls), median(untraced)) - 1.0


def campaign_keys(result) -> list:
    """Outcome keys of every run of a campaign, in grid and seed order."""
    return [outcome_key(o) for e in result for o in e.outcomes]


def check_replay(checks: Checks, label: str, replayed, expected) -> None:
    mismatched = sum(
        outcome_key(a) != outcome_key(b) for a, b in zip(replayed, expected)
    )
    checks.add(
        f"{label}: replayed runs match the campaign",
        len(replayed) == len(expected) and mismatched == 0,
        f"{mismatched} of {len(expected)} differ",
    )


class Workload:
    name = ""
    #: The public function one unit calls.
    call = ""
    #: Per-layer prefixes this workload does not exercise.
    idle_layers: tuple = ()

    def __init__(self, scale: str) -> None:
        self.scale = scale
        self.cfg = self.CONFIGS[scale]

    def prepare(self) -> None:
        raise NotImplementedError

    def unit(self) -> Unit:
        raise NotImplementedError

    def discard(self, unit: Unit) -> None:
        """Release what a unit left behind (outside the timed region)."""

    def check(self, units: list[Unit], seed: int, checks: Checks) -> None:
        raise NotImplementedError

    def traced_units(self, recorder, trace_dir, traced_unit=None, hooks=nullcontext):
        """Two untraced units alternating with two traced ones.

        A traced unit runs with benchmark spans around the public call,
        the ``TaskExecutor.map`` trace and ``repro``'s own campaign spans
        on, plus whatever ``hooks()`` adds.  Returns the untraced walls and
        ``(unit, executor trace, hooks value)`` per traced unit.
        """
        untraced, traced = [], []
        for i in range(2):
            gc.collect()
            plain = self.unit()
            self.discard(plain)
            untraced.append(plain.wall)
            gc.collect()
            with ExecutorTrace(recorder) as trace, campaign_tracing(
                trace_dir / f"campaign-{i}.jsonl"
            ), hooks() as hooked, recorder.span(self.call, request_id=self.cfg.root_seed):
                unit = (traced_unit or self.unit)()
            self.discard(unit)
            traced.append((unit, trace, hooked))
        return untraced, traced

    def check_units_agree(self, units: list[Unit], checks: Checks, keys) -> None:
        harness.check_counts_repeat(checks, [u.counts for u in units])
        first = keys(units[0].result)
        for i, unit in enumerate(units[1:], start=1):
            checks.add(
                f"outcomes of unit {i} equal unit 0", keys(unit.result) == first
            )


# ----------------------------------------------------------------------
# ref-campaign: ROADMAP's reference campaign
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RefConfig:
    alphas: tuple
    kappas: tuple
    entropy_bits: int
    trials: int
    max_steps: int
    root_seed: int
    legacy_sample: int
    model_precision: float
    profile_runs: int


class RefCampaign(Workload):
    """S2SO α × κ grid, fixed-count, serial, no cache, no supervision."""

    name = "ref-campaign"
    call = "run_campaign"
    idle_layers = CACHE_LAYERS + RARE_LAYERS + SUPERVISION_LAYERS + SCENARIO_BUILD
    CONFIGS = {
        "full": RefConfig(
            alphas=(0.15, 0.2),
            kappas=(0.25, 0.5),
            entropy_bits=8,
            trials=100,
            max_steps=400,
            root_seed=20260727,
            legacy_sample=12,
            model_precision=0.02,
            profile_runs=50,
        ),
        "tiny": RefConfig(
            alphas=(0.15,),
            kappas=(0.5,),
            entropy_bits=8,
            trials=6,
            max_steps=60,
            root_seed=20260727,
            legacy_sample=2,
            model_precision=0.05,
            profile_runs=2,
        ),
    }

    def prepare(self) -> None:
        from repro.core.campaign import campaign_grid
        from repro.core.specs import SystemClass
        from repro.randomization.obfuscation import Scheme

        cfg = self.cfg
        self.specs = campaign_grid(
            systems=(SystemClass.S2,),
            schemes=(Scheme.SO,),
            alphas=cfg.alphas,
            kappas=cfg.kappas,
            entropy_bits=cfg.entropy_bits,
        )

    def _campaign(self):
        from repro.core.campaign import run_campaign

        cfg = self.cfg
        return run_campaign(
            self.specs,
            trials=cfg.trials,
            max_steps=cfg.max_steps,
            seed=cfg.root_seed,
            workers=1,
        )

    def unit(self) -> Unit:
        result, wall, _, _ = _timed(self._campaign)
        counts = {
            "runs": result.total_runs,
            "events": result.total_events,
            "censored": result.total_censored,
        }
        return Unit(wall, result.total_runs, counts, result)

    def check(self, units, seed, checks) -> None:
        self.check_units_agree(units, checks, campaign_keys)
        result = units[0].result
        rng = random.Random(seed)
        outcomes = [o for e in result for o in e.outcomes]
        checks.add(
            "campaign ran every run",
            len(outcomes) == len(self.specs) * self.cfg.trials,
        )
        sample = rng.sample(outcomes, min(self.cfg.legacy_sample, len(outcomes)))
        check_against_legacy(checks, sample, self.cfg.max_steps)
        check_against_model(checks, result, rng.randrange(2**31), self.cfg.model_precision)

    def layers(self, recorder, trace_dir, checks) -> tuple[dict, list[Unit]]:
        from repro.core.experiment import run_protocol_lifetime

        cfg = self.cfg
        untraced, traced = self.traced_units(recorder, trace_dir)
        result = traced[-1][0].result
        outcomes = [o for e in result for o in e.outcomes]
        timings, replayed = replay_runs(
            recorder, [(o.spec, o.seed) for o in outcomes], cfg.max_steps
        )
        timings.pop("compose_ms")
        check_replay(checks, self.name, replayed, outcomes)
        subset = outcomes[:: max(len(outcomes) // cfg.profile_runs, 1)]
        _, shares = profiled(
            lambda: [
                run_protocol_lifetime(o.spec, seed=o.seed, max_steps=cfg.max_steps)
                for o in subset
            ]
        )
        metrics = {
            **timings,
            **run_counter_layers(outcomes),
            **share_layers(shares),
            **median_layers([executor_layers(t, u.wall) for u, t, _ in traced]),
            **campaign_span_layers(trace_dir, 2),
            "telemetry.trace_overhead_frac": trace_overhead(untraced, traced),
            "telemetry.snapshot_ms": snapshot_ms(result),
        }
        return metrics, [unit for unit, _, _ in traced]


def median_layers(samples: list[dict]) -> dict:
    """Per-metric median over several traced units."""
    return {name: median([s[name] for s in samples]) for name in samples[0]}


def legacy_stack():
    """The frozen pre-refactor simulator vendored under ``benchmarks/``."""
    legacy_root = harness.ROOT / "benchmarks"
    if not (legacy_root / "legacy_pr3" / "__init__.py").is_file():
        raise harness.MissingProgram(f"no legacy_pr3 under {legacy_root}")
    if str(legacy_root) not in sys.path:
        sys.path.append(str(legacy_root))
    from legacy_pr3.core.experiment import run_protocol_lifetime
    from legacy_pr3.core.specs import SystemClass, SystemSpec
    from legacy_pr3.randomization.obfuscation import Scheme

    def legacy_spec(spec):
        values = {f.name: getattr(spec, f.name) for f in fields(SystemSpec)}
        values["system"] = SystemClass[spec.system.name]
        values["scheme"] = Scheme[spec.scheme.name]
        return SystemSpec(**values)

    return run_protocol_lifetime, legacy_spec


def check_against_legacy(checks: Checks, outcomes, max_steps: int) -> None:
    """Sampled runs replay identically on the frozen legacy simulator."""
    legacy_run, legacy_spec = legacy_stack()
    for outcome in outcomes:
        legacy = legacy_run(
            legacy_spec(outcome.spec), seed=outcome.seed, max_steps=max_steps
        )
        checks.add(
            f"seed {outcome.seed} ({outcome.spec.label}) matches the legacy simulator",
            outcome_key(outcome) == outcome_key(legacy),
            f"{outcome_key(outcome)} != {outcome_key(legacy)}",
        )


def check_against_model(checks: Checks, result, model_seed: int, precision: float) -> None:
    """Each grid point's mean lies within 5σ of the timing-aware MC model."""
    from repro.mc.montecarlo import mc_expected_lifetime

    for estimate in result:
        spec = estimate.spec
        model = mc_expected_lifetime(
            spec, seed=model_seed, precision=precision, max_trials=500_000
        )
        sigma = math.hypot(
            estimate.stats.std / math.sqrt(estimate.stats.n),
            model.stats.std / math.sqrt(model.stats.n),
        )
        distance = abs(estimate.mean_steps - model.mean)
        checks.add(
            f"{spec.label} α={spec.alpha:g} κ={spec.kappa:g} within 5σ of the model",
            estimate.censored_fraction <= 0.1 and distance <= 5.0 * max(sigma, 1e-9),
            f"protocol {estimate.mean_steps:.4f} vs model {model.mean:.4f} "
            f"(σ {sigma:.4f}, censored {estimate.censored_fraction:.2f})",
        )


# ----------------------------------------------------------------------
# stress-pool: combined-stress scenario, supervised pool, cold+warm cache
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StressConfig:
    scenario: str
    precision: float
    max_steps: int
    max_trials: int
    workers: int
    root_seed: int
    rerun_tasks: int
    replay_runs: int
    profile_runs: int


def _timing_cache_class():
    """A ``ResultCache`` that times every lookup and store it serves."""
    from repro.cache import ResultCache

    class TimingCache(ResultCache):
        def __init__(self, root, recorder: SpanRecorder) -> None:
            super().__init__(root)
            self.recorder = recorder
            self.lookup_s: list[float] = []
            self.store_s: list[float] = []

        def lookup(self, key):
            with self.recorder.span("ResultCache.lookup") as record:
                payload = super().lookup(key)
            self.lookup_s.append(record["end"] - record["start"])
            return payload

        def store(self, key, payload) -> None:
            with self.recorder.span("ResultCache.store") as record:
                super().store(key, payload)
            self.store_s.append(record["end"] - record["start"])

    return TimingCache


class StressPool(Workload):
    """``combined-stress`` as a precision campaign on a supervised pool."""

    name = "stress-pool"
    call = "run_scenario_campaign"
    idle_layers = RARE_LAYERS
    CONFIGS = {
        "full": StressConfig(
            scenario="combined-stress",
            precision=0.1,
            max_steps=300,
            max_trials=2_000,
            workers=2,
            root_seed=20260727,
            rerun_tasks=3,
            replay_runs=64,
            profile_runs=24,
        ),
        "tiny": StressConfig(
            scenario="combined-stress",
            precision=0.5,
            max_steps=30,
            max_trials=64,
            workers=2,
            root_seed=20260727,
            rerun_tasks=1,
            replay_runs=2,
            profile_runs=2,
        ),
    }

    def prepare(self) -> None:
        from repro.cache import ResultCache
        from repro.scenarios.registry import get_scenario
        from repro.supervision import SupervisionPolicy

        self.scenario = get_scenario(self.cfg.scenario)
        self.policy = SupervisionPolicy()
        self.cache_class = ResultCache
        harness.OUT.mkdir(parents=True, exist_ok=True)

    def _campaign(self, cache):
        from repro.core.campaign import run_scenario_campaign

        cfg = self.cfg
        return run_scenario_campaign(
            self.scenario,
            max_steps=cfg.max_steps,
            seed=cfg.root_seed,
            workers=cfg.workers,
            precision=cfg.precision,
            max_trials=cfg.max_trials,
            cache=cache,
            supervision=self.policy,
        )

    def unit(self, cache_class=None) -> Unit:
        cache_class = cache_class or self.cache_class
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=harness.OUT)
        cold_cache = cache_class(cache_dir)
        cold, wall, _, _ = _timed(lambda: self._campaign(cold_cache))
        warm_cache = cache_class(cache_dir)
        warm, warm_wall, warm_start, warm_end = _timed(lambda: self._campaign(warm_cache))
        entries = sorted(Path(cache_dir).glob("??/*.json"))
        counts = {
            "runs": cold.total_runs,
            "events": cold.total_events,
            "rounds": cold.cache_misses,
            "entries": len(entries),
            "warm_hits": warm.cache_hits,
            "warm_misses": warm.cache_misses,
        }
        extra = {
            "cache_dir": cache_dir,
            "warm": warm,
            "warm_wall": warm_wall,
            "warm_span": (warm_start, warm_end),
            "cold_cache": cold_cache,
            "warm_cache": warm_cache,
            "entry_bytes": [p.stat().st_size for p in entries],
        }
        return Unit(wall, cold.total_runs, counts, cold, extra)

    def discard(self, unit: Unit) -> None:
        shutil.rmtree(unit.extra["cache_dir"], ignore_errors=True)

    @staticmethod
    def _comparable(result) -> dict:
        """The campaign record minus what may legitimately differ."""
        from repro.core.campaign import campaign_record

        record = campaign_record(result)
        for key in ("wall_seconds", "cache", "total_events", "metrics"):
            record.pop(key, None)
        for row in record["rows"]:
            row.pop("events", None)
        return record

    def check(self, units, seed, checks) -> None:
        from repro.core.experiment import DEFAULT_SEED_BATCH, ProtocolTask, run_protocol_task

        self.check_units_agree(units, checks, campaign_keys)
        for i, unit in enumerate(units):
            cold, warm = unit.result, unit.extra["warm"]
            checks.add(
                f"unit {i}: warm record equals the cold record",
                self._comparable(warm) == self._comparable(cold)
                and campaign_keys(warm) == campaign_keys(cold),
            )
            checks.add(f"unit {i}: warm rerun served from cache", warm.cache_misses == 0)
            for label, result in (("cold", cold), ("warm", warm)):
                checks.add(
                    f"unit {i}: {label} campaign needed no retries",
                    result.retries == 0 and result.timeouts == 0,
                    f"{result.retries} retries, {result.timeouts} timeouts",
                )
                checks.add(f"unit {i}: {label} campaign is supervised", result.supervised)
                # Every quarantined task counts as one failed check.
                for failure in result.failures:
                    checks.add(f"unit {i}: {label} task quarantined", False, str(failure))
            checks.add(
                f"unit {i}: every estimate converged",
                all(e.converged for e in cold),
            )
        cold = units[0].result
        tasks = [
            ProtocolTask(
                spec=estimate.spec,
                seeds=tuple(o.seed for o in estimate.outcomes[k : k + DEFAULT_SEED_BATCH]),
                max_steps=self.cfg.max_steps,
                scenario=self.scenario,
            )
            for estimate in cold
            for k in range(0, len(estimate.outcomes), DEFAULT_SEED_BATCH)
        ]
        pooled = {o.seed: outcome_key(o) for e in cold for o in e.outcomes}
        rng = random.Random(seed)
        for task in rng.sample(tasks, min(self.cfg.rerun_tasks, len(tasks))):
            rerun = run_protocol_task(task)
            checks.add(
                f"task of seeds {task.seeds[0]}.. re-run in-process matches the pool",
                [outcome_key(o) for o in rerun] == [pooled[s] for s in task.seeds],
            )

    def _supervision_overhead(self, cold) -> float:
        """Supervised vs bare ``TaskExecutor.map`` over the campaign's rounds."""
        from repro.core.experiment import (
            DEFAULT_SEED_BATCH,
            PRECISION_ROUND_SEEDS,
            ProtocolTask,
            run_protocol_task,
        )
        from repro.mc.executor import LocalPoolBackend, TaskExecutor
        from repro.supervision import SupervisedBackend

        rounds = []
        for estimate in cold:
            seeds = [o.seed for o in estimate.outcomes]
            for r in range(0, len(seeds), PRECISION_ROUND_SEEDS):
                block = seeds[r : r + PRECISION_ROUND_SEEDS]
                rounds.append(
                    [
                        ProtocolTask(
                            spec=estimate.spec,
                            seeds=tuple(block[k : k + DEFAULT_SEED_BATCH]),
                            max_steps=self.cfg.max_steps,
                            scenario=self.scenario,
                        )
                        for k in range(0, len(block), DEFAULT_SEED_BATCH)
                    ]
                )
        workers = self.cfg.workers

        def drive(executor) -> float:
            began = time.perf_counter()
            with executor:
                for tasks in rounds:
                    executor.map(run_protocol_task, tasks)
            return time.perf_counter() - began

        bare = drive(TaskExecutor(workers))
        supervised = drive(
            TaskExecutor(
                workers,
                backend=SupervisedBackend(LocalPoolBackend(workers), self.policy),
            )
        )
        return ratio(supervised, bare) - 1.0

    def layers(self, recorder, trace_dir, checks) -> tuple[dict, list[Unit]]:
        from repro.core.experiment import run_protocol_lifetime

        cfg = self.cfg
        TimingCache = _timing_cache_class()
        untraced, traced = self.traced_units(
            recorder,
            trace_dir,
            traced_unit=lambda: self.unit(
                cache_class=lambda root: TimingCache(root, recorder)
            ),
        )
        samples, caches = [], []
        for unit, trace, _ in traced:
            warm_start, warm_end = unit.extra["warm_span"]
            cold_trace = ExecutorTrace()
            cold_trace.maps = [m for m in trace.maps if m["start"] < warm_start]
            warm_maps = [m for m in trace.maps if warm_start <= m["start"] <= warm_end]
            samples.append(executor_layers(cold_trace, unit.wall))
            caches.append(
                {
                    "cache.warm_replay_s": unit.extra["warm_wall"],
                    "cache.warm_dispatched": float(sum(len(m["tasks"]) for m in warm_maps)),
                    "cache.lookup_ms": median(unit.extra["warm_cache"].lookup_s) * 1e3,
                    "cache.store_ms": median(unit.extra["cold_cache"].store_s) * 1e3,
                }
            )
        unit = traced[-1][0]
        cold = unit.result
        outcomes = [o for e in cold for o in e.outcomes]
        step = max(len(outcomes) // cfg.replay_runs, 1)
        sample = outcomes[::step][: cfg.replay_runs]
        timings, replayed = replay_runs(
            recorder, [(o.spec, o.seed) for o in sample], cfg.max_steps, self.scenario
        )
        compose_ms = timings.pop("compose_ms")
        check_replay(checks, self.name, replayed, sample)
        _, shares = profiled(
            lambda: [
                run_protocol_lifetime(
                    o.spec, seed=o.seed, max_steps=cfg.max_steps, scenario=self.scenario
                )
                for o in sample[: cfg.profile_runs]
            ]
        )
        entry_bytes = unit.extra["entry_bytes"]
        metrics = {
            **timings,
            **run_counter_layers(outcomes),
            **share_layers(shares),
            **median_layers(samples),
            **median_layers(caches),
            "scenarios.build_ms": compose_ms,
            "supervision.overhead_frac": self._supervision_overhead(cold),
            "supervision.retries": float(cold.retries),
            "supervision.quarantined": float(cold.quarantined),
            **campaign_span_layers(trace_dir, 2),
            "cache.entry_kb": ratio(sum(entry_bytes), len(entry_bytes)) / 1024.0,
            "cache.entries": float(len(entry_bytes)),
            "telemetry.trace_overhead_frac": trace_overhead(untraced, traced),
            "telemetry.snapshot_ms": snapshot_ms(cold),
        }
        return metrics, [unit for unit, _, _ in traced]


# ----------------------------------------------------------------------
# rare-smr: multilevel splitting on a censor-heavy S0 PO point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RareConfig:
    alpha: float
    entropy_bits: int
    max_steps: int
    pilot_runs: int
    replications: int
    trajectories: int
    root_seed: int
    pilot_sample: int


class RareSmr(Workload):
    """``run_splitting`` on 4-replica SMR under proactive obfuscation."""

    name = "rare-smr"
    call = "run_splitting"
    idle_layers = CACHE_LAYERS + SUPERVISION_LAYERS + SCENARIO_BUILD
    CONFIGS = {
        "full": RareConfig(
            alpha=0.02,
            entropy_bits=10,
            max_steps=16,
            pilot_runs=8,
            replications=2,
            trajectories=16,
            root_seed=3,
            pilot_sample=3,
        ),
        "tiny": RareConfig(
            alpha=0.05,
            entropy_bits=8,
            max_steps=4,
            pilot_runs=4,
            replications=1,
            trajectories=4,
            root_seed=3,
            pilot_sample=1,
        ),
    }

    def prepare(self) -> None:
        from repro.core.specs import s0
        from repro.randomization.obfuscation import Scheme
        from repro.rare.splitting import SplittingConfig

        cfg = self.cfg
        self.spec = s0(Scheme.PO, alpha=cfg.alpha, entropy_bits=cfg.entropy_bits)
        self.config = SplittingConfig(
            pilot_runs=cfg.pilot_runs,
            replications=cfg.replications,
            trajectories=cfg.trajectories,
        )

    def _estimate(self):
        from repro.rare.splitting import run_splitting

        return run_splitting(
            self.spec,
            root_seed=self.cfg.root_seed,
            max_steps=self.cfg.max_steps,
            config=self.config,
            workers=1,
        )

    def unit(self) -> Unit:
        estimate, wall, _, _ = _timed(self._estimate)
        cfg = self.cfg
        counts = {
            "events": estimate.events,
            "levels": len(estimate.levels),
            "launched": sum(s.n for s in estimate.level_stats),
            "crossed": sum(s.crossed for s in estimate.level_stats),
        }
        runs = cfg.pilot_runs + cfg.replications * cfg.trajectories
        return Unit(wall, runs, counts, estimate)

    @staticmethod
    def _keys(estimate):
        return (
            estimate.probability,
            estimate.ci_low,
            estimate.ci_high,
            estimate.levels,
            [outcome_key(o) for o in estimate.pilot_outcomes],
        )

    def check(self, units, seed, checks) -> None:
        from repro.core.experiment import run_protocol_lifetime

        self.check_units_agree(units, checks, self._keys)
        estimate = units[0].result
        p, low, high = estimate.probability, estimate.ci_low, estimate.ci_high
        checks.add(
            "splitting estimate is finite and its CI encloses it",
            all(math.isfinite(v) for v in (p, low, high)) and low <= p <= high,
            f"p={p} CI=[{low}, {high}]",
        )
        checks.add(
            "splitting ran every pilot",
            len(estimate.pilot_outcomes) == self.cfg.pilot_runs,
        )
        rng = random.Random(seed)
        pilots = list(estimate.pilot_outcomes)
        for pilot in rng.sample(pilots, min(self.cfg.pilot_sample, len(pilots))):
            replay = run_protocol_lifetime(
                self.spec, seed=pilot.seed, max_steps=self.cfg.max_steps
            )
            checks.add(
                f"pilot seed {pilot.seed} replays through run_protocol_lifetime",
                outcome_key(replay) == outcome_key(pilot),
                f"{outcome_key(replay)} != {outcome_key(pilot)}",
            )

    def layers(self, recorder, trace_dir, checks) -> tuple[dict, list[Unit]]:
        cfg = self.cfg
        untraced, traced = self.traced_units(
            recorder, trace_dir, hooks=lambda: timing_forks(recorder)
        )
        samples, rare = [], []
        for unit, trace, forks in traced:
            samples.append(executor_layers(trace, unit.wall))
            pilot_map, replication_map = trace.maps[0], trace.maps[-1]
            replications = [t["end"] - t["start"] for t in replication_map["tasks"]]
            rare.append(
                {
                    "rare.pilot_s": pilot_map["end"] - pilot_map["start"],
                    "rare.replication_ms_p50": median(replications) * 1e3,
                    "rare.replication_ms_p95": pct(replications, 95) * 1e3,
                    "rare.fork_ms": median(forks) * 1e3,
                    "rare.events_per_s": ratio(unit.result.events, unit.wall),
                }
            )
        unit = traced[-1][0]
        estimate = unit.result
        pilots = list(estimate.pilot_outcomes)
        timings, replayed = replay_runs(
            recorder, [(o.spec, o.seed) for o in pilots], cfg.max_steps
        )
        timings.pop("compose_ms")
        check_replay(checks, self.name, replayed, pilots)
        _, shares = profiled(self._estimate)
        metrics = {
            **timings,
            **run_counter_layers(pilots),
            **share_layers(shares),
            **median_layers(samples),
            **median_layers(rare),
            "rare.events_total": float(estimate.events),
            "rare.levels": float(len(estimate.levels)),
            **campaign_span_layers(trace_dir, 2),
            "telemetry.trace_overhead_frac": trace_overhead(untraced, traced),
            "telemetry.snapshot_ms": 0.0,
        }
        return metrics, [unit for unit, _, _ in traced]


@contextmanager
def timing_forks(recorder: SpanRecorder):
    """Time every ``fork_trajectory`` call made inside the block."""
    import repro.rare.fork as fork_module

    original = fork_module.fork_trajectory
    seconds: list[float] = []

    def timed_fork(trajectory):
        with recorder.span("fork_trajectory") as record:
            forked = original(trajectory)
        seconds.append(record["end"] - record["start"])
        return forked

    fork_module.fork_trajectory = timed_fork
    try:
        yield seconds
    finally:
        fork_module.fork_trajectory = original


WORKLOADS = {cls.name: cls for cls in (RefCampaign, StressPool, RareSmr)}
