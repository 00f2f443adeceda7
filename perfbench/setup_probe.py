"""Set-up probe: one workload's set-up, in a fresh interpreter.

Runs the workload's preparation and starts its first unit, then stops at
the moment the first task starts executing (in this process or in a pool
worker).  The caller notes the clock before spawning the interpreter, so
the difference covers interpreter start, imports, grid or scenario
composition, cache open and pool spawn.

A set-up is too short to carry the simulation-run meter, so the host is
sampled before every module this interpreter imports instead.  The last
line of standard output is JSON: the ``time.monotonic()`` reading at the
first task's start and every burst sample.

    python3 perfbench/setup_probe.py --workload stress-pool --scale full
"""

import sys
import time

from calibration import import_burst

BURSTS: list = []


class MeteringFinder:
    """Samples the host before each import; finds no module itself.

    Records ``(start, elapsed, burst)``: ``elapsed`` is what the sample
    cost this interpreter (the first one also compiles the synthetic
    module) and is left out of the set-up time; ``burst`` is the speed
    sample.
    """

    def find_spec(self, name, path=None, target=None):
        start = time.monotonic()
        burst = import_burst()
        BURSTS.append((start, time.monotonic() - start, burst))
        return None


sys.meta_path.insert(0, MeteringFinder())

import argparse  # noqa: E402  (imported under the meter on purpose)
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", default="full")
    args = parser.parse_args(argv)
    try:
        harness.use_checkout_sources()
    except harness.MissingProgram as exc:
        print(f"setup probe: {exc}", file=sys.stderr)
        return 2
    import workloads
    from repro.mc.executor import TaskExecutor

    original_map = TaskExecutor.map

    def stop_at_first_task(executor, fn, tasks, on_result=None):
        return original_map(executor, harness.FirstTask(fn), tasks)

    TaskExecutor.map = stop_at_first_task
    harness.OUT.mkdir(parents=True, exist_ok=True)
    harness.OUT = Path(tempfile.mkdtemp(prefix="probe-", dir=harness.OUT))
    workload = workloads.WORKLOADS[args.workload](args.scale)
    try:
        workload.prepare()
        workload.unit()
    except harness.SetupReached as reached:
        print(json.dumps({"first_task": reached.args[0], "bursts": BURSTS}))
        return 0
    finally:
        shutil.rmtree(harness.OUT, ignore_errors=True)
    print("setup probe: the workload dispatched no task", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
