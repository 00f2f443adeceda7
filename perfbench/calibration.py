"""Host-speed calibration shared by the benchmark and its set-up probes.

The host this benchmark runs on changes speed by up to 2x within
minutes (other tenants), in phases of a second to a few seconds.  Wall
times of identical work then spread far wider than any useful
regression bound.  The benchmark therefore interleaves short
calibration bursts with the work it times and reports each time at
reference host speed: every stretch of work is weighed against the
bursts sampled next to it.  Identical work then reads nearly the same
whatever the host's current speed, while a change to ``repro`` that
makes the work faster or slower moves the result as much as it moves
the raw wall time.

This module imports nothing but built-in modules, so a set-up probe can
sample the host before its first import.
"""

import marshal
import time

#: Median seconds of one :func:`calibration_burst` right after a
#: simulation run, and of one :func:`import_burst` between two imports,
#: on the reference host (2-CPU x86_64 VM shared with other tenants,
#: CPython 3.11.7).  Times at reference speed then read close to typical
#: wall times on that host.
AFTER_RUN_REFERENCE_S = 0.0006
BETWEEN_IMPORTS_REFERENCE_S = 0.00025
#: Bursts either side of a stretch of work that set its local host speed.
SPEED_WINDOW = 1
#: One more burst per this many seconds of work in the stretch before it.
SECONDS_PER_EXTRA_BURST = 0.01

_NODES = 60_000
_STEP = 3_000


class _Node:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


class _Walk:
    """A few MB of small objects, visited in scattered order."""

    def __init__(self) -> None:
        nodes = [_Node(i) for i in range(_NODES)]
        # 7919 is coprime with _NODES, so this visits every node once.
        self.order = [nodes[(i * 7919) % _NODES] for i in range(_NODES)]
        self.offset = 0


_WALK: list = []


def prepare() -> None:
    """Build the walk's objects (once per process; forks share them)."""
    if not _WALK:
        _WALK.append(_Walk())


def calibration_burst() -> float:
    """Seconds taken by a fixed slice of interpreter work.

    It reads attributes of objects scattered over a few MB, the access
    pattern of a simulation's object graph, and does not touch
    ``repro``.  Its speed tracks only the host: the CPU share this VM
    gets, its clock, and the cache and memory bandwidth other tenants
    leave it.  A pure arithmetic loop tracked under a third of the
    host's slowdowns; this tracks nearly all of them.
    """
    prepare()
    walk = _WALK[0]
    start = time.perf_counter()
    total = 0
    for node in walk.order[walk.offset : walk.offset + _STEP]:
        total += node.value
    walk.offset = (walk.offset + _STEP) % (_NODES - _STEP)
    return time.perf_counter() - start


_MODULE = "\n".join(
    f"def f{i}(a, b=({i}, 'k{i}')):\n    x = [a, b, {i}]\n    return {{'v': x, 'n': len(x)}}\n"
    for i in range(150)
)
_CODE: list = []


def import_burst() -> float:
    """Seconds taken to unmarshal and run a fixed synthetic module.

    The set-up probes sample the host with this between imports: it is
    the same kind of work as an import from a warm page cache, and it
    tracked their host slowdowns several times better than
    :func:`calibration_burst` there.
    """
    if not _CODE:
        _CODE.append(marshal.dumps(compile(_MODULE, "<calibration>", "exec")))
    start = time.perf_counter()
    exec(marshal.loads(_CODE[0]), {})
    return time.perf_counter() - start


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def host_sample(work: float) -> tuple[float, float]:
    """``(burst, elapsed)`` sampled after a stretch of ``work`` seconds.

    Long stretches get more bursts, of which the median is kept, so that
    every stretch's speed estimate is about equally sure; ``elapsed`` is
    what sampling cost, to be left out of the timed work.
    """
    start = time.perf_counter()
    bursts = [calibration_burst() for _ in range(1 + int(work / SECONDS_PER_EXTRA_BURST))]
    return _median(bursts), time.perf_counter() - start


def seconds_at_reference(work: list[float], bursts: list[float], reference: float) -> float:
    """Seconds the ``work`` stretches would take at reference host speed.

    ``bursts[i]`` was sampled right after ``work[i]``; each stretch is
    scaled by the median of the bursts within :data:`SPEED_WINDOW` of it
    over the ``reference`` burst for that position.
    """
    total = 0.0
    for i, seconds in enumerate(work):
        local = _median(bursts[max(i - SPEED_WINDOW, 0) : i + SPEED_WINDOW + 1])
        total += seconds * reference / local
    return total
