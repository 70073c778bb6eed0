"""Shared plumbing: checkout paths, statistics, checks and metric records."""

from __future__ import annotations

import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: root of the checkout the benchmark runs in (the parent of perfbench/)
ROOT = Path(__file__).resolve().parent.parent
#: the program under test, imported from source
SRC = ROOT / "src"
#: recorded expectations (interpreter values, fingerprints, counts)
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
#: everything a run writes (service stores, span files) goes under here
WORK_DIR = ROOT / ".perfbench"

#: seconds one pass of :meth:`Calibration.run` takes at nominal host
#: speed (its median on the 2-vCPU VM the first trajectory point was
#: recorded on); timed metrics are reported at this speed
CALIBRATION_NOMINAL_S = 0.007
#: calibration passes timed on each CPU before every step of a run
CALIBRATION_PASSES = 1
#: latest passes whose median sets the clock's rate: a single pass sees
#: bursts of tens of per cent, the drift divided out is slower
CALIBRATION_WINDOW = 8

#: seconds of one pipe round trip to :class:`Echo` at nominal host speed
WAKEUP_NOMINAL_S = 0.00002
#: round trips to :class:`Echo` timed before every step of a run
WAKEUP_TRIPS = 16
#: latest round trips whose median sets the wake-up factor
WAKEUP_WINDOW = 64

#: dynamic-instruction budget of every single-core run (no program needs
#: more than ~0.5 M; a runaway shows up as a failed run, not a hang)
MAX_STEPS = 50_000_000


def load_expected() -> dict:
    """The recorded expectations written by ``perfbench/record.py``."""
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def work_dir() -> Path:
    """Create (if needed) and return the per-checkout scratch directory."""
    WORK_DIR.mkdir(exist_ok=True)
    return WORK_DIR


def median(values) -> float:
    return statistics.median(values)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of *values*."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def sliced_percentile(values, q: float, slices: int) -> float:
    """Median over *slices* consecutive slices of *values* of their
    nearest-rank ``q`` percentiles.

    A tail percentile of a whole stream jumps when a burst on the shared
    host slows one stretch of it by more than the tail's share; a burst
    moves one slice's percentile, not their median.
    """
    size = len(values) // slices
    return median(percentile(values[i * size:(i + 1) * size], q) for i in range(slices))


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of *count*."""
    return count - max(1, math.ceil(q / 100.0 * count))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repetitions(instructions: int, target: int, *, least: int, most: int) -> int:
    """Runs of a program that together retire about *target* instructions.

    Fixed by the recorded instruction count, so every run of the benchmark
    does the same work (and allocates the same memory) on any host.
    """
    return max(least, min(most, -(-target // instructions)))


class Calibration:
    """A fixed pure-Python kernel that uses none of the program under test.

    One pass does three parts, each sensitive to a different way a
    co-tenant slows the host: integer arithmetic with list and dict
    stores (the interpreter's core), method calls that allocate small
    objects, and pointer chasing through a few MiB (caches).  Together
    they track the simulator's slowdowns better than any one alone.
    """

    def __init__(self) -> None:
        order = list(range(1 << 17))
        random.Random(1981).shuffle(order)
        self.chain = order

    def run(self) -> int:
        regs = [0] * 32
        table: dict[int, int] = {}
        acc = 1
        for index in range(2_500):
            reg = index & 31
            acc = (acc * 1103515245 + regs[reg] + 12345) & 0xFFFFFFFF
            regs[reg] = acc >> 3
            table[acc & 1023] = reg
        cell = _Cell(acc & 0xFFFF)
        recent: list = []
        for index in range(2_000):
            cell = cell.step(index)
            recent.append((cell.value, index))
            if len(recent) > 64:
                del recent[:32]
        chain, at = self.chain, acc & 0xFFFF
        for _ in range(12_000):
            at = chain[at]
        return cell.value + at


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def step(self, x: int) -> "_Cell":
        return _Cell((self.value * 31 + x) & 0xFFFF)


class Echo:
    """A child interpreter that echoes its stdin pipe back.

    A round trip to it is two process wake-ups through the kernel, as is
    much of a service reply's time; on a shared host their cost drifts
    apart from the interpreter's speed.
    """

    SOURCE = ("import os\n"
              "while True:\n"
              "    data = os.read(0, 64)\n"
              "    if not data:\n"
              "        break\n"
              "    os.write(1, data)\n")

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, "-c", self.SOURCE],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)

    def round_trip(self) -> float:
        started = time.perf_counter()
        os.write(self.proc.stdin.fileno(), b"x")
        os.read(self.proc.stdout.fileno(), 64)
        return time.perf_counter() - started

    def close(self) -> None:
        """End the child (it stops at end of input) and wait for it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(10)
        self.proc.stdout.close()


class HostClock:
    """A clock that reads in seconds of a host at nominal speed.

    The host is a share of a machine whose speed drifts with its other
    tenants, by a fifth or more within minutes, and every timing drifts
    with it.  :meth:`sample` (between steps, never inside a timed region)
    times calibration passes, whose median over the latest passes against
    their nominal time is the host *factor*, and round trips to
    :class:`Echo`, likewise the *wake-up factor*.  A duration read off
    :meth:`now` is divided by the factor in force while it ran, and a
    rate computed from such a duration is multiplied by it; a duration
    read off :meth:`now_service` is divided by the geometric mean of the
    two factors.  A change to the program under test leaves the
    calibration alone, so it still moves the metrics by its share.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wakeups: list[float] = []
        self.calibration: Calibration | None = None
        self.echo: Echo | None = None
        self.factor = 1.0
        self.wakeup_factor = 1.0
        self._raw = time.perf_counter()
        self._nominal = 0.0
        self._nominal_service = 0.0

    def now(self) -> float:
        if not self.samples:
            self.sample()
        return self._nominal + (time.perf_counter() - self._raw) / self.factor

    def now_service(self) -> float:
        if not self.samples:
            self.sample()
        return self._nominal_service + (time.perf_counter() - self._raw) / self.service_factor()

    def service_factor(self) -> float:
        return math.sqrt(self.factor * self.wakeup_factor)

    def sample(self) -> None:
        """Time calibration passes on each CPU this process may use (the
        service's server and workers run on all of them), then round
        trips to the echo process."""
        if self.calibration is None:
            self.calibration = Calibration()
            self.calibration.run()
            self.echo = Echo()
            self.echo.round_trip()
        passes = []
        cpus = os.sched_getaffinity(0)
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                for _ in range(CALIBRATION_PASSES):
                    started = time.perf_counter()
                    self.calibration.run()
                    passes.append(time.perf_counter() - started)
        finally:
            os.sched_setaffinity(0, cpus)
        self.samples.extend(passes)
        self.wakeups.extend(self.echo.round_trip() for _ in range(WAKEUP_TRIPS))
        self._nominal = self.now()
        self._nominal_service = self.now_service()
        self._raw = time.perf_counter()
        self.factor = median(self.samples[-CALIBRATION_WINDOW:]) / CALIBRATION_NOMINAL_S
        self.wakeup_factor = median(self.wakeups[-WAKEUP_WINDOW:]) / WAKEUP_NOMINAL_S

    def mean_factors(self) -> tuple[float, float]:
        """The run's median calibration pass and round trip over nominal."""
        return (median(self.samples) / CALIBRATION_NOMINAL_S,
                median(self.wakeups) / WAKEUP_NOMINAL_S)

    def close(self) -> None:
        if self.echo is not None:
            self.echo.close()
            self.echo = None


#: the clock every timing of the benchmark is read from
HOST = HostClock()


def clock() -> float:
    return HOST.now()


def service_clock() -> float:
    """The clock that service replies are timed on.  A reply is partly
    interpreter work (the host factor) and partly process wake-ups
    through the kernel (the wake-up factor), so it divides by both."""
    return HOST.now_service()


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record it as failed unless *ok*."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.append(what)
        return ok

    def invariant(self, ok: bool, what: str) -> bool:
        """Fail the last counted operation's run without counting a new one."""
        if not ok:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.append(what)
        return ok


class Metrics:
    """Named metric values with units, in insertion order."""

    def __init__(self) -> None:
        self.values: dict[str, dict] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.values[name] = {"value": value, "unit": unit}

    def as_dict(self) -> dict:
        return dict(self.values)


@dataclass
class Group:
    """One layer group's work: steps the runner interleaves with other
    groups' steps, then ``finish`` (metrics) and ``close`` (cleanup)."""

    steps: list[Callable[[], None]]
    finish: Callable[[], None]
    close: Callable[[], None] = lambda: None


def spread(first: list, second: list) -> list:
    """Merge two lists, spacing each evenly over the result."""
    keyed = [((i + 0.5) / len(first), item) for i, item in enumerate(first)]
    keyed += [((i + 0.5) / len(second), item) for i, item in enumerate(second)]
    return [item for _, item in sorted(keyed, key=lambda pair: pair[0])]


def interleave(primary: Group, companions: list[Group]) -> None:
    """Run every group's steps, spreading each companion's steps evenly
    over the gaps around the primary's steps, so that every group samples
    the host over the whole run rather than in one burst.

    Garbage is collected before each step: dead machines (1 MiB images
    held in reference cycles) then never pile up by chance, which keeps
    peak RSS a property of the work rather than of collection timing.
    The survivors are then frozen for the step, so that a collection
    during the step scans only what the step allocated: its pauses (in
    the simulator, or in a service client between send and reply) are a
    property of the step, not of how much the benchmark has kept so far.
    The host's speed is sampled before each step, so that the clock's
    rate follows it through the run (see :class:`HostClock`).
    """
    gaps = len(primary.steps) + 1
    done = [0] * len(companions)

    def run(step) -> None:
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        HOST.sample()
        step()

    def catch_up(gap: int) -> None:
        for index, group in enumerate(companions):
            target = len(group.steps) * (gap + 1) // gaps
            while done[index] < target:
                run(group.steps[done[index]])
                done[index] += 1

    try:
        catch_up(0)
        for gap, step in enumerate(primary.steps, 1):
            run(step)
            catch_up(gap)
    finally:
        gc.unfreeze()
    for group in (primary, *companions):
        group.finish()
