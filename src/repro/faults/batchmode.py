"""Lockstep (batch) execution of fault-campaign trials.

A campaign's trials are near-identical by construction: every trial
replays the same benchmark from the same reset state and follows the
golden trajectory *bit-for-bit* until its injected fault fires.  This
module exploits that with :class:`repro.cpu.batch.BatchExecutor`: a
chunk of trials runs as lanes of one vectorized machine, and each lane
is peeled back to its own scalar :class:`~repro.cpu.machine.RiscMachine`
at the exact step boundary where its fault trigger would fire - the
same boundary the scalar :class:`~repro.faults.injector.FaultInjector`
``pre_step`` hook fires on.  The lane's faulted tail then runs through
the campaign's one trial loop
(:func:`repro.faults.campaign._run_injection`), with the injector's
PC-visit count pre-seeded to what it would have observed from trial
start.

:class:`LockstepExecutor` is an in-process executor for the campaign's
:class:`~repro.faults.distributed.TrialSupervisor`
(``run_campaign(config, batch_lanes=N)``), so journal, resume, shards,
retries and deadlines work with lanes exactly as without.  The result
is **byte-identical** to scalar execution: same trials, same
:class:`~repro.faults.campaign.InjectionResult` fields, same
:meth:`~repro.faults.campaign.CampaignReport.fingerprint`.  Only the
wall-clock profile changes - the shared golden prefix of a chunk
executes once as array operations instead of ``lanes`` times as scalar
interpretation.  When numpy is missing the campaign runs the trials
scalar instead.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Sequence

from repro.faults.campaign import (
    InjectionResult,
    TrialTimeoutError,
    _run_injection,
)

__all__ = ["DEFAULT_LANES", "LockstepExecutor"]

#: Default lanes per lockstep chunk: big enough to amortize the numpy
#: dispatch per step, small enough to keep lanes x memory-image bounded.
DEFAULT_LANES = 32


def _fires(spec, pc: int, cycles: int, next_visit: int) -> bool:
    """Would *spec*'s trigger fire at this step boundary?

    Mirrors :meth:`FaultInjector._pre_step`: cycle triggers fire once
    ``stats.cycles`` reaches the threshold; PC triggers fire on the
    ``pc_hits``-th execution of the target PC (*next_visit* counts this
    boundary as a visit).
    """
    trigger = spec.trigger
    if trigger.at_cycle is not None:
        return cycles >= trigger.at_cycle
    return trigger.at_pc == pc and next_visit == trigger.pc_hits


class LockstepExecutor:
    """Runs trials in lockstep chunks of up to *lanes* lanes.

    Called as ``executor(trial, timeout_s)`` for each trial of *trials*
    in order (the supervisor's in-process executor contract).  The
    first call of a chunk runs the whole chunk - the trial plus the
    following not-yet-run trials of the same benchmark - and later calls
    hand out the stored results.  A lane whose tail timed out raises its
    :class:`~repro.faults.campaign.TrialTimeoutError` when its trial is
    requested; the supervisor's retry then re-runs that trial alone.
    Needs numpy (:class:`~repro.cpu.batch.BatchExecutor`).
    """

    def __init__(self, trials: Sequence, lanes: int = DEFAULT_LANES) -> None:
        self.lanes = lanes
        self._trials = list(trials)
        self._position = {
            trial.index: position for position, trial in enumerate(self._trials)
        }
        self._done: dict[int, InjectionResult | TrialTimeoutError] = {}

    def __call__(self, trial, timeout_s: float | None = None) -> InjectionResult:
        if trial.index not in self._done:
            self._run_chunk(self._chunk_from(trial), timeout_s)
        result = self._done.pop(trial.index)
        if isinstance(result, TrialTimeoutError):
            raise result
        return result

    def _chunk_from(self, trial) -> list:
        """*trial* plus the next not-yet-run trials of its benchmark."""
        chunk = [trial]
        position = self._position[trial.index] + 1
        while len(chunk) < self.lanes and position < len(self._trials):
            other = self._trials[position]
            if (
                other.golden.benchmark != trial.golden.benchmark
                or other.index in self._done
            ):
                break
            chunk.append(other)
            position += 1
        return chunk

    def _run_chunk(self, chunk: list, timeout_s: float | None) -> None:
        """Run *chunk* in lockstep, then each lane's tail; store results."""
        from repro.cpu.batch import BatchExecutor
        from repro.workloads import benchmark
        from repro.workloads.cache import compile_cached

        compiled = compile_cached(benchmark(chunk[0].golden.benchmark).source)
        entry = compiled.program.entry
        machines = []
        for _ in chunk:
            machine = compiled.make_machine()
            machine.reset(entry)
            machines.append(machine)
        executor = BatchExecutor(machines)
        budget = chunk[0].budget  # uniform per benchmark

        # Shared PC-visit counter: the trajectory is uniform, so one
        # count stands in for every lane's would-be injector count.
        visits: Counter = Counter()
        preload: dict[int, int] = {}
        while (
            executor.halted is None
            and executor.lanes_in_lockstep
            and executor.steps < budget
        ):
            pc = executor.pc
            cycles = executor.stats.cycles
            next_visit = visits[pc] + 1
            for lane, trial in enumerate(chunk):
                if executor.live[lane] and _fires(
                    trial.spec, pc, cycles, next_visit
                ):
                    # Peel *before* the step: the machine re-executes
                    # this boundary scalar, and the freshly attached
                    # injector's pre_step fires exactly here.
                    executor.peel(lane, "fault trigger")
                    if trial.spec.trigger.at_pc is not None:
                        preload[lane] = visits[trial.spec.trigger.at_pc]
            if not executor.lanes_in_lockstep:
                break
            before = executor.steps
            executor.step()
            if executor.steps > before:
                visits[pc] += 1
        executor.finish()

        for lane, trial in enumerate(chunk):
            # Lanes peeled inside step() (uniform trap / halt / budget
            # exhaustion) or never peeled stopped at the current
            # boundary: same preload.
            at_pc = trial.spec.trigger.at_pc
            hits = preload.get(lane, visits[at_pc]) if at_pc is not None else 0
            deadline = (
                None if timeout_s is None else time.monotonic() + timeout_s
            )
            try:
                self._done[trial.index] = _run_injection(
                    machines[lane],
                    trial,
                    steps=executor.lane_steps(lane),
                    pc_hits={at_pc: hits} if hits else None,
                    deadline=deadline,
                )
            except TrialTimeoutError as error:
                self._done[trial.index] = error
