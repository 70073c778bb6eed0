"""Golden-vs-faulted differential fault campaigns over the benchmarks.

For each selected benchmark the runner executes one *golden* run
(recording the result, dynamic instruction count, and the executed-PC
histogram that seeds fault-site selection), takes a delta-tracked
checkpoint of the freshly reset machine, and then replays the program
once per injected fault, classifying every run:

===========  ======================================================
MASKED       completed normally with the golden result (fault
             absorbed)
DETECTED     the machine trapped (structured TrapRecord; the
             hardware caught the corruption) before completing
SDC          completed normally but with a wrong result - silent
             data corruption, the outcome fault-tolerant design
             cares about
TIMEOUT      exceeded the step budget (injected infinite loop);
             caught by the watchdog, never by the host
CRASH        a Python exception escaped the simulator - always a
             repro bug, and asserted to be zero in CI
INFRA_ERROR  the *infrastructure* failed the trial (worker death,
             wall-clock timeout, repeated transient errors); the
             trial is quarantined so one poisoned trial degrades
             the report instead of aborting the campaign
===========  ======================================================

Every campaign runs through one pipeline, :func:`run_campaign`:

1. **schedule** - :func:`~repro.faults.distributed.shard_schedule`
   runs the golden references and draws every fault serially from one
   seeded :class:`random.Random` (no wall-clock inputs), then splits
   the schedule into contiguous shards;
2. **recovery** - when resuming, the journal's completed trials fold
   straight into the aggregate, without re-execution;
3. **supervisor** - :class:`~repro.faults.distributed.TrialSupervisor`
   executes the rest, in this process when ``workers <= 1`` (in numpy
   lockstep chunks with ``batch_lanes``) and on a process pool
   otherwise, with retries, and with a per-trial wall-clock deadline
   when ``timeout_s`` is given;
4. **journal and aggregator** - one sink appends each result to the
   journal, if there is one, before folding it into the
   :class:`~repro.faults.distributed.StreamingAggregator`;
5. **report** - one :class:`CampaignReport` renders the rate table,
   summary, fingerprint and manifest.

The supervisor delivers results in schedule order, so two runs with
the same :class:`CampaignConfig` produce byte-identical reports
(:meth:`CampaignReport.fingerprint`) at any worker count, lane count or
shard count, and across kill and resume.

The fingerprint is an **ordered hash-of-hashes**: each injection
record is canonically serialised and SHA-256 hashed
(:func:`trial_digest`), and the campaign fingerprint is the SHA-256
over the concatenated per-trial digests in schedule order
(:class:`FingerprintStream`).  That construction is what lets sharded
campaigns compose per-shard fingerprints back into exactly the
whole-campaign fingerprint, and lets the aggregator compute it in O(1)
memory.

CLI (used by the CI smoke campaign)::

    python -m repro.faults.campaign --injections 200 --seed 1981 \
        --benchmarks towers,ackermann --verify-determinism \
        --baseline ci/fault_baseline.json
"""

from __future__ import annotations

import argparse
import enum
import hashlib
import json
import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.bitops import to_signed
from repro.cpu.machine import HaltReason, RiscMachine
from repro.evaluation.tables import Table
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSites, FaultSpec, FaultTarget

if TYPE_CHECKING:
    from repro.faults.distributed import StreamingAggregator

#: Benchmarks small enough that a 1000-injection campaign finishes in
#: minutes on the Python-hosted simulator.
DEFAULT_BENCHMARKS = ("towers", "ackermann")

#: Memory faults land in the first 64 KiB: code, globals, and the
#: software stack of every benchmark live there.
MEMORY_FAULT_TOP = 1 << 16

#: Per-trial wall-clock budget (seconds) the CLI passes by default.  A
#: healthy trial finishes in well under a second; 60 s only fires when
#: the host itself is wedged.
DEFAULT_TRIAL_TIMEOUT_S = 60.0

#: How often (in steps) the trial loop consults the wall clock when a
#: deadline is armed; mirrors the step-granular watchdogs on ``run()``.
_DEADLINE_CHECK_MASK = 0x3FF


class Outcome(enum.Enum):
    """How one injected fault manifested (the campaign taxonomy)."""

    MASKED = "masked"
    DETECTED = "detected"
    SILENT_CORRUPTION = "silent_corruption"
    TIMEOUT = "timeout"
    CRASH = "crash"
    INFRA_ERROR = "infra_error"


class TrialTimeoutError(RuntimeError):
    """A trial exceeded its wall-clock budget (host-side watchdog).

    Raised from inside the trial step loop when a ``deadline`` is armed
    (see :func:`_run_injection`); the supervisor treats it as a
    transient infrastructure failure - retried with backoff, then
    quarantined as :attr:`Outcome.INFRA_ERROR`.
    """


class CampaignInterrupted(KeyboardInterrupt):
    """Ctrl-C during a campaign, after the pool/journal were shut down.

    Subclasses :class:`KeyboardInterrupt` so callers that already
    handle Ctrl-C keep working; carries enough context to print a
    resume command instead of a traceback.
    """

    def __init__(self, *, completed: int, total: int, journal: str | None):
        self.completed = completed
        self.total = total
        self.journal = journal
        super().__init__(self.describe())

    def describe(self) -> str:
        """Human-readable interruption summary with the resume hint."""
        head = f"campaign interrupted at {self.completed}/{self.total} trials"
        if self.journal:
            return (
                f"{head}; journal flushed - resume with "
                f"--resume {self.journal}"
            )
        return f"{head}; no journal was kept, completed trials are lost"


@dataclass(frozen=True)
class GoldenRun:
    """Reference execution of one benchmark."""

    benchmark: str
    result: int
    instructions: int
    cycles: int
    sites: FaultSites


@dataclass(frozen=True)
class InjectionResult:
    """Classification of one faulted run."""

    benchmark: str
    spec: FaultSpec
    outcome: Outcome
    halt: str
    trap_cause: str | None
    instructions: int
    result: int | None
    detail: str = ""


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign, and nothing else."""

    seed: int = 1981
    injections: int = 1000
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS
    targets: tuple[FaultTarget, ...] = tuple(FaultTarget)
    #: faulted runs get golden_steps * factor + slack dynamic instructions
    step_budget_factor: float = 1.5
    step_budget_slack: int = 4096


def config_dict(config: CampaignConfig) -> dict:
    """Canonical JSON-friendly form of a :class:`CampaignConfig`."""
    return {
        "seed": config.seed,
        "injections": config.injections,
        "benchmarks": list(config.benchmarks),
        "targets": [target.value for target in config.targets],
        "step_budget_factor": config.step_budget_factor,
        "step_budget_slack": config.step_budget_slack,
    }


def config_digest(config: CampaignConfig) -> str:
    """SHA-256 over the canonical config; equal <=> same campaign.

    Journals store this digest so a ``--resume`` against a journal
    written by a *different* campaign fails loudly instead of silently
    merging incompatible trial streams.
    """
    payload = json.dumps(config_dict(config), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def injection_record(result: InjectionResult) -> dict:
    """The canonical JSON record of one injection (fingerprint unit).

    Field set and value encodings are part of the byte-identity
    contract: journals persist these records verbatim and the campaign
    fingerprint hashes them, so any change here invalidates committed
    baselines (``ci/fault_baseline.json``).
    """
    spec = result.spec
    return {
        "benchmark": result.benchmark,
        "target": spec.target.value,
        "kind": spec.kind.value,
        "location": spec.location,
        "bits": list(spec.bits),
        "trigger": spec.trigger.describe(),
        "outcome": result.outcome.value,
        "halt": result.halt,
        "trap_cause": result.trap_cause,
        "instructions": result.instructions,
        "result": result.result,
    }


def trial_digest(record: dict) -> str:
    """SHA-256 hex digest of one canonical injection record."""
    payload = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


class FingerprintStream:
    """Ordered hash-of-hashes accumulator for campaign fingerprints.

    Feed per-trial digests (:func:`trial_digest`) in schedule order;
    :meth:`hexdigest` is then the campaign fingerprint.  Because the
    outer hash consumes only the fixed-size trial digests, the stream
    costs O(1) memory at any trial count, and a shard's contribution
    is exactly its ordered digest sequence - which is how
    :func:`repro.faults.distributed.compose_fingerprints` rebuilds the
    whole-campaign fingerprint from per-shard journals.
    """

    def __init__(self) -> None:
        self._outer = hashlib.sha256()
        self.count = 0

    def add(self, digest: str) -> None:
        """Fold one per-trial digest into the stream."""
        self._outer.update(digest.encode())
        self.count += 1

    def add_record(self, record: dict) -> str:
        """Hash *record* and fold it; returns the per-trial digest."""
        digest = trial_digest(record)
        self.add(digest)
        return digest

    def hexdigest(self) -> str:
        """The fingerprint over everything folded so far."""
        return self._outer.hexdigest()


@dataclass
class CampaignReport:
    """The aggregate of one campaign, plus its per-trial results if kept.

    Attributes:
        config: the campaign configuration.
        golden: benchmark name -> :class:`GoldenRun` reference.
        aggregate: the folded
            :class:`~repro.faults.distributed.StreamingAggregator`
            (outcome tallies and fingerprints in O(1) memory).
        resume_info: operational counters of this execution
            (``resumed_trials``, ``executed_trials``, ``retries``,
            ``timeouts``, ``infra_errors``, ``pool_restarts``).
        n_shards: shard count of the schedule partition.
        results: every :class:`InjectionResult` in schedule order, kept
            only when no journal holds the trials (None otherwise).
        journal: path of the journal holding the trials, or None.
    """

    config: CampaignConfig
    golden: dict[str, GoldenRun]
    aggregate: "StreamingAggregator"
    resume_info: dict
    n_shards: int = 1
    results: list[InjectionResult] | None = None
    journal: str | None = None

    @property
    def count(self) -> int:
        """Trials folded into this report."""
        return self.aggregate.count

    def outcome_counts(self) -> Counter:
        """Tally of trials by outcome across the whole campaign."""
        return Counter(self.aggregate.overall)

    def counts_by_target(self) -> dict[FaultTarget, Counter]:
        """Per-fault-target tallies of trials by outcome."""
        return {
            target: Counter(counts)
            for target, counts in self.aggregate.by_target.items()
        }

    def rate_table(self) -> Table:
        """Detection / silent-corruption / crash rates per fault site."""
        table = Table(
            title=(
                f"R1: fault campaign ({self.count} injections, "
                f"seed {self.config.seed})"
            ),
            headers=["fault site", "n", "masked", "detected", "SDC",
                     "timeout", "crash", "infra", "det %", "SDC %"],
        )

        def row(label: str, counts: Counter) -> None:
            """Append one labelled outcome-count row to the table."""
            total = sum(counts.values())
            table.add_row(
                label,
                total,
                counts[Outcome.MASKED],
                counts[Outcome.DETECTED],
                counts[Outcome.SILENT_CORRUPTION],
                counts[Outcome.TIMEOUT],
                counts[Outcome.CRASH],
                counts[Outcome.INFRA_ERROR],
                round(100.0 * counts[Outcome.DETECTED] / total, 1)
                if total else 0.0,
                round(100.0 * counts[Outcome.SILENT_CORRUPTION] / total, 1)
                if total else 0.0,
            )

        for target in self.config.targets:
            counts = self.aggregate.by_target.get(target, Counter())
            if sum(counts.values()):
                row(target.value, counts)
        row("all", self.aggregate.overall)
        table.notes.append("benchmarks: " + ", ".join(self.config.benchmarks))
        table.notes.append(
            "DETECTED = structured trap; SDC = wrong result with clean halt; "
            "infra = quarantined infrastructure failure"
        )
        return table

    def as_records(self) -> list[dict]:
        """JSON-friendly rows, one per injection, in schedule order.

        Built from :attr:`results` when they were kept, else read back
        from the journal.
        """
        if self.results is not None:
            return [injection_record(result) for result in self.results]
        from repro.faults.distributed import recover_journal

        records: list[dict] = []
        recover_journal(
            self.journal,
            sink=lambda index, attempt, record: records.append(record),
        )
        return records

    def fingerprint(self) -> str:
        """Ordered hash-of-hashes over every injection record.

        Equal <=> bit-identical campaigns: SHA-256 over the concatenated
        per-trial SHA-256 digests, in schedule order, so a resumed,
        sharded, batched or worker-pool campaign that executed the same
        trials reports the identical fingerprint.
        """
        return self.aggregate.fingerprint()

    def summary(self) -> dict:
        """Aggregate outcome counts plus the campaign fingerprint."""
        overall = self.aggregate.overall
        return {
            "seed": self.config.seed,
            "injections": self.count,
            "benchmarks": list(self.config.benchmarks),
            "masked": overall[Outcome.MASKED],
            "detected": overall[Outcome.DETECTED],
            "silent_corruption": overall[Outcome.SILENT_CORRUPTION],
            "timeout": overall[Outcome.TIMEOUT],
            "crash": overall[Outcome.CRASH],
            "infra_error": overall[Outcome.INFRA_ERROR],
            "fingerprint": self.fingerprint(),
        }

    def manifest(self) -> dict:
        """Canonical campaign-manifest document (v2, JSON-serialisable).

        Neither host facts nor file paths appear, so two campaigns with
        the same :class:`CampaignConfig` produce byte-identical
        manifests at any worker or lane count; the ``resume`` section
        is operational by design (a resumed run reports its resumed
        count) while ``summary.fingerprint`` stays byte-identical.  The
        schema mirrors the run manifest (``docs/OBSERVABILITY.md``);
        single-run manifests link back through their ``campaign``
        section's ``fingerprint``.
        """
        from repro.telemetry.manifest import CAMPAIGN_SCHEMA

        return {
            "schema": CAMPAIGN_SCHEMA,
            "config": config_dict(self.config),
            "golden": {
                name: {
                    "result": run.result,
                    "instructions": run.instructions,
                    "cycles": run.cycles,
                }
                for name, run in sorted(self.golden.items())
            },
            "outcomes_by_target": {
                target.value: {
                    outcome.value: counts[outcome]
                    for outcome in Outcome if counts[outcome]
                }
                for target, counts in sorted(
                    self.aggregate.by_target.items(),
                    key=lambda kv: kv[0].value,
                )
            },
            "shards": {
                "count": self.n_shards,
                "sizes": self.aggregate.shard_sizes(),
                "fingerprints": self.aggregate.shard_fingerprints(),
            },
            "resume": dict(self.resume_info),
            "events": dict(self.aggregate.event_counts),
            "summary": self.summary(),
        }


def _golden_run(name: str) -> tuple[GoldenRun, "object"]:
    """Run *name* unfaulted; returns the reference plus the compiled image."""
    from repro.workloads import benchmark
    from repro.workloads.cache import compile_cached

    bench = benchmark(name)
    compiled = compile_cached(bench.source)
    machine = compiled.make_machine()
    pc_counts: Counter = Counter()

    def record_pc(m: RiscMachine) -> None:
        pc_counts[m.pc] += 1

    machine.observers.subscribe("pre_step", record_pc)
    machine.run(compiled.program.entry)
    if machine.halted is not HaltReason.RETURNED:
        raise RuntimeError(
            f"golden run of {name} did not complete: {machine.halted}"
        )
    sites = FaultSites(
        register_count=machine.regs.physical_count,
        memory_top=min(MEMORY_FAULT_TOP, machine.memory.size),
        pcs=tuple(sorted(pc_counts.items())),
        cycle_limit=max(1, machine.stats.cycles - 1),
    )
    golden = GoldenRun(
        benchmark=name,
        result=to_signed(machine.result),
        instructions=machine.stats.instructions,
        cycles=machine.stats.cycles,
        sites=sites,
    )
    return golden, compiled


def _classify(
    machine: RiscMachine, golden: GoldenRun, spec: FaultSpec, steps: int
) -> InjectionResult:
    halt = machine.halted.name if machine.halted is not None else "RUNNING"
    trap_cause = None
    result_value: int | None = None
    if machine.halted is HaltReason.TRAPPED:
        outcome = Outcome.DETECTED
        if machine.last_trap is not None:
            trap_cause = machine.last_trap.cause.name
    elif machine.halted is HaltReason.RETURNED:
        result_value = to_signed(machine.result)
        if result_value == golden.result:
            outcome = Outcome.MASKED
        else:
            outcome = Outcome.SILENT_CORRUPTION
    else:
        outcome = Outcome.TIMEOUT
    return InjectionResult(
        benchmark=golden.benchmark,
        spec=spec,
        outcome=outcome,
        halt=halt,
        trap_cause=trap_cause,
        instructions=steps,
        result=result_value,
    )


def _run_injection(
    machine: RiscMachine,
    trial,
    *,
    steps: int = 0,
    pc_hits: dict[int, int] | None = None,
    deadline: float | None = None,
) -> InjectionResult:
    """Run *trial*'s fault on *machine* from its current state; classify.

    The one trial loop: a scalar trial restores its checkpoint and calls
    this with ``steps=0``; a lane peeled out of a lockstep chunk
    (:mod:`repro.faults.batchmode`) calls it with the steps it already
    ran and the trigger-PC visits its injector would have counted
    (*pc_hits*).

    When *deadline* (a ``time.monotonic()`` timestamp) is given, the
    loop consults the wall clock every 1024 steps - the same pattern as
    the ``wall_clock_limit`` watchdog on :meth:`RiscMachine.run` - and
    raises :class:`TrialTimeoutError` past it.  The timeout escapes the
    CRASH classification on purpose: a host stall is an infrastructure
    failure for the supervisor, not a simulator finding.
    """
    golden, spec, budget = trial.golden, trial.spec, trial.budget
    injector = FaultInjector(machine, [spec], pc_hits=pc_hits)
    injector.attach()
    try:
        while machine.halted is None and steps < budget:
            if (
                deadline is not None
                and (steps & _DEADLINE_CHECK_MASK) == 0
                and time.monotonic() > deadline
            ):
                raise TrialTimeoutError(
                    f"trial exceeded its wall-clock budget after {steps} steps"
                )
            machine.step()
            steps += 1
        if machine.halted is None:
            machine.halted = HaltReason.STEP_LIMIT
        return _classify(machine, golden, spec, steps)
    except TrialTimeoutError:
        raise
    except Exception as exc:  # noqa: BLE001 - a crash IS the finding
        return InjectionResult(
            benchmark=golden.benchmark,
            spec=spec,
            outcome=Outcome.CRASH,
            halt="EXCEPTION",
            trap_cause=None,
            instructions=steps,
            result=None,
            detail=f"{type(exc).__name__}: {exc}",
        )
    finally:
        injector.detach()


def _publish_metrics(registry, report: CampaignReport, syncs: int) -> None:
    """Record the ``campaign.*`` operational counters on *registry*."""
    info = report.resume_info
    counters = {
        "campaign.trials": (
            report.count, "trials folded into the campaign aggregate"
        ),
        "campaign.trials_resumed": (
            info["resumed_trials"], "trials replayed from a journal, not executed"
        ),
        "campaign.retries": (
            info["retries"], "trial attempts re-dispatched after failure"
        ),
        "campaign.timeouts": (
            info["timeouts"], "trial attempts killed by the wall-clock deadline"
        ),
        "campaign.infra_errors": (
            info["infra_errors"], "trials quarantined after exhausting retries"
        ),
        "campaign.pool_restarts": (
            info["pool_restarts"], "worker-pool rebuilds after a dead worker"
        ),
        "campaign.journal_syncs": (
            syncs, "fsync barriers issued by the trial journal"
        ),
    }
    for name, (value, help_text) in counters.items():
        registry.counter(name, help_text).inc(value)


def run_campaign(
    config: CampaignConfig,
    *,
    progress=None,
    workers: int | None = None,
    journal: str | None = None,
    resume: str | None = None,
    shards: int | None = None,
    shard_index: int | None = None,
    timeout_s: float | None = None,
    retry=None,
    registry=None,
    batch_lanes: int | None = None,
    event_writer=None,
    chaos_hook=None,
) -> CampaignReport:
    """Execute (or resume) the campaign described by *config*.

    The options change how the trials execute and survive failure,
    never which trials run or what they produce: the fingerprint is the
    same under every combination.

    Args:
        config: the campaign to execute.
        progress: optional ``(benchmark, done, total)`` callback,
            invoked every 100 folded trials.
        workers: process-pool size; None or <= 1 runs the trials in
            this process.
        journal: path for a fresh crash-safe trial journal (refuses to
            overwrite an existing file); ``kill -9`` loses at most the
            trial in flight.
        resume: path of an existing journal to recover; its completed
            trials fold without re-execution and new completions are
            appended to the same file.  Mutually exclusive with
            *journal*.
        shards: contiguous shard count of the schedule partition
            (default 1); per-shard fingerprints compose to the campaign
            fingerprint via
            :func:`~repro.faults.distributed.compose_fingerprints`.
        shard_index: execute only this shard.
        timeout_s: per-trial wall-clock budget in seconds (finite,
            > 0); no deadline is armed when None.
        retry: :class:`~repro.faults.distributed.RetryPolicy`; the
            default allows 3 attempts per trial.
        registry: optional :class:`~repro.telemetry.MetricsRegistry`
            receiving the ``campaign.*`` counters.
        batch_lanes: > 1 runs the trials in numpy lockstep chunks of
            that many lanes (:mod:`repro.faults.batchmode`), or scalar
            when numpy is not installed.  Needs ``workers <= 1``.
        event_writer: optional
            :class:`~repro.telemetry.events.JsonlEventWriter`; receives
            one ``trial`` event per completion, ``retry`` events from
            the supervisor, and a ``resume`` event when recovering.
        chaos_hook: test/CI-only ``(done, worker_pids)`` callback run
            after each trial (used to SIGKILL a live worker).

    Returns:
        A :class:`CampaignReport`; it keeps the per-trial ``results``
        in memory only when no journal holds them.

    Raises:
        ValueError: contradictory or out-of-range options.
        CampaignInterrupted: Ctrl-C (the journal is flushed and closed
            first, so the run is resumable).
        JournalError: *resume* names a journal of a different campaign.
    """
    from repro.faults.distributed import (
        StreamingAggregator,
        TrialJournal,
        TrialSupervisor,
        shard_schedule,
    )

    shards = shards or 1
    if journal is not None and resume is not None:
        raise ValueError(
            "pass either journal= (fresh) or resume= (recover), not both"
        )
    if shard_index is not None and not 0 <= shard_index < shards:
        raise ValueError(
            f"shard_index {shard_index} out of range for {shards} shard(s)"
        )
    if timeout_s is not None and not (timeout_s > 0 and math.isfinite(timeout_s)):
        raise ValueError(
            f"timeout_s must be a finite number of seconds > 0, got {timeout_s}"
        )
    lockstep = batch_lanes is not None and batch_lanes > 1
    if lockstep and workers is not None and workers > 1:
        raise ValueError(
            "batch_lanes runs the trials in this process; "
            "it does not combine with workers > 1"
        )

    plan = shard_schedule(config, shards)
    if shard_index is None:
        trials, bounds = plan.trials, plan.bounds
    else:
        trials, bounds = plan.shard(shard_index), (plan.bounds[shard_index],)
    aggregate = StreamingAggregator(
        config, (trial.index for trial in trials), bounds
    )

    jour = None
    if resume is not None:
        jour, recovery = TrialJournal.resume(
            resume, config,
            sink=lambda index, attempt, record: aggregate.add(index, record),
        )
        if event_writer is not None:
            event_writer.write({
                "event": "resume",
                "journal": resume,
                "completed": recovery.completed,
                "torn_lines": recovery.torn_lines,
            })
    elif journal is not None:
        jour = TrialJournal.create(journal, config)
    # The aggregate accepts trials only in schedule order, so the
    # recovered trials are exactly a prefix of the schedule.
    resumed = aggregate.count
    remaining = trials[resumed:]
    results: list[InjectionResult] | None = [] if jour is None else None

    def sink(index: int, result: InjectionResult, attempts: int) -> None:
        """Write-ahead journal (or keep) one completed trial, then fold it."""
        record = injection_record(result)
        if jour is not None:
            jour.append(index, record, attempt=attempts)
        else:
            results.append(result)
        aggregate.add(index, record)
        if event_writer is not None:
            event_writer.write({
                "event": "trial",
                "trial": index,
                "attempt": attempts,
                "benchmark": result.benchmark,
                "outcome": result.outcome.value,
            })
        if progress is not None and aggregate.count % 100 == 0:
            progress(result.benchmark, aggregate.count, len(trials))

    execute = None
    if lockstep:
        from repro.cpu.batch import available

        if available():  # numpy absent: the trials run scalar
            from repro.faults.batchmode import LockstepExecutor

            execute = LockstepExecutor(remaining, batch_lanes)
    supervisor = TrialSupervisor(
        workers=workers,
        timeout_s=timeout_s,
        policy=retry,
        execute=execute,
        event_writer=event_writer,
        chaos_hook=chaos_hook,
    )
    try:
        stats = supervisor.run(remaining, sink)
    except KeyboardInterrupt:
        # Every completed trial is already fsynced; the finally below
        # closes the journal, so the run is resumable as-is.
        raise CampaignInterrupted(
            completed=aggregate.count,
            total=len(trials),
            journal=jour.path if jour is not None else None,
        ) from None
    finally:
        if jour is not None:
            jour.close()

    report = CampaignReport(
        config,
        plan.goldens,
        aggregate,
        resume_info={
            "resumed_trials": resumed,
            "executed_trials": stats.executed,
            "retries": stats.retries,
            "timeouts": stats.timeouts,
            "infra_errors": aggregate.overall[Outcome.INFRA_ERROR],
            "pool_restarts": stats.pool_restarts,
        },
        n_shards=shards,
        results=results,
        journal=jour.path if jour is not None else None,
    )
    if registry is not None:
        _publish_metrics(registry, report, jour.syncs if jour is not None else 0)
    return report


# -- CLI ---------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """Argparse type: a strictly positive integer (clear error otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def _positive_seconds(text: str) -> float:
    """Argparse type: a finite number of seconds > 0 (clear error otherwise)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got {text!r}"
        ) from None
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds > 0, got {text}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.campaign",
        description="Seeded fault-injection campaign over the RISC I benchmarks.",
    )
    parser.add_argument("--seed", type=int, default=1981)
    parser.add_argument("--injections", type=_positive_int, default=1000)
    parser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="run trials on N worker processes (results stay byte-identical "
             "to the in-process run; default 1 = in-process)",
    )
    parser.add_argument(
        "--benchmarks", default=",".join(DEFAULT_BENCHMARKS),
        help="comma-separated benchmark names",
    )
    parser.add_argument(
        "--batch-lanes", type=_positive_int, default=1,
        help="run trials through the numpy lockstep executor in chunks "
             "of N lanes (byte-identical fingerprint; default 1 = "
             "scalar; needs --workers 1; falls back to scalar when "
             "numpy is missing)",
    )
    parser.add_argument(
        "--shards", type=_positive_int, default=1,
        help="deterministically shard the schedule into N contiguous "
             "shards; per-shard fingerprints compose to the unsharded one",
    )
    parser.add_argument(
        "--shard-index", type=int, default=None,
        help="execute only this shard (0-based; for cross-machine "
             "campaigns - the report then covers just that shard)",
    )
    parser.add_argument(
        "--journal", default=None,
        help="append each completed trial to this crash-safe JSONL "
             "journal (kill -9 loses at most one trial)",
    )
    parser.add_argument(
        "--resume", default=None,
        help="replay completed trials from this journal, execute only "
             "the remainder, and keep appending to it",
    )
    parser.add_argument(
        "--timeout-s", type=_positive_seconds, default=DEFAULT_TRIAL_TIMEOUT_S,
        help="per-trial wall-clock budget in seconds; timed-out trials "
             "are retried then quarantined as INFRA_ERROR "
             f"(default {DEFAULT_TRIAL_TIMEOUT_S:.0f})",
    )
    parser.add_argument(
        "--retries", type=_positive_int, default=3,
        help="maximum attempts per trial before INFRA_ERROR quarantine "
             "(default 3)",
    )
    parser.add_argument(
        "--verify-determinism", action="store_true",
        help="run the campaign twice and fail unless fingerprints match",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="JSON baseline; fail if silent corruptions or crashes regress",
    )
    parser.add_argument(
        "--write-baseline", default=None,
        help="write the campaign summary to this JSON path and exit",
    )
    parser.add_argument("--json", default=None, help="dump per-injection records")
    parser.add_argument(
        "--manifest", default=None,
        help="write the canonical campaign manifest (JSON) to this path",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; see ``--help`` for flags."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.shard_index is not None and not 0 <= args.shard_index < args.shards:
        parser.error(
            f"--shard-index must be in [0, {args.shards}) "
            f"(got {args.shard_index})"
        )
    if args.batch_lanes > 1 and args.workers > 1:
        parser.error(
            "--batch-lanes runs the trials in one process; "
            "it does not combine with --workers > 1"
        )
    config = CampaignConfig(
        seed=args.seed,
        injections=args.injections,
        benchmarks=tuple(name for name in args.benchmarks.split(",") if name),
    )

    def progress(name: str, done: int, total: int) -> None:
        """Per-benchmark progress line."""
        print(f"  {name}: {done}/{total} injections")

    def execute(*, resume: str | None, journal: str | None):
        """One campaign run with the CLI's options."""
        from repro.faults.distributed import RetryPolicy

        return run_campaign(
            config,
            progress=progress,
            workers=args.workers,
            journal=journal,
            resume=resume,
            shards=args.shards,
            shard_index=args.shard_index,
            timeout_s=args.timeout_s,
            retry=RetryPolicy(max_attempts=args.retries, seed=args.seed),
            batch_lanes=args.batch_lanes,
        )

    try:
        report = execute(resume=args.resume, journal=args.journal)
    except CampaignInterrupted as exc:
        print(f"\n{exc.describe()}")
        return 130
    except KeyboardInterrupt:
        print("\ncampaign interrupted before its trials started")
        return 130
    print(report.rate_table().render())
    summary = report.summary()

    failures: list[str] = []
    if summary["crash"]:
        failures.append(f"{summary['crash']} injection(s) crashed the simulator")
    if summary["infra_error"]:
        failures.append(
            f"{summary['infra_error']} trial(s) quarantined as INFRA_ERROR"
        )
    if args.verify_determinism:
        # The verification run never resumes or journals: it must
        # re-execute every trial to prove determinism.
        second = execute(resume=None, journal=None)
        if second.fingerprint() != summary["fingerprint"]:
            failures.append("campaign is not deterministic for a fixed seed")
        else:
            print("determinism: OK (fingerprints match)")
    if args.baseline:
        if args.shard_index is not None:
            failures.append(
                "--baseline is not comparable to a single-shard report "
                "(drop --shard-index)"
            )
        else:
            with open(args.baseline) as handle:
                baseline = json.load(handle)
            # Absolute-count comparison is only meaningful when both runs
            # sampled the same fault population.
            for key in ("injections", "seed", "benchmarks"):
                if key in baseline and baseline[key] != summary[key]:
                    failures.append(
                        f"baseline not comparable: {key} differs "
                        f"({summary[key]!r} vs baseline {baseline[key]!r})"
                    )
            for key in ("silent_corruption", "crash", "infra_error"):
                if summary[key] > baseline.get(key, 0):
                    failures.append(
                        f"{key} regressed: {summary[key]} > baseline "
                        f"{baseline.get(key, 0)}"
                    )
            if not failures:
                print(f"baseline check: OK (vs {args.baseline})")
    if args.write_baseline:
        with open(args.write_baseline, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote baseline to {args.write_baseline}")
    if args.manifest:
        with open(args.manifest, "w") as handle:
            json.dump(report.manifest(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote campaign manifest to {args.manifest}")
    if args.json:
        records = report.as_records()
        with open(args.json, "w") as handle:
            json.dump(
                {"schema": "risc1-repro/fault-campaign/v1",
                 "summary": summary, "records": records},
                handle, indent=2,
            )
        print(f"wrote {len(records)} records to {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    # Re-enter through the canonical module: under ``python -m`` this
    # file also exists as ``__main__``, and the runner raises the
    # *imported* module's CampaignInterrupted - which the __main__
    # copy's ``except CampaignInterrupted`` would not catch.
    from repro.faults.campaign import main as _canonical_main

    raise SystemExit(_canonical_main())
