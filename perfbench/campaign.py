"""Campaign layer group: serial fault campaigns, checked against records.

The ``campaign`` workload runs serial ``run_campaign`` calls on the
default benchmarks and every fault target, seeded from the workload
seed; the other workloads run :data:`COMPANION` so that every run
reports ``trials_per_s``.  The traced run also replays the golden runs and the
first trials through public calls only (``compile_cached``,
``make_machine``, a ``pre_step`` observer, ``checkpoint``/``restore``,
``FaultInjector``), with a span per layer.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import partial

from repro import HaltReason
from repro.common.bitops import to_signed
from repro.faults import CampaignConfig, FaultInjector, Outcome, run_campaign
from repro.workloads import benchmark, compile_cached

from common import Group, clock, median

#: the campaigns of the other workloads: fixed, so always recorded; six
#: small ones, so trials_per_s samples the host at six points of a run
COMPANION = [
    CampaignConfig(seed=seed, injections=2, benchmarks=("towers",))
    for seed in range(1981, 1987)
]
#: the campaign workload's campaigns: so many, of so many trials each
#: (~3 s each on a 2-core x86-64 VM); several, so that the other groups'
#: steps spread over seven gaps between them rather than clustering
PRIMARY_CAMPAIGNS = 6
PRIMARY_INJECTIONS = 5
#: trials the traced run replays through public calls
REPLAYED_TRIALS = 12
BROKEN = (Outcome.CRASH, Outcome.INFRA_ERROR)


def primary_configs(seed: int) -> list[CampaignConfig]:
    """Serial campaigns on the default benchmarks and every fault target,
    seeded from the workload seed."""
    return [
        CampaignConfig(seed=seed * 1000 + index, injections=PRIMARY_INJECTIONS)
        for index in range(PRIMARY_CAMPAIGNS)
    ]


def record_key(config: CampaignConfig) -> str:
    return f"{config.seed}:{config.injections}:{'+'.join(config.benchmarks)}"


def timed_campaign(ctx, config: CampaignConfig):
    """Run the campaign once; returns (report, wall seconds)."""
    with ctx.rec.trace(f"campaign:{record_key(config)}"):
        with ctx.rec.span("faults.run_campaign", "faults", injections=config.injections):
            started = clock()
            report = run_campaign(config)
            elapsed = clock() - started
    return report, elapsed


def check_campaign(ctx, config: CampaignConfig, report) -> None:
    """Count every trial; a CRASH/INFRA_ERROR trial or a drifted run fails."""
    for index, result in enumerate(report.results):
        ctx.tally.check(
            result.outcome not in BROKEN,
            f"trial {index} ({result.benchmark}): {result.outcome.value} {result.detail}",
        )
    for name, golden in report.golden.items():
        ctx.tally.invariant(
            golden.result == ctx.expected["programs"][name]["value"],
            f"golden run of {name} returned {golden.result}",
        )
    recorded = ctx.expected["campaign"].get(record_key(config))
    if recorded is not None:
        counts = {o.value: n for o, n in sorted(report.outcome_counts().items(),
                                                 key=lambda item: item[0].value)}
        ctx.tally.invariant(
            report.fingerprint() == recorded["fingerprint"] and counts == recorded["outcomes"],
            f"campaign {record_key(config)}: fingerprint/outcomes differ from record",
        )
    ctx.campaign_checked[record_key(config)] = recorded is not None


def campaign_group(ctx, configs: list[CampaignConfig]) -> Group:
    """One step per campaign; trials_per_s = all injections / all wall time."""
    walls: list[float] = []
    reports = []

    def step(config: CampaignConfig) -> None:
        report, elapsed = timed_campaign(ctx, config)
        check_campaign(ctx, config, report)
        walls.append(elapsed)
        reports.append(report)

    def finish() -> None:
        injections = sum(config.injections for config in configs)
        ctx.e2e.put("trials_per_s", injections / sum(walls), "trials/s")
        if ctx.traced:
            campaign_layers(ctx, configs[0], reports[0], walls[0])

    return Group([partial(step, config) for config in configs], finish)


def repeat(ctx) -> None:
    """Run the first companion campaign; it must repeat its recorded
    fingerprint exactly (tracing overhead)."""
    config = COMPANION[0]
    report, _ = timed_campaign(ctx, config)
    ctx.tally.invariant(
        report.fingerprint() == ctx.expected["campaign"][record_key(config)]["fingerprint"],
        f"campaign {record_key(config)} did not repeat exactly",
    )


# -- traced run only ------------------------------------------------------------


def campaign_layers(ctx, config: CampaignConfig, report, elapsed: float) -> None:
    """Golden and trial replays through public calls, plus outcome counts."""
    layer = ctx.layer
    golden_s = 0.0
    states = {}
    for name in config.benchmarks:
        with ctx.rec.trace(f"golden:{name}"):
            started = clock()
            with ctx.rec.span("faults.golden", "faults", benchmark=name):
                with ctx.rec.span("workloads.compile_cached", "workloads"):
                    compiled = compile_cached(benchmark(name).source)
                with ctx.rec.span("asm.load", "asm"):
                    machine = compiled.make_machine()
                pcs: Counter = Counter()

                def record_pc(m, pcs=pcs):
                    pcs[m.pc] += 1

                machine.observers.subscribe("pre_step", record_pc)
                with ctx.rec.span("cpu.run", "cpu", kind="golden"):
                    machine.run(compiled.program.entry)
            golden_s += clock() - started
        golden = report.golden[name]
        ctx.tally.invariant(
            machine.halted is HaltReason.RETURNED
            and to_signed(machine.result) == golden.result
            and machine.stats.instructions == golden.instructions
            and tuple(sorted(pcs.items())) == golden.sites.pcs,
            f"golden replay of {name} differs from the campaign's golden run",
        )
        replay = compiled.make_machine()
        replay.reset(compiled.program.entry)
        states[name] = (replay, replay.checkpoint(track_memory_deltas=True), compiled)
    layer.put("faults.golden_ms", golden_s * 1e3, "ms")

    steps, trial_s = 0, 0.0
    for index, result in enumerate(report.results[:REPLAYED_TRIALS]):
        machine, checkpoint, compiled = states[result.benchmark]
        golden = report.golden[result.benchmark]
        budget = int(golden.instructions * config.step_budget_factor)
        budget += config.step_budget_slack
        with ctx.rec.trace(f"trial:{index}"):
            with ctx.rec.span("faults.trial", "faults", benchmark=result.benchmark):
                with ctx.rec.span("cpu.restore", "cpu"):
                    started = clock()
                    machine.restore(checkpoint)
                    ctx.layer_samples.setdefault("restore", []).append(
                        clock() - started
                    )
                started = clock()
                injector = FaultInjector(machine, [result.spec])
                injector.attach()
                count = 0
                try:
                    with ctx.rec.span("cpu.step", "cpu"):
                        while machine.halted is None and count < budget:
                            machine.step()
                            count += 1
                finally:
                    injector.detach()
                trial_s += clock() - started
        steps += count
        ctx.tally.invariant(
            count == result.instructions,
            f"trial {index} replay ran {count} steps, campaign ran {result.instructions}",
        )
    if trial_s:
        layer.put("faults.trial_steps_per_s", steps / trial_s, "steps/s")
    layer.put("faults.mean_trial_steps",
              sum(r.instructions for r in report.results) / len(report.results), "steps")
    counts = report.outcome_counts()
    for outcome in (Outcome.MASKED, Outcome.DETECTED, Outcome.SILENT_CORRUPTION,
                    Outcome.TIMEOUT):
        layer.put(f"faults.outcome.{outcome.value}", counts.get(outcome, 0), "count")
    layer.put("faults.trials", len(report.results), "count")
    ctx.detail["campaign"] = {
        "config": record_key(config),
        "fingerprint": report.fingerprint(),
        "wall_s": elapsed,
        "golden_replay_s": golden_s,
        "replayed_trials": min(REPLAYED_TRIALS, len(report.results)),
        "restore_us_median": median(ctx.layer_samples["restore"]) * 1e6,
    }
