"""Re-derive the benchmark's recorded expectations (``expected.json``).

Usage (from the root of a checkout)::

    python3 perfbench/record.py [--campaign-seeds 0-24]

* ``programs``: each program's value from the Mini-C interpreter
  (:mod:`repro.hll`, independent of the compiler) and its ExecutionStats
  on the reference tier (every run of every tier must reproduce them).
* ``smp``: each scenario x core count on the reference tier - total
  instructions, scheduler slices, device counters and the composed
  fingerprint every SMP tier must reproduce.
* ``campaign``: fingerprint and outcome counts of the companion campaign
  and of the ``campaign`` workload's campaigns for each listed seed.

Existing entries are kept unless re-derived.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import EXPECTED_PATH, SRC

sys.path.insert(0, str(SRC))

import campaign  # noqa: E402
import programs  # noqa: E402
from repro.common.bitops import to_signed  # noqa: E402
from repro.cpu.engines import smp_engine_names  # noqa: E402
from repro.faults import run_campaign  # noqa: E402
from repro.hll import run_program  # noqa: E402
from repro.multicore import MulticoreSimulator, build_scenario  # noqa: E402


def interpreter_values() -> dict[str, int]:
    """Every program's result from the Mini-C reference interpreter."""
    return {
        name: run_program(bench.source, max_ops=50_000_000).value
        for name, bench in programs.ALL_PROGRAMS.items()
    }


def record_programs() -> dict:
    from repro.cc import compile_for_risc

    values = interpreter_values()
    out = {}
    for name, bench in programs.ALL_PROGRAMS.items():
        compiled = compile_for_risc(bench.source)
        machine = compiled.make_machine(engine=programs.oracle_engine())
        machine.run(compiled.program.entry, max_steps=50_000_000)
        if to_signed(machine.result) != values[name]:
            raise SystemExit(f"{name}: compiled result disagrees with the interpreter")
        out[name] = {"value": values[name], "instructions": machine.stats.instructions,
                     "stats": machine.stats.as_dict()}
    return out


def record_smp() -> dict:
    out = {}
    for name, cores in programs.smp_cases():
        sim = MulticoreSimulator(
            build_scenario(name), num_cores=cores, engine=smp_engine_names()[0]
        )
        sim.run()
        counters = sim.device.counters_snapshot()
        out[f"{name}:{cores}"] = {
            "total_instructions": sim.total_instructions,
            "slices": len(sim.schedule),
            "interrupts_delivered": counters["interrupts_delivered"],
            "fingerprint": sim.fingerprint(workload=name),
        }
    return out


def record_campaign(config) -> dict:
    report = run_campaign(config)
    return {
        "fingerprint": report.fingerprint(),
        "outcomes": {o.value: n for o, n in sorted(report.outcome_counts().items(),
                                                    key=lambda item: item[0].value)},
    }


def save(expected: dict) -> None:
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="re-derive perfbench/expected.json")
    parser.add_argument("--campaign-seeds", type=seed_range, default=[],
                        help="seed range (e.g. 0-19) of the campaign workload to record")
    args = parser.parse_args(argv)
    try:
        with open(EXPECTED_PATH) as handle:
            expected = json.load(handle)
    except FileNotFoundError:
        expected = {"programs": {}, "smp": {}, "campaign": {}}
    expected["programs"] = record_programs()
    expected["smp"] = record_smp()
    for config in campaign.COMPANION:
        expected["campaign"][campaign.record_key(config)] = record_campaign(config)
    for seed in args.campaign_seeds:
        for config in campaign.primary_configs(seed):
            expected["campaign"][campaign.record_key(config)] = record_campaign(config)
        print(f"recorded the campaigns of seed {seed}", file=sys.stderr)
        save(expected)
    save(expected)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
