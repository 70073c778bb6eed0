"""Programs layer group: compile, cold/warm/reference runs, and SMP scenarios.

Every workload runs this group over all 16 bundled programs and every
multicore scenario at 2 and 4 cores, so that every run reports every
metric.  An untraced run times the reference oracle on
:data:`REF_PROGRAMS` only: all 16 take ~25 s there, too long to repeat
in every run of every workload.  Every run's ExecutionStats are
checked against the oracle's, recorded by ``record.py``; the traced run
runs all 16 on every tier.

Tiers are resolved only through the engine registry:
``fastest_scalar_engine()`` is the single-core auto tier, the last
entry of ``smp_engine_names()`` the SMP auto tier, and the first entry
of ``engine_names(scalar_only=True)`` the reference oracle.
"""

from __future__ import annotations

import random
import time
from functools import partial

from repro import HaltReason
from repro.asm import assemble
from repro.cc import CompiledRisc, compile_for_risc, lower_program, optimize_program
from repro.cc.riscgen import generate_program
from repro.common.bitops import to_signed
from repro.cpu.engines import engine_names, fastest_scalar_engine, smp_engine_names
from repro.hll import analyze, parse_program
from repro.multicore import MulticoreSimulator, build_scenario, scenario, scenario_names
from repro.workloads import BENCHMARKS
from repro.workloads.extended import EXTENDED_BENCHMARKS

from common import HOST, MAX_STEPS, Group, clock, geomean, median, repetitions, spread

#: the 11 paper programs plus the 5 extended ones, by name
ALL_PROGRAMS = {bench.name: bench for bench in [*BENCHMARKS, *EXTENDED_BENCHMARKS]}
#: programs an untraced run times on the oracle (ref_kips): the six
#: shortest after fib_iter (376 instructions, too few to time), ~5 s there
REF_PROGRAMS = ("towers", "ackermann", "e_string_search", "puzzle_pointer",
                "puzzle_subscript", "crc")
SMP_CORES = (2, 4)
#: compiles per program; compile_ms takes their median
COMPILE_RUNS = 3
#: instructions the warm auto-tier runs, the oracle runs and the SMP runs
#: of one program or scenario retire together (see common.repetitions)
WARM_INSTRUCTIONS = 150_000
ORACLE_INSTRUCTIONS = 60_000
SMP_INSTRUCTIONS = 20_000


def oracle_engine() -> str:
    """The reference tier: registry tier order puts the oracle first."""
    return engine_names(scalar_only=True)[0]


def smp_auto_engine() -> str:
    """The fastest tier legal under the multicore interleaver."""
    return smp_engine_names()[-1]


def smp_cases() -> list[tuple[str, int]]:
    return [(name, cores) for name in scenario_names() for cores in SMP_CORES]


def compile_program(ctx, bench) -> tuple[CompiledRisc, float]:
    """One uncached compile; returns the image and its wall time.

    Untraced this is one ``compile_for_risc`` call.  Traced, the same
    pipeline runs stage by stage through the public entry points, with a
    span per stage, and must produce the identical assembly.
    """
    if not ctx.traced:
        started = clock()
        compiled = compile_for_risc(bench.source)
        return compiled, clock() - started
    rec = ctx.rec
    started = clock()
    with rec.span("compile", "bench", program=bench.name):
        with rec.span("hll.parse", "hll"):
            tree = parse_program(bench.source)
        with rec.span("hll.sema", "hll"):
            checked = analyze(tree)
        with rec.span("cc.lower", "cc"):
            ir = lower_program(checked)
        with rec.span("cc.optimize", "cc"):
            optimize_program(ir)
        with rec.span("cc.codegen", "cc"):
            codegen = generate_program(ir, use_windows=True, optimize_delay_slots=True)
        with rec.span("asm.assemble", "asm"):
            program = assemble(codegen.source)
    elapsed = clock() - started
    compiled = CompiledRisc(
        asm_source=codegen.source, program=program, codegen=codegen, use_windows=True
    )
    ctx.tally.invariant(
        compiled.asm_source == compile_for_risc(bench.source).asm_source,
        f"{bench.name}: staged compile differs from compile_for_risc",
    )
    return compiled, elapsed


def run_image(ctx, name: str, compiled, engine: str, kind: str, *, checkpoint=False):
    """Load *compiled* on a fresh machine, run and check it.

    Returns the machine, the run's seconds and its ExecutionStats as a
    dict.  With *checkpoint* the machine is checkpointed (delta-tracked)
    before the run and restored after it, timing the restore.
    """
    rec = ctx.rec
    with rec.span("asm.load", "asm", program=name):
        machine = compiled.make_machine(engine=engine)
    cp = None
    if checkpoint:
        machine.reset(compiled.program.entry)
        cp = machine.checkpoint(track_memory_deltas=True)
    with rec.span("cpu.run", "cpu", program=name, engine=engine, kind=kind):
        started = clock()
        machine.run(compiled.program.entry, max_steps=MAX_STEPS)
        elapsed = clock() - started
    check_run(ctx, name, machine, kind)
    stats = machine.stats.as_dict()
    if cp is not None:
        with rec.span("cpu.restore", "cpu", program=name):
            started = clock()
            machine.restore(cp)
            ctx.layer_samples.setdefault("restore", []).append(
                clock() - started
            )
    return machine, elapsed, stats


def check_run(ctx, name: str, machine, kind: str) -> None:
    """Count one run; it fails unless it returned the interpreter's value
    with the ExecutionStats of the recorded oracle run."""
    want = ctx.expected["programs"][name]
    got = to_signed(machine.result) if machine.halted is HaltReason.RETURNED else None
    ctx.tally.check(
        got == want["value"] and machine.stats.as_dict() == want["stats"],
        f"{name} {kind} on {machine.engine_name}: halt={machine.halted} "
        f"result={got} instructions={machine.stats.instructions}, "
        f"want {want['value']} in {want['instructions']} (or other stats differ)",
    )


def measure_program(ctx, name: str, rows: dict, *, on_oracle: bool = True) -> None:
    """Compile *name*, run it cold, warm and (if *on_oracle*) on the oracle;
    fills rows[name]."""
    auto = fastest_scalar_engine()
    oracle = oracle_engine()
    bench = ALL_PROGRAMS[name]
    with ctx.rec.trace(f"program:{name}"):
        compiles = []
        for _ in range(COMPILE_RUNS):
            compiled, elapsed = compile_program(ctx, bench)
            compiles.append(elapsed)
        cold_machine, cold_s, auto_stats = run_image(ctx, name, compiled, auto, "cold")

        def warm_once():
            return run_image(ctx, name, compiled, auto, "warm")[1]

        instructions = ctx.expected["programs"][name]["instructions"]
        HOST.sample()  # the phases of a step are long enough to drift apart
        warm = [warm_once() for _ in range(
            repetitions(instructions, WARM_INSTRUCTIONS, least=3, most=60))]
        ref = []
        oracle_runs = repetitions(instructions, ORACLE_INSTRUCTIONS, least=1, most=30)
        if on_oracle:
            HOST.sample()
        for index in range(oracle_runs if on_oracle else 0):
            elapsed = run_image(
                ctx, name, compiled, oracle, "oracle", checkpoint=ctx.traced and not index,
            )[1]
            ref.append(elapsed)
    rows[name] = {
        "instructions": ctx.expected["programs"][name]["instructions"],
        "compile_s": median(compiles),
        "cold_s": cold_s,
        "warm_s": median(warm),
        "ref_s": median(ref) if ref else None,
        "ref_runs": ref,
        "cold_machine": cold_machine,
        "stats": auto_stats,
        "compiled": compiled,
        "image_bytes": compiled.code_size_bytes,
    }


def run_smp(ctx, name: str, cores: int, engine: str):
    program = build_scenario(name)
    with ctx.rec.span("multicore.run", "multicore", scenario=name, cores=cores,
                      engine=engine):
        sim = MulticoreSimulator(program, num_cores=cores, engine=engine)
        sim.run()
    return sim


def check_smp(ctx, name: str, cores: int, sim, *, fingerprint: bool) -> None:
    """Count one SMP run against validate() and the recorded run."""
    want = ctx.expected["smp"][f"{name}:{cores}"]
    problems = scenario(name).validate(sim.results, cores)
    ok = (
        not problems
        and not sim.watchdog_expired
        and sim.total_instructions == want["total_instructions"]
        and len(sim.schedule) == want["slices"]
    )
    if ok and fingerprint:
        ok = sim.fingerprint(workload=name) == want["fingerprint"]
    ctx.tally.check(
        ok, f"smp {name}x{cores} on {sim.engine}: {problems or 'run differs from record'}"
    )


def measure_smp_case(ctx, name: str, cores: int, out: dict) -> None:
    """Run one scenario x core count on the SMP auto tier; fills out[case]."""
    engine = smp_auto_engine()
    with ctx.rec.trace(f"smp:{name}:{cores}"):
        if name not in ctx.smp_built:
            with ctx.rec.span("multicore.build", "multicore", scenario=name):
                started = clock()
                build_scenario(name)
                ctx.smp_built[name] = clock() - started
        durations = []
        runs = repetitions(ctx.expected["smp"][f"{name}:{cores}"]["total_instructions"],
                           SMP_INSTRUCTIONS, least=3, most=60)
        for index in range(runs):
            started = clock()
            sim = run_smp(ctx, name, cores, engine)
            durations.append(clock() - started)
            check_smp(ctx, name, cores, sim, fingerprint=index == 0)
    out[(name, cores)] = {
        "kips": sim.total_instructions / median(durations) / 1000.0,
        "sim": sim,
    }


def programs_group(ctx) -> Group:
    """The programs group: one step per program and one per SMP case."""
    rows: dict[str, dict] = {}
    smp: dict = {}
    order = list(ALL_PROGRAMS)
    random.Random(ctx.seed).shuffle(order)
    cases = smp_cases()
    random.Random(ctx.seed).shuffle(cases)
    steps = spread(
        [partial(measure_program, ctx, name, rows,
                 on_oracle=ctx.traced or name in REF_PROGRAMS)
         for name in order],
        [partial(measure_smp_case, ctx, name, cores, smp) for name, cores in cases],
    )

    def finish() -> None:
        def kips(key):
            return geomean(r["instructions"] / r[key] for r in rows.values()
                           if r[key] is not None) / 1000.0

        ctx.e2e.put("compile_ms",
                    geomean(r["compile_s"] for r in rows.values()) * 1e3, "ms")
        ctx.e2e.put("cold_kips", kips("cold_s"), "kinstr/s")
        ctx.e2e.put("warm_kips", kips("warm_s"), "kinstr/s")
        ctx.e2e.put("ref_kips", kips("ref_s"), "kinstr/s")
        ctx.e2e.put("smp_kips", geomean(c["kips"] for c in smp.values()), "kinstr/s")
        ctx.program_rows = rows
        if ctx.traced:
            programs_layers(ctx, rows, smp)

    return Group(steps, finish)


def warm_pass(ctx) -> None:
    """One more warm auto-tier run of every program (tracing overhead)."""
    auto = fastest_scalar_engine()
    for name, row in ctx.program_rows.items():
        with ctx.rec.trace(f"program:{name}"):
            _, _, stats = run_image(ctx, name, row["compiled"], auto, "warm")
        ctx.tally.invariant(
            stats == row["stats"],
            f"{name}: a repeated run's ExecutionStats differ",
        )


# -- traced run only ------------------------------------------------------------


def programs_layers(ctx, rows: dict, smp: dict) -> None:
    """Per-layer metrics and the per-program x per-tier table."""
    auto = fastest_scalar_engine()
    oracle = oracle_engine()
    layer = ctx.layer
    # translation: cold minus warm on the auto tier, plus engine counters
    translate = {name: (r["cold_s"] - r["warm_s"]) * 1e3 for name, r in rows.items()}
    engine_counts: dict[str, int] = {}
    for r in rows.values():
        for key, value in r["cold_machine"].engine.telemetry_snapshot().items():
            if isinstance(value, int) and not isinstance(value, bool):
                engine_counts[key] = engine_counts.get(key, 0) + value
    layer.put("cpu.translate_ms", sum(translate.values()), "ms")
    for key in ("traces_compiled", "instructions_compiled", "traces_invalidated"):
        if key in engine_counts:
            layer.put(f"cpu.{key}", engine_counts[key], "count")
    layer.put("cpu.cold_ms", sum(r["cold_s"] for r in rows.values()) * 1e3, "ms")
    layer.put("cpu.warm_ms", sum(r["warm_s"] for r in rows.values()) * 1e3, "ms")
    layer.put("asm.image_bytes", sum(r["image_bytes"] for r in rows.values()), "bytes")

    # run manifests of the cold auto-tier runs
    manifest_s, fingerprint_s, manifest_bytes = [], [], 0
    for name, r in rows.items():
        machine = r["cold_machine"]
        with ctx.rec.trace(f"program:{name}"):
            with ctx.rec.span("telemetry.manifest", "telemetry", program=name):
                started = clock()
                manifest = machine.run_manifest(
                    workload=name, entry=r["compiled"].program.entry
                )
                manifest_s.append(clock() - started)
            with ctx.rec.span("telemetry.fingerprint", "telemetry", program=name):
                started = clock()
                manifest.fingerprint()
                fingerprint_s.append(clock() - started)
        manifest_bytes += len(manifest.canonical_json())
    ctx.layer_samples.setdefault("manifest", []).extend(manifest_s)
    ctx.layer_samples.setdefault("fingerprint", []).extend(fingerprint_s)
    ctx.layer_samples.setdefault("manifest_bytes", []).append(manifest_bytes)

    # every other scalar tier: one cold and one warm run per program
    table = {
        name: {
            "instructions": r["instructions"],
            "reference_ms": r["ref_s"] * 1e3,
            auto: {"cold_ms": r["cold_s"] * 1e3, "warm_ms": r["warm_s"] * 1e3},
            # the oracle keeps no state across machines: every run is cold
            oracle: {"cold_ms": r["ref_runs"][0] * 1e3, "warm_ms": r["ref_s"] * 1e3},
        }
        for name, r in rows.items()
    }
    for tier in engine_names(scalar_only=True):
        if tier in (auto, oracle):
            continue
        for name, r in rows.items():
            with ctx.rec.trace(f"program:{name}"):
                cells = {}
                for kind in ("cold", "warm"):
                    _, elapsed, stats = run_image(ctx, name, r["compiled"], tier, kind)
                    ctx.tally.invariant(stats == r["stats"],
                                        f"{name}: {tier} ExecutionStats differ")
                    cells[f"{kind}_ms"] = elapsed * 1e3
            table[name][tier] = cells
    tier_kips = {}
    for tier in engine_names(scalar_only=True):
        tier_kips[tier] = geomean(
            row["instructions"] / row[tier]["warm_ms"] for row in table.values()
        )
    for tier, value in tier_kips.items():
        ctx.detail_metrics[f"cpu.tier.{tier}.kips"] = value
    for name, value in translate.items():
        ctx.detail_metrics[f"cpu.translate_ms.{name}"] = value
        ctx.detail_metrics[f"cpu.cold_ms.{name}"] = table[name][auto]["cold_ms"]
        ctx.detail_metrics[f"cpu.warm_ms.{name}"] = table[name][auto]["warm_ms"]
    layer.put("cpu.tier.auto.kips", tier_kips[auto], "kinstr/s")
    layer.put("cpu.tier.oracle.kips", tier_kips[oracle], "kinstr/s")

    # SMP: every legal tier, one run per case; fingerprints must agree
    smp_table: dict[str, dict] = {}
    smp_auto = smp_auto_engine()
    for tier in smp_engine_names():
        kips = {}
        for (name, cores), cell in smp.items():
            if tier == smp_auto:
                kips[f"{name}:{cores}"] = cell["kips"]
                continue
            with ctx.rec.trace(f"smp:{name}:{cores}"):
                started = clock()
                sim = run_smp(ctx, name, cores, tier)
                elapsed = clock() - started
            check_smp(ctx, name, cores, sim, fingerprint=True)
            kips[f"{name}:{cores}"] = sim.total_instructions / elapsed / 1000.0
        smp_table[tier] = kips
        ctx.detail_metrics[f"multicore.tier.{tier}.kips"] = geomean(kips.values())
    layer.put("multicore.tier.auto.kips", ctx.detail_metrics[f"multicore.tier.{smp_auto}.kips"],
              "kinstr/s")
    layer.put("multicore.tier.oracle.kips",
              ctx.detail_metrics[f"multicore.tier.{smp_engine_names()[0]}.kips"], "kinstr/s")
    sims = [cell["sim"] for cell in smp.values()]
    layer.put("multicore.slices", sum(len(sim.schedule) for sim in sims), "count")
    layer.put("multicore.interrupts_delivered",
              sum(sim.device.counters_snapshot()["interrupts_delivered"] for sim in sims),
              "count")
    layer.put("multicore.build_ms", sum(ctx.smp_built.values()) * 1e3, "ms")
    ctx.detail["multicore_counters"] = {
        f"{name}:{cores}": {
            "slices": len(cell["sim"].schedule),
            **{k: v for k, v in cell["sim"].device.counters_snapshot().items()
               if k != "latency_samples"},
        }
        for (name, cores), cell in smp.items()
    }
    ctx.detail["tier_table"] = table
    ctx.detail["smp_tier_kips"] = smp_table
    ctx.detail["inversions"] = inversions(table, smp_table)


def inversions(table: dict, smp_table: dict) -> list[str]:
    """Cases where a higher registry tier is slower than a lower one."""
    tiers = engine_names(scalar_only=True)
    found = []
    for name, row in sorted(table.items()):
        for kind in ("cold_ms", "warm_ms"):
            for low, high in zip(tiers[1:], tiers[2:]):
                if row[high][kind] > row[low][kind]:
                    found.append(
                        f"{name} {kind[:-3]}: {high} {row[high][kind]:.1f} ms > "
                        f"{low} {row[low][kind]:.1f} ms"
                    )
    smp_tiers = smp_engine_names()
    oracle, top = smp_tiers[0], smp_tiers[-1]
    slower = geomean(smp_table[top].values()) < geomean(smp_table[oracle].values())
    if slower:
        found.append(
            f"smp: {top} {geomean(smp_table[top].values()):.1f} kips < "
            f"{oracle} {geomean(smp_table[oracle].values()):.1f} kips"
        )
    return found
