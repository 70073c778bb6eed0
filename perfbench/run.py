"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload programs --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``programs`` - the 16 bundled programs: uncached compile, one cold and
  repeated warm runs on the auto tier, reference runs of six of them;
  then the five multicore scenarios at 2 and 4 cores on the SMP auto tier.
* ``campaign`` - serial fault campaigns seeded from ``--seed``.
* ``service`` - a closed loop of two clients against ``python -m
  repro.service`` (mostly store hits, some misses, a few ad-hoc sources).

Each workload runs its own group at full size and the other two groups
at companion size, so that every run reports every end-to-end metric;
the companion groups use fixed inputs.  ``setup_s`` is the median of
several fresh set-ups, spread over the run like a companion group.
``--seconds`` sizes the service stream; the program and campaign groups
do a fixed amount of work.  With ``--trace 0`` the last
stdout line is the JSON result with the end-to-end metrics; ``--trace 1``
is a separate traced run that reports the per-layer metrics, writes all
spans plus the per-program x per-tier table to ``.perfbench/`` and
measures the tracing overhead.  Progress and tables go to stderr.

Every time and rate is read off ``common.HostClock``, which runs at
nominal host speed: a fixed calibration kernel is timed before each
step, and the clock's rate divides out the drift of a shared host, which
otherwise moves all metrics of a run together.  Service replies divide
out the geometric mean of that drift and the drift of a pipe round trip
to an echo process (process wake-ups).  The run's median factors are
printed to stderr.

The program under test is imported from ``src/`` of the checkout and
driven only through public entry points; tiers are resolved through the
engine registry, never named.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import (
    HOST, ROOT, SRC, Group, Metrics, Tally, clock, interleave, load_expected, median, peak_rss_mb,
    work_dir,
)
from spans import NullRecorder, SpanRecorder, self_times

sys.path.insert(0, str(SRC))
try:
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro resolves to {repro.__file__}")
    import campaign
    import programs
    import service
    from repro.cpu.engines import engine_names
    from repro.workloads import compile_cache_info
except ImportError as error:  # not a checkout of the repository
    print(f"perfbench: cannot import the program under test from {SRC}: {error}",
          file=sys.stderr)
    raise SystemExit(2) from None

WORKLOADS = ("programs", "campaign", "service")
#: fresh set-ups timed for setup_s (its median is reported)
SETUP_PROBES = 5
#: untraced/traced pairs the tracing overhead is the median difference of
OVERHEAD_PAIRS = 3
LAYERS = ("hll", "cc", "asm", "workloads", "cpu", "faults", "telemetry", "service",
          "multicore")


class Context:
    """What one run measures into, checks against and records spans with."""

    def __init__(self, seed: int, seconds: int, traced: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.rec = SpanRecorder() if traced else NullRecorder()
        self.tally = Tally()
        self.expected = load_expected()
        self.e2e = Metrics()
        self.layer = Metrics()
        self.detail: dict = {}
        self.detail_metrics: dict = {}
        self.layer_samples: dict[str, list] = {}
        self.smp_built: dict[str, float] = {}
        self.campaign_checked: dict[str, bool] = {}
        self.service_compile_cache: dict | None = None
        self.program_rows: dict = {}

    def note(self, text: str) -> None:
        print(f"perfbench: {text}", file=sys.stderr, flush=True)

    def tracing_overhead(self, operation) -> None:
        """Run *operation* once to warm up, then untraced and traced in
        turn; report the median of the traced-minus-untraced times."""
        recorder = self.rec

        def seconds(traced: bool) -> float:
            self.rec = recorder if traced else NullRecorder()
            try:
                started = clock()
                operation()
                return clock() - started
            finally:
                self.rec = recorder

        seconds(False)
        pairs = [(seconds(False), seconds(True)) for _ in range(OVERHEAD_PAIRS)]
        self.layer.put("tracing.overhead_ms",
                       median(traced - untraced for untraced, traced in pairs) * 1e3, "ms")
        self.layer.put("tracing.untraced_ms",
                       median(untraced for untraced, _ in pairs) * 1e3, "ms")


def setup_probe_seconds() -> float:
    """Seconds from spawning a fresh interpreter until it has imported the
    benchmark and the program under test and loaded the expectations."""
    started = clock()
    child = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-probe"],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = clock() - started
    finally:
        child.stdout.close()
        child.wait(60)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"setup probe failed: {line!r} (exit {child.returncode})")
    return elapsed


def setup_seconds(workload: str, tag: str):
    """One fresh set-up: a new interpreter, plus for ``service`` a server
    start and its warm-up job.  Returns (seconds, server or None)."""
    seconds = setup_probe_seconds()
    if workload != "service":
        return seconds, None
    server, start_s = service.start_server(tag)
    return seconds + start_s, server


def setup_group(ctx, workload: str, first: float) -> Group:
    """The rest of the setup_s samples, one per step, interleaved with the
    run's other groups so that their median samples the whole run."""
    samples = [first]

    def probe() -> None:
        seconds, server = setup_seconds(workload, "setup")
        if server is not None:
            server.stop()
        samples.append(seconds)

    def finish() -> None:
        ctx.e2e.put("setup_s", median(samples), "s")
        ctx.detail["setup_samples_s"] = samples

    return Group([probe] * (SETUP_PROBES - 1), finish)


def run_workload(ctx, workload: str) -> None:
    first, server = setup_seconds(workload, "primary")
    groups = []
    try:
        setup = setup_group(ctx, workload, first)
        if workload == "programs":
            groups = [programs.programs_group(ctx),
                      campaign.campaign_group(ctx, campaign.COMPANION),
                      service.service_group(ctx, service.COMPANION)]
        elif workload == "campaign":
            groups = [campaign.campaign_group(ctx, campaign.primary_configs(ctx.seed)),
                      programs.programs_group(ctx),
                      service.service_group(ctx, service.COMPANION)]
        else:
            groups = [service.service_group(ctx, service.primary_shape(ctx.seconds),
                                             server=server),
                      programs.programs_group(ctx),
                      campaign.campaign_group(ctx, campaign.COMPANION)]
        interleave(groups[0], [*groups[1:], setup])
        if workload != "service":
            ctx.e2e.put("peak_rss_mb", peak_rss_mb(), "MB")
        if ctx.traced and workload == "programs":
            ctx.tracing_overhead(lambda: programs.warm_pass(ctx))
        if ctx.traced and workload == "campaign":
            ctx.tracing_overhead(lambda: campaign.repeat(ctx))
    finally:
        for group in groups:
            group.close()
        if server is not None:
            server.stop()


def finish_layers(ctx, workload: str) -> None:
    """Per-layer metrics derived from spans, samples and cache counters."""
    rec, layer = ctx.rec, ctx.layer
    for name in ("hll.parse", "hll.sema", "cc.lower", "cc.optimize", "cc.codegen",
                 "asm.assemble"):
        layer.put(f"{name}_ms", sum(rec.durations(name)) * 1e3 / programs.COMPILE_RUNS, "ms")
    layer.put("asm.load_ms", median(rec.durations("asm.load")) * 1e3, "ms")
    layer.put("cpu.restore_us", median(ctx.layer_samples["restore"]) * 1e6, "us")
    layer.put("telemetry.manifest_ms", median(ctx.layer_samples["manifest"]) * 1e3, "ms")
    layer.put("telemetry.fingerprint_us", median(ctx.layer_samples["fingerprint"]) * 1e6, "us")
    layer.put("telemetry.manifest_bytes", sum(ctx.layer_samples["manifest_bytes"]), "bytes")
    if workload == "service":
        cache, where = ctx.service_compile_cache, "busiest service worker"
    else:
        cache, where = compile_cache_info(), "benchmark process"
    lookups = cache["hits"] + cache["misses"]
    layer.put("workloads.compile_cache.hits", cache["hits"], "count")
    layer.put("workloads.compile_cache.misses", cache["misses"], "count")
    layer.put("workloads.compile_cache.lookups", lookups, "count")
    layer.put("workloads.compile_cache.hit_ratio",
              cache["hits"] / lookups if lookups else 0.0, "ratio")
    ctx.detail["compile_cache"] = {"source": where, **cache}
    totals = self_times(rec.spans)
    for name in LAYERS:
        layer.put(f"self_ms.{name}", totals.get(name, 0.0) * 1e3, "ms")
    layer.put("tracing.spans", len(rec.spans), "count")


def report_tables(ctx) -> None:
    table = ctx.detail.get("tier_table")
    if not table:
        return
    tiers = engine_names(scalar_only=True)
    ctx.note("per-program cold/warm ms by tier: " + ", ".join(tiers))
    for name, row in sorted(table.items()):
        cells = "  ".join(f"{row[t]['cold_ms']:8.1f}/{row[t]['warm_ms']:7.1f}" for t in tiers)
        ctx.note(f"  {name:18s} {cells}")
    for tier, kips in ctx.detail["smp_tier_kips"].items():
        ctx.note(f"smp {tier}: " + ", ".join(f"{k} {v:.0f}" for k, v in kips.items()))
    for line in ctx.detail["inversions"]:
        ctx.note(f"inversion: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        load_expected()
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    # Terminated like interrupted: unwind, so the service processes stop.
    # Installing the handlers also undoes an inherited "ignore SIGINT"
    # (background jobs get one), which the server needs to shut down.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    ctx = Context(args.seed, args.seconds, bool(args.trace))
    started = time.perf_counter()
    try:
        run_workload(ctx, args.workload)
    finally:
        HOST.close()
    if ctx.traced:
        finish_layers(ctx, args.workload)
        report_tables(ctx)
    elapsed = time.perf_counter() - started
    metrics = ctx.layer if ctx.traced else ctx.e2e
    factor, wakeup = HOST.mean_factors()
    ctx.detail["host_speed_factor"] = factor
    ctx.detail["host_wakeup_factor"] = wakeup
    ctx.note(f"host speed factor {factor:.4f}, wake-up factor {wakeup:.4f} (medians of "
             f"{len(HOST.samples)} calibration passes and {len(HOST.wakeups)} round trips "
             "over nominal); times and rates below are at nominal speed")
    for name, entry in metrics.values.items():
        ctx.note(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for problem in ctx.tally.problems:
        ctx.note(f"FAILED: {problem}")
    unchecked = [key for key, checked in ctx.campaign_checked.items() if not checked]
    if unchecked:
        ctx.note(f"no recorded fingerprint for campaign(s) {unchecked}; "
                 "checked for crashes and goldens only")
    ctx.note(f"{args.workload} seed {args.seed}: {ctx.tally.attempted} operations, "
             f"{ctx.tally.failed} failed, {elapsed:.1f} s")
    if ctx.traced:
        path = work_dir() / f"trace-{args.workload}-seed{args.seed}.json"
        ctx.rec.write(str(path), {
            "workload": args.workload,
            "seed": args.seed,
            "per_layer": ctx.layer.as_dict(),
            "detail_metrics": ctx.detail_metrics,
            "detail": ctx.detail,
        })
        ctx.note(f"spans written to {path}")
    print(json.dumps({
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": metrics.as_dict(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
