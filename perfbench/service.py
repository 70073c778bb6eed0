"""Service layer group: a closed loop of two clients against the server.

The server runs as its own process (``python -m repro.service``) over a
fresh manifest store under the checkout, with two pool workers and no
rate limit.  Each of the two keep-alive clients sends its next job only
after the previous reply.  A client's stream is built from the seed in
blocks: one new ``(workload, seed)`` key per miss workload, ad-hoc
``source`` variants of a few programs (new code, so they also compile
and translate), and repeats of keys the same client already completed
(store hits).  Every job uses ``engine: "auto"``.  Every seed sends the
same jobs in another order, with other keys.

Before the first block both clients send, untimed, one job of every
miss workload in the same order, so that each pool worker serves each
workload once and the timed new-key misses find warm caches.

The ``service`` workload runs the full stream; the other workloads run
:data:`COMPANION`, a smaller stream on fixed inputs.

The group's steps are blocks: both clients run one block each, then the
runner may interleave another group's step.  Throughput counts only the
time during which both clients had a job in flight, so the drain at the
end of each block (one client idle while the other finishes its last
job) does not dilute ``jobs_per_s``; latencies count every response.
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import partial

from repro.service import JobSpec, ManifestStore, ServiceClient
from repro.telemetry.manifest import RunManifest
from repro.workloads import BENCHMARKS, benchmark

from common import (
    SRC, Group, beyond, clock, median, percentile, service_clock, sliced_percentile, work_dir,
)

CLIENTS = 2
WORKERS = 2
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: CPUs of the server and its clients, and of the pool workers
CLIENT_CPU = min(os.sched_getaffinity(0))
WORKER_CPU = max(os.sched_getaffinity(0))
#: hit_p99_ms is the median of the p99s of this many consecutive slices
#: of the hits (each holds at least 10 hits beyond its p99)
HIT_P99_SLICES = 4
#: jobs resent by the tracing-overhead replay
REPLAYED_JOBS = 300


@dataclass(frozen=True)
class StreamShape:
    """Composition of one client's block of jobs."""

    miss_workloads: tuple[str, ...]
    #: programs sent as ad-hoc variants, and how many variants of each
    #: one client's stream holds, spread evenly over its blocks
    adhoc_programs: tuple[str, ...]
    adhoc_rounds: int
    hits: int
    blocks: int


def primary_shape(seconds: int) -> StreamShape:
    """All 11 bundled programs miss once per block, warm, and 22 ad-hoc
    variants per client compile and translate (~1.5 s per block on a
    2-core x86-64 VM); at 30 s, 4800 hits (12 beyond p99 in each of
    :data:`HIT_P99_SLICES` slices) and 176 misses (17 beyond p90).

    The percentiles must not fall on the edge between two programs'
    latencies, or they jump from seed to seed.  Without ad-hoc jobs the
    median miss lies in the middle of the middle program's misses
    (sed_batch).  Half of the ad-hoc variants are of towers, faster than
    any warm miss but towers', and half of i_quicksort, slower than any
    warm miss: that keeps the median there, and the 22 i_quicksort
    variants hold miss_p90_ms.
    """
    return StreamShape(
        miss_workloads=tuple(b.name for b in BENCHMARKS),
        adhoc_programs=("towers", "i_quicksort"), adhoc_rounds=11,
        hits=400, blocks=max(5, seconds // 5),
    )


#: the stream of the non-service workloads: 60 warm towers misses and 40
#: ad-hoc towers variants, so the median falls among the former and p90
#: among the latter; 100 misses (10 beyond p90), 6000 hits (15 beyond p99
#: in each slice)
COMPANION = StreamShape(miss_workloads=("towers",), adhoc_programs=("towers",),
                        adhoc_rounds=20, hits=100, blocks=30)
#: offset of the warm-up jobs' seeds above a client's stream seeds
WARMUP_TAG = 4_000


def variant_source(name: str, tag: int) -> str:
    """A bundled program with an extra leading function: same result,
    different code addresses, so nothing compiled before can be reused."""
    return f"int variant_{tag}(void) {{ return {tag}; }}\n" + benchmark(name).source


@dataclass
class Job:
    doc: dict
    kind: str  # "miss", "adhoc" or "hit"
    program: str


def build_stream(seed: int, client: int, shape: StreamShape) -> list[list[Job]]:
    """One client's seeded jobs, in blocks; hits repeat this client's
    earlier keys."""
    rng = random.Random(f"{seed}:{client}")
    blocks: list[list[Job]] = []
    issued: list[Job] = []
    counter = 0
    deferred = 0
    adhoc_cycle = list(shape.adhoc_programs) * shape.adhoc_rounds
    rng.shuffle(adhoc_cycle)
    total_adhoc = len(adhoc_cycle)
    for index in range(shape.blocks):
        jobs: list[Job] = []
        blocks.append(jobs)
        misses = list(shape.miss_workloads)
        rng.shuffle(misses)
        adhoc = (total_adhoc * (index + 1) // shape.blocks
                 - total_adhoc * index // shape.blocks)
        slots = ["miss"] * len(misses) + ["adhoc"] * adhoc + ["hit"] * shape.hits
        rng.shuffle(slots)
        for slot in slots:
            if slot == "hit":
                if not issued:
                    deferred += 1
                    continue
                jobs.append(Job(dict(rng.choice(issued).doc), "hit", ""))
                continue
            counter += 1
            tag = (seed % 10_000) * 10_000 + client * 5_000 + counter
            if slot == "miss":
                name = misses.pop()
                doc = {"workload": name, "seed": tag, "engine": "auto"}
            else:
                name = adhoc_cycle.pop()
                doc = {"source": variant_source(name, tag), "seed": tag, "engine": "auto"}
            job = Job(doc, slot, name)
            issued.append(job)
            jobs.append(job)
            for _ in range(deferred):
                jobs.append(Job(dict(rng.choice(issued).doc), "hit", ""))
            deferred = 0
    by_doc = {json.dumps(j.doc, sort_keys=True): j.program for j in issued}
    for job in (job for jobs in blocks for job in jobs):
        if job.kind == "hit":
            job.program = by_doc[json.dumps(job.doc, sort_keys=True)]
    return blocks


class Server:
    """``python -m repro.service`` as a child process."""

    def __init__(self, tag: str) -> None:
        self.store_dir = work_dir() / f"store-{os.getpid()}-{tag}"
        shutil.rmtree(self.store_dir, ignore_errors=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.log_path = work_dir() / f"server-{os.getpid()}-{tag}.log"
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--host", "127.0.0.1",
                 "--port", "0", "--store", str(self.store_dir), "--workers", str(WORKERS)],
                stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL, env=env,
                text=True,
            )
        self.port = 0
        self.worker_pids: set[int] = set()

    def wait_ready(self) -> None:
        """Block until the server prints its listening line."""
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on" not in line:
            raise RuntimeError(
                f"service did not start: {line!r}; see {self.log_path}"
            )
        self.port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """VmHWM of the server process (Linux /proc), in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def note_workers(self, client: ServiceClient) -> dict:
        stats = client.stats()
        self.worker_pids.update(stats.get("worker_pids") or ())
        return stats

    def pin(self) -> None:
        """Put the server (and the clients, see :func:`_client_loop`) on
        the first CPU and the pool workers on the last.

        Left to the scheduler, a run now and then kept a busy worker on
        the server's CPU, and a hit waited out the worker's time slice:
        hit_p99_ms tripled for the whole run.
        """
        with ServiceClient(port=self.port) as client:
            self.note_workers(client)
        placement = [(self.proc.pid, CLIENT_CPU)]
        placement += [(pid, WORKER_CPU) for pid in self.worker_pids]
        for pid, cpu in placement:
            for task in os.listdir(f"/proc/{pid}/task"):
                os.sched_setaffinity(int(task), {cpu})

    def stop(self) -> None:
        """Interrupt the server, wait for it and its pool workers to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(STOP_TIMEOUT_S)
        self.proc.stdout.close()
        # Pool workers outlive an interrupted server (they are idle on
        # the call queue): terminate them, then wait until they are gone.
        for sig in (signal.SIGTERM, signal.SIGKILL):
            for pid in self.worker_pids:
                if _alive(pid):
                    try:
                        os.kill(pid, sig)
                    except ProcessLookupError:
                        pass
            deadline = time.monotonic() + STOP_TIMEOUT_S
            while any(_alive(pid) for pid in self.worker_pids):
                if time.monotonic() > deadline:
                    break
                time.sleep(0.005)
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.log_path.unlink(missing_ok=True)


def _alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except OSError:
        return False


def start_server(tag: str) -> tuple[Server, float]:
    """Start a server and answer one warm-up ad-hoc job (spawns the pool).

    Returns the server and the seconds that took.
    """
    started = clock()
    server = Server(tag)
    try:
        server.wait_ready()
        with ServiceClient(port=server.port) as client:
            status, doc = client.submit(
                {"source": variant_source("towers", 0), "engine": "auto"}
            )
            if status != 200 or doc.get("cache") != "miss":
                raise RuntimeError(f"warm-up job failed: {status} {doc}")
            server.note_workers(client)
    except BaseException:
        server.stop()
        raise
    return server, clock() - started


@dataclass
class Response:
    job: Job
    status: int | None  # None: transport error or unreadable reply
    doc: dict
    elapsed: float
    finished: float  # service_clock() when the reply arrived
    busy: bool = False  # arrived while every client had a job in flight


def _client_loop(ctx, port: int, client_id: int, jobs: list[Job], out: list) -> None:
    os.sched_setaffinity(0, {CLIENT_CPU})  # this thread only, beside the server
    rec = ctx.rec
    with ServiceClient(port=port) as client:
        for index, job in enumerate(jobs):
            with rec.trace(f"request:{client_id}:{index}"):
                with rec.span("service.request", "service", kind=job.kind):
                    started = service_clock()
                    try:
                        status, doc = client.submit(job.doc)
                    except Exception as error:  # any failure is a failed job
                        client.close()  # reconnect for the next job
                        status, doc = None, {"error": f"{type(error).__name__}: {error}"}
                    finished = service_clock()
            out.append(Response(job, status, doc, finished - started, finished))


def run_stream(ctx, server: Server, streams: list[list[Job]]) -> tuple[list, float]:
    """Every stream on its own client thread.

    Returns every job's response (a job whose client thread ended early
    gets a failed one) and the busy seconds: from the start until the
    first client ran out of jobs.  Responses that arrived by then are
    marked ``busy``.
    """
    outs: list[list[Response]] = [[] for _ in streams]
    threads = [
        threading.Thread(target=_client_loop, args=(ctx, server.port, i, jobs, outs[i]))
        for i, jobs in enumerate(streams)
    ]
    started = service_clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = service_clock()
    for jobs, out in zip(streams, outs):
        out.extend(Response(job, None, {"error": "client thread ended early"}, 0.0, ended)
                   for job in jobs[len(out):])
    idle_from = min((out[-1].finished for out in outs if out), default=started)
    responses = [row for out in outs for row in out]
    for row in responses:
        row.busy = row.finished <= idle_from
    return responses, idle_from - started


class StreamCheck:
    """Checks responses as they arrive and keeps only what metrics need."""

    #: miss responses kept for the traced run's store probe
    KEPT = 50

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.filled: dict[str, str] = {}
        self.latency: dict[str, list[float]] = {"hit": [], "miss": []}
        self.busy_completed = 0
        self.kept: list[dict] = []
        self.compile_cache: dict = {}

    def add(self, row: Response) -> None:
        """Count one request: it fails unless it returned the expected value
        and a hit is byte-identical to the miss that filled its key."""
        job, doc = row.job, row.doc
        try:
            ok = row.status == 200 and self.correct(row)
        except (KeyError, TypeError, AttributeError) as error:
            ok, doc = False, {"error": f"malformed reply ({error!r}): {str(doc)[:200]}"}
        if ok and row.busy:
            self.busy_completed += 1
        self.ctx.tally.check(
            ok, f"{job.kind} {job.program}: status {row.status} {str(doc)[:200]}"
        )

    def correct(self, row: Response) -> bool:
        """Record a 200 reply's latency; True if its result is right."""
        job, doc = row.job, row.doc
        manifest = doc["manifest"]
        run = manifest["run"]
        want = self.ctx.expected["programs"][job.program]
        ok = run["halt"] == "RETURNED" and run["result"] == want["value"]
        if "workload" in job.doc:
            ok = ok and manifest["stats"]["instructions"] == want["instructions"]
        canonical = json.dumps(manifest, sort_keys=True)
        if doc["cache"] in ("miss", "coalesced"):
            self.latency["miss"].append(row.elapsed)
            ok = ok and job.kind != "hit"
            self.filled.setdefault(doc["key"], canonical)
            if doc["cache"] == "miss":
                self.note_miss(doc)
            return ok
        self.latency["hit"].append(row.elapsed)
        return ok and job.kind == "hit" and self.filled.get(doc["key"]) == canonical

    def note_miss(self, doc: dict) -> None:
        if len(self.kept) < self.KEPT:
            self.kept.append(doc)
        cache = doc["host"].get("compile_cache", {})
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        if lookups > sum(self.compile_cache.get(k, 0) for k in ("hits", "misses")):
            self.compile_cache = dict(cache)


def warmup_streams(seed: int, shape: StreamShape) -> list[list[Job]]:
    """Every client's untimed warm-up: one new key of every miss workload,
    in the same order for every client, so that the pool's workers each
    serve each workload once."""
    return [
        [Job({"workload": name,
              "seed": (seed % 10_000) * 10_000 + client * 5_000 + WARMUP_TAG + index,
              "engine": "auto"}, "miss", name)
         for index, name in enumerate(shape.miss_workloads)]
        for client in range(CLIENTS)
    ]


def service_group(ctx, shape: StreamShape, *, server: Server | None = None) -> Group:
    """One step per block of both clients' streams, after the warm-up step
    (and the server start when the group owns its server)."""
    streams = [build_stream(ctx.seed, client, shape) for client in range(CLIENTS)]
    state = {"server": server, "elapsed": 0.0, "busy": 0.0}
    check = StreamCheck(ctx)

    def start() -> None:
        state["server"], _ = start_server("companion")

    def warm_up() -> None:
        out, _ = run_stream(ctx, state["server"], warmup_streams(ctx.seed, shape))
        warm_check = StreamCheck(ctx)  # checked and counted, never timed
        for row in out:
            warm_check.add(row)
        state["server"].pin()

    def block(index: int) -> None:
        started = service_clock()
        out, busy = run_stream(ctx, state["server"], [blocks[index] for blocks in streams])
        state["elapsed"] += service_clock() - started
        state["busy"] += busy
        for row in out:
            check.add(row)

    def finish() -> None:
        live = state["server"]
        with ServiceClient(port=live.port) as client:
            stats = live.note_workers(client)
        if server is not None:
            ctx.e2e.put("peak_rss_mb", live.peak_rss_mb(), "MB")
        if ctx.traced:
            service_layers(ctx, live, streams, check, stats)
            if server is not None:
                ctx.tracing_overhead(lambda: replay(ctx, live, streams))
        close()
        hits, misses = check.latency["hit"], check.latency["miss"]
        ctx.e2e.put("jobs_per_s", check.busy_completed / state["busy"], "jobs/s")
        ctx.e2e.put("hit_p50_ms", percentile(hits, 50) * 1e3, "ms")
        ctx.e2e.put("hit_p99_ms", sliced_percentile(hits, 99, HIT_P99_SLICES) * 1e3, "ms")
        ctx.e2e.put("miss_p50_ms", percentile(misses, 50) * 1e3, "ms")
        ctx.e2e.put("miss_p90_ms", percentile(misses, 90) * 1e3, "ms")
        ctx.note(
            f"service stream: {len(hits) + len(misses)} answered in "
            f"{state['elapsed']:.2f} s ({check.busy_completed} in the "
            f"{state['busy']:.2f} s both clients were busy); {len(hits)} hits "
            f"({HIT_P99_SLICES} slices, {beyond(len(hits) // HIT_P99_SLICES, 99)} beyond "
            f"p99 in each), {len(misses)} misses ({beyond(len(misses), 90)} beyond p90)"
        )

    def close() -> None:
        if state["server"] is not None:
            state["server"].stop()
            state["server"] = None

    steps = [warm_up, *(partial(block, index) for index in range(shape.blocks))]
    if server is None:
        steps.insert(0, start)
    return Group(steps, finish, close)


def replay(ctx, server: Server, streams: list[list[list[Job]]]) -> None:
    """Resend client 0's first jobs; all are store hits now (tracing overhead)."""
    jobs = [job for block in streams[0] for job in block][:REPLAYED_JOBS]
    responses, _ = run_stream(ctx, server, [jobs])
    for row in responses:
        ctx.tally.invariant(
            row.status == 200 and row.doc.get("cache") == "hit",
            f"replayed {row.job.kind} {row.job.program} was not a store hit: {row.status}",
        )


# -- traced run only ------------------------------------------------------------


def service_layers(ctx, server: Server, streams, check: StreamCheck, stats: dict) -> None:
    """HTTP, job-key, store and cache-counter metrics."""
    layer = ctx.layer
    with ServiceClient(port=server.port) as client:
        rtt = []
        for index in range(50):
            with ctx.rec.trace(f"healthz:{index}"):
                with ctx.rec.span("service.healthz", "service"):
                    started = service_clock()
                    client.healthz()
                    rtt.append(service_clock() - started)
    layer.put("service.http_rtt_ms", median(rtt) * 1e3, "ms")

    key_s = []
    for job in [job for blocks in streams for jobs in blocks for job in jobs][:200]:
        started = clock()
        JobSpec.from_request(job.doc).key()
        key_s.append(clock() - started)
    layer.put("service.jobs.key_us", median(key_s) * 1e6, "us")

    store = ManifestStore(str(work_dir() / f"scratch-store-{os.getpid()}"))
    try:
        put_s, get_s = [], []
        for doc in check.kept:
            manifest = RunManifest.from_dict(doc["manifest"])
            with ctx.rec.span("service.store.put", "service"):
                started = clock()
                store.put(doc["key"], manifest)
                put_s.append(clock() - started)
            with ctx.rec.span("service.store.get", "service"):
                started = clock()
                stored = store.get(doc["key"], manifest.engine)
                get_s.append(clock() - started)
            ctx.tally.invariant(
                stored is not None and stored.fingerprint() == doc["fingerprint"],
                "scratch store round trip changed a manifest",
            )
    finally:
        shutil.rmtree(store.root, ignore_errors=True)
    layer.put("service.store.put_ms", median(put_s) * 1e3, "ms")
    layer.put("service.store.get_ms", median(get_s) * 1e3, "ms")

    metrics = {name: entry.get("value", 0) for name, entry in stats["metrics"].items()}
    requests = metrics.get("service.requests", 0)
    layer.put("service.requests", requests, "count")
    layer.put("service.hit_ratio", metrics.get("service.cache_hits", 0) / requests, "ratio")
    layer.put("service.single_flight", metrics.get("service.single_flight", 0), "count")

    ctx.detail["service"] = {
        "stats": stats,
        "busiest_worker_compile_cache": check.compile_cache,
    }
    ctx.service_compile_cache = check.compile_cache
