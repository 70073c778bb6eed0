"""The benchmark's own tests.  Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import ast
import socket
import sys
import time
from types import SimpleNamespace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import programs  # noqa: E402
import record  # noqa: E402
import service  # noqa: E402
from common import HostClock, load_expected, repetitions, sliced_percentile  # noqa: E402
from run import Context  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402

from repro.cpu.engines import engine_names  # noqa: E402

SOURCES = sorted(HERE.glob("*.py"))


def test_recorded_values_are_the_interpreters():
    recorded = {name: entry["value"] for name, entry in load_expected()["programs"].items()}
    assert recorded == record.interpreter_values()
    assert set(recorded) == set(programs.ALL_PROGRAMS) and len(recorded) == 16


def test_imports_no_private_name_from_repro():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                parts = node.module.split(".") + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                parts = [p for alias in node.names if alias.name.startswith("repro")
                         for p in alias.name.split(".")]
            else:
                continue
            assert not [p for p in parts if p.startswith("_")], (path.name, parts)


def test_touches_no_private_attribute_of_the_program():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                owner = node.value
                assert isinstance(owner, ast.Name) and owner.id == "self", (
                    path.name, node.attr, node.lineno)


def test_tiers_are_never_named():
    tiers = set(engine_names())
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert node.value not in tiers, (path.name, node.value, node.lineno)


def test_host_clock_divides_durations_by_the_host_factor():
    host = HostClock()
    try:
        host.sample()
        assert host.samples and host.wakeups and host.echo.proc.poll() is None
        host.factor, host.wakeup_factor = 4.0, 1.0  # four times slower than nominal
        started_raw, started = time.perf_counter(), host.now()
        started_service = host.now_service()
        time.sleep(0.05)
        raw = time.perf_counter() - started_raw
        assert abs((host.now() - started) - raw / 4.0) < 0.005
        assert abs((host.now_service() - started_service) - raw / 2.0) < 0.005
        nominal = host.now() - started
        host.sample()  # a new rate applies from here on, the past stays
        assert host.now() - started >= nominal
    finally:
        proc = host.echo.proc
        host.close()
    assert proc.returncode == 0


def test_a_burst_in_one_slice_does_not_move_the_sliced_percentile():
    steady = [1.0 + (i % 100) / 1000 for i in range(4000)]
    burst = steady[:1000] + [50.0] * 100 + steady[1100:]
    assert sliced_percentile(burst, 99, 4) == sliced_percentile(steady, 99, 4)


def test_self_time_subtracts_covered_child_time():
    spans = [
        {"id": 1, "parent": None, "layer": "a", "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "layer": "b", "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "layer": "b", "start": 3.0, "end": 6.0},
        {"id": 4, "parent": 2, "layer": "c", "start": 2.0, "end": 3.0},
        {"id": 5, "parent": 1, "layer": "c", "start": 9.0, "end": 12.0},
    ]
    totals = self_times(spans)
    assert totals["a"] == 10.0 - 5.0 - 1.0
    assert totals["b"] == (3.0 - 1.0) + 3.0
    assert totals["c"] == 1.0 + 3.0


def test_recorder_links_parents_and_trace_ids():
    rec = SpanRecorder()
    with rec.trace("run-1"):
        with rec.span("outer", "a"):
            with rec.span("inner", "b"):
                pass
    inner, outer = rec.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["trace_id"] == outer["trace_id"] == "run-1"


def test_stream_is_seeded_and_hits_repeat_earlier_keys():
    shape = service.COMPANION

    def stream(seed):
        blocks = service.build_stream(seed, 0, shape)
        assert len(blocks) == shape.blocks
        return [job for block in blocks for job in block]

    first = stream(7)
    assert [job.doc for job in first] == [job.doc for job in stream(7)]
    assert [job.doc for job in first] != [job.doc for job in stream(8)]
    seen = []
    for job in first:
        if job.kind == "hit":
            assert job.doc in seen
        else:
            assert job.doc not in seen
            seen.append(job.doc)
    kinds = [job.kind for job in first]
    assert kinds.count("hit") == shape.hits * shape.blocks
    assert kinds.count("miss") == len(shape.miss_workloads) * shape.blocks


def test_a_wrong_expected_value_is_a_failed_operation():
    ctx = Context(seed=1, seconds=1, traced=False)
    ctx.expected["programs"]["towers"]["value"] += 1
    programs.measure_program(ctx, "towers", {})
    instructions = ctx.expected["programs"]["towers"]["instructions"]
    runs = 1 + sum(  # cold, warm, oracle
        repetitions(instructions, target, least=1, most=60)
        for target in (programs.WARM_INSTRUCTIONS, programs.ORACLE_INSTRUCTIONS)
    )
    assert ctx.tally.attempted == ctx.tally.failed == runs


def test_unanswered_and_malformed_jobs_are_failed_operations():
    ctx = Context(seed=1, seconds=1, traced=False)
    jobs = [job for block in service.build_stream(1, 0, service.COMPANION)[:2]
            for job in block]
    with socket.socket() as probe:  # a port nothing listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    responses, _ = service.run_stream(ctx, SimpleNamespace(port=port), [jobs])
    assert len(responses) == len(jobs)
    check = service.StreamCheck(ctx)
    for row in responses:
        check.add(row)
    check.add(service.Response(jobs[0], 200, {"cache": "hit"}, 0.001, 0.0, busy=True))
    assert ctx.tally.attempted == ctx.tally.failed == len(jobs) + 1
    assert check.busy_completed == 0
