"""Batch (lockstep) executor: bit-exactness, peeling, campaign parity.

The contract under test is absolute: :func:`repro.cpu.batch.run_batch`
over N machines leaves every machine **byte-identical** to the same N
scalar runs - every :class:`~repro.cpu.state.ExecutionStats` counter,
every physical register, the full memory image, the trap log, the
console.  The comparisons therefore go through
:func:`repro.cpu.equivalence.state_digest`, the same full-state digest
the engine equivalence suite uses.

Peel paths are exercised deliberately: lane-divergent branches,
lane-divergent overflow traps, lane-divergent memory faults, observer
rejection, and - via the campaign parity tests - faults firing mid-run.
Everything here skips cleanly when numpy is absent (``pip install
.[batch]``).
"""

import pytest

from repro import RiscMachine, assemble
from repro.cpu import batch
from repro.cpu.equivalence import diff_digests, state_digest
from repro.cpu.machine import HaltReason
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.workloads import benchmark
from repro.workloads.cache import compile_cached

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

pytestmark = pytest.mark.skipif(
    not batch.available(), reason="numpy not installed (pip install .[batch])"
)


def _scalar_machines(program, seeds, *, memory_size=None, **kwargs):
    """Fresh machines loaded with *program*, registers seeded per lane."""
    from repro.common.memory import Memory

    machines = []
    for seed in seeds:
        memory = Memory(size=memory_size) if memory_size is not None else None
        machine = RiscMachine(memory, **kwargs)
        program.load_into(machine.memory)
        machine.reset(program.entry)
        for reg, value in seed.items():
            machine.write_reg(reg, value)
        machines.append(machine)
    return machines


def _assert_batch_matches_scalar(source, seeds, **kwargs):
    """run_batch over seeded lanes == the same lanes stepped scalar."""
    program = assemble(source)
    batched = _scalar_machines(program, seeds, **kwargs)
    serial = _scalar_machines(program, seeds, **kwargs)
    executor = batch.run_batch(batched)
    for machine in serial:
        while machine.halted is None:
            machine.step()
    for lane, (got, want) in enumerate(zip(batched, serial)):
        mismatches = diff_digests(state_digest(want), state_digest(got))
        assert not mismatches, f"[lane {lane}] " + "\n".join(mismatches)
    return executor


# Lanes loop a register-seeded number of times, so differently seeded
# lanes disagree on the backedge branch and peel one by one.
BRANCH_DIVERGENT = """
main:
    li    r17, 0
loop:
    add   r17, r17, r16
    sub   r16, r16, #1
    cmp   r16, #0
    bgt   loop
    nop
    mov   r26, r17
    ret
    nop
"""

# r16 doubles each iteration; lanes seeded near 2**31 overflow on
# different iterations.  With trap_on_overflow the trapping lanes peel
# at the exact faulting ADD.
OVERFLOW_DIVERGENT = """
main:
    li    r17, 8
loop:
    add   r16, r16, r16
    sub   r17, r17, #1
    cmp   r17, #0
    bgt   loop
    nop
    mov   r26, r16
    ret
    nop
"""

# Each lane loads through its seeded address: in-range lanes proceed,
# out-of-range lanes trap on the LDL and peel.
MEMORY_FAULT_DIVERGENT = """
main:
    ldl   r17, r16, 0
    mov   r26, r17
    ret
    nop
"""


class TestLockstepBitExactness:
    @pytest.mark.parametrize("name", ["towers", "ackermann"])
    def test_benchmark_lanes_identical_to_scalar(self, name):
        compiled = compile_cached(benchmark(name).source)
        machines = []
        for _ in range(3):
            machine = compiled.make_machine()
            machine.reset(compiled.program.entry)
            machines.append(machine)
        executor = batch.run_batch(machines)
        __, scalar = compiled.run(engine="reference")
        want = state_digest(scalar)
        for lane, machine in enumerate(machines):
            mismatches = diff_digests(want, state_digest(machine))
            assert not mismatches, f"[lane {lane}] " + "\n".join(mismatches)
        # Identical lanes stay in lockstep to the end: one halt peel.
        snapshot = executor.telemetry_snapshot()
        assert snapshot["lanes"] == 3
        assert snapshot["lanes_rejected"] == 0
        assert snapshot["lockstep_steps"] > 0

    def test_branch_divergence_peels_bit_identically(self):
        seeds = [{16: n} for n in (1, 3, 3, 7, 2, 7)]
        executor = _assert_batch_matches_scalar(BRANCH_DIVERGENT, seeds)
        assert executor.telemetry_snapshot()["peels"] > 0

    def test_overflow_trap_divergence_peels_bit_identically(self):
        seeds = [{16: value} for value in (1 << 30, 1 << 28, 64, 3)]
        program = assemble(OVERFLOW_DIVERGENT)
        batched = _scalar_machines(program, seeds)
        serial = _scalar_machines(program, seeds)
        for machine in batched + serial:
            machine.trap_on_overflow = True
        batch.run_batch(batched)
        for machine in serial:
            while machine.halted is None:
                machine.step()
        trapped = 0
        for lane, (got, want) in enumerate(zip(batched, serial)):
            mismatches = diff_digests(state_digest(want), state_digest(got))
            assert not mismatches, f"[lane {lane}] " + "\n".join(mismatches)
            trapped += got.halted is HaltReason.TRAPPED
        assert 0 < trapped < len(batched)  # genuinely divergent outcome

    def test_memory_fault_divergence_peels_bit_identically(self):
        size = 1 << 20
        seeds = [{16: addr} for addr in (0x100, size + 4, 0x200, 0x7FFFFFF0)]
        _assert_batch_matches_scalar(
            MEMORY_FAULT_DIVERGENT, seeds, memory_size=size
        )

    def test_observed_lane_is_rejected_but_still_correct(self):
        program = assemble(BRANCH_DIVERGENT)
        seeds = [{16: 4}, {16: 4}]
        batched = _scalar_machines(program, seeds)
        serial = _scalar_machines(program, seeds)
        steps = []
        batched[1].observers.subscribe("step", lambda *event: steps.append(1))
        executor = batch.run_batch(batched)
        assert executor.telemetry_snapshot()["lanes_rejected"] == 1
        assert steps  # the observer really ran, scalar
        for machine in serial:
            while machine.halted is None:
                machine.step()
        for got, want in zip(batched, serial):
            assert not diff_digests(state_digest(want), state_digest(got))

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=9)
    )
    def test_random_lane_seeds_identical_to_scalar(self, counts):
        seeds = [{16: count, 17: 0} for count in counts]
        _assert_batch_matches_scalar(BRANCH_DIVERGENT, seeds)


class TestUntakenDelaySlotRegression:
    # Regression: the block engine once mis-tracked ``in_delay_slot``
    # for the *untaken* arm of a conditional branch, so a trap in that
    # slot was logged with the wrong slot flag.  Pin all four scalar
    # tiers to the oracle on exactly that shape.
    UNTAKEN_SLOT_TRAP = """
    main:
        li    r16, 1
        cmp   r16, #0
        blt   elsewhere
        ldl   r17, r0, 0x401
        mov   r26, r16
        ret
        nop
    elsewhere:
        mov   r26, r0
        ret
        nop
    """

    def test_trap_in_untaken_slot_identical_on_all_engines(self):
        from repro.cpu.engines import default_sweep_engines

        digests = {}
        for engine in default_sweep_engines():
            machine = RiscMachine(engine=engine)
            program = assemble(self.UNTAKEN_SLOT_TRAP)
            program.load_into(machine.memory)
            machine.run(program.entry)
            assert machine.halted is HaltReason.TRAPPED
            digests[engine] = state_digest(machine)
        oracle, *rest = digests
        for engine in rest:
            mismatches = diff_digests(digests[oracle], digests[engine])
            assert not mismatches, f"[{engine}] " + "\n".join(mismatches)


class TestCampaignParity:
    def _parity(self, config, lanes):
        serial = run_campaign(config)
        batched = run_campaign(config, batch_lanes=lanes)
        assert batched.fingerprint() == serial.fingerprint()
        assert len(batched.results) == len(serial.results)
        for got, want in zip(batched.results, serial.results):
            assert got == want
        return batched

    def test_small_campaign_fingerprint_identical(self):
        config = CampaignConfig(seed=7, injections=8, benchmarks=("towers",))
        self._parity(config, lanes=4)

    def test_chunk_smaller_than_campaign(self):
        # More trials than lanes: multiple chunks per benchmark.
        config = CampaignConfig(
            seed=11, injections=10, benchmarks=("towers", "ackermann")
        )
        self._parity(config, lanes=3)

    def test_run_campaign_batch_lanes_routes_to_batch_path(self, monkeypatch):
        from repro.faults.batchmode import LockstepExecutor

        chunks = []
        run_chunk = LockstepExecutor._run_chunk

        def counting(self, chunk, timeout_s):
            chunks.append(len(chunk))
            return run_chunk(self, chunk, timeout_s)

        monkeypatch.setattr(LockstepExecutor, "_run_chunk", counting)
        config = CampaignConfig(seed=7, injections=6, benchmarks=("towers",))
        serial = run_campaign(config)
        batched = run_campaign(config, batch_lanes=4)
        assert batched.fingerprint() == serial.fingerprint()
        assert chunks == [4, 2]

    def test_lanes_journal_and_resume(self, tmp_path):
        """Lanes feed the same journal: kill mid-chunk, resume on lanes."""
        from repro.faults.campaign import CampaignInterrupted

        config = CampaignConfig(seed=7, injections=6, benchmarks=("towers",))
        path = str(tmp_path / "lanes.jsonl")

        def chaos(done, pids):
            if done == 3:
                raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted):
            run_campaign(config, batch_lanes=4, journal=path, chaos_hook=chaos)
        resumed = run_campaign(config, batch_lanes=4, resume=path, shards=2)
        assert resumed.resume_info["resumed_trials"] == 3
        assert resumed.fingerprint() == run_campaign(config).fingerprint()

    @settings(max_examples=2, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16))
    def test_random_campaign_seeds_fingerprint_identical(self, seed):
        # Random fault schedules fire mid-run (PC and cycle triggers),
        # peeling lanes out of a live lockstep chunk; the report must
        # still be trial-for-trial identical to the serial path.
        config = CampaignConfig(seed=seed, injections=6, benchmarks=("towers",))
        self._parity(config, lanes=6)
