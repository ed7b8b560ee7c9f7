"""Trace tooling, invariant monitors, engine comparison, overhead math."""

import hashlib

import pytest

from cohsim import harness
from cohsim.harness import (SwmrMonitor, SingleOwnerMonitor, DataValueMonitor,
                            TraceError, TraceOp, compare_engines,
                            default_monitors, format_trace, overhead_calc,
                            parse_trace, random_workload, run_trace)
from cohsim.protocol import CoherenceState
from cohsim.system import System, SystemConfig

I, S, E, M, O, F = CoherenceState
BASE = 0x8000_0000


class TestTraceFormat:
    def test_roundtrip(self):
        text = ("# header comment\n"
                "0 LD 0x80000000\n"
                "1 ST 0x80000040 0xdeadbeef\n"
                "0 LDU 0x1000\n"
                "1 AMOADD 0x80000080 0x2\n"
                "0 FENCE\n")
        ops = parse_trace(text)
        assert ops[0] == TraceOp(0, "LD", BASE)
        assert ops[1].data == 0xDEADBEEF
        assert ops[4].op == "FENCE"
        assert parse_trace(format_trace(ops)) == ops

    @pytest.mark.parametrize("bad", [
        "0 FROB 0x10",
        "x LD 0x10",
        "0 LD",
        "0 ST zz",
    ])
    def test_errors_carry_line_numbers(self, bad):
        with pytest.raises(TraceError, match="line 1"):
            parse_trace(bad)


class TestWorkloadGenerator:
    def test_reproducible(self):
        assert random_workload(7, ops=200) == random_workload(7, ops=200)
        assert random_workload(7, ops=200) != random_workload(8, ops=200)

    def test_write_ratio_zero_yields_no_stores(self):
        ops = random_workload(1, ops=500, write_ratio=0.0)
        assert not any(op.op in ("ST", "STU") for op in ops)

    def test_sharing_degree_controls_cross_cache_traffic(self):
        def shared_hits(degree):
            ops = random_workload(3, lces=2, ops=2000, sharing_degree=degree,
                                  uncached_ratio=0, atomic_ratio=0,
                                  fence_ratio=0)
            lce0 = {op.addr // 64 for op in ops if op.lce == 0}
            return sum(1 for op in ops
                       if op.lce == 1 and op.addr // 64 in lce0)

        assert shared_hits(0.0) == 0
        assert shared_hits(0.9) > shared_hits(0.2)

    def test_sc_always_follows_lr_on_same_address(self):
        ops = random_workload(5, ops=2000, atomic_ratio=0.3)
        live = {}
        for op in ops:
            if op.op == "LR":
                live[op.lce] = op.addr
            elif op.op == "SC":
                assert live.pop(op.lce) == op.addr


class TestMonitors:
    def test_clean_run_has_no_violations(self):
        system = System(SystemConfig(cores=2, sets=16))
        ops = random_workload(2, ops=150, footprint_blocks=16)
        report = run_trace(system, ops, monitors=default_monitors())
        assert report.clean
        assert report.loads + report.stores > 0
        assert report.cycles > 0

    def test_swmr_monitor_flags_two_writers(self):
        system = System(SystemConfig(cores=2, sets=8))
        system.preload_line(0, BASE, M)
        system.lces[1].sets[0][0].tag = system.lces[1].cfg.tag_of(BASE)
        system.lces[1].sets[0][0].state = M
        mon = SwmrMonitor()
        mon.attach(system)
        mon.check(system)
        assert mon.violations

    def test_single_owner_monitor_flags_two_owners(self):
        system = System(SystemConfig(cores=2, sets=8))
        system.preload_line(0, BASE, O)
        system.lces[1].sets[0][0].tag = system.lces[1].cfg.tag_of(BASE)
        system.lces[1].sets[0][0].state = F
        mon = SingleOwnerMonitor()
        mon.attach(system)
        mon.check(system)
        assert mon.violations

    def test_data_value_monitor_sees_corruption(self):
        system = System(SystemConfig(cores=2, sets=8))
        mon = DataValueMonitor()
        mon.attach(system)
        system.submit(0, BASE, write=True, data=b"\x11" * 8)
        system.run()
        # Corrupt the cached copy behind the monitor's back, then load.
        way, line = system.lces[0]._lookup(BASE)
        line.data[0] ^= 0xFF
        system.submit(0, BASE, write=False)
        system.run()
        mon.check(system)
        assert mon.violations


class TestCompareEngines:
    def test_small_trace_equivalent(self):
        ops = random_workload(11, lces=2, ops=120, footprint_blocks=16)
        report = compare_engines(ops, SystemConfig(cores=2, sets=16))
        assert report.equivalent, report.differences
        assert not report.violations
        assert report.cycle_ratio > 0
        assert "equivalent" in report.summary()

    def test_empty_trace_ratio_is_one(self):
        report = compare_engines([], SystemConfig(cores=2, sets=8))
        assert report.equivalent
        assert report.cycle_ratio == 1.0


class TestOverhead:
    @pytest.mark.parametrize("caches", [2, 4, 8, 16, 32, 64])
    def test_duplicate_tag_is_fixed_six_and_a_quarter(self, caches):
        assert overhead_calc("dup", caches) == 6.25

    def test_complete_vector_grows_and_dominates(self):
        prev = 0.0
        for caches in range(2, 65):
            pct = overhead_calc("complete", caches)
            assert pct > prev
            assert pct > overhead_calc("dup", caches) or caches < 2
            prev = pct
        assert overhead_calc("complete", 2) == pytest.approx(
            100 * 33 / 512)

    def test_coarse_vector(self):
        assert overhead_calc("coarse:8", 64) == pytest.approx(100 * 39 / 512)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            overhead_calc("dup", 1)
        with pytest.raises(ValueError):
            overhead_calc("banana", 4)


DIGEST = "a2965c438effa0948ef04b882b6ce0caf21a25d453ca24f6b75b4a0bb70513d2"


def _final_state_digest(system):
    """sha256 over the final memory, cache and directory images."""
    images = (sorted(harness._memory_image(system).items()),
              [sorted(lce.snapshot().items()) for lce in system.lces],
              sorted(harness._dir_image(system).items()))
    return hashlib.sha256(repr(images).encode()).hexdigest()


class TestBitIdentity:
    """Simulated results pinned to recorded values, so a change meant only
    to speed up the simulator cannot move cycles or final state.  The
    trace's 64-block footprint fits the 16-set x 8-way caches, so no line
    is ever replaced."""

    # (engine, ordering) -> (cycles, final-state digest, next network draw)
    GOLDEN = {
        ("fsm", "fifo"): (3805, DIGEST, 0.46300735781502145),
        ("fsm", "random"): (3805, DIGEST, 0.12133562466993963),
        ("ucode", "fifo"): (7149, DIGEST, 0.46300735781502145),
        ("ucode", "random"): (7149, DIGEST, 0.21003061087556407),
    }

    @pytest.mark.parametrize("engine,ordering", sorted(GOLDEN))
    def test_cycles_and_final_state(self, engine, ordering):
        ops = random_workload(5, lces=8, ops=300, footprint_blocks=64)
        system = System(SystemConfig(cores=8, sets=16, engine=engine,
                                     ordering=ordering, seed=9))
        report = run_trace(system, ops, monitors=default_monitors())
        assert report.clean
        assert report.completed == len(ops)
        # The next network draw shows that delivery consumed the same
        # random stream.
        assert (report.cycles, _final_state_digest(system),
                system.net._rng.random()) == self.GOLDEN[engine, ordering]
