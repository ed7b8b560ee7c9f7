"""Trace tooling, invariant monitors, engine comparison, overhead math."""

import copy
import dataclasses
import gc
import hashlib
import itertools
import random
import weakref

import pytest

from cohsim import harness
from cohsim.directory import DuplicateTag
from cohsim.harness import (CoherenceMonitor, DataValueMonitor, TraceError,
                            TraceOp, compare_engines, default_monitors,
                            format_trace, overhead_calc, parse_trace,
                            random_workload, run_trace)
from cohsim.protocol import (DEFAULT_REGION_MAP, MOESIF, PROTOCOLS,
                             CoherenceState)
from cohsim.system import System, SystemConfig
from cohsim.ucode import asm
from cohsim.ucode.engine import default_program

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
        "0 LD 0x80000000 0x5",
        "0 LR 0x80000000 0x3",
        "0 LD 0x80000000 0x5 0x7",
        "0 ST 0x80000000 0x5 0x9",
        "0 FENCE 0x10",
    ])
    def test_errors_carry_line_numbers(self, bad):
        with pytest.raises(TraceError, match="line 1"):
            parse_trace(bad)

    def test_random_workloads_parse(self):
        """Every op kind `random_workload` draws, uncached and atomic ones
        included, passes `parse_trace`'s checks."""
        ops = random_workload(3, lces=4, ops=2000, uncached_ratio=0.2,
                              atomic_ratio=0.2, fence_ratio=0.05)
        assert {op.op for op in ops} == set(harness.OPS)
        assert parse_trace(format_trace(ops)) == ops


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


def reference_workload(seed: int, lces: int = 2, ops: int = 1000,
                       footprint_blocks: int = 64, write_ratio: float = 0.4,
                       sharing_degree: float = 0.5,
                       uncached_ratio: float = 0.02,
                       atomic_ratio: float = 0.05, fence_ratio: float = 0.01,
                       block_bytes: int = 64) -> list:
    """`random_workload` as first written, on `randrange` and `choice`:
    the generator it must keep matching draw for draw."""
    rng = random.Random(seed)
    base = DEFAULT_REGION_MAP.cacheable[0][0]
    shared_n = max(1, footprint_blocks // 2)
    private_n = max(1, footprint_blocks - shared_n)
    shared = [base + i * block_bytes for i in range(shared_n)]
    private = [[base + (shared_n + c * private_n + i) * block_bytes
                for i in range(private_n)] for c in range(lces)]
    uncacheable = [[0x1000 + (c * private_n + i) * block_bytes
                    for i in range(private_n)] for c in range(lces)]
    out = []
    reserved = [None] * lces  # address of each cache's live LR, if any
    for _ in range(ops):
        lce = rng.randrange(lces)
        r = rng.random()
        if r < fence_ratio:
            out.append(TraceOp(lce, "FENCE"))
            continue
        word = rng.getrandbits(64)
        if r < fence_ratio + uncached_ratio:
            addr = rng.choice(uncacheable[lce])
            if rng.random() < write_ratio:
                out.append(TraceOp(lce, "STU", addr, word))
            else:
                out.append(TraceOp(lce, "LDU", addr))
            continue
        pool = shared if rng.random() < sharing_degree else private[lce]
        addr = rng.choice(pool) + 8 * rng.randrange(block_bytes // 8)
        if reserved[lce] is not None:
            out.append(TraceOp(lce, "SC", reserved[lce], word))
            reserved[lce] = None
        elif rng.random() < atomic_ratio:
            kind = rng.choice(("AMOADD", "AMOSWAP", "LR"))
            if kind == "LR":
                reserved[lce] = addr
                out.append(TraceOp(lce, "LR", addr))
            else:
                out.append(TraceOp(lce, kind, addr, word))
        elif rng.random() < write_ratio:
            out.append(TraceOp(lce, "ST", addr, word))
        else:
            out.append(TraceOp(lce, "LD", addr))
    return out


# Uncached, atomic and fence ratios at zero and at high values.
RATIOS = {
    "none": dict(uncached_ratio=0, atomic_ratio=0, fence_ratio=0),
    "high": dict(uncached_ratio=0.3, atomic_ratio=0.4, fence_ratio=0.2,
                 write_ratio=0.7, sharing_degree=0.9),
}


# Every combination of cache count, footprint, block size and ratios, each
# on four of the seeds 0-19 in turn.
GRID = [(*params, range(4 * (i % 5), 4 * (i % 5) + 4))
        for i, params in enumerate(itertools.product(
            [1, 2, 3, 8], [1, 5, 64, 256], [32, 64], RATIOS))]


class TestWorkloadMatchesReference:
    @pytest.mark.parametrize("lces,footprint,block_bytes,ratios,seeds", GRID)
    def test_same_trace_as_reference(self, lces, footprint, block_bytes,
                                     ratios, seeds):
        kw = dict(lces=lces, ops=2000, footprint_blocks=footprint,
                  block_bytes=block_bytes, **RATIOS[ratios])
        for seed in seeds:
            assert (random_workload(seed, **kw)
                    == reference_workload(seed, **kw)), seed

    def test_same_trace_at_default_parameters(self):
        for seed in range(20):
            assert random_workload(seed) == reference_workload(seed)

    @pytest.mark.parametrize("kw", [dict(lces=0), dict(block_bytes=4)])
    def test_empty_draw_range_raises_as_reference(self, kw):
        for gen in (reference_workload, random_workload):
            with pytest.raises(ValueError):
                gen(1, ops=10, **kw)

    def test_trace_op_is_immutable_and_hashable(self):
        op = TraceOp(1, "ST", BASE, 5)
        with pytest.raises(AttributeError):
            op.addr = 0
        assert {op: "st"}[TraceOp(1, "ST", BASE, 5)] == "st"
        assert TraceOp(0, "FENCE") == TraceOp(0, "FENCE", 0, None)
        assert op.format() == f"1 ST {BASE:#x} 0x5"


class TestMonitors:
    def test_clean_run_has_no_violations(self):
        system = System(SystemConfig(cores=2, sets=16))
        ops = random_workload(2, ops=150, footprint_blocks=16)
        report = run_trace(system, ops, monitors=default_monitors())
        assert not report.violations
        assert report.loads + report.stores > 0
        assert report.cycles > 0

    def test_swmr_monitor_flags_two_writers(self):
        system = System(SystemConfig(cores=2, sets=8))
        mon = CoherenceMonitor()
        mon.attach(system)
        system.preload_line(0, BASE, M)
        assert not mon.violations
        system.preload_line(1, BASE, M)   # through the state hook
        # Two M copies are also two owners.
        assert [(v.monitor, v.cycle) for v in mon.violations] == [
            ("swmr", 0), ("single-owner", 0)]
        assert f"block {BASE:#x} held as" in mon.violations[0].detail

    def test_single_owner_monitor_flags_two_owners(self):
        system = System(SystemConfig(cores=2, sets=8))
        mon = CoherenceMonitor()
        mon.attach(system)
        system.preload_line(0, BASE, O)
        system.preload_line(1, BASE, F)   # through the state hook
        assert [(v.monitor, v.cycle) for v in mon.violations] == [
            ("single-owner", 0)]
        assert f"block {BASE:#x} owned by" in mon.violations[0].detail

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
        assert [v.monitor for v in mon.violations] == ["data-value"]

    @pytest.mark.parametrize("engine", ["fsm", "ucode"])
    def test_uncached_store_to_cacheable_memory(self, engine):
        """An uncached store commits in memory, whose store hook updates the
        shadow, so a later load of its bytes is not flagged; the hook is
        detached with the caches' when the run ends."""
        ops = parse_trace("0 STU 0x80000000 0x5\n0 FENCE\n"
                          "0 LD 0x80000000\n1 LDU 0x80000008\n")
        system = System(SystemConfig(cores=2, sets=8, engine=engine))
        report = run_trace(system, ops, monitors=default_monitors())
        assert not report.violations
        assert system.store.read(BASE, 8) == (5).to_bytes(8, "little")
        assert system.mem.on_store is None

    @pytest.mark.parametrize("engine", ["fsm", "ucode"])
    def test_data_value_monitor_attached_to_stored_data(self, engine):
        """Monitors attached to a system that already holds stored data
        take their shadow from it: a trace finished under fresh monitors
        flags no load of a value stored before they were attached."""
        system = System(SystemConfig(cores=4, sets=16, num_cces=2,
                                     engine=engine))
        ops = random_workload(3, lces=4, ops=600)
        report = run_trace(system, ops[:100], monitors=default_monitors())
        assert not report.violations
        report = run_trace(system, ops[100:], monitors=default_monitors())
        assert report.loads and not report.violations, report.violations[:3]

    def test_data_value_shadow_takes_the_owners_copy(self):
        """The shadow of a block takes a valid cached copy's bytes, the
        owner's before a sharer's, and memory's when no cache holds it."""
        system = System(SystemConfig(cores=3, sets=8))
        for lce, state, byte in ((0, S, 0x22), (1, O, 0x11), (2, S, 0x22)):
            system.preload_line(lce, BASE, state, data=bytes([byte]) * 64)
        system.store.write(BASE, b"\xee" * 64)
        system.store.write(BASE + 64, b"\x33" * 64)
        mon = DataValueMonitor()
        mon.attach(system)
        assert mon.shadow[BASE] == b"\x11" * 64
        assert mon.shadow[BASE + 64] == b"\x33" * 64

    def test_holders_match_a_lookup_in_every_cache(self):
        """At every line-state write of an 8-cache run whose 256-block
        footprint overflows 16 sets x 2 ways, the holders the monitor
        finds in the block's set equal an `Lce._lookup` in each cache, and
        a scan of every way of the set."""
        system = System(SystemConfig(cores=8, sets=16, assoc=2))
        mon = CoherenceMonitor()
        check, checked = mon.check, []

        def checked_check(addr):
            want = [(i, line.state) for i, lce in enumerate(system.lces)
                    for _, line in [lce._lookup(addr)] if line is not None]
            assert mon.holders(addr) == want
            tag, set_idx = system.cfg.tag_of(addr), system.cfg.set_index(addr)
            assert want == [(i, line.state)
                            for i, lce in enumerate(system.lces)
                            for line in lce.sets[set_idx]
                            if line.state is not I and line.tag == tag]
            checked.append(addr)
            check(addr)

        mon.check = checked_check
        ops = random_workload(3, lces=8, ops=400, footprint_blocks=256)
        report = run_trace(system, ops, monitors=[mon])
        assert not report.violations
        assert len(checked) > len(ops)

    # Cycle in which lce0's line turns M, recorded when the test was written.
    UPGRADE_CYCLE = {"fsm": 14, "ucode": 25}

    @pytest.mark.parametrize("engine", sorted(UPGRADE_CYCLE))
    def test_swmr_flagged_in_the_cycle_it_appears(self, engine):
        """A cache whose (S, Inv) cell keeps the line S lets a writer
        coexist with a reader; the violation carries the upgrade's cycle."""
        sends, _ = MOESIF.lce[("S", "Inv")]
        broken = dataclasses.replace(
            MOESIF, lce={**MOESIF.lce, ("S", "Inv"): (sends, S)})
        system = System(SystemConfig(cores=2, sets=8, engine=engine))
        for lce in system.lces:
            lce.tables = broken
        mon = CoherenceMonitor()
        mon.attach(system)
        system.preload_line(0, BASE, S)
        system.preload_line(1, BASE, S)
        system.submit(0, BASE, write=True, data=b"\x22" * 8)
        line = system.lces[0]._lookup(BASE)[1]
        while line.state is not M:
            upgrade_cycle = system.now
            system.step()
        system.run()
        assert upgrade_cycle == self.UPGRADE_CYCLE[engine]
        assert [(v.monitor, v.cycle) for v in mon.violations] == [
            ("swmr", upgrade_cycle)]
        assert system.lces[1]._lookup(BASE)[1].state is S


ENGINES = ["fsm", "ucode"]


class TestAdvance:
    def test_steps_once_on_an_idle_system(self):
        """With nothing due, `advance` runs one cycle, by one `step`."""
        system = System(SystemConfig(cores=2, sets=8))
        step, steps = system.step, []
        system.step = lambda: (steps.append(None), step())
        assert system.advance(100) == set()
        assert system.now == 1
        assert len(steps) == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_stops_in_the_cycle_a_miss_ends(self, engine):
        def started():
            system = System(SystemConfig(cores=2, sets=8, engine=engine))
            system.submit(1, BASE, write=False)
            return system

        stepped = started()
        while stepped.lces[1].miss is not None:
            stepped.step()
        system = started()
        assert system.advance(1000) == {1}
        assert system.now == stepped.now
        # The fill's CohAck is still on its way, so the next call goes on
        # until the system is idle.
        assert system.advance(1000) == set()
        assert system.idle()

    def test_stops_at_the_deadline(self):
        system = System(SystemConfig(cores=2, sets=8))
        system.submit(0, BASE, write=False)
        assert system.advance(3) == set()
        assert system.now == 3 and system.lces[0].miss is not None


class TestLimits:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_trace_deadline_raises(self, engine):
        ops = random_workload(5, lces=2, ops=40, footprint_blocks=16)
        system = System(SystemConfig(cores=2, sets=16, engine=engine))
        with pytest.raises(TraceError, match="within 25 cycles"):
            run_trace(system, ops, limit=25)
        assert system.now == 25

    @pytest.mark.parametrize("engine", ENGINES)
    def test_monitors_detached_when_the_trace_fails(self, engine):
        ops = random_workload(5, lces=2, ops=40, footprint_blocks=16)
        system = System(SystemConfig(cores=2, sets=16, engine=engine))
        with pytest.raises(TraceError):
            run_trace(system, ops, monitors=default_monitors(), limit=25)
        for lce in system.lces:
            assert (lce.on_state, lce.on_load, lce.on_store) == (None,) * 3

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_stops_at_its_limit(self, engine):
        """`run(limit=n)` on a busy system advances exactly n cycles, and
        runs cut short end where one whole run does, with the same cycle
        accounting."""
        def busy():
            system = System(SystemConfig(cores=2, sets=8, engine=engine))
            system.submit(0, BASE, write=True, data=b"\x11" * 8)
            return system

        def counters(system):
            return [(c.stats.busy_cycles, c.stats.wait_cycles,
                     c.stats.stall_cycles, c.stats.idle_cycles)
                    for c in system.cces]

        whole = busy()
        total = whole.run()
        for n in range(1, total):
            system = busy()
            assert system.run(limit=n) == n
            assert system.now == n and not system.idle()
        pieces = busy()
        while not pieces.idle():
            pieces.run(limit=3)
        assert pieces.now == whole.now == total
        assert counters(pieces) == counters(whole)


class TestTagIndex:
    """Caches and directory segments find a block's copy through a tag
    index; every lookup must equal a scan of every way."""

    # name -> (SystemConfig arguments, random_workload arguments)
    SHAPES = {
        **{f"criterion-5-{n}c": (dict(cores=n, sets=16),
                                 dict(lces=n, footprint_blocks=64))
           for n in (2, 4, 8)},
        "evict-2c": (dict(cores=2, sets=16, assoc=2),
                     dict(lces=2, footprint_blocks=256, write_ratio=0.5)),
    }

    @pytest.mark.parametrize("protocol", ["moesif", "mesi"])
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_lookups_match_a_scan_of_every_way(self, shape, engine,
                                               protocol):
        """After a run, for every block that the trace touches or a tag
        names: `Lce._lookup`, the copies a way-group read finds and the
        coherence monitor's holders equal a scan of every way."""
        cfg_kw, gen_kw = self.SHAPES[shape]
        cfg = SystemConfig(engine=engine, protocol=protocol, **cfg_kw)
        system = System(cfg)
        ops = random_workload(1, ops=600, **gen_kw)
        report = run_trace(system, ops, monitors=default_monitors())
        assert not report.violations
        mon = CoherenceMonitor()
        mon.attach(system)
        (cce,) = system.cces
        segment = cce.directory
        blocks = {op.addr - op.addr % cfg.block_bytes for op in ops
                  if op.addr is not None
                  and DEFAULT_REGION_MAP.is_cacheable(op.addr)}
        # Every tag set with its set index (with one CCE, a set's way group
        # is its index) and its tag index.
        tag_sets = [(s, lines, lce.tag_index[s]) for lce in system.lces
                    for s, lines in enumerate(lce.sets)]
        tag_sets += [(s, tag_set, segment.tag_index[s][c])
                     for s, way_group in enumerate(segment.way_groups)
                     for c, tag_set in enumerate(way_group)]
        # An index names no way that holds another tag, so it never
        # outgrows its tag set.
        for _, entries, index in tag_sets:
            assert all(entries[w].tag == t for t, w in index.items())
        # Stale tags of invalid entries included.
        blocks |= {(e.tag * cfg.sets + s) * cfg.block_bytes
                   for s, entries, _ in tag_sets for e in entries}
        for addr in sorted(blocks):
            set_idx, tag = cfg.set_index(addr), cfg.tag_of(addr)
            in_caches = [[(w, line) for w, line in enumerate(lce.sets[set_idx])
                          if line.state is not I and line.tag == tag]
                         for lce in system.lces]
            assert all(len(found) <= 1 for found in in_caches), hex(addr)
            for lce, found in zip(system.lces, in_caches):
                assert lce._lookup(addr) == (found[0] if found
                                             else (None, None)), hex(addr)
            assert mon.holders(addr) == [
                (c, found[0][1].state)
                for c, found in enumerate(in_caches) if found]
            wg = cce.local_wg(addr)
            assert segment.read_way_group(wg, tag, 0, 0).copies == [
                (c, w, e.state)
                for c, tag_set in enumerate(segment.way_groups[wg])
                for w, e in enumerate(tag_set)
                if e.state is not I and e.tag == tag], hex(addr)

    @pytest.mark.parametrize("state", [S, M])
    def test_second_valid_copy_in_a_set_is_refused(self, state):
        """Installing a block into one way while another way of the same
        set holds it valid raises DuplicateTag, in a cache and in the
        directory's tag set; a lookup would see only one of the copies."""
        system = System(SystemConfig(cores=2, sets=8, assoc=4))
        system.preload_line(0, BASE, state, way=1)
        with pytest.raises(DuplicateTag, match="valid in way 1"):
            system.preload_line(0, BASE, state, way=2)
        assert system.lces[0]._lookup(BASE)[0] == 1
        cce = system.home_cce(BASE)
        wg = cce.local_wg(BASE)
        with pytest.raises(DuplicateTag, match="valid in way 1"):
            cce.directory.write_entry(wg, system.cfg.tag_of(BASE), 0, 3,
                                      state)
        # Once the first copy is invalid, the block may move to another way.
        system.lces[0].set_state(system.lces[0].sets[0][1], I, BASE)
        cce.directory.write_state(wg, 0, 1, I)
        system.preload_line(0, BASE, state, way=2)
        assert system.lces[0]._lookup(BASE)[0] == 2
        assert cce.directory.snapshot()[(0, 0, 2)][1] is state


class TestDeepCopy:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_copy_of_an_idle_system_finishes_the_trace(self, engine):
        """A deep copy of an idle System, taken between two parts of a
        trace, finishes the trace with the original's cycles, CCE
        accounting and final images: its parked sequencers stay parked."""
        cfg = SystemConfig(cores=4, sets=16, num_cces=2, engine=engine)
        ops = random_workload(3, lces=4, ops=600)
        system = System(cfg)
        report = run_trace(system, ops[:100], monitors=default_monitors())
        assert not report.violations
        copied = copy.deepcopy(system)

        def finish(system):
            report = run_trace(system, ops[100:],
                               monitors=default_monitors())
            assert not report.violations
            return (report.cycles, system.now,
                    [(c.stats.busy_cycles, c.stats.wait_cycles,
                      c.stats.stall_cycles, c.stats.idle_cycles,
                      len(c.stats.transactions)) for c in system.cces],
                    harness._memory_image(system), harness._dir_image(system),
                    [lce.snapshot() for lce in system.lces])

        assert finish(copied) == finish(system)


class TestFreed:
    """A System holds no reference cycle, so reference counting frees it
    and its CCEs as soon as the last reference goes: the cyclic collector
    is off while each case runs."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("how", ["never-run", "run_trace", "run"])
    def test_freed_when_dropped(self, engine, how):
        def build_and_drop():
            system = System(SystemConfig(cores=2, sets=16, assoc=2,
                                         num_cces=2, engine=engine))
            if how == "run_trace":
                ops = random_workload(5, lces=2, ops=100,
                                      footprint_blocks=256, write_ratio=0.5)
                assert not run_trace(system, ops,
                                     monitors=default_monitors()).violations
            elif how == "run":
                system.submit(0, BASE, write=True, data=b"\x11" * 8)
                system.submit(1, BASE + 64, write=False)
                assert system.run() > 0 and system.idle()
            return [weakref.ref(obj) for obj in (system, *system.cces)]

        enabled = gc.isenabled()
        gc.disable()
        try:
            refs = build_and_drop()
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()


class TestRun:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("shape", [
        dict(cores=4, sets=8, assoc=2),
        dict(cores=4, sets=8, assoc=2, num_cces=2, net_latency=0),
        dict(cores=2, sets=4, assoc=1, mem_latency=3),
        dict(cores=2, sets=4, assoc=1, net_latency=0, mem_latency=0),
    ], ids=["1cce", "2cce-lat0", "2c-evict", "2c-lat0-mem0"])
    def test_run_matches_stepping(self, engine, shape):
        """`run` drains through `advance`, which steps every cycle: the
        same batched submissions give the same cycles, cycle accounting,
        mispredicts and final images as calling `step` directly, and
        `step` is called once per cycle either way."""
        cfg = SystemConfig(engine=engine, **shape)
        rng = random.Random(7)
        blocks = [BASE + 64 * b for b in range(4 * cfg.sets * cfg.assoc)]
        batches = [[(i, rng.choice(blocks), rng.random() < 0.5)
                    for i in range(cfg.cores)] for _ in range(40)]

        def drain_by_run(system):
            return system.run()

        def drain_by_step(system):
            start = system.now
            while not system.idle():
                system.step()
            return system.now - start

        def run(drain):
            system = System(cfg)
            steps = []
            step = system.step
            system.step = lambda: (steps.append(None), step())
            elapsed = []
            for n, batch in enumerate(batches):
                for i, addr, write in batch:
                    system.submit(i, addr, write=write,
                                  data=bytes([n]) * 8 if write else None)
                elapsed.append(drain(system))
                assert system.idle()
            images = (harness._memory_image(system),
                      harness._dir_image(system),
                      [lce.snapshot() for lce in system.lces])
            counters = [(c.stats.busy_cycles, c.stats.wait_cycles,
                         c.stats.stall_cycles, c.stats.idle_cycles,
                         getattr(c, "mispredicts", None))
                        for c in system.cces]
            return elapsed, counters, images, len(steps)

        fast, slow = run(drain_by_run), run(drain_by_step)
        assert fast[3] == sum(fast[0]) and slow[3] == sum(slow[0])
        assert fast == slow


class TestSystemConfig:
    @pytest.mark.parametrize("kwargs,message", [
        ({"sets": 3}, "sets must be a power of two"),
        ({"assoc": 6}, "assoc must be a power of two"),
        ({"block_bytes": 4}, "block_bytes must hold an 8-byte word"),
        ({"cores": 0}, "cores must be at least 1"),
        ({"sets": 8, "num_cces": 9}, "num_cces must be between 1 and sets"),
        ({"num_cces": 0}, "num_cces must be between 1 and sets"),
        ({"engine": "rtl"}, "engine must be one of fsm, ucode"),
        ({"protocol": "msi"}, "protocol must be one of moesif, mesi"),
        ({"sets": 0}, "sets must be a power of two, got 0"),
        ({"beat_bytes": 0}, "beat_bytes must be a power of two"),
        ({"beat_bytes": 12}, "beat_bytes must be a power of two"),
        ({"beat_bytes": 128}, r"no larger than block_bytes \(64\)"),
        ({"net_latency": -1}, "net_latency must not be negative, got -1"),
        ({"mem_latency": -5}, "mem_latency must not be negative, got -5"),
    ])
    def test_rejected_when_built(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"net_latency": 0}, {"mem_latency": 0}, {"beat_bytes": 64},
        {"beat_bytes": 1}])
    def test_edge_timings_accepted(self, kwargs):
        SystemConfig(**kwargs)

    def test_other_block_sizes_run(self):
        ops = random_workload(1, lces=2, ops=120, footprint_blocks=8,
                              block_bytes=32)
        report = compare_engines(ops, SystemConfig(cores=2, sets=16,
                                                   block_bytes=32))
        assert report.equivalent and not report.violations


class TestCompareEngines:
    def test_small_trace_equivalent(self):
        ops = random_workload(11, lces=2, ops=120, footprint_blocks=16)
        report = compare_engines(ops, SystemConfig(cores=2, sets=16))
        assert report.equivalent, report.differences
        assert not report.violations
        assert report.cycle_ratio > 0
        assert "equivalent" in report.summary()

    @pytest.mark.parametrize("num_cces", [1, 2, 4])
    @pytest.mark.parametrize("assoc", [1, 2])
    @pytest.mark.parametrize("protocol", ["moesif", "mesi"])
    def test_equivalent_under_evictions(self, protocol, assoc, num_cces):
        """A 256-block footprint against 16 sets of 1 or 2 ways: most
        reads also replace a line, and such a read of a block cached
        nowhere must be granted E by both engines."""
        ops = random_workload(1, lces=2, ops=400, footprint_blocks=256,
                              write_ratio=0.5)
        report = compare_engines(ops, SystemConfig(
            cores=2, sets=16, assoc=assoc, num_cces=num_cces,
            protocol=protocol))
        assert report.equivalent, report.differences
        assert not report.violations

    def test_directory_image_takes_the_silent_upgrade_from_the_store_cell(
            self):
        """A directory E entry over a line the cache holds M is reported M
        because the cache's (E, Store) cell is Hit/M; with that cell a
        plain hit, it stays E."""
        system = System(SystemConfig(cores=2, sets=8))
        system.preload_line(0, BASE, M, dir_state=E)
        entry = (0, 0, 0, 0)   # (cce, cache, set, way)
        assert harness._dir_image(system)[entry][1] is M
        system.lces[0].tables = dataclasses.replace(
            MOESIF, lce={**MOESIF.lce, ("E", "Store"): ((), None)})
        assert harness._dir_image(system)[entry][1] is E

    def test_empty_trace_ratio_is_one(self):
        report = compare_engines([], SystemConfig(cores=2, sets=8))
        assert report.equivalent
        assert report.cycle_ratio == 1.0

    def test_differences_listed_per_image(self, tmp_path):
        """Firmware that grants S, not E, to an exclusive read of a block
        cached nowhere that also evicts (the full path's grant) ends in
        other directory and cache states than `fsm` on the eviction trace
        above, with memory the same and the monitors clean.  Each image
        lists at most 10 of its differences."""
        grant = ("  # cached nowhere, exclusive read (one that also evicts):"
                 " grant exclusive\n  wde E\n  specq unset\n")
        source = default_program("moesif")
        assert source.count(grant) == 1
        firmware = tmp_path / "shared_grant.ucs"
        firmware.write_text(source.replace(
            grant, grant.replace("wde E\n  specq unset",
                                 "wde S\n  specq fwd_mod S")))
        ops = random_workload(1, lces=2, ops=400, footprint_blocks=256,
                              write_ratio=0.5)
        report = compare_engines(ops, SystemConfig(
            cores=2, sets=16, assoc=2, ucode_program=str(firmware)))
        assert not report.equivalent and not report.violations
        labels = [d.split(" differs at ")[0] for d in report.differences]
        counts = {label: labels.count(label) for label in labels}
        assert set(counts) == {"directory", "cache 0", "cache 1"}
        assert max(counts.values()) == 10
        assert report.summary().startswith("equivalent: NO\n")

    @pytest.mark.parametrize("firmware,error", [
        ("frob.ucs", asm.AsmError), ("missing.ucs", FileNotFoundError)])
    def test_bad_firmware_fails_before_either_engine_runs(
            self, tmp_path, monkeypatch, firmware, error):
        """Both systems are built before either engine runs, so firmware
        that does not assemble or cannot be opened costs no `fsm` run."""
        (tmp_path / "frob.ucs").write_text("frob\n")
        runs = []
        monkeypatch.setattr(harness, "run_trace",
                            lambda system, *args, **kw: runs.append(system))
        ops = random_workload(11, lces=2, ops=20, footprint_blocks=4)
        with pytest.raises(error):
            compare_engines(ops, SystemConfig(
                cores=2, sets=8, ucode_program=str(tmp_path / firmware)))
        assert runs == []


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

    @pytest.mark.parametrize("scheme,kwargs,message", [
        ("dup", dict(tag_bits=-100), "tag_bits must not be negative"),
        ("complete", dict(state_bits=-1), "state_bits must not be negative"),
        ("dup", dict(block_bits=0), "block_bits must be positive"),
        ("complete", dict(block_bits=-64), "block_bits must be positive"),
        ("coarse:x", {}, "coarse vector width must be a positive integer"),
        ("coarse:-4", {}, "coarse vector width must be a positive integer"),
        ("coarse:0", {}, "coarse vector width must be a positive integer"),
        ("coarsely", {}, "unknown scheme"),
    ])
    def test_bad_widths_rejected(self, scheme, kwargs, message):
        with pytest.raises(ValueError, match=message):
            overhead_calc(scheme, 4, **kwargs)

    def test_coarse_width_defaults_to_8(self):
        assert overhead_calc("coarse", 64) == overhead_calc("coarse:8", 64)


DIGEST = "a2965c438effa0948ef04b882b6ce0caf21a25d453ca24f6b75b4a0bb70513d2"


def _final_state_digest(system):
    """sha256 over the final memory, cache and directory images."""
    images = (sorted(harness._memory_image(system).items()),
              [sorted(lce.snapshot().items()) for lce in system.lces],
              sorted(harness._dir_image(system).items()))
    return hashlib.sha256(repr(images).encode()).hexdigest()


def _transactions_digest(system):
    """sha256 over every field of every transaction record, CCE by CCE in
    the order each closed them."""
    records = [dataclasses.astuple(t) for cce in system.cces
               for t in cce.stats.transactions]
    return hashlib.sha256(repr(records).encode()).hexdigest()


class TestBitIdentity:
    """Simulated results pinned to recorded values, so a change meant only
    to speed up the simulator cannot move cycles or final state.  The
    trace's 64-block footprint fits the 16-set x 8-way caches, so no line
    is ever replaced."""

    # engine -> (cycles, final-state digest)
    GOLDEN = {"fsm": (3805, DIGEST), "ucode": (7149, DIGEST)}

    @pytest.mark.parametrize("engine", sorted(GOLDEN))
    def test_cycles_and_final_state(self, engine):
        ops = random_workload(5, lces=8, ops=300, footprint_blocks=64)
        system = System(SystemConfig(cores=8, sets=16, engine=engine))
        report = run_trace(system, ops, monitors=default_monitors())
        assert not report.violations
        assert report.completed == len(ops)
        assert (report.cycles,
                _final_state_digest(system)) == self.GOLDEN[engine]

    # name -> (SystemConfig arguments, random_workload arguments)
    SHAPES = {
        "evict-2c": (dict(cores=2, sets=16, assoc=2),
                     dict(lces=2, footprint_blocks=256, write_ratio=0.5)),
        "8c-2cce": (dict(cores=8, sets=16, num_cces=2),
                    dict(lces=8, footprint_blocks=64)),
        "4c-lat0": (dict(cores=4, sets=16, net_latency=0),
                    dict(lces=4, footprint_blocks=64)),
        "4c-fence": (dict(cores=4, sets=16),
                     dict(lces=4, footprint_blocks=64, fence_ratio=0.2)),
        "4c-2cce-lat0-evict": (dict(cores=4, sets=16, assoc=2, num_cces=2,
                                    net_latency=0),
                               dict(lces=4, footprint_blocks=256,
                                    write_ratio=0.5)),
    }
    # Ops appended to a shape's trace.  A fence retires only when the whole
    # system is idle, so the fence that cache 0 issues after its own last
    # one finds the system idle and still costs one cycle.
    TAILS = {
        "4c-fence": [TraceOp(c, "FENCE") for c in range(4)]
                    + [TraceOp(0, "FENCE")],
    }
    # (shape, engine) -> (cycles, final-state digest, (busy, wait, stall,
    # idle) cycles summed over the CCEs, ucode mispredicts)
    SHAPE_GOLDEN = {
        ("evict-2c", "fsm"): (
            7789, "a7d2e2c6a3d20cb16715f5aa2ac99b88"
                  "dc628abcc48d0da97bb47d7bb56ef427", (3567, 966, 16, 3240), 0),
        ("evict-2c", "ucode"): (
            10809, "a7d2e2c6a3d20cb16715f5aa2ac99b88"
                   "dc628abcc48d0da97bb47d7bb56ef427", (8387, 966, 5, 1451),
            661),
        ("8c-2cce", "fsm"): (
            3309, "d586bf2eb2ae9a94278b84193b3c14f7"
                  "8f9bb259a5ab8f62ae6ac7b2e724f37b", (3154, 23, 146, 3295), 0),
        ("8c-2cce", "ucode"): (
            5101, "d586bf2eb2ae9a94278b84193b3c14f7"
                  "8f9bb259a5ab8f62ae6ac7b2e724f37b", (6697, 26, 2, 3477),
            428),
        ("4c-lat0", "fsm"): (
            3444, "c7acfe51ac9fac22dcb7b97f1d5f9836"
                  "c17d1e9dea662f50cccf2cc13092c0ee", (2259, 7, 69, 1109), 0),
        ("4c-lat0", "ucode"): (
            5717, "c7acfe51ac9fac22dcb7b97f1d5f9836"
                  "c17d1e9dea662f50cccf2cc13092c0ee", (5146, 12, 2, 557), 347),
        ("4c-fence", "fsm"): (
            4126, "c822a0a29cb71189f60cc3c49986d3c1"
                  "b213fc8e87f9f4abba726a1be4f43a94", (1851, 19, 49, 2207), 0),
        ("4c-fence", "ucode"): (
            5651, "c822a0a29cb71189f60cc3c49986d3c1"
                  "b213fc8e87f9f4abba726a1be4f43a94", (4276, 21, 0, 1354),
            294),
        ("4c-2cce-lat0-evict", "fsm"): (
            4745, "9affee317dcd226afbda1a656bda2f4d"
                  "b3c5598e808afca64a56dbd72e456755", (3560, 518, 75, 5337),
            0),
        ("4c-2cce-lat0-evict", "ucode"): (
            6761, "9affee317dcd226afbda1a656bda2f4d"
                  "b3c5598e808afca64a56dbd72e456755", (7950, 523, 9, 5040),
            586),
    }

    # (shape, engine) -> _transactions_digest.  The counter sums above do
    # not move when a cycle is charged to the wrong transaction; these do.
    TXN_GOLDEN = {
        ("evict-2c", "fsm"): "3ccb89d63d7267ab0f0d1f5b6aea7a67"
                             "35ae11ad66f8c61e98b0dd8bdbd16c09",
        ("evict-2c", "ucode"): "d8eb340126f71fea360509ae46322a4d"
                               "3785c0f16b980ac60751f5d9b8e9af86",
        ("8c-2cce", "fsm"): "b4d687dbf5bdd4657373c86dd5aa5190"
                            "a0e60c464bad97f0366629789686dcb1",
        ("8c-2cce", "ucode"): "8a3730f3d00e1977fa76369bc2d68400"
                              "f1b310aaaef051a6a85ef0f3d96d7c98",
    }

    @pytest.mark.parametrize("shape,engine", sorted(SHAPE_GOLDEN))
    def test_cycles_state_and_counters(self, shape, engine):
        """300-op traces in five more shapes: 2 caches of 16 sets x 2
        ways under a 256-block footprint, so lines are replaced and dirty
        victims written back; 8 caches homed on 2 CCEs; zero network
        latency, where a message can be delivered in the cycle it is sent;
        4 caches with one op in five a fence, ending in fences; and 4
        caches of 16 sets x 2 ways on 2 CCEs at zero latency under a
        256-block footprint, where memory commands sent in cycles in which
        only the CCEs act are delivered in that same cycle, two CCEs share
        the memory credits, and lines are replaced.  In every shape both
        engines end in the same state."""
        system_args, trace_args = self.SHAPES[shape]
        ops = (random_workload(5, ops=300, **trace_args)
               + self.TAILS.get(shape, []))
        system = System(SystemConfig(engine=engine, **system_args))
        report = run_trace(system, ops, monitors=default_monitors())
        assert not report.violations
        assert report.completed == len(ops)
        counters = tuple(sum(getattr(c.stats, k) for c in system.cces)
                         for k in ("busy_cycles", "wait_cycles",
                                   "stall_cycles", "idle_cycles"))
        mispredicts = sum(getattr(c, "mispredicts", 0) for c in system.cces)
        assert (report.cycles, _final_state_digest(system), counters,
                mispredicts) == self.SHAPE_GOLDEN[shape, engine]
        if (shape, engine) in self.TXN_GOLDEN:
            assert (_transactions_digest(system)
                    == self.TXN_GOLDEN[shape, engine])

    # engine -> (cycles of each run, final-state digest, (busy, wait,
    # stall, idle) cycles summed over the CCEs)
    BACK_TO_BACK_GOLDEN = {
        "fsm": ((5061, 4572), "232b4841770e2f6bc4b257701093920836e97d6379e3"
                              "ca941c3315e3175029da",
                (7397, 1709, 142, 10018)),
        "ucode": ((6667, 6752), "232b4841770e2f6bc4b257701093920836e97d637"
                                "9e3ca941c3315e3175029da",
                  (16878, 1711, 16, 8233)),
    }

    @pytest.mark.parametrize("engine", sorted(BACK_TO_BACK_GOLDEN))
    def test_back_to_back_runs(self, engine):
        """Two 300-op traces run one after the other on one system of 4
        caches of 16 sets x 2 ways homed on 2 CCEs, under one set of
        monitors: the second run starts from the idle state the first
        left, so it resumes both sequencers between requests."""
        system = System(SystemConfig(cores=4, sets=16, assoc=2, num_cces=2,
                                     engine=engine))
        monitors = default_monitors()
        cycles = []
        for seed in (6, 7):
            ops = random_workload(seed, lces=4, ops=300,
                                  footprint_blocks=256, write_ratio=0.5)
            report = run_trace(system, ops, monitors=monitors)
            assert not report.violations
            assert report.completed == len(ops)
            cycles.append(report.cycles)
        counters = tuple(sum(getattr(c.stats, k) for c in system.cces)
                         for k in ("busy_cycles", "wait_cycles",
                                   "stall_cycles", "idle_cycles"))
        assert ((tuple(cycles), _final_state_digest(system), counters)
                == self.BACK_TO_BACK_GOLDEN[engine])


def _holder_mixes(tables):
    """(requester's state, other owner's state or None, S sharers) of every
    mix of copies the protocol allows: at most one owner, and no other
    valid copy beside an E or M one."""
    owners = [s for s in tables.states if s is not I and s is not S]
    for mine in tables.states:
        for owner in [None, *owners]:
            for sharers in range(3):
                copies = (mine is not I) + (owner is not None) + sharers
                if ((mine in owners and owner is not None)
                        or (E in (mine, owner) or M in (mine, owner))
                        and copies > 1):
                    continue
                yield mine, owner, sharers


class TestUncachedToCacheableGolden:
    """An uncached load or store from cache 0 to a cacheable block, for
    every holder mix: cache 0 in each of its states, an owner (cache 1) in
    each owner state, and 0-2 S sharers (caches 2 and 3).  A dirty copy
    (M or O) holds data memory does not.  Every run's cycles, per-CCE
    cycle classes, transaction records, images and loaded value are pinned
    to recorded values, as `TestBitIdentity` pins the coherent flows,
    which random traces (their uncached ops all go to uncacheable memory)
    never take here."""

    # (protocol, engine, op) -> (cycles summed over the runs, sha256)
    GOLDEN = {
        ("mesi", "fsm", "LDU"): (
            387, "9054761c3e77c907b9a1538f492b0e4f"
                 "a68057b8dac40bbea5aafbcf30e3b924"),
        ("mesi", "fsm", "STU"): (
            377, "7d4b50d01751d0972ecd98493ecdcb51"
                 "84e3839716b479492fd779528d109854"),
        ("mesi", "ucode", "LDU"): (
            485, "9cf930c7476c703b4b94c2b965900544"
                 "cee3f4b1372c256ff5c933faf06672e7"),
        ("mesi", "ucode", "STU"): (
            475, "36ae41235901932a3ce178071469b99f"
                 "58f26b5b93923ab1e901161f1e3faa99"),
        ("moesif", "fsm", "LDU"): (
            1215, "5dba82a763ffc64be6e848ddbaf76328"
                  "986fe8c1980d8fa03de3bd730631b838"),
        ("moesif", "fsm", "STU"): (
            1187, "1e7632b261bab69f817e53f77ffef775"
                  "0327bd288b8e5f03928f6b93788c25a2"),
        ("moesif", "ucode", "LDU"): (
            1553, "b57cbffb75488a354e4bc5b8f966f5cf"
                  "710d9bdddfe5f3f495a468ccbb687dde"),
        ("moesif", "ucode", "STU"): (
            1525, "f646c481e827cf5fdf06769dd85e935c"
                  "f24b6b44d98b88184ec0d17b3b888b4f"),
    }

    @staticmethod
    def run(protocol, engine, op, mine, owner, sharers):
        system = System(SystemConfig(cores=4, sets=8, protocol=protocol,
                                     engine=engine))
        data = bytes(range(64))
        holders = [(0, mine), (1, owner)] + [(2 + i, S)
                                             for i in range(sharers)]
        for lce, state in holders:
            if state is not None and state is not I:
                system.preload_line(lce, BASE, state, data=data)
        if M in (mine, owner) or O in (mine, owner):
            system.store.write(BASE, b"\xee" * 64)
        system.submit(0, BASE + 8, write=op == "STU", uncached=True,
                      data=b"\x5a" * 8 if op == "STU" else None)
        system.run()
        assert system.idle() and system.lces[0].miss is None
        return (system.now,
                [(c.stats.busy_cycles, c.stats.wait_cycles,
                  c.stats.stall_cycles, c.stats.idle_cycles)
                 for c in system.cces],
                [dataclasses.astuple(t) for c in system.cces
                 for t in c.stats.transactions],
                sorted(harness._memory_image(system).items()),
                [sorted(lce.snapshot().items()) for lce in system.lces],
                sorted(harness._dir_image(system).items()),
                system.lces[0].completed)

    @pytest.mark.parametrize("protocol,engine,op", sorted(GOLDEN))
    def test_cycles_records_and_images(self, protocol, engine, op):
        tables = PROTOCOLS[protocol]
        runs = [self.run(protocol, engine, op, *mix)
                for mix in _holder_mixes(tables)]
        assert len(runs) == {"moesif": 28, "mesi": 10}[protocol]
        assert ((sum(r[0] for r in runs),
                 hashlib.sha256(repr(runs).encode()).hexdigest())
                == self.GOLDEN[protocol, engine, op])


class TestUncachedToCacheableRandom:
    """Random traces whose uncached ops go to cacheable memory: each LDU
    moves onto a block of the shared pool, where other caches hold copies,
    and each STU onto a block of its own cache's private pool, so that no
    posted store races another cache (see `harness`).  Both engines end
    equivalent with the monitors clean, and some uncached load finds a
    copy in another cache, so the flush stays covered."""

    SHAPES = {
        "fit-4c": (dict(cores=4, sets=16), dict(lces=4, footprint_blocks=64)),
        "evict-2c": (dict(cores=2, sets=16, assoc=2),
                     dict(lces=2, footprint_blocks=256, write_ratio=0.5)),
    }

    @staticmethod
    def trace(seed, footprint_blocks, **gen_kw):
        """`random_workload`'s trace with its uncached ops moved: the
        workload puts cache c's i-th uncacheable block at index
        c * private_n + i, and its private pool right after the shared
        one."""
        ops = random_workload(seed, ops=600, uncached_ratio=0.1,
                              footprint_blocks=footprint_blocks, **gen_kw)
        base = DEFAULT_REGION_MAP.cacheable[0][0]
        shared_n = footprint_blocks // 2
        out = []
        for op in ops:
            if op.op in ("LDU", "STU"):
                j = (op.addr - 0x1000) // 64
                block = j % shared_n if op.op == "LDU" else shared_n + j
                op = op._replace(addr=base + block * 64)
            out.append(op)
        return out

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("num_cces", [1, 2])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("protocol", ["moesif", "mesi"])
    def test_equivalent_and_flushes_another_holder(
            self, protocol, shape, num_cces, seed, monkeypatch):
        built = []

        class Recorded(System):
            def __init__(self, cfg):
                super().__init__(cfg)
                built.append(self)

        monkeypatch.setattr(harness, "System", Recorded)
        cfg_kw, gen_kw = self.SHAPES[shape]
        ops = self.trace(seed, **gen_kw)
        assert sum(op.op in ("LDU", "STU") for op in ops) > 20
        report = compare_engines(ops, SystemConfig(
            protocol=protocol, num_cces=num_cces, **cfg_kw))
        assert report.equivalent, report.differences
        assert not report.violations
        assert len(built) == 2
        for system in built:
            assert any(t.req_kind == "uncached-to-cacheable"
                       and t.lce_state is I and t.dir_state is not I
                       for cce in system.cces
                       for t in cce.stats.transactions)


class TestHookContract:
    """The benchmark's layer tracing replaces instance methods of a built
    `System` with wrappers.  A method the simulator bound before that (a
    bound method kept in a table, say) would bypass its wrapper and
    silently read low, or 0, for a whole layer.  So every traced method
    is wrapped twice, on its class before the System is built and on its
    instance after, and the two counts must agree."""

    # attribute path from the System -> traced methods
    TRACED = {
        "": ("step", "submit"),
        "net": ("send", "deliver"),
        "lces": ("access", "handle_command", "handle_fill_net"),
        "cces": ("tick", "accept"),
        "cces.directory": ("read_way_group", "write_state"),
        "mem": ("tick",),
    }

    @classmethod
    def _traced(cls, system):
        """(path, object, method name) for every traced method."""
        for path, names in cls.TRACED.items():
            objs = [system]
            for attr in filter(None, path.split(".")):
                objs = [getattr(o, attr) for o in objs]
                objs = [x for o in objs
                        for x in (o if isinstance(o, list) else [o])]
            for obj in objs:
                for name in names:
                    yield path, obj, name

    @pytest.mark.parametrize("engine", ["fsm", "ucode"])
    def test_every_traced_method_is_called(self, engine, monkeypatch):
        cfg = SystemConfig(cores=2, sets=16, assoc=2, num_cces=2,
                           engine=engine)
        ops = random_workload(5, lces=2, ops=300, footprint_blocks=256,
                              write_ratio=0.5)
        plain = System(cfg)
        want = run_trace(plain, ops, monitors=default_monitors())

        by_class = {}   # (id(instance), method) -> calls through the class

        def class_wrapper(real, name):
            def counted(obj, *args, **kwargs):
                key = (id(obj), name)
                by_class[key] = by_class.get(key, 0) + 1
                return real(obj, *args, **kwargs)
            return counted

        for cls, name in {(type(obj), name)
                          for _, obj, name in self._traced(plain)}:
            monkeypatch.setattr(cls, name,
                                class_wrapper(getattr(cls, name), name))
        assembled = []
        real_assemble = asm.assemble_words
        monkeypatch.setattr(asm, "assemble_words", lambda source: (
            assembled.append(source) or real_assemble(source)))
        system = System(cfg)
        assert len(assembled) == (cfg.num_cces if engine == "ucode" else 0)

        by_instance = {}   # (path, id(instance), method) -> calls

        def instance_wrapper(real, key):
            by_instance[key] = 0

            def counted(*args, **kwargs):
                by_instance[key] += 1
                return real(*args, **kwargs)
            return counted

        for path, obj, name in self._traced(system):
            setattr(obj, name, instance_wrapper(getattr(obj, name),
                                                (path, id(obj), name)))
        report = run_trace(system, ops, monitors=default_monitors())
        assert report == want
        assert _final_state_digest(system) == _final_state_digest(plain)
        assert not [key for key, n in by_instance.items() if n == 0]
        assert {key: by_class.get(key[1:], 0) for key in by_instance} \
            == by_instance
