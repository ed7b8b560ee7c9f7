"""Directory segment, pending/speculative bits, the way-group read record
and the GAD unit."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from cohsim.cce import EngineFault
from cohsim.directory import (ENTRY_READ_LATENCY, SQUASHED, UNRESOLVED,
                              DirectorySegment, DoubleSpeculation,
                              DuplicateTag, MultipleOwners, OutOfRange,
                              PendingBits, SpecBits, Underflow,
                              way_group_home)
from cohsim.harness import default_monitors, random_workload, run_trace
from cohsim.protocol import MOESIF, CoherenceState
from cohsim.system import System, SystemConfig
from cohsim.ucode import engine as ucode_engine
from test_ucode_engine import busy_after, make_engine, request, write_entry

I, S, E, M, O, F = CoherenceState
VALID = [S, E, M, O, F]


def cfg_for(caches, **kw):
    return SystemConfig(cores=caches, **kw)


def segment(cfg, cce_id=0, tables=MOESIF):
    return DirectorySegment(cfg, cce_id, tables)


def block(cfg, addr):
    """The (local way group, tag) of `addr`'s block in a one-CCE system,
    where every set is homed at CCE 0 and its way group is its index."""
    return cfg.set_index(addr), cfg.tag_of(addr)


class TestGeometryAndLatency:
    @pytest.mark.parametrize("caches,rows", [(2, 1), (4, 2), (8, 4), (16, 8),
                                             (3, 2), (5, 3)])
    def test_rows_per_set(self, caches, rows):
        assert cfg_for(caches).rows_per_set == rows

    @pytest.mark.parametrize("caches", [2, 4, 8, 16])
    def test_way_group_read_latency_is_one_plus_half_caches(self, caches):
        # One cycle to start plus one cycle per physical row of the set.
        cfg = cfg_for(caches)
        assert cfg.way_group_read_latency == 1 + caches // 2
        found = segment(cfg).read_way_group(*block(cfg, 0x8000_0000), 0, 0)
        assert (found.copies, found.dir_state, found.replacement) == (
            [], I, False)

    def test_entry_read_and_write_latencies(self, tmp_path):
        """An entry read (`rde`) occupies the engine two cycles; an entry
        write (`wde`, `wds`) or a row clear (`clr`) one."""
        assert ENTRY_READ_LATENCY == 2
        for target in ("req", "owner"):
            eng = make_engine(tmp_path, f"  rde {target}\n  wfq resp\n",
                              caches=4)
            assert busy_after(eng) == 2
        eng = make_engine(tmp_path,
                          "  rdw\n  wde M\n  wds req, O\n  wfq resp\n",
                          caches=4, req=request(0x8000_0000))
        assert busy_after(eng) == eng.cfg.way_group_read_latency + 2
        assert eng.directory.snapshot() == {
            (0, 0, 0): (eng.cfg.tag_of(0x8000_0000), O)}
        eng = make_engine(tmp_path, "  clr\n  wfq resp\n", caches=4,
                          req=request(0x8000_0000))
        assert busy_after(eng) == 1

    def test_striping(self):
        # Way groups stripe round-robin over CCEs by low set-index bits.
        assert way_group_home(0, 2) == (0, 0)
        assert way_group_home(1, 2) == (1, 0)
        assert way_group_home(2, 2) == (0, 1)
        assert way_group_home(5, 4) == (1, 1)
        addr_even = 0x8000_0000          # set 0 -> CCE 0
        addr_odd = 0x8000_0000 + 64      # set 1 -> CCE 1
        for engine in ("fsm", "ucode"):
            cce0 = System(cfg_for(2, num_cces=2, engine=engine)).cces[0]
            assert cce0.local_wg(addr_even) == 0
            assert cce0.local_wg(addr_even + 2 * 64) == 1    # set 2
            with pytest.raises(EngineFault, match=(
                    "address 0x80000040 routed to CCE 0; its home is "
                    "CCE 1")):
                cce0.local_wg(addr_odd)

    @pytest.mark.parametrize("num_cces", [1, 2, 8])
    def test_each_cce_stores_only_the_way_groups_it_homes(self, num_cces):
        """Over all CCEs the duplicate tags hold one entry per cache line,
        and a snapshot still names each entry by its global set."""
        system = System(SystemConfig(cores=8, sets=64, assoc=8,
                                     num_cces=num_cces))
        assert sum(len(tag_set) for cce in system.cces
                   for tag_sets in cce.directory.way_groups
                   for tag_set in tag_sets) == 8 * 64 * 8
        addr = 0x8000_0000 + 63 * 64     # set 63
        cce = system.home_cce(addr)
        write_entry(cce, addr, 5, 7, S)
        assert cce.directory.snapshot() == {
            (5, 63, 7): (cce.cfg.tag_of(addr), S)}

    def test_pending_and_speculation_bits_match_the_way_groups_homed(self):
        """Each CCE keeps one pending counter and one speculation value
        per way group it homes: 3, 3 and 2 for 8 sets over 3 CCEs, and a
        trace that touches every set runs clean on both engines."""
        for engine in ("fsm", "ucode"):
            system = System(cfg_for(2, sets=8, num_cces=3, engine=engine))
            assert [(len(cce.directory), len(cce.pending.counters),
                     len(cce.spec.values)) for cce in system.cces] == [
                (3, 3, 3), (3, 3, 3), (2, 2, 2)]
            trace = random_workload(seed=1, ops=200, lces=2,
                                    footprint_blocks=32)
            report = run_trace(system, trace, monitors=default_monitors())
            assert not report.violations

    def test_out_of_range(self):
        seg = segment(cfg_for(2))
        wg, tag = block(seg.cfg, 0x8000_0000)
        with pytest.raises(OutOfRange, match="cache id 2"):
            seg.read_way_group(wg, tag, 2, 0)
        with pytest.raises(OutOfRange, match="lru way 8"):
            seg.read_way_group(wg, tag, 0, 8)
        with pytest.raises(OutOfRange, match="cache id 2"):
            seg.write_state(wg, 2, 0, S)
        with pytest.raises(OutOfRange, match="way 8"):
            seg.write_entry(wg, tag, 0, 8, S)


class TestStorage:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_random_writes_then_reads(self, data):
        """The segment behaves as a map keyed by (cache, set, way), except
        that a write of a block that another way of the cache's tag set
        holds valid raises DuplicateTag and changes nothing."""
        caches = data.draw(st.integers(2, 8))
        cfg = cfg_for(caches, sets=8, assoc=4)
        seg = segment(cfg)
        shadow = {}
        for _ in range(data.draw(st.integers(1, 40))):
            lce = data.draw(st.integers(0, caches - 1))
            way = data.draw(st.integers(0, 3))
            blk = data.draw(st.integers(0, 255))
            addr = 0x8000_0000 + blk * 64
            state = data.draw(st.sampled_from([I] + VALID))
            set_idx, tag = cfg.set_index(addr), cfg.tag_of(addr)
            others = [shadow.get((lce, set_idx, w), (None, I))
                      for w in range(4) if w != way]
            if any(t == tag and held is not I for t, held in others):
                with pytest.raises(DuplicateTag):
                    seg.write_entry(*block(cfg, addr), lce, way, state)
                continue
            seg.write_entry(*block(cfg, addr), lce, way, state)
            shadow[(lce, set_idx, way)] = (tag, state)
        expect = {k: v for k, v in shadow.items() if v[1] is not I}
        assert seg.snapshot() == expect

    @pytest.mark.parametrize("caches,cleared,emptied", [
        (4, 1, {0, 1}), (3, 2, {2})])
    def test_clear_row_clears_the_caches_sharing_the_row(self, caches,
                                                         cleared, emptied):
        """Two caches' tag sets share a physical row: clearing one cache's
        row in a set empties both in that set, and nothing else."""
        cfg = cfg_for(caches, sets=4, assoc=2)
        seg = segment(cfg)
        base = 0x8000_0000
        for set_idx in range(4):
            for lce in range(caches):
                for way in range(2):   # a different block in each way
                    addr = base + 64 * (set_idx + 4 * way)
                    seg.write_entry(*block(cfg, addr), lce, way, S)
        before = seg.snapshot()
        seg.clear_row(2, cleared)        # set 2's way group
        assert seg.snapshot() == {
            (lce, set_idx, way): v
            for (lce, set_idx, way), v in before.items()
            if not (set_idx == 2 and lce in emptied)}
        # The cleared tag sets' indexes are emptied with them.
        assert [not index for index in seg.tag_index[2]] == [
            lce in emptied for lce in range(caches)]


def replaces_lru(tables, lru_state) -> bool:
    """Whether a miss by cache 0, whose LRU way 0 holds another block of
    the set in `lru_state`, reads as a replacement."""
    cfg = cfg_for(2)
    seg = segment(cfg, tables=tables)
    wg, tag = block(cfg, 0x8000_0000)
    seg.write_entry(wg, tag + 1, 0, 0, lru_state)
    return seg.read_way_group(wg, tag, 0, 0).replacement


class TestReplacementColumn:
    """A miss's LRU victim takes the writeback flow exactly when its state
    has a filled Replacement cell in the segment's tables."""

    def test_a_blank_cell_drops_the_victim(self):
        assert replaces_lru(MOESIF, O)
        tables = dataclasses.replace(MOESIF, directory={
            **MOESIF.directory, ("O", "Replacement"): None})
        assert not replaces_lru(tables, O)

    def test_a_filled_cell_replaces_the_victim(self):
        assert not replaces_lru(MOESIF, F)
        directory = MOESIF.directory
        tables = dataclasses.replace(MOESIF, directory={
            **directory, ("F", "Replacement"): directory["O", "Replacement"]})
        assert replaces_lru(tables, F)

    def test_each_cce_reads_its_own_tables(self):
        system = System(SystemConfig(cores=2, sets=8, protocol="mesi"))
        assert system.cces[0].directory.replacement_states == (E, M)


class TestPendingBits:
    def test_write_to_read_forwarding_same_cycle(self):
        # An adjust is visible to a read issued in the same cycle.
        pend = PendingBits(4)
        assert pend.read(2) is False
        pend.adjust(2, +1)
        assert pend.read(2) is True
        pend.adjust(2, +1)
        pend.adjust(2, -1)
        assert pend.read(2) is True
        pend.adjust(2, -1)
        assert pend.read(2) is False

    def test_underflow(self):
        pend = PendingBits(1)
        with pytest.raises(Underflow):
            pend.adjust(0, -1)

    def test_clear(self):
        pend = PendingBits(1)
        pend.adjust(0, +1)
        pend.clear(0)
        assert pend.read(0) is False


class TestSpecBits:
    def test_lifecycle(self):
        spec = SpecBits(2)
        assert spec.read(0) is None
        spec.set(0)
        assert spec.read(0) == UNRESOLVED
        spec.squash(0)
        assert spec.read(0) == SQUASHED
        spec.unset(0)
        assert spec.read(0) is None
        spec.set(0)
        spec.fwd_mod(0, S)
        assert spec.read(0) is S
        spec.set(0)   # a resolved read may speculate again
        assert spec.read(0) == UNRESOLVED and spec.read(1) is None

    def test_double_speculation_rejected(self):
        spec = SpecBits(1)
        spec.set(0)
        with pytest.raises(DoubleSpeculation):
            spec.set(0)


@st.composite
def way_groups(draw):
    """A way group holding one block in any legal mix of states, and a
    request for it: (caches, states, ways, lce, lru_way, victim state).
    Each cache's copy, if any, sits at its way; the requester's LRU way,
    unless its own copy is there, holds another block of the set in any
    state, I to F."""
    caches = draw(st.integers(2, 8))
    # At most one owner; any number of S sharers.
    states = [draw(st.sampled_from([I, I, S])) for _ in range(caches)]
    owner_choice = draw(st.integers(-1, caches - 1))
    if owner_choice >= 0:
        states[owner_choice] = draw(st.sampled_from([E, M, O, F]))
    ways = [draw(st.integers(0, 3)) for _ in range(caches)]
    lce = draw(st.integers(0, caches - 1))
    lru_way = draw(st.integers(0, 3))
    victim = draw(st.sampled_from([I] + VALID))
    return caches, states, ways, lce, lru_way, victim


GAD_ADDR = 0x8000_0000


def fill(seg, states, ways, lce, lru_way, victim):
    """Write a `way_groups` example into `seg` at GAD_ADDR."""
    wg, tag = block(seg.cfg, GAD_ADDR)
    for c, state in enumerate(states):
        seg.write_entry(wg, tag, c, ways[c], state)
    if states[lce] is I or ways[lce] != lru_way:
        seg.write_entry(wg, tag + 1, lce, lru_way, victim)


class TestGad:
    @settings(max_examples=300, deadline=None)
    @given(way_groups())
    def test_matches_brute_force(self, example):
        """The way-group read record, re-derived from first principles."""
        caches, states, ways, lce, lru_way, victim = example
        seg = segment(cfg_for(caches, sets=4, assoc=4))
        fill(seg, states, ways, lce, lru_way, victim)
        found = seg.read_way_group(*block(seg.cfg, GAD_ADDR), lce, lru_way)

        copies = [(c, ways[c], state) for c, state in enumerate(states)
                  if state is not I]
        owners = [copy for copy in copies if copy[2] is not S]
        hit = states[lce] is not I
        tag = seg.cfg.tag_of(GAD_ADDR)
        if hit and ways[lce] == lru_way:
            lru = (lru_way, tag, states[lce])
        else:
            lru = (lru_way, tag + 1, victim)
        assert found.copies == copies
        assert found.owner == (owners[0] if owners else None)
        assert (found.req_way, found.req_state) == (
            (ways[lce], states[lce]) if hit else (lru_way, I))
        assert (found.lru_way, found.lru_tag, found.lru_state) == lru
        assert found.dir_state is (owners[0][2] if owners
                                   else S if copies else I)
        assert found.sharers == states.count(S)
        # Only a miss whose victim is E, M or O needs a writeback flow: an
        # S or F victim is clean and non-exclusive, dropped silently.
        assert found.replacement == (
            not hit and lru_way == lru[0] and lru[2] in (E, M, O))

    @settings(max_examples=150, deadline=None)
    @given(way_groups(), st.booleans())
    def test_gad_flags_match_brute_force(self, tmp_path_factory, example,
                                         write):
        """`gad` sets a cached-state flag for every copy but the
        requester's, the replacement flag from the read, and the upgrade
        flag for a write from S, O or F; the specials then read the
        owner's copy and the requester's way and state."""
        caches, states, ways, lce, lru_way, victim = example
        eng = make_engine(tmp_path_factory.mktemp("gad"),
                          "  rdw\n  gad\n  mov r1, %ownerlce\n"
                          "  mov r2, %ownerstate\n  mov r3, %reqway\n"
                          "  mov r4, %reqstate\n  wfq resp\n",
                          caches=caches,
                          req=request(GAD_ADDR, lce, lru_way=lru_way))
        fill(eng.directory, states, ways, lce, lru_way, victim)
        eng.flags = write << ucode_engine.WNR
        busy_after(eng, ticks=16)
        found = eng._found

        flag_of = {S: ucode_engine.CSF, E: ucode_engine.CEF,
                   M: ucode_engine.CMF, O: ucode_engine.COF,
                   F: ucode_engine.CFF}
        want = {flag_of[state] for c, state in enumerate(states)
                if state is not I and c != lce}
        if found.replacement:
            want.add(ucode_engine.RF)
        if write and states[lce] in (S, O, F):
            want.add(ucode_engine.UF)
        if write:
            want.add(ucode_engine.WNR)
        assert {bit for bit in range(16) if eng.flags >> bit & 1} == want
        owner_lce, _, owner_state = found.owner or (0, 0, I)
        code = ucode_engine._STATE_CODE
        assert eng.regs[1:3] == [owner_lce, code[owner_state]]
        assert eng.regs[3:5] == [found.req_way, code[found.req_state]]

    def test_multiple_owners_detected(self):
        seg = segment(cfg_for(2))
        wg, tag = block(seg.cfg, 0x8000_0000)
        seg.write_entry(wg, tag, 0, 0, M)
        seg.write_entry(wg, tag, 1, 0, E)
        with pytest.raises(MultipleOwners, match="caches 0 and 1"):
            seg.read_way_group(wg, tag, 0, 0)

    def test_way_group_index_is_set_index(self):
        # The set index, which names the way group, ignores the tag bits.
        cfg = cfg_for(2, sets=64)
        assert cfg.set_index(0x8000_0000 + 64 * 5) == 5
        assert cfg.set_index(0x8000_0000 + 64 * 69) == 5
