"""Directory segment, pending/speculative bits, and GAD unit."""

import pytest
from hypothesis import given, settings, strategies as st

from cohsim.directory import (DirectorySegment, DoubleSpeculation,
                              MultipleOwners, OutOfRange, PendingBits,
                              SegmentConfig, SpecBits, Underflow, gad,
                              way_group_home)
from cohsim.protocol import CoherenceState

I, S, E, M, O, F = CoherenceState
VALID = [S, E, M, O, F]


def cfg_for(caches, **kw):
    return SegmentConfig(num_caches=caches, **kw)


class TestGeometryAndLatency:
    @pytest.mark.parametrize("caches,rows", [(2, 1), (4, 2), (8, 4), (16, 8),
                                             (3, 2), (5, 3)])
    def test_rows_per_set(self, caches, rows):
        assert cfg_for(caches).rows_per_set == rows

    @pytest.mark.parametrize("caches", [2, 4, 8, 16])
    def test_way_group_read_latency_is_one_plus_half_caches(self, caches):
        # One cycle to start plus one cycle per physical row of the set.
        assert cfg_for(caches).way_group_read_latency == 1 + caches // 2
        seg = DirectorySegment(cfg_for(caches))
        _, _, latency = seg.read_way_group(0x8000_0000, 0, 0)
        assert latency == 1 + caches // 2

    def test_entry_read_and_write_latencies(self):
        seg = DirectorySegment(cfg_for(4))
        addr = 0x8000_0000
        assert seg.read_entry(addr, 1, 3)[1] == 2
        assert seg.write_entry(addr, 1, 3, state=M) == 1
        assert seg.write_state(addr, 1, 3, O) == 1
        assert seg.clear_row(addr, 1) == 1

    def test_striping(self):
        # Way groups stripe round-robin over CCEs by low set-index bits.
        assert way_group_home(0, 2) == (0, 0)
        assert way_group_home(1, 2) == (1, 0)
        assert way_group_home(2, 2) == (0, 1)
        assert way_group_home(5, 4) == (1, 1)
        cfg = cfg_for(2)
        seg0 = DirectorySegment(cfg, cce_id=0, num_cces=2)
        addr_even = 0x8000_0000          # set 0 -> CCE 0
        addr_odd = 0x8000_0000 + 64      # set 1 -> CCE 1
        seg0.write_entry(addr_even, 0, 0, state=S)
        with pytest.raises(OutOfRange):
            seg0.read_entry(addr_odd, 0, 0)

    def test_out_of_range(self):
        seg = DirectorySegment(cfg_for(2))
        with pytest.raises(OutOfRange):
            seg.read_entry(0x8000_0000, 2, 0)
        with pytest.raises(OutOfRange):
            seg.read_entry(0x8000_0000, 0, 8)


class TestStorage:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_random_writes_then_reads(self, data):
        """The segment behaves as a map keyed by (cache, set, way)."""
        caches = data.draw(st.integers(2, 8))
        cfg = cfg_for(caches, sets_per_cache=8, assoc=4)
        seg = DirectorySegment(cfg)
        shadow = {}
        for _ in range(data.draw(st.integers(1, 40))):
            lce = data.draw(st.integers(0, caches - 1))
            way = data.draw(st.integers(0, 3))
            blk = data.draw(st.integers(0, 255))
            addr = 0x8000_0000 + blk * 64
            state = data.draw(st.sampled_from([I] + VALID))
            seg.write_entry(addr, lce, way, state=state)
            shadow[(lce, cfg.set_index(addr), way)] = (cfg.tag_of(addr), state)
        for (lce, set_idx, way), (tag, state) in shadow.items():
            addr = (tag * cfg.sets_per_cache + set_idx) * 64
            entry, _ = seg.read_entry(addr, lce, way)
            if entry.state is state and state is not I:
                assert entry.tag == tag
        expect = {k: v for k, v in shadow.items() if v[1] is not I}
        assert seg.snapshot() == expect

    @pytest.mark.parametrize("caches,cleared,emptied", [
        (4, 1, {0, 1}), (3, 2, {2})])
    def test_clear_row_clears_the_caches_sharing_the_row(self, caches,
                                                         cleared, emptied):
        """Two caches' tag sets share a physical row: clearing one cache's
        row in a set empties both in that set, and nothing else."""
        cfg = cfg_for(caches, sets_per_cache=4, assoc=2)
        seg = DirectorySegment(cfg)
        base = 0x8000_0000
        for set_idx in range(4):
            for lce in range(caches):
                for way in range(2):
                    seg.write_entry(base + 64 * set_idx, lce, way, state=S)
        before = seg.snapshot()
        assert seg.clear_row(base + 64 * 2, cleared) == 1
        assert seg.snapshot() == {
            (lce, set_idx, way): v
            for (lce, set_idx, way), v in before.items()
            if not (set_idx == 2 and lce in emptied)}


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
        spec.set(0)
        assert spec.read(0).spec
        spec.squash(0)
        rec = spec.read(0)
        assert rec.squash and not rec.spec and not rec.fwd_mod
        spec.unset(0)
        spec.set(0)
        spec.fwd_mod(0, S)
        rec = spec.read(0)
        assert rec.fwd_mod and rec.state is S and not rec.spec

    def test_double_speculation_rejected(self):
        spec = SpecBits(1)
        spec.set(0)
        with pytest.raises(DoubleSpeculation):
            spec.set(0)


def brute_force_gad(states, ways, lce, write):
    """Independent re-derivation of the GAD digest from first principles."""
    from cohsim.directory import GadResult
    res = GadResult()
    for c, state in enumerate(states):
        if state is I:
            continue
        if state in (E, M, O, F):
            assert res.owner is None
            res.owner = (c, ways[c], state)
        if c == lce:
            res.req_way_hit = ways[c]
            continue
        setattr(res, f"cached_{state.value.lower()}", True)
    req_state = states[lce]
    res.upgrade = write and req_state in (S, O, F)
    return res


class TestGad:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        caches = data.draw(st.integers(2, 8))
        cfg = cfg_for(caches, sets_per_cache=4, assoc=4)
        seg = DirectorySegment(cfg)
        addr = 0x8000_0000
        # At most one owner; any number of S sharers.
        states = [data.draw(st.sampled_from([I, I, S])) for _ in range(caches)]
        owner_choice = data.draw(st.integers(-1, caches - 1))
        if owner_choice >= 0:
            states[owner_choice] = data.draw(st.sampled_from([E, M, O, F]))
        ways = [data.draw(st.integers(0, 3)) for _ in range(caches)]
        for c, state in enumerate(states):
            seg.write_entry(addr, c, ways[c], state=state)
        lce = data.draw(st.integers(0, caches - 1))
        write = data.draw(st.booleans())
        lru_way = data.draw(st.integers(0, 3))
        sv, lru, _ = seg.read_way_group(addr, lce, lru_way)
        got = gad(sv, lru, lce, write)
        want = brute_force_gad(states, ways, lce, write)
        for f in ("cached_s", "cached_e", "cached_m", "cached_o", "cached_f",
                  "owner", "req_way_hit", "upgrade"):
            assert getattr(got, f) == getattr(want, f), f
        # Replacement flag: miss with a valid victim in the LRU way.
        miss = not sv.hits[lce]
        assert got.replacement == (miss and lru.lru_state is not I)

    def test_multiple_owners_detected(self):
        seg = DirectorySegment(cfg_for(2))
        addr = 0x8000_0000
        seg.write_entry(addr, 0, 0, state=M)
        seg.write_entry(addr, 1, 0, state=E)
        sv, lru, _ = seg.read_way_group(addr, 0, 0)
        with pytest.raises(MultipleOwners):
            gad(sv, lru, lce=0, write=False)

    def test_way_group_index_is_set_index(self):
        # The set index, which names the way group, ignores the tag bits.
        cfg = cfg_for(2, sets_per_cache=64)
        assert cfg.set_index(0x8000_0000 + 64 * 5) == 5
        assert cfg.set_index(0x8000_0000 + 64 * 69) == 5
