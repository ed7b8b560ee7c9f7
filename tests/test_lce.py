"""Cache controller: hits, misses, atomics, LRU, reservations, commands."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from cohsim.lce import Busy, Hit, Lce, LceConfig, LceKind, UnexpectedFill
from cohsim.messages import AtomicOp, CceCommand, CohRequest, Emission
from cohsim.protocol import (MOESIF, CoherenceState, CommandKind,
                             ImpossibleTransition)

I, S, E, M, O, F = CoherenceState
BASE = 0x8000_0000


def make_lce(**kw):
    return Lce(LceConfig(lce_id=0, **kw))


def fill(lce, addr, state, data=None, way=None):
    """Drive the full miss-then-fill path to install a line."""
    res = lce.access(addr, write=False)
    assert isinstance(res, CohRequest)
    way = res.lru_way if way is None else way
    data_command(lce, addr - addr % 64, way, state,
                 data if data is not None else bytes(64))
    return way


def data_command(lce, addr, way, state, data):
    """Deliver the directory's DATA grant of block `addr` into `way`."""
    lce.handle_command(CceCommand(kind=CommandKind.Data, addr=addr,
                                  target_way=way, state=state, data=data),
                       "cce0")


class TestProcessorPort:
    def test_cold_miss_issues_request(self):
        lce = make_lce()
        req = lce.access(BASE + 8, write=False)
        assert isinstance(req, CohRequest)
        assert req.addr == BASE and not req.write and req.lce == 0
        with pytest.raises(Busy):
            lce.access(BASE + 16, write=False)

    def test_fill_completes_and_acks(self):
        lce = make_lce()
        fill(lce, BASE + 8, E, data=b"\x05" * 64)
        assert lce.completed == b"\x05" * 8
        assert lce.outbox[-1].payload.kind is Emission.CohAck
        assert isinstance(lce.access(BASE + 8, write=False), Hit)

    def test_silent_e_to_m_on_store_hit(self):
        lce = make_lce()
        way = fill(lce, BASE, E)
        lce.access(BASE, write=True, data=b"\xff" * 8)
        assert lce.sets[0][way].state is M

    @pytest.mark.parametrize("state", [S, O, F])
    def test_write_to_read_only_state_misses(self, state):
        lce = make_lce()
        fill(lce, BASE, state)
        res = lce.access(BASE, write=True, data=bytes(8))
        assert isinstance(res, CohRequest) and res.write

    def test_read_hit_in_every_valid_state(self):
        for state in (S, E, M, O, F):
            lce = make_lce()
            fill(lce, BASE, state, data=b"\x09" * 64)
            res = lce.access(BASE, write=False)
            assert isinstance(res, Hit) and res.value == b"\x09" * 8

    def test_instruction_cache_requests_non_exclusive(self):
        lce = Lce(LceConfig(lce_id=0, kind=LceKind.Instruction))
        res = lce.access(BASE, write=False)
        assert res.non_exclusive

    def test_unexpected_fill(self):
        lce = make_lce()
        with pytest.raises(UnexpectedFill):
            data_command(lce, BASE, 0, E, bytes(64))


class TestAtomics:
    def test_amoadd_returns_old_value(self):
        lce = make_lce()
        fill(lce, BASE, M, data=(7).to_bytes(8, "little") + bytes(56))
        res = lce.access(BASE, write=False, atomic=AtomicOp.Add,
                         data=(5).to_bytes(8, "little"))
        assert int.from_bytes(res.value, "little") == 7
        assert lce.access(BASE, write=False).value == \
            (12).to_bytes(8, "little")

    def test_amoswap(self):
        lce = make_lce()
        fill(lce, BASE, M, data=(3).to_bytes(8, "little") + bytes(56))
        res = lce.access(BASE, write=False, atomic=AtomicOp.Swap,
                         data=(9).to_bytes(8, "little"))
        assert int.from_bytes(res.value, "little") == 3
        assert lce.access(BASE, write=False).value == \
            (9).to_bytes(8, "little")

    def test_amoadd_wraps(self):
        lce = make_lce()
        top = (1 << 64) - 1
        fill(lce, BASE, M, data=top.to_bytes(8, "little") + bytes(56))
        lce.access(BASE, write=False, atomic=AtomicOp.Add,
                   data=(2).to_bytes(8, "little"))
        assert int.from_bytes(lce.access(BASE, write=False).value,
                              "little") == 1

    def test_lr_sc_success(self):
        lce = make_lce()
        fill(lce, BASE, E)
        lce.access(BASE, write=False, atomic=AtomicOp.Lr)
        res = lce.access(BASE, write=False, atomic=AtomicOp.Sc,
                         data=b"\x42" * 8)
        assert int.from_bytes(res.value, "little") == 0  # success
        assert lce.access(BASE, write=False).value == b"\x42" * 8

    def test_sc_without_reservation_fails_without_missing(self):
        lce = make_lce()
        fill(lce, BASE, M)
        res = lce.access(BASE, write=False, atomic=AtomicOp.Sc, data=bytes(8))
        assert isinstance(res, Hit)
        assert int.from_bytes(res.value, "little") == 1  # failure
        assert lce.miss is None

    def test_losing_the_line_kills_reservation(self):
        # Another cache's write steals the block between the LR and the SC.
        lce = make_lce()
        fill(lce, BASE, E)
        lce.access(BASE, write=False, atomic=AtomicOp.Lr)
        lce.handle_command(
            CceCommand(kind=CommandKind.StTr, addr=BASE, state=I,
                       transfer_state=M, target_lce=1, target_way=0), "cce0")
        res = lce.access(BASE, write=False, atomic=AtomicOp.Sc, data=bytes(8))
        assert int.from_bytes(res.value, "little") == 1


class TestOneAccessPath:
    """An access performed at a hit and one completed when its miss ends
    give the same result, the same hook calls in the same order, the same
    line bytes and the same reservation."""

    BLOCK = bytes(range(64))
    OPS = {"LD": dict(write=False),
           "ST": dict(write=True, data=b"\x5a" * 8),
           "LR": dict(write=False, atomic=AtomicOp.Lr),
           "AMOADD": dict(write=False, atomic=AtomicOp.Add,
                          data=(5).to_bytes(8, "little")),
           "AMOSWAP": dict(write=False, atomic=AtomicOp.Swap,
                           data=(9).to_bytes(8, "little"))}

    @staticmethod
    def watch(lce):
        calls = []
        lce.on_load = lambda *args: calls.append(("load", *args))
        lce.on_store = lambda *args: calls.append(("store", *args))
        return calls

    def at_hit(self, op):
        lce = make_lce()
        way = fill(lce, BASE, M, data=self.BLOCK)
        calls = self.watch(lce)
        res = lce.access(BASE + 8, **self.OPS[op])
        assert isinstance(res, Hit)
        return res.value, calls, bytes(lce.sets[0][way].data), lce.reservation

    @pytest.mark.parametrize("op", OPS)
    def test_at_the_fill(self, op):
        lce = make_lce()
        calls = self.watch(lce)
        req = lce.access(BASE + 8, **self.OPS[op])
        assert isinstance(req, CohRequest)
        data_command(lce, BASE, req.lru_way, M, self.BLOCK)
        assert lce.miss is None
        assert (lce.completed, calls, bytes(lce.sets[0][req.lru_way].data),
                lce.reservation) == self.at_hit(op)

    @pytest.mark.parametrize("op", ["ST", "LR", "AMOADD", "AMOSWAP"])
    def test_at_the_upgrade(self, op):
        lce = make_lce()
        way = fill(lce, BASE, S, data=self.BLOCK)
        calls = self.watch(lce)
        assert isinstance(lce.access(BASE + 8, **self.OPS[op]), CohRequest)
        lce.handle_command(CceCommand(kind=CommandKind.StW, addr=BASE,
                                      state=M), "cce0")
        assert lce.miss is None
        assert (lce.completed, calls, bytes(lce.sets[0][way].data),
                lce.reservation) == self.at_hit(op)


class TestLru:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    def test_victim_matches_recency_list(self, refs):
        """The chosen victim is always the least-recently-used valid way,
        with invalid ways (in index order) taking precedence."""
        cfg = LceConfig(lce_id=0, sets=1, assoc=4)
        lce = Lce(cfg)
        recency = []  # tag order, most recent last
        for tag in refs:
            addr = BASE + tag * 64 * cfg.sets
            res = lce.access(addr, write=False)
            if isinstance(res, CohRequest):
                victim = res.lru_way
                lines = lce.sets[0]
                invalid = [w for w, l in enumerate(lines) if l.state is I]
                if invalid:
                    assert victim == invalid[0]
                else:
                    oldest = BASE + recency[0] * 64 * cfg.sets
                    assert lines[victim].tag == cfg.tag_of(oldest)
                    recency.pop(0)
                data_command(lce, addr, victim, E, bytes(64))
            if tag in recency:
                recency.remove(tag)
            recency.append(tag)


class TestCoherencePort:
    def test_invalidate_shared(self):
        lce = make_lce()
        way = fill(lce, BASE, S)
        lce.handle_command(CceCommand(kind=CommandKind.Inv, addr=BASE), "cce0")
        assert lce.sets[0][way].state is I
        assert lce.outbox[-1].payload.kind is Emission.InvAck

    def test_writeback_dirty_keeps_line(self):
        lce = make_lce()
        way = fill(lce, BASE, M, data=b"\x77" * 64)
        lce.handle_command(CceCommand(kind=CommandKind.Wb, addr=BASE), "cce0")
        resp = lce.outbox[-1].payload
        assert resp.kind is Emission.DirtyWB and resp.data == b"\x77" * 64
        assert lce.sets[0][way].state is M

    def test_set_transfer_moves_data_and_state(self):
        lce = make_lce()
        way = fill(lce, BASE, M, data=b"\x31" * 64)
        lce.handle_command(
            CceCommand(kind=CommandKind.StTr, addr=BASE, state=O,
                       transfer_state=S, target_lce=1, target_way=2), "cce0")
        assert lce.sets[0][way].state is O
        fill_msg = lce.outbox[-1]
        assert fill_msg.dst == "lce1"
        assert fill_msg.payload.state is S
        assert fill_msg.payload.data == b"\x31" * 64

    def test_upgrade_completes_buffered_store(self):
        lce = make_lce()
        way = fill(lce, BASE, S)
        res = lce.access(BASE, write=True, data=b"\x5a" * 8)
        assert isinstance(res, CohRequest)
        lce.handle_command(CceCommand(kind=CommandKind.StW, addr=BASE,
                                      state=M), "cce0")
        assert lce.miss is None
        assert lce.sets[0][way].state is M
        assert lce.access(BASE, write=False).value == b"\x5a" * 8

    def test_table_lookups_follow_a_replaced_table(self):
        """Resolved cells are remembered per table, so replacing an LCE's
        tables after use takes effect at once."""
        lce = make_lce()
        way = fill(lce, BASE, S)
        lce.handle_command(CceCommand(kind=CommandKind.Inv, addr=BASE), "cce0")
        assert lce.sets[0][way].state is I
        sends, _ = MOESIF.lce[("S", "Inv")]
        lce.tables = dataclasses.replace(
            MOESIF, lce={**MOESIF.lce, ("S", "Inv"): (sends, S)})
        way = fill(lce, BASE, S)
        lce.handle_command(CceCommand(kind=CommandKind.Inv, addr=BASE), "cce0")
        assert lce.sets[0][way].state is S

    def test_load_cell_decides_hit_or_miss(self):
        """A load in O misses when the table's (O, Load) cell says ReqRd:
        hit or miss comes from the table alone."""
        lce = Lce(LceConfig(lce_id=0), tables=dataclasses.replace(
            MOESIF, lce={**MOESIF.lce, ("O", "Load"): ((Emission.ReqRd,),
                                                       None)}))
        way = fill(lce, BASE, O)
        res = lce.access(BASE, write=False)
        assert isinstance(res, CohRequest) and not res.write
        assert lce.sets[0][way].state is O

    def test_blank_cell_raises_every_time(self):
        lce = make_lce()
        for _ in range(2):
            with pytest.raises(ImpossibleTransition):
                lce.handle_command(
                    CceCommand(kind=CommandKind.Inv, addr=BASE), "cce0")
