"""Fixed-function coherence engine.

The request flow is a generator running on the shared engine core
(`cce.CceCore`): every yield is one sequencer cycle, tagged BUSY (the flow
did work) or WAIT (blocked on the network).  The core classifies every
cycle under its one accounting rule, the same for both engines: busy;
wait inside a transaction; stall or idle outside one.  The per-state
cycle placement is pinned so the closed-form occupancy of each request
class holds exactly:

  base (Ready .. Write Next State)         7 + rows_per_set   cycles
  resolve speculation (memory-sourced)     +1
  upgrade (squash + STW send)              +2
  transfer (squash + command send)         +2
  transfer writeback consume               +0 clean / +N dirty
  replacement (ST-WB send + WB consume)    +2 clean / +1+N dirty
  invalidations (1 send + 1 ack per cycle) +2 per invalidation

The core's memory-response machine runs concurrently and its cycles never
count toward request occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cce import BUSY, WAIT, CceCore, EngineFault
from .directory import GadRequest, gad
from .messages import CceCommand, CohRequest, Emission, LceResponse, MemCmd
from .protocol import (AddressClass, CoherenceState, CommandKind,
                       DirRequestKind, I, S, E, F, InvalidateSet,
                       OWNER_STATES, RequesterGrant)

WRITEBACKS = (Emission.NullWB, Emission.DirtyWB)
INV_ACK = (Emission.InvAck,)


@dataclass
class Mshr:
    """What the directory lookup found for the in-flight transaction."""

    req_way: int = 0
    lru_way: int = 0
    lru_tag: int = 0
    lru_state: CoherenceState = I
    owner: Optional[tuple] = None
    replacement: bool = False


class FsmCce(CceCore):
    """One directory-side coherence engine instance with a hardwired
    request flow."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.mshr = Mshr()
        self._flow = None

    # -- sequencer -------------------------------------------------------------

    def _active(self) -> bool:
        return self._flow is not None

    def _step(self) -> str:
        while True:
            if self._flow is None:
                req = self._arbitrate()
                if req is None:
                    return WAIT
                addr_class = self._open_txn(req)
                if addr_class is AddressClass.CacheableCoherent:
                    self._flow = self._coherent_flow(req)
                else:
                    self._flow = self._uncached_flow(req, addr_class)
            try:
                return next(self._flow)
            except StopIteration:
                # The finished flow consumed no cycle here; start the next
                # request in this same cycle.
                self._flow = None
                self._close_txn()

    # -- request processing flow ----------------------------------------------

    def _await_resp(self, addr: int, kinds: tuple, lce: Optional[int] = None):
        while True:
            resp = self._take_resp(addr, kinds, lce)
            if resp is not None:
                return resp
            yield WAIT

    def _forward_dirty_wb(self, resp: LceResponse, wg: int):
        """Write a dirty writeback's block to memory, one busy cycle per
        data beat."""
        while not self.net.has_mem_credit():
            yield WAIT
        self.pending.adjust(wg, +1)
        self._send_mem(MemCmd(addr=resp.addr - resp.addr % self.cfg.block_bytes,
                              write=True, data=resp.data))
        for _ in range(max(1, self.net.beats_of(resp.data))):
            yield BUSY

    def _coherent_flow(self, req: CohRequest):
        mshr = self.mshr = Mshr(lru_way=req.lru_way)
        wg = self.local_wg(req.addr)
        yield BUSY                       # Ready: dequeue and classify
        if self.pending.read(wg):
            raise EngineFault("arbitration admitted a pending way group")
        yield BUSY                       # pending check
        self.pending.adjust(wg, +1)
        yield BUSY                       # open transaction
        while not self.net.has_mem_credit():
            yield WAIT
        self.spec.set(wg)
        self.pending.adjust(wg, +1)
        self._send_mem(MemCmd(addr=req.addr, write=False, spec=True,
                              lce=req.lce, way=req.lru_way, state=E))
        yield BUSY                       # speculative memory read issue

        sv, lru, latency = self.directory.read_way_group(
            req.addr, req.lce, req.lru_way)
        for _ in range(latency):
            yield BUSY                   # directory way-group read
        info = gad(sv, lru, GadRequest(lce=req.lce, write=req.write,
                                       non_exclusive=req.non_exclusive,
                                       atomic=req.atomic is not None))
        mshr.replacement = info.replacement
        mshr.owner = info.owner
        mshr.req_way = (info.req_way_hit if info.req_way_hit is not None
                        else req.lru_way)
        mshr.lru_tag, mshr.lru_state = lru.lru_tag, lru.lru_state
        yield BUSY                       # GAD

        kind = self._note_lookup(sv)
        plan = self.tables.dir_request_plan(self._txn.dir_state, kind)
        self.directory.write_entry(req.addr, req.lce, mshr.req_way,
                                   state=plan.grant_state)
        yield BUSY                       # write next state

        if mshr.replacement:
            yield from self._replacement_subflow(req, wg)

        yield from self._invalidations(req, sv, plan)

        if plan.requester_grant is RequesterGrant.DataFromMemory:
            if plan.grant_state is E:
                self.spec.unset(wg)
            else:
                self.spec.fwd_mod(wg, plan.grant_state)
            yield BUSY                   # resolve speculation
        elif plan.requester_grant is RequesterGrant.UpgradeStW:
            self.spec.squash(wg)
            yield BUSY                   # squash speculation
            self._send_cmd(req.lce, CceCommand(
                kind=CommandKind.StW, addr=req.addr, way=mshr.req_way,
                state=plan.grant_state))
            yield BUSY                   # upgrade command send
        else:
            if plan.owner_command is None:
                raise EngineFault(f"{self.tables.name}: plan for {kind.value} "
                                  "grants nothing and commands no owner")
            yield from self._transfer(req, plan, mshr, wg)

    def _replacement_subflow(self, req: CohRequest, wg: int):
        """Evict the requester's LRU block: 2 cycles clean, 1+N dirty."""
        mshr = self.mshr
        victim = ((mshr.lru_tag * self.cfg.sets_per_cache
                   + self.cfg.set_index(req.addr)) * self.cfg.block_bytes)
        plan = self.tables.dir_request_plan(mshr.lru_state,
                                            DirRequestKind.Replacement)
        self._send_cmd(req.lce, CceCommand(
            kind=plan.owner_command.command, addr=victim, way=mshr.lru_way,
            state=plan.owner_command.set_owner_state))
        yield BUSY                       # ST-WB send
        resp = yield from self._await_resp(victim, WRITEBACKS, req.lce)
        self._note_victim_wb(resp)
        if resp.kind is Emission.NullWB:
            yield BUSY                   # consume clean writeback header
        else:
            yield from self._forward_dirty_wb(resp, wg)

    def _invalidations(self, req: CohRequest, sv, plan):
        if plan.invalidate_set is InvalidateSet.Nothing:
            return
        with_owner = plan.invalidate_set is InvalidateSet.OtherSharersAndOwner
        targets = [c for c, hit in enumerate(sv.hits)
                   if hit and c != req.lce
                   and (sv.states[c] is S
                        or (with_owner and sv.states[c] in OWNER_STATES))]
        for c in targets:
            self.directory.write_state(req.addr, c, sv.ways[c], I)
            self._send_cmd(c, CceCommand(kind=CommandKind.Inv, addr=req.addr,
                                         way=sv.ways[c]))
            yield BUSY                   # one invalidation per cycle
        for _ in targets:
            yield from self._await_resp(req.addr, INV_ACK)
            yield BUSY                   # one ack consumed per cycle

    def _transfer(self, req: CohRequest, plan, mshr: Mshr, wg: int):
        """Source the block from its current owner instead of memory.
        A clean writeback is absorbed for free; dirty data occupies one
        cycle per beat while forwarded to memory."""
        cmd_kind = plan.owner_command.command
        owner_lce, owner_way, _ = mshr.owner
        self.spec.squash(wg)
        yield BUSY                       # squash speculation
        set_state = plan.owner_command.set_owner_state
        if set_state is not None:
            self.directory.write_state(req.addr, owner_lce, owner_way,
                                       set_state)
        self._send_cmd(owner_lce, CceCommand(
            kind=cmd_kind, addr=req.addr, way=owner_way, state=set_state,
            transfer_state=plan.owner_command.transfer_state,
            target_lce=req.lce, target_way=mshr.req_way))
        yield BUSY                       # owner command send
        if cmd_kind is CommandKind.StTrWb:
            resp = yield from self._await_resp(req.addr, WRITEBACKS, owner_lce)
            if resp.kind is Emission.DirtyWB:
                yield from self._forward_dirty_wb(resp, wg)

    # -- uncached flows --------------------------------------------------------

    def _uncached_flow(self, req: CohRequest, addr_class: AddressClass):
        yield BUSY                       # Ready: classify
        if addr_class is AddressClass.UncachedToUncacheable:
            while not self.net.has_mem_credit():
                yield WAIT
            self._send_mem(MemCmd(addr=req.addr, write=req.write,
                                  uncached=True, size=req.size,
                                  data=req.data, lce=req.lce))
            for _ in range(max(1, self.net.beats_of(req.data))):
                yield BUSY               # header + data beats
            return

        # Uncached access to cacheable memory: flush every valid copy first.
        wg = self.local_wg(req.addr)
        yield BUSY                       # pending check (arbitration enforced)
        self.pending.adjust(wg, +1)
        yield BUSY                       # open transaction
        sv, lru, latency = self.directory.read_way_group(req.addr, req.lce, 0)
        for _ in range(latency):
            yield BUSY
        self._note_lookup(sv)
        yield BUSY                       # GAD
        for c, hit in enumerate(sv.hits):
            if not hit:
                continue
            state = sv.states[c]
            self.directory.write_state(req.addr, c, sv.ways[c], I)
            if state in (S, F):
                self._send_cmd(c, CceCommand(kind=CommandKind.Inv,
                                             addr=req.addr, way=sv.ways[c]))
                yield BUSY
                yield from self._await_resp(req.addr, INV_ACK)
                yield BUSY
            else:
                self._send_cmd(c, CceCommand(kind=CommandKind.StWb,
                                             addr=req.addr, way=sv.ways[c],
                                             state=I))
                yield BUSY
                resp = yield from self._await_resp(req.addr, WRITEBACKS, c)
                if resp.kind is Emission.DirtyWB:
                    yield from self._forward_dirty_wb(resp, wg)
                else:
                    yield BUSY
        while not self.net.has_mem_credit():
            yield WAIT
        self.pending.adjust(wg, +1)
        self._send_mem(MemCmd(addr=req.addr, write=req.write, uncached=True,
                              size=req.size, data=req.data, lce=req.lce,
                              wp=True))
        for _ in range(max(1, self.net.beats_of(req.data))):
            yield BUSY
        self.pending.adjust(wg, -1)
        yield BUSY                       # close transaction
