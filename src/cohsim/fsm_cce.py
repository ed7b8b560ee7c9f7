"""Fixed-function coherence engine.

The sequencer is a generator that the shared engine core (`cce.CceCore`)
drives: it takes the next admissible request, opens its transaction, runs
the request's flow and closes the transaction.  Every yield is one cycle,
tagged BUSY (the flow did work) or WAIT (blocked on the network, or no
request to take).  The core classifies every cycle under its one
accounting rule, the same for both engines: busy; wait inside a
transaction; stall or idle outside one.  The per-state cycle placement is
pinned so the closed-form occupancy of each request class holds exactly:

  base (Ready .. Write Next State)         7 + rows_per_set   cycles
  resolve speculation (memory-sourced)     +1
  upgrade (squash + STW send)              +2
  transfer (squash + command send)         +2
  transfer writeback consume               +0 clean / +N dirty
  replacement (ST-WB send + WB consume)    +2 clean / +1+N dirty
  invalidations (1 send + 1 ack per cycle) +2 per invalidation

The multi-cycle steps (the way-group read, the memory-command unit, the
invalidation sequencer, response waits) are the core's datapath units, run
with `yield from`.  The core's memory-response machine runs concurrently
and its cycles never count toward request occupancy.
"""

from __future__ import annotations

from .cce import BUSY, NULL_WB, WAIT, CceCore, EngineFault
from .messages import CceCommand, CohRequest, Emission, MemCmd
from .protocol import (AddressClass, CommandKind, DirRequestKind, I, S,
                       E, F, InvalidateSet, RequesterGrant)

# The enum members each transaction tests, as module constants (see the
# note on `messages.REQUEST`).
COHERENT = AddressClass.CacheableCoherent
UNCACHEABLE = AddressClass.UncachedToUncacheable
NO_INVALIDATION = InvalidateSet.Nothing
OTHERS_AND_OWNER = InvalidateSet.OtherSharersAndOwner
FROM_MEMORY, UPGRADE_STW = (RequesterGrant.DataFromMemory,
                            RequesterGrant.UpgradeStW)
STW, STWB, STTRWB = CommandKind.StW, CommandKind.StWb, CommandKind.StTrWb
DIRTY_WB = Emission.DirtyWB
WRITEBACKS = (NULL_WB, DIRTY_WB)
REPLACEMENT = DirRequestKind.Replacement


class FsmCce(CceCore):
    """One directory-side coherence engine instance with a hardwired
    request flow."""

    # -- sequencer -------------------------------------------------------------

    def _sequencer(self):
        while True:
            req = self._arbitrate()
            if req is None:
                yield WAIT
                continue
            addr_class = self._open_txn(req)
            if addr_class is COHERENT:
                yield from self._coherent_flow(req)
            else:
                yield from self._uncached_flow(req, addr_class)
            # The finished flow consumed no cycle here; the next request
            # starts in this same cycle.
            self._close_txn()

    # -- request processing flow ----------------------------------------------

    def _coherent_flow(self, req: CohRequest):
        wg = self.local_wg(req.addr)
        yield BUSY                       # Ready: dequeue and classify
        if self.pending.read(wg):
            raise EngineFault("arbitration admitted a pending way group")
        yield BUSY                       # pending check
        self.pending.adjust(wg, +1)
        yield BUSY                       # open transaction
        yield from self._to_memory(      # speculative memory read issue
            MemCmd(addr=req.addr, write=False, spec=True, lce=req.lce,
                   way=req.lru_way, state=E), wg)

        found = self.directory.read_way_group(req.addr, req.lce, req.lru_way)
        yield from self._busy(           # directory way-group read
            self.cfg.way_group_read_latency)
        yield BUSY                       # GAD

        kind = self._note_lookup(found)
        plan = self.tables.dir_request_plan(found.dir_state, kind)
        self.directory.write_entry(req.addr, req.lce, found.req_way,
                                   state=plan.grant_state)
        yield BUSY                       # write next state

        if found.replacement:
            yield from self._replacement_subflow(req, found, wg)

        if plan.invalidate_set is not NO_INVALIDATION:
            owner_too = plan.invalidate_set is OTHERS_AND_OWNER
            yield from self._invalidate(
                req.addr, self._inv_targets(found, req.lce, owner_too))

        if plan.requester_grant is FROM_MEMORY:
            if plan.grant_state is E:
                self.spec.unset(wg)
            else:
                self.spec.fwd_mod(wg, plan.grant_state)
            yield BUSY                   # resolve speculation
        elif plan.requester_grant is UPGRADE_STW:
            self.spec.squash(wg)
            yield BUSY                   # squash speculation
            self._send_cmd(req.lce, CceCommand(
                kind=STW, addr=req.addr, way=found.req_way,
                state=plan.grant_state))
            yield BUSY                   # upgrade command send
        else:
            if plan.owner_command is None:
                raise EngineFault(f"{self.tables.name}: plan for {kind.value} "
                                  "grants nothing and commands no owner")
            yield from self._transfer(req, plan, found, wg)

    def _replacement_subflow(self, req: CohRequest, found, wg: int):
        """Evict the requester's LRU block: 2 cycles clean, 1+N dirty."""
        victim = self._victim_addr(req.addr, found.lru_tag)
        plan = self.tables.dir_request_plan(found.lru_state, REPLACEMENT)
        self._send_cmd(req.lce, CceCommand(
            kind=plan.owner_command.command, addr=victim, way=found.lru_way,
            state=plan.owner_command.set_owner_state))
        yield BUSY                       # ST-WB send
        resp = yield from self._await_resp(victim, WRITEBACKS, req.lce)
        self._note_victim_wb(resp)
        if resp.kind is NULL_WB:
            yield BUSY                   # consume clean writeback header
        else:
            yield from self._write_back(resp, wg)

    def _transfer(self, req: CohRequest, plan, found, wg: int):
        """Source the block from its current owner instead of memory.
        A clean writeback is absorbed for free; dirty data occupies one
        cycle per beat while forwarded to memory."""
        cmd_kind = plan.owner_command.command
        owner_lce, owner_way, _ = found.owner
        self.spec.squash(wg)
        yield BUSY                       # squash speculation
        set_state = plan.owner_command.set_owner_state
        if set_state is not None:
            self.directory.write_state(req.addr, owner_lce, owner_way,
                                       set_state)
        self._send_cmd(owner_lce, CceCommand(
            kind=cmd_kind, addr=req.addr, way=owner_way, state=set_state,
            transfer_state=plan.owner_command.transfer_state,
            target_lce=req.lce, target_way=found.req_way))
        yield BUSY                       # owner command send
        if cmd_kind is STTRWB:
            resp = yield from self._await_resp(req.addr, WRITEBACKS, owner_lce)
            if resp.kind is DIRTY_WB:
                yield from self._write_back(resp, wg)

    # -- uncached flows --------------------------------------------------------

    def _uncached_flow(self, req: CohRequest, addr_class: AddressClass):
        yield BUSY                       # Ready: classify
        if addr_class is UNCACHEABLE:
            yield from self._to_memory(MemCmd(   # header + data beats
                addr=req.addr, write=req.write, uncached=True, size=req.size,
                data=req.data, lce=req.lce))
            return

        # Uncached access to cacheable memory: flush every valid copy first.
        wg = self.local_wg(req.addr)
        yield BUSY                       # pending check (arbitration enforced)
        self.pending.adjust(wg, +1)
        yield BUSY                       # open transaction
        found = self.directory.read_way_group(req.addr, req.lce, 0)
        yield from self._busy(self.cfg.way_group_read_latency)
        self._note_lookup(found)
        yield BUSY                       # GAD
        for c, way, state in found.copies:
            if state in (S, F):
                yield from self._invalidate(req.addr, [(c, way)])
                continue
            self.directory.write_state(req.addr, c, way, I)
            self._send_cmd(c, CceCommand(kind=STWB, addr=req.addr, way=way,
                                         state=I))
            yield BUSY
            resp = yield from self._await_resp(req.addr, WRITEBACKS, c)
            if resp.kind is DIRTY_WB:
                yield from self._write_back(resp, wg)
            else:
                yield BUSY
        yield from self._to_memory(MemCmd(
            addr=req.addr, write=req.write, uncached=True, size=req.size,
            data=req.data, lce=req.lce, wp=True), wg)
        self.pending.adjust(wg, -1)
        yield BUSY                       # close transaction
