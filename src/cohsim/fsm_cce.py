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
with `yield from`, and the core builds every command the flows send: a
flow reads its table cell and says what to send, to whom, in which cycle.
The core's memory-response machine runs concurrently and its cycles never
count toward request occupancy.
"""

from __future__ import annotations

from .cce import BUSY, NULL_WB, WAIT, CceCore, EngineFault
from .messages import CohRequest, Emission
from .protocol import (AddressClass, CommandKind, DirRequestKind,
                       InvalidateSet, RequesterGrant)

# The enum members each transaction tests, as module constants (see the
# note on `messages.REQUEST`).
COHERENT = AddressClass.CacheableCoherent
UNCACHEABLE = AddressClass.UncachedToUncacheable
NO_INVALIDATION = InvalidateSet.Nothing
OTHERS_AND_OWNER = InvalidateSet.OtherSharersAndOwner
FROM_MEMORY, UPGRADE_STW = (RequesterGrant.DataFromMemory,
                            RequesterGrant.UpgradeStW)
STW, STTRWB = CommandKind.StW, CommandKind.StTrWb
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
        wg = self._req_wg
        yield BUSY                       # Ready: dequeue and classify
        if self.pending.read(wg):
            raise EngineFault("arbitration admitted a pending way group")
        yield BUSY                       # pending check
        self.pending.adjust(wg, +1)
        yield BUSY                       # open transaction
        yield from self._spec_read(wg)   # speculative memory read issue
        yield from self._read_way_group()   # directory way-group read
        yield BUSY                       # GAD

        kind = self._note_lookup()
        found = self._found
        plan = self.tables.dir_request_plan(found.dir_state, kind)
        self.directory.write_entry(wg, self.cfg.tag_of(req.addr), req.lce,
                                   found.req_way, plan.grant_state)
        yield BUSY                       # write next state

        if found.replacement:
            yield from self._replacement_subflow(req, found)

        if plan.invalidate_set is not NO_INVALIDATION:
            yield from self._invalidate(self._inv_targets(
                plan.invalidate_set is OTHERS_AND_OWNER))

        if plan.requester_grant is FROM_MEMORY:
            self.spec.fwd_mod(wg, plan.grant_state)
            yield BUSY                   # resolve speculation
        elif plan.requester_grant is UPGRADE_STW:
            self.spec.squash(wg)
            yield BUSY                   # squash speculation
            self._command(STW, req.lce, found.req_way,
                          state=plan.grant_state)
            yield BUSY                   # upgrade command send
        else:
            if plan.owner_command is None:
                raise EngineFault(f"{self.tables.name}: plan for {kind.value} "
                                  "grants nothing and commands no owner")
            yield from self._transfer(req, plan.owner_command, found, wg)

    def _replacement_subflow(self, req: CohRequest, found):
        """Evict the requester's LRU block: 2 cycles clean, 1+N dirty."""
        victim = self._victim_addr(found)
        cmd = self.tables.dir_request_plan(found.lru_state,
                                           REPLACEMENT).owner_command
        resp = yield from self._take_back(cmd, req.lce, found.lru_way, victim)
        self._note_victim_wb(resp)

    def _take_back(self, cmd, lce: int, way: int, addr: int):
        """Send Replacement command `cmd` to way `way` of cache `lce` for
        the block at `addr`, and consume its writeback; return that."""
        self._command(cmd.command, lce, way, addr, cmd.set_owner_state)
        yield BUSY                       # ST-WB send
        resp = yield from self._await_resp(addr, WRITEBACKS, lce)
        if resp.kind is NULL_WB:
            yield BUSY                   # consume clean writeback header
        else:
            yield from self._write_back(resp, self._req_wg)
        return resp

    def _transfer(self, req: CohRequest, cmd, found, wg: int):
        """Source the block from its owner by owner command `cmd`, not from
        memory.  A clean writeback is absorbed for free; dirty data
        occupies one cycle per beat while forwarded to memory."""
        owner_lce, owner_way, _ = found.owner
        self.spec.squash(wg)
        yield BUSY                       # squash speculation
        set_state = cmd.set_owner_state
        if set_state is not None:
            self.directory.write_state(wg, owner_lce, owner_way, set_state)
        self._command(cmd.command, owner_lce, owner_way, state=set_state,
                      transfer_state=cmd.transfer_state)
        yield BUSY                       # owner command send
        if cmd.command is STTRWB:
            resp = yield from self._await_resp(req.addr, WRITEBACKS, owner_lce)
            if resp.kind is DIRTY_WB:
                yield from self._write_back(resp, wg)

    # -- uncached flows --------------------------------------------------------

    def _uncached_flow(self, req: CohRequest, addr_class: AddressClass):
        yield BUSY                       # Ready: classify
        if addr_class is UNCACHEABLE:
            yield from self._uncached_access()   # header + data beats
            return

        # Uncached access to cacheable memory: flush every valid copy first,
        # each by its Replacement cell when that is filled, else by Inv.
        wg = self._req_wg
        yield BUSY                       # pending check (arbitration enforced)
        self.pending.adjust(wg, +1)
        yield BUSY                       # open transaction
        yield from self._read_way_group()
        self._note_lookup()
        yield BUSY                       # GAD
        for c, way, state in self._found.copies:
            if state not in self.directory.replacement_states:
                yield from self._invalidate([(c, way)])
                continue
            cmd = self.tables.dir_request_plan(state,
                                               REPLACEMENT).owner_command
            self.directory.write_state(wg, c, way, cmd.set_owner_state)
            yield from self._take_back(cmd, c, way, req.addr)
        yield from self._uncached_access(wg)
        self.pending.adjust(wg, -1)
        yield BUSY                       # close transaction
