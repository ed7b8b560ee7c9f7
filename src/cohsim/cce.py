"""Directory-side coherence engine core, shared by both engines.

A CCE instance owns one directory segment with its pending and speculation
bits, one request queue per LCE, the response and memory-response queues,
and the memory-response machine.  `accept` consumes a CohAck on arrival: it
only decrements its way group's pending counter, and `System.step` delivers
to a CCE before it ticks it.  It also holds the datapath's multi-cycle
units, each a generator of per-cycle BUSY or WAIT tags: `_busy` (a fixed
count of busy cycles, such as a way-group read), `_await_resp`, the
memory-command unit `_to_memory` and its `_write_back`, and the
invalidation sequencer `_invalidate`.  The two engines, `fsm_cce.FsmCce`
and `ucode.engine.UcodeCce`, differ only in how they sequence a request:
each supplies `_sequencer`, a generator that yields one BUSY or WAIT tag
per cycle and runs the units with `yield from`, and `Fault`, what a CohAck
or memory response that underflows its pending counter raises.  `tick`
advances the sequencer by one tag.  The core starts it lazily: `_seq`
begins as `PARKED`, an iterator that is already exhausted, and the first
`tick` that finds it so starts the engine's generator.  `System.advance`
parks every engine again (`park`) when the system goes idle, where each
sequencer is between requests and a fresh generator resumes from the same
state (the engine's fields, not the generator's frame, hold it).  So a CCE
and its generator form no reference cycle except while a run is under way.

Cycle accounting follows one rule for both engines, applied at the end of
`tick`.  A cycle is busy when the sequencer did work.  Otherwise it is wait
inside an open transaction; outside one it is stall when a queued request
head is blocked by a pending bit and no head is admissible, and idle
otherwise.  The engine ticks every cycle, so each cycle is classified as it
happens.
Every request the engine takes, uncached ones included, opens one
`TransactionRecord` and closes it when the sequencer is done with it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

from . import protocol
from .directory import (DirectorySegment, PendingBits, SegmentConfig,
                        SpecBits, Underflow, way_group_home)
from .messages import (COMMAND, MEM_CMD, MEM_RESP, REQUEST, RESPONSE,
                       CceCommand, CohRequest, Emission, MemCmd, NetKind,
                       NetMessage)
from .network import Network
from .protocol import (AddressClass, CoherenceState, CommandKind,
                       DirRequestKind, I, S, classify_request, request_kind)

BUSY = "busy"
WAIT = "wait"
COH_ACK, INV, DATA = Emission.CohAck, CommandKind.Inv, CommandKind.Data
NULL_WB = Emission.NullWB
INV_ACK = (Emission.InvAck,)
# The sequencer of an engine at rest: exhausted, and holding no engine.
PARKED = iter(())


class EngineFault(Exception):
    """An engine invariant broke; this is a simulator bug, not a protocol
    outcome."""


@dataclass(slots=True)
class TransactionRecord:
    """One request as the engine processed it."""

    addr: int
    lce: int
    req_kind: str       # DirRequestKind value, or the AddressClass value
    lce_state: CoherenceState = I      # requester's state at lookup
    dir_state: CoherenceState = I      # directory summary state at lookup
    busy_cycles: int = 0
    wait_cycles: int = 0
    sharers: int = 0
    invalidations: int = 0             # Inv commands sent
    replacement: Optional[str] = None  # None | "clean" | "dirty"


@dataclass(slots=True)
class EngineStats:
    transactions: list = field(default_factory=list)
    stall_cycles: int = 0
    busy_cycles: int = 0
    wait_cycles: int = 0
    idle_cycles: int = 0
    mem_resp_forwards: int = 0
    mem_resp_squashed: int = 0


class CceCore:
    """One directory-side coherence engine instance, less its sequencer."""

    Fault = EngineFault

    def __init__(self, cce_id: int, seg_cfg: SegmentConfig, net: Network,
                 num_cces: int = 1,
                 tables: protocol.ProtocolTables = protocol.MOESIF):
        self.cce_id = cce_id
        self.endpoint = f"cce{cce_id}"
        self.cfg = seg_cfg
        self.net = net
        self.num_cces = num_cces
        self.tables = tables
        self.directory = DirectorySegment(seg_cfg, cce_id, num_cces, tables)
        self._lce_endpoints = [f"lce{i}" for i in range(seg_cfg.num_caches)]
        # Set index -> local way group, or None for a set homed elsewhere.
        homes = [way_group_home(s, num_cces)
                 for s in range(seg_cfg.sets_per_cache)]
        self._local_wgs = [local if home == cce_id else None
                           for home, local in homes]
        num_wgs = -(-seg_cfg.sets_per_cache // num_cces)
        self.pending = PendingBits(num_wgs)
        self.spec = SpecBits(num_wgs)
        self.req_qs = [deque() for _ in range(seg_cfg.num_caches)]
        self._rr = 0
        self._stalled = False   # last arbitration scan found only blocked heads
        self._none_admissible = False   # last scan found no admissible head
        self.resp_q = deque()
        self.memresp_q = deque()
        self.stats = EngineStats()
        self._req: Optional[CohRequest] = None
        self._txn: Optional[TransactionRecord] = None
        self.now = 0
        self._seq = PARKED

    # -- helpers -------------------------------------------------------------

    def local_wg(self, addr: int) -> int:
        cfg = self.cfg
        set_idx = (addr // cfg.block_bytes) % cfg.sets_per_cache
        local = self._local_wgs[set_idx]
        if local is None:
            home, _ = way_group_home(set_idx, self.num_cces)
            raise EngineFault(f"address {addr:#x} routed to CCE "
                              f"{self.cce_id}; its home is CCE {home}")
        return local

    def _send(self, net_kind: NetKind, dst: str, payload, data=None):
        beats = self.net.beats_of(data) if data else 0
        self.net.send(NetMessage(net_kind, self.endpoint, dst, payload,
                                 beats), self.now)

    def _send_cmd(self, lce: int, cmd: CceCommand):
        if cmd.kind is INV and self._txn is not None:
            self._txn.invalidations += 1
        self._send(COMMAND, self._lce_endpoints[lce], cmd, data=cmd.data)

    # -- external interface --------------------------------------------------

    def accept(self, msg: NetMessage):
        """Inbound message from the network delivery for this endpoint."""
        net = msg.net
        if net is REQUEST:
            self.req_qs[msg.payload.lce].append(msg.payload)
            self._none_admissible = False
        elif net is RESPONSE:
            resp = msg.payload
            if resp.kind is COH_ACK:
                self._unpend(resp.addr, "CohAck")
            else:
                self.resp_q.append(resp)
        elif net is MEM_RESP:
            self.memresp_q.append(msg.payload)
        else:
            raise AssertionError(f"unexpected {msg.net} at {self.endpoint}")

    def has_pending_input(self) -> bool:
        return (any(self.req_qs) or bool(self.resp_q)
                or bool(self.memresp_q) or self._active())

    def tick(self, now: int):
        self.now = now
        if self.memresp_q:
            self._mem_resp_tick()
        # Classify the cycle (see the module docstring); the sequencer may
        # open or close the transaction it is charged to.
        try:
            tag = next(self._seq)
        except StopIteration:
            # A started sequencer ends only by raising.
            if self._seq is not PARKED:
                raise self.Fault(f"{self.endpoint} stopped at an earlier "
                                 "fault") from None
            self._seq = self._sequencer()
            tag = next(self._seq)
        txn = self._txn
        if tag is BUSY:
            self.stats.busy_cycles += 1
            if txn is not None:
                txn.busy_cycles += 1
        elif txn is not None:
            self.stats.wait_cycles += 1
            txn.wait_cycles += 1
        elif self._stalled:
            self.stats.stall_cycles += 1
        else:
            self.stats.idle_cycles += 1

    def park(self):
        """Drop the sequencer; the next `tick` starts a fresh one.  Call it
        only when the engine has no pending input, where the sequencer is
        between requests."""
        self._seq = PARKED

    # -- sequencer hooks -------------------------------------------------------

    def _sequencer(self):
        """Yield BUSY or WAIT for each cycle, for ever."""
        raise NotImplementedError

    def _active(self) -> bool:
        """True while the sequencer holds work that needs more cycles: by
        default, while a transaction is open."""
        return self._txn is not None

    # -- datapath units --------------------------------------------------------
    # Each is a generator of per-cycle BUSY/WAIT tags, which both engines'
    # sequencers run with `yield from`.

    @staticmethod
    def _busy(n: int):
        """`n` busy cycles."""
        return repeat(BUSY, n)

    def _await_resp(self, addr: int, kinds: tuple, lce: Optional[int] = None):
        """Wait for the oldest response for `addr` of one of `kinds` (from
        `lce`, when given); remove and return it."""
        while True:
            for i, resp in enumerate(self.resp_q):
                if (resp.addr == addr and resp.kind in kinds
                        and (lce is None or resp.lce == lce)):
                    del self.resp_q[i]
                    return resp
            yield WAIT

    def _to_memory(self, cmd: MemCmd, wg: Optional[int] = None):
        """Memory-command unit: wait for a memory credit, latch the
        speculation bits of a speculative read, count the pending bit of
        way group `wg` when given, send, then one busy cycle per data beat
        (at least one)."""
        net = self.net
        while not net.has_mem_credit():
            yield WAIT
        if cmd.spec:
            self.spec.set(self.local_wg(cmd.addr))
        if wg is not None:
            self.pending.adjust(wg, +1)
        self._send(MEM_CMD, "mem", cmd, data=cmd.data)
        yield from repeat(BUSY, max(1, net.beats_of(cmd.data)))

    def _write_back(self, resp, wg: Optional[int]):
        """Write a writeback's block to memory.  An uncached request's
        writeback carries a sub-block address."""
        addr = resp.addr - resp.addr % self.cfg.block_bytes
        return self._to_memory(MemCmd(addr=addr, write=True, data=resp.data),
                               wg)

    def _invalidate(self, addr: int, targets: list):
        """Invalidation sequencer: for each (cache, way) in `targets`, clear
        its directory entry and send Inv, one per cycle; then consume one
        InvAck per cycle."""
        for c, way in targets:
            self.directory.write_state(addr, c, way, I)
            self._send_cmd(c, CceCommand(kind=INV, addr=addr, way=way))
            yield BUSY
        for _ in targets:
            yield from self._await_resp(addr, INV_ACK)
            yield BUSY

    @staticmethod
    def _inv_targets(found, lce: int, owner_too: bool = False) -> list:
        """The (cache, way) of every S copy `found` other than requester
        `lce`'s, in cache order; with `owner_too`, the owner's too."""
        return [(c, way) for c, way, state in found.copies
                if c != lce and (state is S or owner_too)]

    def _victim_addr(self, addr: int, lru_tag: int) -> int:
        """The address of the block with tag `lru_tag` in `addr`'s set."""
        cfg = self.cfg
        return ((lru_tag * cfg.sets_per_cache + cfg.set_index(addr))
                * cfg.block_bytes)

    # -- transactions ----------------------------------------------------------

    def _open_txn(self, req: CohRequest) -> AddressClass:
        addr_class = classify_request(req.addr, req.uncached)
        self._req = req
        self._txn = TransactionRecord(req.addr, req.lce, addr_class._value_)
        return addr_class

    def _close_txn(self):
        if self._txn is not None:
            self.stats.transactions.append(self._txn)
            self._txn = None

    def _note_lookup(self, found) -> Optional[DirRequestKind]:
        """Record what the way-group read `found` for the open request.
        Returns the directory-table column of a coherent request, None for
        an uncached one."""
        req, txn = self._req, self._txn
        txn.lce_state = found.req_state
        txn.dir_state = found.dir_state
        txn.sharers = found.sharers
        if req.uncached:
            return None
        kind = request_kind(req.write, req.non_exclusive, found.req_state)
        txn.req_kind = kind._value_
        return kind

    def _note_victim_wb(self, resp):
        self._txn.replacement = ("clean" if resp.kind is NULL_WB
                                 else "dirty")

    # -- arbitration -----------------------------------------------------------

    def _admissible(self) -> Optional[int]:
        """The first LCE, round-robin from the last grant, whose queued
        request may start now, or None.  Records whether a head was
        blocked by a pending way group with none admissible.  A scan that
        found none is not repeated until a request arrives or a pending
        counter returns to zero: nothing else can admit a head."""
        pending = self.pending
        if self._none_admissible and not pending.freed:
            return None
        pending.freed = False
        qs = self.req_qs
        n = len(qs)
        stalled = False
        for off in range(n):
            c = (self._rr + off) % n
            q = qs[c]
            if not q:
                continue
            head = q[0]
            if ((not head.uncached
                 or protocol.DEFAULT_REGION_MAP.is_cacheable(head.addr))
                    and pending.read(self.local_wg(head.addr))):
                stalled = True
                continue
            self._stalled = self._none_admissible = False
            return c
        self._stalled = stalled
        self._none_admissible = True
        return None

    def _arbitrate(self) -> Optional[CohRequest]:
        """Take the next admissible request; skipped heads cost stall
        cycles, not occupancy."""
        c = self._admissible()
        if c is None:
            return None
        self._rr = (c + 1) % len(self.req_qs)
        return self.req_qs[c].popleft()

    # -- concurrent machines ---------------------------------------------------

    def _unpend(self, addr: int, what: str = "memory response"):
        """Decrement the pending counter of `addr`'s way group for `what`,
        a CohAck or memory response.  Below zero it raises `Fault`."""
        wg = self.local_wg(addr)
        try:
            self.pending.adjust(wg, -1)
        except Underflow:
            raise self.Fault(f"{what} for {addr:#x} underflows the pending "
                             f"counter for way group {wg}") from None

    def _mem_resp_tick(self):
        """Concurrent three-outcome machine for the head memory response:
        held while its speculative read is unresolved, then squashed,
        rewritten and forwarded, or forwarded unchanged; write acks are
        sunk.  Every cached response, and an uncached one with `wp`,
        decrements its way group's pending counter."""
        resp: MemCmd = self.memresp_q[0]
        state, squash = resp.state, False
        if resp.spec:
            wg = self.local_wg(resp.addr)
            rec = self.spec.read(wg)
            if rec.spec:
                return                   # unresolved: hold the response
            squash = rec.squash
            if rec.fwd_mod:
                state = rec.state
            self.spec.unset(wg)
        self.memresp_q.popleft()
        self.net.release_mem_credit()
        if resp.wp or not resp.uncached:
            self._unpend(resp.addr)
        if squash:
            self.stats.mem_resp_squashed += 1
        elif not resp.write:
            self._send_cmd(resp.lce, CceCommand(
                kind=DATA, addr=resp.addr, way=resp.way, target_way=resp.way,
                state=state, data=resp.data, uncached=resp.uncached))
            self.stats.mem_resp_forwards += 1
