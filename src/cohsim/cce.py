"""Directory-side coherence engine core, shared by both engines.

A CCE instance owns one directory segment with its pending and speculation
bits, one request queue per LCE, the response and memory-response queues,
and the memory-response machine.  `accept` consumes a CohAck on arrival: it
only decrements its way group's pending counter, and `System.step` delivers
to a CCE before it ticks it.  It also holds the datapath's multi-cycle
units, each a generator of per-cycle BUSY or WAIT tags: `_busy`, the
way-group read `_read_way_group`, `_await_resp`, the memory-command unit
`_to_memory` (with `_spec_read`, `_uncached_access` and `_write_back`) and
the invalidation sequencer `_invalidate`; and it builds every message the
engines send, a directory command by `_command`.  The two engines,
`fsm_cce.FsmCce` and `ucode.engine.UcodeCce`, differ only in how they
sequence a request: each supplies `_sequencer`, a generator that yields one
BUSY or WAIT tag per cycle and runs the units with `yield from`, and
`Fault`, what a CohAck or memory response that underflows its pending
counter raises.  `tick` advances the sequencer by one tag.  The core starts
it lazily: `_seq` is None at rest, and the first `tick` that finds it so
starts the engine's generator.  `System.advance` parks every engine again
(`park` sets `_seq` back to None) when the system goes idle, where each
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

`local_wg` is the one map from an address to its local way group, the index
of the segment and the bits, and its `EngineFault` the one error for a set
homed at another CCE.  Opening a transaction looks the request up once
(`_req_wg`); arbitration and CohAcks look up their own, and a memory
response is looked up once, when `accept` queues it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

from . import protocol
from .directory import (SQUASHED, UNRESOLVED, DirectorySegment, PendingBits,
                        SpecBits, Underflow, way_group_home)
from .messages import (COMMAND, MEM_CMD, MEM_RESP, REQUEST, RESPONSE,
                       CceCommand, CohRequest, Emission, MemCmd, NetKind,
                       NetMessage)
from .network import Network
from .protocol import (CACHEABLE, AddressClass, CoherenceState, CommandKind,
                       DirRequestKind, I, S, E, classify_request,
                       request_kind)

BUSY = "busy"
WAIT = "wait"
COH_ACK, INV, DATA = Emission.CohAck, CommandKind.Inv, CommandKind.Data
NULL_WB = Emission.NullWB
INV_ACK = (Emission.InvAck,)
# The commands that also transfer the block to the requester.
TRANSFERS = (CommandKind.Tr, CommandKind.StTr, CommandKind.StTrWb)


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

    def __init__(self, cce_id: int, cfg, net: Network,
                 tables: protocol.ProtocolTables):
        self.cce_id = cce_id
        self.endpoint = f"cce{cce_id}"
        self.cfg = cfg     # the system's `SystemConfig`
        self.net = net
        self.tables = tables
        self.directory = DirectorySegment(cfg, cce_id, tables)
        self._lce_endpoints = [f"lce{i}" for i in range(cfg.cores)]
        # The directory's table: set index -> local way group, or None for
        # a set homed elsewhere.
        self._local_wgs = self.directory.local_wgs
        self.pending = PendingBits(len(self.directory))
        self.spec = SpecBits(len(self.directory))
        self.req_qs = [deque() for _ in range(cfg.cores)]
        self._rr = 0
        self._stalled = False   # last arbitration scan found only blocked heads
        self._none_admissible = False   # last scan found no admissible head
        self.resp_q = deque()
        self.memresp_q = deque()   # (memory response, its way group or None)
        self.stats = EngineStats()
        self._req: Optional[CohRequest] = None
        self._req_wg: Optional[int] = None   # `_req`'s local way group
        self._found = None   # `_req`'s way-group read, once it is made
        self._txn: Optional[TransactionRecord] = None
        self.now = 0
        self._seq = None   # the sequencer, or None at rest

    # -- helpers -------------------------------------------------------------

    def local_wg(self, addr: int) -> int:
        cfg = self.cfg
        set_idx = (addr // cfg.block_bytes) % cfg.sets
        local = self._local_wgs[set_idx]
        if local is None:
            home, _ = way_group_home(set_idx, cfg.num_cces)
            raise EngineFault(f"address {addr:#x} routed to CCE "
                              f"{self.cce_id}; its home is CCE {home}")
        return local

    def _send(self, net_kind: NetKind, dst: str, payload) -> NetMessage:
        msg = NetMessage(net_kind, self.endpoint, dst, payload)
        self.net.send(msg, self.now)
        return msg

    def _command(self, kind: CommandKind, lce: int, way: int,
                 addr: Optional[int] = None, state=None, transfer_state=None):
        """Send a `kind` command to way `way` of cache `lce` for the open
        request's block, or for the victim at `addr`.  A transfer's target
        is the requester's way that the way-group read found."""
        req = self._req
        cmd = CceCommand(kind, req.addr if addr is None else addr, way,
                         state, transfer_state)
        if kind in TRANSFERS:
            cmd.target_lce = req.lce
            cmd.target_way = self._found.req_way
        elif kind is INV and self._txn is not None:
            self._txn.invalidations += 1
        self._send(COMMAND, self._lce_endpoints[lce], cmd)

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
                self._unpend(self.local_wg(resp.addr), resp.addr, "CohAck")
            else:
                self.resp_q.append(resp)
        elif net is MEM_RESP:
            # Queued with its way group, which `_mem_resp_tick` reads in
            # every cycle the response is held.
            resp = msg.payload
            self.memresp_q.append(
                (resp, self.local_wg(resp.addr)
                 if resp.wp or not resp.uncached else None))
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
        seq = self._seq
        if seq is None:
            seq = self._seq = self._sequencer()
        try:
            tag = next(seq)
        except StopIteration:
            # A started sequencer ends only by raising.
            raise self.Fault(f"{self.endpoint} stopped at an earlier "
                             "fault") from None
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
        self._seq = None

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

    def _read_way_group(self):
        """Read the open request's way group into `_found`; its cycles."""
        req = self._req
        self._found = self.directory.read_way_group(
            self._req_wg, self.cfg.tag_of(req.addr), req.lce, req.lru_way)
        return self._busy(self.cfg.way_group_read_latency)

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
        if cmd.spec:     # only ever a read of the open request's block
            self.spec.set(self._req_wg)
        if wg is not None:
            self.pending.adjust(wg, +1)
        msg = self._send(MEM_CMD, "mem", cmd)
        yield from repeat(BUSY, max(1, msg.beats))

    def _spec_read(self, wg: Optional[int]):
        """The open request's speculative read of its block, in E."""
        req = self._req
        return self._to_memory(MemCmd(req.addr, False, spec=True, lce=req.lce,
                                      way=req.lru_way, state=E), wg)

    def _uncached_access(self, wg: Optional[int] = None):
        """The open request's own uncached load or store (`wp` with `wg`)."""
        req = self._req
        return self._to_memory(MemCmd(
            req.addr, req.write, uncached=True, size=req.size, data=req.data,
            wp=wg is not None, lce=req.lce), wg)

    def _write_back(self, resp, wg: Optional[int]):
        """Write a writeback's block to memory.  An uncached request's
        writeback carries a sub-block address."""
        addr = resp.addr - resp.addr % self.cfg.block_bytes
        return self._to_memory(MemCmd(addr=addr, write=True, data=resp.data),
                               wg)

    def _invalidate(self, targets: list):
        """Invalidation sequencer: for each (cache, way) in `targets`, clear
        its directory entry for the open request's block and send Inv, one
        per cycle; then consume one InvAck per cycle."""
        for c, way in targets:
            self.directory.write_state(self._req_wg, c, way, I)
            self._command(INV, c, way)
            yield BUSY
        for _ in targets:
            yield from self._await_resp(self._req.addr, INV_ACK)
            yield BUSY

    def _inv_targets(self, owner_too: bool = False) -> list:
        """The (cache, way) of every S copy the read found but the
        requester's, in cache order; with `owner_too`, the owner's too."""
        lce = self._req.lce
        return [(c, way) for c, way, state in self._found.copies
                if c != lce and (state is S or owner_too)]

    def _victim_addr(self, found) -> int:
        """The address of the requester's LRU block, by the read `found`."""
        cfg = self.cfg
        return ((found.lru_tag * cfg.sets + cfg.set_index(self._req.addr))
                * cfg.block_bytes)

    # -- transactions ----------------------------------------------------------

    def _open_txn(self, req: CohRequest) -> AddressClass:
        addr_class = classify_request(req.addr, req.uncached)
        self._req = req
        self._req_wg = self.local_wg(req.addr)
        self._found = None
        self._txn = TransactionRecord(req.addr, req.lce, addr_class._value_)
        return addr_class

    def _close_txn(self):
        if self._txn is not None:
            self.stats.transactions.append(self._txn)
            self._txn = None

    def _note_lookup(self) -> Optional[DirRequestKind]:
        """Record what the way-group read found for the open request.
        Returns the directory-table column of a coherent request, None for
        an uncached one."""
        req, txn, found = self._req, self._txn, self._found
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
            if (head.addr in CACHEABLE
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

    def _unpend(self, wg: int, addr: int, what: str = "memory response"):
        """Decrement way group `wg`'s pending counter for `what`, a CohAck or
        memory response for `addr`.  Below zero it raises `Fault`."""
        try:
            self.pending.adjust(wg, -1)
        except Underflow:
            raise self.Fault(f"{what} for {addr:#x} underflows the pending "
                             f"counter for way group {wg}") from None

    def _mem_resp_tick(self):
        """Concurrent three-outcome machine for the head memory response:
        held while its speculative read is unresolved, then squashed,
        rewritten and forwarded, or forwarded unchanged; write acks are
        sunk.  Every cached response (speculative ones included), and an
        uncached one with `wp`, decrements its way group's pending counter,
        whose index `accept` queued with the response."""
        resp, wg = self.memresp_q[0]
        state, squash = resp.state, False
        if resp.spec:
            value = self.spec.read(wg)
            if value == UNRESOLVED:
                return                   # hold the response
            squash = value == SQUASHED
            if value is not None and not squash:
                state = value
            self.spec.unset(wg)
        self.memresp_q.popleft()
        self.net.release_mem_credit()
        if wg is not None:
            self._unpend(wg, resp.addr)
        if squash:
            self.stats.mem_resp_squashed += 1
        elif not resp.write:
            self._send(COMMAND, self._lce_endpoints[resp.lce], CceCommand(
                kind=DATA, addr=resp.addr, way=resp.way, target_way=resp.way,
                state=state, data=resp.data, uncached=resp.uncached))
            self.stats.mem_resp_forwards += 1
