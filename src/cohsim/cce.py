"""Directory-side coherence engine core, shared by both engines.

A CCE instance owns one directory segment with its pending and speculation
bits, one request queue per LCE, the response and memory-response queues,
the CohAck drain and the memory-response machine.  The two engines,
`fsm_cce.FsmCce` and `ucode.engine.UcodeCce`, differ only in how they
sequence a request: each supplies `_step` (one sequencer cycle, tagged BUSY
or WAIT) and `_active`.

Cycle accounting follows one rule for both engines, applied in `_count`.
A cycle is busy when the sequencer did work.  Otherwise it is wait inside
an open transaction; outside one it is stall when a queued request head is
blocked by a pending bit and no head is admissible, and idle otherwise.
The engine ticks every cycle, so each cycle is classified as it happens.
Every request the engine takes, uncached ones included, opens one
`TransactionRecord` and closes it when the sequencer is done with it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from . import protocol
from .directory import (DirectorySegment, PendingBits, SegmentConfig,
                        SpecBits, way_group_home, way_group_index)
from .messages import (CceCommand, CohRequest, Emission, MemCmd, MemResp,
                       NetKind, NetMessage)
from .network import Network
from .protocol import (AddressClass, CoherenceState, CommandKind,
                       DirRequestKind, I, S, O, F, classify_request)

BUSY = "busy"
WAIT = "wait"


class EngineFault(Exception):
    """An engine invariant broke; this is a simulator bug, not a protocol
    outcome."""


@dataclass
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


@dataclass
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

    def __init__(self, cce_id: int, seg_cfg: SegmentConfig, net: Network,
                 num_cces: int = 1,
                 tables: protocol.ProtocolTables = protocol.MOESIF,
                 region_map: protocol.RegionMap = protocol.DEFAULT_REGION_MAP):
        self.cce_id = cce_id
        self.endpoint = f"cce{cce_id}"
        self.cfg = seg_cfg
        self.net = net
        self.num_cces = num_cces
        self.tables = tables
        self.region_map = region_map
        self.directory = DirectorySegment(seg_cfg, cce_id, num_cces)
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

    # -- helpers -------------------------------------------------------------

    def local_wg(self, addr: int) -> int:
        home, local = way_group_home(way_group_index(addr, self.cfg),
                                     self.num_cces)
        if home != self.cce_id:
            raise EngineFault(f"address {addr:#x} routed to CCE "
                              f"{self.cce_id}; its home is CCE {home}")
        return local

    def _send(self, net_kind: NetKind, dst: str, payload, data=None):
        self.net.send(NetMessage(net=net_kind, src=self.endpoint, dst=dst,
                                 payload=payload,
                                 beats=self.net.beats_of(data)), self.now)

    def _send_cmd(self, lce: int, cmd: CceCommand):
        if cmd.kind is CommandKind.Inv and self._txn is not None:
            self._txn.invalidations += 1
        self._send(NetKind.Command, f"lce{lce}", cmd, data=cmd.data)

    def _send_mem(self, cmd: MemCmd):
        # Backpressure would be a bug here; sequencers wait for a credit.
        self._send(NetKind.MemCmd, "mem", cmd, data=cmd.data)

    def _take_resp(self, addr: int, kinds: tuple, lce: Optional[int] = None):
        """Remove and return the oldest response for `addr` of one of
        `kinds` (from `lce`, when given); None when there is none yet."""
        for i, resp in enumerate(self.resp_q):
            if (resp.addr == addr and resp.kind in kinds
                    and (lce is None or resp.lce == lce)):
                del self.resp_q[i]
                return resp
        return None

    # -- external interface --------------------------------------------------

    def accept(self, msg: NetMessage):
        """Inbound message from the network delivery for this endpoint."""
        if msg.net is NetKind.Request:
            self.req_qs[msg.payload.lce].append(msg.payload)
            self._none_admissible = False
        elif msg.net is NetKind.Response:
            self.resp_q.append(msg.payload)
        elif msg.net is NetKind.MemResp:
            self.memresp_q.append(msg.payload)
        else:
            raise AssertionError(f"unexpected {msg.net} at {self.endpoint}")

    def has_pending_input(self) -> bool:
        return (any(self.req_qs) or bool(self.resp_q)
                or bool(self.memresp_q) or self._active())

    def tick(self, now: int):
        self.now = now
        if self.resp_q:
            self._drain_cohacks()
        if self.memresp_q:
            self._mem_resp_tick()
        self._count(self._step())

    # -- sequencer hooks -------------------------------------------------------

    def _step(self) -> str:
        """Run one sequencer cycle; return BUSY or WAIT."""
        raise NotImplementedError

    def _active(self) -> bool:
        """True while the sequencer holds work that needs more cycles."""
        raise NotImplementedError

    # -- cycle accounting ------------------------------------------------------

    def _count(self, tag: str):
        stats, txn = self.stats, self._txn
        if tag is BUSY:
            stats.busy_cycles += 1
            if txn is not None:
                txn.busy_cycles += 1
        elif txn is not None:
            stats.wait_cycles += 1
            txn.wait_cycles += 1
        elif self._stalled:
            stats.stall_cycles += 1
        else:
            stats.idle_cycles += 1

    def _open_txn(self, req: CohRequest) -> AddressClass:
        addr_class = classify_request(req.addr, req.uncached, self.region_map)
        self._req = req
        self._txn = TransactionRecord(addr=req.addr, lce=req.lce,
                                      req_kind=addr_class._value_)
        return addr_class

    def _close_txn(self):
        if self._txn is not None:
            self.stats.transactions.append(self._txn)
            self._txn = None

    def _note_lookup(self, sv) -> Optional[DirRequestKind]:
        """Record what the way-group read found for the open request.
        Returns the directory-table column of a coherent request, None for
        an uncached one."""
        req, txn = self._req, self._txn
        req_state = sv.states[req.lce] if sv.hits[req.lce] else I
        txn.lce_state = req_state
        txn.dir_state = self._summary_state(sv)
        txn.sharers = sum(1 for c, h in enumerate(sv.hits)
                          if h and sv.states[c] is S)
        if req.uncached:
            return None
        kind = self._classify_kind(req, req_state)
        txn.req_kind = kind._value_
        return kind

    def _note_victim_wb(self, resp):
        self._txn.replacement = ("clean" if resp.kind is Emission.NullWB
                                 else "dirty")

    def _classify_kind(self, req: CohRequest, req_state: CoherenceState):
        if not req.write:
            return (DirRequestKind.ReqRdNE if req.non_exclusive
                    else DirRequestKind.ReqRd)
        if req_state is I:
            return DirRequestKind.ReqWrFromI
        if req_state is S:
            return DirRequestKind.ReqWrFromS
        if req_state in (O, F):
            return DirRequestKind.ReqWrFromOF
        raise protocol.ImpossibleTransition(
            f"write request from cache holding {req_state}")

    @staticmethod
    def _summary_state(sv) -> CoherenceState:
        for c, hit in enumerate(sv.hits):
            if hit and sv.states[c] in protocol.OWNER_STATES:
                return sv.states[c]
        return S if any(sv.hits) else I

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
            if ((not head.uncached or self.region_map.is_cacheable(head.addr))
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

    def _drain_cohacks(self):
        """Coherence acks complete transactions without occupying the
        sequencer."""
        kept = deque()
        for resp in self.resp_q:
            if resp.kind is Emission.CohAck:
                self.pending.adjust(self.local_wg(resp.addr), -1)
            else:
                kept.append(resp)
        self.resp_q = kept

    def _mem_resp_tick(self):
        """Concurrent three-outcome machine: squash, rewrite-and-forward,
        or forward unchanged; write acks are sunk."""
        resp: MemResp = self.memresp_q[0]
        if resp.uncached:
            self.memresp_q.popleft()
            self.net.release_mem_credit()
            if not resp.write:
                self._send_cmd(resp.lce, CceCommand(
                    kind=CommandKind.Data, addr=resp.addr, data=resp.data,
                    uncached=True, size=resp.size, state=None))
                self.stats.mem_resp_forwards += 1
            if resp.wp:
                self.pending.adjust(self.local_wg(resp.addr), -1)
            return
        if resp.write:
            self.memresp_q.popleft()
            self.net.release_mem_credit()
            self.pending.adjust(self.local_wg(resp.addr), -1)
            return
        wg = self.local_wg(resp.addr)
        state = resp.state
        if resp.spec:
            rec = self.spec.read(wg)
            if rec.spec:
                return                   # unresolved: hold the response
            if rec.squash:
                self.memresp_q.popleft()
                self.net.release_mem_credit()
                self.spec.unset(wg)
                self.pending.adjust(wg, -1)
                self.stats.mem_resp_squashed += 1
                return
            if rec.fwd_mod:
                state = rec.state
            self.spec.unset(wg)
        self.memresp_q.popleft()
        self.net.release_mem_credit()
        self.pending.adjust(wg, -1)
        self._send_cmd(resp.lce, CceCommand(
            kind=CommandKind.Data, addr=resp.addr, way=resp.way,
            target_way=resp.way, state=state, data=resp.data))
        self.stats.mem_resp_forwards += 1
