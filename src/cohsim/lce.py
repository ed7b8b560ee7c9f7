"""Cache controller model: a blocking set-associative cache with a
processor-facing port and a coherence-facing port driven by the protocol
tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import protocol
from .messages import (AtomicOp, CceCommand, CohRequest, Emission, FillData,
                       LceResponse, NetKind, NetMessage)
from .protocol import (CoherenceState, CommandKind, I, E, M,
                       ImpossibleTransition, LceAction, LceEvent,
                       LceEventKind, WRITABLE_STATES, state_permissions)


class Busy(Exception):
    pass


class UnexpectedFill(Exception):
    pass


class LceKind(Enum):
    Data = "data"
    Instruction = "instruction"


def check_geometry(cfg):
    """Raise ValueError unless `cfg`'s sets, assoc and block_bytes are
    powers of two."""
    for name in ("sets", "assoc", "block_bytes"):
        v = getattr(cfg, name)
        if v < 1 or v & (v - 1):
            raise ValueError(f"{name} must be a power of two, got {v}")


@dataclass(frozen=True)
class LceConfig:
    lce_id: int
    sets: int = 64
    assoc: int = 8
    block_bytes: int = 64
    kind: LceKind = LceKind.Data

    def __post_init__(self):
        check_geometry(self)

    def set_index(self, addr: int) -> int:
        return (addr // self.block_bytes) % self.sets

    def tag_of(self, addr: int) -> int:
        return (addr // self.block_bytes) // self.sets


@dataclass
class CacheLine:
    tag: int = 0
    state: CoherenceState = I
    data: bytearray = field(default_factory=lambda: bytearray(64))
    lru_rank: int = 0


@dataclass
class OutstandingMiss:
    addr: int
    write: bool
    size: int
    data: Optional[bytes]            # buffered store payload, applied at fill
    lru_way: int
    atomic: Optional[AtomicOp] = None
    uncached: bool = False


@dataclass
class Hit:
    value: Optional[bytes] = None


@dataclass
class MissIssued:
    request: CohRequest


class Lce:
    """One coherent cache and its controller."""

    def __init__(self, cfg: LceConfig, tables: protocol.ProtocolTables = protocol.MOESIF):
        self.cfg = cfg
        self.tables = tables
        self.sets = [[CacheLine(data=bytearray(cfg.block_bytes))
                      for _ in range(cfg.assoc)] for _ in range(cfg.sets)]
        self.miss: Optional[OutstandingMiss] = None
        self._lru_clock = 1
        # LR/SC reservation: address of the line that must stay writable.
        self.reservation: Optional[int] = None
        self.outbox = []       # NetMessages produced by the coherence port
        self.completed = None  # (op-result bytes or None) set when a miss ends
        # Monitor hooks, set by the harness.
        self.on_load = None
        self.on_store = None
        self.on_state = None   # on_state(block addr) after a state write
        # Table lookups memoised on plain values, so that resolving one
        # hashes no enum member: state value -> `state_permissions`, and
        # (tables, state value, event kind value, attached state value)
        # -> `lce_event_action`.
        self._perms = {s.value: state_permissions(s) for s in CoherenceState}
        self._actions = {}

    # -- lookup helpers ----------------------------------------------------

    def _lookup(self, addr: int):
        cfg = self.cfg
        blk = addr // cfg.block_bytes
        tag = blk // cfg.sets
        for way, line in enumerate(self.sets[blk % cfg.sets]):
            if line.state is not I and line.tag == tag:
                return way, line
        return None, None

    def _action(self, state: CoherenceState, kind,
                attached: Optional[CoherenceState] = None) -> LceAction:
        """The table's action for event `kind` with `attached` state in
        `state`.  `kind` is an LceEventKind, or a CommandKind, which
        names the event column of the same name."""
        key = (self.tables, state._value_, kind._value_,
               attached and attached._value_)
        action = self._actions.get(key)
        if action is None:
            event = LceEvent(LceEventKind(kind._value_),
                             attached_state=attached)
            action = self._actions[key] = self.tables.lce_event_action(
                state, event)
        return action

    def set_state(self, line: CacheLine, state: CoherenceState, addr: int):
        """The one writer of a line's coherence state; reports the block
        to the `on_state` hook."""
        line.state = state
        if self.on_state:
            self.on_state(self._block_base(addr))

    def _touch(self, line: CacheLine):
        line.lru_rank = self._lru_clock
        self._lru_clock += 1

    def lru_way(self, set_idx: int) -> int:
        """True-LRU victim way; invalid ways are preferred, lowest index first."""
        lines = self.sets[set_idx]
        for way, line in enumerate(lines):
            if line.state is I:
                return way
        return min(range(len(lines)), key=lambda w: lines[w].lru_rank)

    def _block_base(self, addr: int) -> int:
        return addr - addr % self.cfg.block_bytes

    def _read_bytes(self, line: CacheLine, addr: int, size: int) -> bytes:
        off = addr % self.cfg.block_bytes
        return bytes(line.data[off:off + size])

    def _write_bytes(self, line: CacheLine, addr: int, data: bytes):
        off = addr % self.cfg.block_bytes
        line.data[off:off + len(data)] = data

    # -- processor port ----------------------------------------------------

    def access(self, addr: int, write: bool, size: int = 8,
               data: Optional[bytes] = None,
               atomic: Optional[AtomicOp] = None,
               uncached: bool = False):
        """One load/store/atomic from the core.  Blocking: a single
        outstanding miss is allowed."""
        if self.miss is not None:
            raise Busy("outstanding miss")
        if uncached:
            return self._uncached_access(addr, write, size, data)
        if atomic is AtomicOp.Sc:
            return self._store_conditional(addr, size, data)

        way, line = self._lookup(addr)
        wants_write = write or atomic is not None
        if line is not None:
            perms = self._perms[line.state._value_]
            if not wants_write and perms["read"]:
                self._touch(line)
                value = self._read_bytes(line, addr, size)
                if self.on_load:
                    self.on_load(self.cfg.lce_id, addr, size, value)
                return Hit(value=value)
            if wants_write and perms["write"]:
                if line.state is E:
                    self.set_state(line, M, addr)  # silent upgrade
                self._touch(line)
                return Hit(value=self._apply_write_op(line, addr, size, data, atomic))

        # Miss (or write upgrade): consult the Load/Store column and issue.
        kind = LceEventKind.Store if wants_write else LceEventKind.Load
        state = line.state if line else I
        if not self._action(state, kind).is_miss:
            raise ImpossibleTransition(
                f"{self.tables.name}: ({state.value}, {kind.value}) "
                f"is neither a hit nor a miss")
        set_idx = self.cfg.set_index(addr)
        lru = self.lru_way(set_idx)
        non_excl = (not wants_write) and self.cfg.kind is LceKind.Instruction
        self.miss = OutstandingMiss(addr=addr, write=wants_write, size=size,
                                    data=data, lru_way=lru, atomic=atomic)
        req = CohRequest(lce=self.cfg.lce_id, addr=self._block_base(addr),
                         write=wants_write, lru_way=lru,
                         non_exclusive=non_excl,
                         atomic=atomic, size=size)
        return MissIssued(request=req)

    def _store_conditional(self, addr: int, size: int, data: bytes):
        """SC succeeds iff the LR reservation survived; it never misses."""
        way, line = self._lookup(addr)
        ok = (self.reservation == self._block_base(addr)
              and line is not None and line.state in WRITABLE_STATES)
        self.reservation = None
        if not ok:
            return Hit(value=(1).to_bytes(size, "little"))
        if line.state is E:
            self.set_state(line, M, addr)
        self._touch(line)
        self._write_bytes(line, addr, data)
        if self.on_store:
            self.on_store(self.cfg.lce_id, addr, size, data)
        return Hit(value=(0).to_bytes(size, "little"))

    def _uncached_access(self, addr: int, write: bool, size: int,
                         data: Optional[bytes]):
        if write:
            # Posted: an uncached store completes at issue.
            req = CohRequest(lce=self.cfg.lce_id, addr=addr, write=True,
                             uncached=True, size=size, data=data)
            return MissIssued(request=req)
        self.miss = OutstandingMiss(addr=addr, write=False, size=size,
                                    data=None, lru_way=0, uncached=True)
        return MissIssued(request=CohRequest(
            lce=self.cfg.lce_id, addr=addr, write=False, uncached=True,
            size=size))

    def _apply_write_op(self, line: CacheLine, addr: int, size: int,
                        data: Optional[bytes], atomic: Optional[AtomicOp]):
        """Perform the (possibly atomic) write on a writable line."""
        if line.state not in WRITABLE_STATES:
            raise ImpossibleTransition(f"write to a line in {line.state.value}")
        if atomic is None:
            self._write_bytes(line, addr, data)
            if self.on_store:
                self.on_store(self.cfg.lce_id, addr, size, data)
            return None
        if atomic is AtomicOp.Lr:
            self.reservation = self._block_base(addr)
            value = self._read_bytes(line, addr, size)
            if self.on_load:
                self.on_load(self.cfg.lce_id, addr, size, value)
            return value
        old = self._read_bytes(line, addr, size)
        if self.on_load:
            self.on_load(self.cfg.lce_id, addr, size, old)
        operand = int.from_bytes(data, "little")
        if atomic is AtomicOp.Add:
            new = (int.from_bytes(old, "little") + operand) % (1 << (8 * size))
        elif atomic is AtomicOp.Swap:
            new = operand
        else:
            raise ValueError(atomic)
        new_bytes = new.to_bytes(size, "little")
        self._write_bytes(line, addr, new_bytes)
        if self.on_store:
            self.on_store(self.cfg.lce_id, addr, size, new_bytes)
        return old

    # -- coherence port ----------------------------------------------------

    def _respond(self, kind: Emission, addr: int, cce: str,
                 data: Optional[bytes] = None, beats: int = 0):
        resp = LceResponse(kind=kind, lce=self.cfg.lce_id, addr=addr, data=data)
        self.outbox.append(NetMessage(net=NetKind.Response,
                                      src=f"lce{self.cfg.lce_id}", dst=cce,
                                      payload=resp, beats=beats))

    def handle_command(self, cmd: CceCommand, cce: str, beats_of=len):
        """Apply a directory command; queue responses/fills on the outbox."""
        if cmd.kind is CommandKind.Data:
            self.apply_fill(cmd.addr, cmd.target_way, cmd.state, cmd.data,
                            cce, uncached=cmd.uncached, size=cmd.size)
            return
        way, line = self._lookup(cmd.addr)
        state = line.state if line else I
        action = self._action(state, cmd.kind, cmd.state)
        block = bytes(line.data) if line else bytes(self.cfg.block_bytes)

        for emission in action.sends:
            if emission is Emission.InvAck:
                self._respond(Emission.InvAck, cmd.addr, cce)
            elif emission is Emission.CohAck:
                self._respond(Emission.CohAck, cmd.addr, cce)
            elif emission is Emission.NullWB:
                self._respond(Emission.NullWB, cmd.addr, cce)
            elif emission is Emission.DirtyWB:
                self._respond(Emission.DirtyWB, cmd.addr, cce, data=block,
                              beats=beats_of(block))
            elif emission is Emission.DataToTarget:
                fill = FillData(src_lce=self.cfg.lce_id, addr=cmd.addr,
                                way=cmd.target_way, state=cmd.transfer_state,
                                data=block)
                self.outbox.append(NetMessage(
                    net=NetKind.Fill, src=f"lce{self.cfg.lce_id}",
                    dst=f"lce{cmd.target_lce}", payload=fill,
                    beats=beats_of(block)))
            else:
                raise ImpossibleTransition(f"unexpected emission {emission}")

        if action.next_state is not None and line is not None:
            self.set_state(line, action.next_state, cmd.addr)
        if (self.reservation is not None
                and self._block_base(self.reservation) == self._block_base(cmd.addr)
                and (line is None or line.state not in WRITABLE_STATES)):
            self.reservation = None

        # An upgrade command also completes the outstanding write miss.
        if cmd.kind is CommandKind.StW:
            self._complete_write_upgrade(cmd.addr, line)

    def _complete_write_upgrade(self, addr: int, line: CacheLine):
        miss = self.miss
        if miss is None or self._block_base(miss.addr) != addr:
            raise UnexpectedFill(f"STW for {addr:#x} without matching miss")
        self._touch(line)
        self.completed = self._apply_write_op(line, miss.addr, miss.size,
                                              miss.data, miss.atomic)
        self.miss = None

    def apply_fill(self, addr: int, way: int, state: CoherenceState,
                   data: bytes, cce: str, uncached: bool = False,
                   size: int = 64):
        """Install a granted block (or complete an uncached load)."""
        miss = self.miss
        if uncached:
            if miss is None or not miss.uncached or miss.addr != addr:
                raise UnexpectedFill(f"uncached data for {addr:#x}")
            self.completed = data[:miss.size]
            if self.on_load:
                self.on_load(self.cfg.lce_id, addr, miss.size, data[:miss.size])
            self.miss = None
            return
        if miss is None or self._block_base(miss.addr) != addr:
            raise UnexpectedFill(f"fill for {addr:#x} without matching miss")
        line = self.sets[self.cfg.set_index(addr)][way]
        if (self.reservation is not None
                and line.state is not I
                and line.tag == self.cfg.tag_of(self.reservation)
                and self.cfg.set_index(self.reservation) == self.cfg.set_index(addr)):
            self.reservation = None  # victim overwritten
        line.tag = self.cfg.tag_of(addr)
        line.data[:] = data
        self.set_state(line, state, addr)
        self._touch(line)
        if miss.write:
            self.completed = self._apply_write_op(line, miss.addr, miss.size,
                                                  miss.data, miss.atomic)
        else:
            value = self._read_bytes(line, miss.addr, miss.size)
            if self.on_load:
                self.on_load(self.cfg.lce_id, miss.addr, miss.size, value)
            self.completed = value
        self._respond(Emission.CohAck, addr, cce)
        self.miss = None

    def handle_fill_net(self, fill: FillData, cce: str):
        self.apply_fill(fill.addr, fill.way, fill.state, fill.data, cce)

    # -- introspection -----------------------------------------------------

    def snapshot(self):
        out = {}
        for s, lines in enumerate(self.sets):
            for w, line in enumerate(lines):
                if line.state is not I:
                    out[(s, w)] = (line.tag, line.state, bytes(line.data))
        return out
