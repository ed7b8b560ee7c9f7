"""Cache controller model: a blocking set-associative cache with a
processor-facing port and a coherence-facing port driven by the protocol
tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import protocol
from .messages import (FILL, RESPONSE, AtomicOp, CceCommand, CohRequest,
                       Emission, LceResponse, NetMessage)
from .protocol import (LOAD, STORE, CoherenceState, CommandKind, I,
                       ImpossibleTransition, LceAction, WRITABLE_STATES)


# Emissions that carry no data, and the members tested per access and per
# command, as module constants (see the note on `messages.REQUEST`).
HEADER_ONLY = (Emission.InvAck, Emission.CohAck, Emission.NullWB)
DIRTY_WB, DATA_TO_TARGET, COH_ACK = (Emission.DirtyWB, Emission.DataToTarget,
                                     Emission.CohAck)
DATA, STW, SC = CommandKind.Data, CommandKind.StW, AtomicOp.Sc


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


@dataclass(slots=True)
class CacheLine:
    tag: int = 0
    state: CoherenceState = I
    data: bytearray = field(default_factory=lambda: bytearray(64))
    lru_rank: int = 0


@dataclass(slots=True)
class OutstandingMiss:
    addr: int
    write: bool
    size: int
    data: Optional[bytes]            # buffered store payload, applied at fill
    atomic: Optional[AtomicOp] = None
    uncached: bool = False


@dataclass(slots=True)
class Hit:
    value: Optional[bytes] = None


class Lce:
    """One coherent cache and its controller."""

    def __init__(self, cfg: LceConfig, tables: protocol.ProtocolTables = protocol.MOESIF):
        self.cfg = cfg
        self.tables = tables
        self.endpoint = f"lce{cfg.lce_id}"
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

    # -- lookup helpers ----------------------------------------------------

    def _lookup(self, addr: int):
        cfg = self.cfg
        blk = addr // cfg.block_bytes
        tag = blk // cfg.sets
        for way, line in enumerate(self.sets[blk % cfg.sets]):
            if line.state is not I and line.tag == tag:
                return way, line
        return None, None

    def _action(self, state: CoherenceState, column: str,
                attached: Optional[CoherenceState] = None) -> LceAction:
        """The table's action in `state` for `column` (LOAD, STORE or a
        command kind's value) with `attached` state.  Memoised in
        `tables.lce_actions` on plain values, so that a lookup hashes no
        enum member."""
        tables = self.tables
        key = (state._value_, column, attached and attached._value_)
        action = tables.lce_actions.get(key)
        if action is None:
            action = tables.lce_actions[key] = tables.lce_event_action(
                state, column, attached)
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

    def _line_bytes(self, line: Optional[CacheLine]) -> bytes:
        return bytes(line.data) if line else bytes(self.cfg.block_bytes)

    def _write_bytes(self, line: CacheLine, addr: int, data: bytes):
        off = addr % self.cfg.block_bytes
        line.data[off:off + len(data)] = data

    # -- processor port ----------------------------------------------------

    def access(self, addr: int, write: bool, size: int = 8,
               data: Optional[bytes] = None,
               atomic: Optional[AtomicOp] = None,
               uncached: bool = False):
        """One load/store/atomic from the core: a `Hit`, or the
        `CohRequest` of the miss it issues.  Blocking: a single outstanding
        miss is allowed."""
        if self.miss is not None:
            raise Busy("outstanding miss")
        if uncached:
            return self._uncached_access(addr, write, size, data)
        if atomic is SC:
            return self._store_conditional(addr, size, data)

        way, line = self._lookup(addr)
        wants_write = write or atomic is not None
        # The Load or Store cell decides hit or miss.  A hit has a line
        # (the tables make every access in I miss); its cell may name a
        # silent state change (a store in E makes it M).
        action = self._action(I if line is None else line.state,
                              STORE if wants_write else LOAD)
        if not action.is_miss:
            if action.next_state is not None:
                self.set_state(line, action.next_state, addr)
            self._touch(line)
            if wants_write:
                return Hit(self._apply_write_op(line, addr, size, data, atomic))
            value = self._read_bytes(line, addr, size)
            if self.on_load:
                self.on_load(self.cfg.lce_id, addr, size, value)
            return Hit(value)

        # Miss (or write upgrade): issue the request.
        lru = self.lru_way(self.cfg.set_index(addr))
        non_excl = (not wants_write) and self.cfg.kind is LceKind.Instruction
        self.miss = OutstandingMiss(addr, wants_write, size, data, atomic)
        return CohRequest(lce=self.cfg.lce_id, addr=self._block_base(addr),
                          write=wants_write, lru_way=lru,
                          non_exclusive=non_excl, atomic=atomic, size=size)

    def _store_conditional(self, addr: int, size: int, data: bytes):
        """SC succeeds iff the LR reservation survived and the Store cell
        is a hit; it never misses."""
        way, line = self._lookup(addr)
        ok = self.reservation == self._block_base(addr) and line is not None
        self.reservation = None
        action = self._action(line.state, STORE) if ok else None
        if action is None or action.is_miss:
            return Hit((1).to_bytes(size, "little"))
        if action.next_state is not None:
            self.set_state(line, action.next_state, addr)
        self._touch(line)
        self._write_bytes(line, addr, data)
        if self.on_store:
            self.on_store(self.cfg.lce_id, addr, size, data)
        return Hit((0).to_bytes(size, "little"))

    def _uncached_access(self, addr: int, write: bool, size: int,
                         data: Optional[bytes]):
        if not write:   # a posted uncached store completes at issue
            self.miss = OutstandingMiss(addr=addr, write=False, size=size,
                                        data=None, uncached=True)
        return CohRequest(lce=self.cfg.lce_id, addr=addr, write=write,
                          uncached=True, size=size,
                          data=data if write else None)

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
        resp = LceResponse(kind, self.cfg.lce_id, addr, data)
        self.outbox.append(NetMessage(RESPONSE, self.endpoint, cce, resp,
                                      beats))

    def handle_command(self, cmd: CceCommand, cce: str, beats_of=len):
        """Apply a directory command; queue responses/fills on the outbox."""
        if cmd.kind is DATA:
            self.apply_fill(cmd.addr, cmd.target_way, cmd.state, cmd.data,
                            cce, uncached=cmd.uncached, size=cmd.size)
            return
        way, line = self._lookup(cmd.addr)
        state = line.state if line else I
        action = self._action(state, cmd.kind._value_, cmd.state)
        block = None   # the line's bytes, copied for the first data emission

        for emission in action.sends:
            if emission in HEADER_ONLY:
                self._respond(emission, cmd.addr, cce)
            elif emission is DIRTY_WB:
                block = block or self._line_bytes(line)
                self._respond(DIRTY_WB, cmd.addr, cce, data=block,
                              beats=beats_of(block))
            elif emission is DATA_TO_TARGET:
                block = block or self._line_bytes(line)
                fill = CceCommand(kind=DATA, addr=cmd.addr,
                                  target_way=cmd.target_way,
                                  state=cmd.transfer_state, data=block)
                self.outbox.append(NetMessage(
                    FILL, self.endpoint, f"lce{cmd.target_lce}",
                    fill, beats_of(block)))
            else:
                raise ImpossibleTransition(f"unexpected emission {emission}")

        if action.next_state is not None and line is not None:
            self.set_state(line, action.next_state, cmd.addr)
        if (self.reservation is not None
                and self._block_base(self.reservation) == self._block_base(cmd.addr)
                and (line is None or line.state not in WRITABLE_STATES)):
            self.reservation = None

        # An upgrade command also completes the outstanding write miss.
        if cmd.kind is STW:
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
        self._respond(COH_ACK, addr, cce)
        self.miss = None

    # The Fill network's entry: a cache-to-cache transfer is a DATA command.
    handle_fill_net = handle_command

    # -- introspection -----------------------------------------------------

    def snapshot(self):
        out = {}
        for s, lines in enumerate(self.sets):
            for w, line in enumerate(lines):
                if line.state is not I:
                    out[(s, w)] = (line.tag, line.state, bytes(line.data))
        return out
