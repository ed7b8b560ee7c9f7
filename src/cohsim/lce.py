"""Cache controller model: a blocking set-associative cache with a
processor-facing port and a coherence-facing port driven by the protocol
tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import protocol
from .directory import install_tag
from .messages import (FILL, RESPONSE, AtomicOp, CceCommand, CohRequest,
                       Emission, LceResponse, NetMessage)
from .protocol import (LOAD, STORE, CoherenceState, CommandKind, I,
                       ImpossibleTransition, LceAction, WRITABLE_STATES)


# Emissions that carry no data, and the members tested per access and per
# command, as module constants (see the note on `messages.REQUEST`).
HEADER_ONLY = (Emission.InvAck, Emission.CohAck, Emission.NullWB)
DIRTY_WB, DATA_TO_TARGET = Emission.DirtyWB, Emission.DataToTarget
DATA, STW, SC = CommandKind.Data, CommandKind.StW, AtomicOp.Sc


class Busy(Exception):
    pass


class UnexpectedFill(Exception):
    pass


class LceKind(Enum):
    Data = "data"
    Instruction = "instruction"


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

    def __init__(self, cfg, lce_id: int, tables: protocol.ProtocolTables):
        self.cfg = cfg     # the system's `SystemConfig`
        self.lce_id = lce_id
        self.kind = LceKind.Data
        self.tables = tables
        self.endpoint = f"lce{lce_id}"
        self.sets = [[CacheLine(data=bytearray(cfg.block_bytes))
                      for _ in range(cfg.assoc)] for _ in range(cfg.sets)]
        # Per set, its index from tag to way (see `directory.install_tag`).
        self.tag_index = [{} for _ in range(cfg.sets)]
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
        set_idx, tag = blk % cfg.sets, blk // cfg.sets
        way = self.tag_index[set_idx].get(tag)
        if way is not None:
            line = self.sets[set_idx][way]
            if line.state is not I and line.tag == tag:
                return way, line
        return None, None

    def install(self, addr: int, way: int) -> CacheLine:
        """Write the tag of `addr`'s block into `way` of its set, and index
        it; the line's state and data are the caller's to write."""
        cfg = self.cfg
        set_idx = cfg.set_index(addr)
        lines = self.sets[set_idx]
        install_tag(lines, self.tag_index[set_idx], way, cfg.tag_of(addr))
        return lines[way]

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

        way, line = self._lookup(addr)
        wants_write = write or atomic is not None
        # The Load or Store cell decides hit or miss.  A hit has a line
        # (the tables make every access in I miss); its cell may name a
        # silent state change (a store in E makes it M).
        action = self._action(I if line is None else line.state,
                              STORE if wants_write else LOAD)
        if atomic is SC:
            # SC never misses: it fails at once unless the LR reservation
            # survived and its Store cell hits, and it consumes the
            # reservation either way.
            reserved = self.reservation == self._block_base(addr)
            self.reservation = None
            if action.is_miss or not reserved:
                return Hit((1).to_bytes(size, "little"))
        if not action.is_miss:
            if action.next_state is not None:
                self.set_state(line, action.next_state, addr)
            value = self._perform(line, addr, size, data, atomic, wants_write)
            return Hit(bytes(size) if atomic is SC else value)

        # Miss (or write upgrade): issue the request.
        lru = self.lru_way(self.cfg.set_index(addr))
        non_excl = (not wants_write) and self.kind is LceKind.Instruction
        self.miss = OutstandingMiss(addr, wants_write, size, data, atomic)
        return CohRequest(lce=self.lce_id, addr=self._block_base(addr),
                          write=wants_write, lru_way=lru,
                          non_exclusive=non_excl, atomic=atomic, size=size)

    def _uncached_access(self, addr: int, write: bool, size: int,
                         data: Optional[bytes]):
        if not write:   # a posted uncached store completes at issue
            self.miss = OutstandingMiss(addr=addr, write=False, size=size,
                                        data=None, uncached=True)
        return CohRequest(lce=self.lce_id, addr=addr, write=write,
                          uncached=True, size=size,
                          data=data if write else None)

    def _perform(self, line: CacheLine, addr: int, size: int,
                 data: Optional[bytes], atomic: Optional[AtomicOp],
                 write: bool) -> Optional[bytes]:
        """Do one access on a line that its table cell allows, and make
        the line the most recently used: a load, a store or SC's write
        (which return None), LR (which sets the reservation) or an AMO
        (read, compute, write).  Returns the value read."""
        self._touch(line)
        lce_id = self.lce_id
        if not write:
            value = self._read_bytes(line, addr, size)
            if self.on_load:
                self.on_load(lce_id, addr, size, value)
            return value
        if line.state not in WRITABLE_STATES:
            raise ImpossibleTransition(f"write to a line in {line.state.value}")
        old = None
        if atomic is not None and atomic is not SC:
            old = self._read_bytes(line, addr, size)
            if self.on_load:
                self.on_load(lce_id, addr, size, old)
            if atomic is AtomicOp.Lr:
                self.reservation = self._block_base(addr)
                return old
            new = int.from_bytes(data, "little")
            if atomic is AtomicOp.Add:
                new = (new + int.from_bytes(old, "little")) % (1 << 8 * size)
            elif atomic is not AtomicOp.Swap:
                raise ValueError(atomic)
            data = new.to_bytes(size, "little")
        self._write_bytes(line, addr, data)
        if self.on_store:
            self.on_store(lce_id, addr, size, data)
        return old

    # -- coherence port ----------------------------------------------------

    def _respond(self, kind: Emission, addr: int, cce: str,
                 data: Optional[bytes] = None):
        resp = LceResponse(kind, self.lce_id, addr, data)
        self.outbox.append(NetMessage(RESPONSE, self.endpoint, cce, resp))

    def handle_command(self, cmd: CceCommand, cce: str):
        """Apply a directory command through its table cell, and queue the
        responses and fills it sends on the outbox.  A DATA command
        installs its block in `cmd.target_way`; a DATA or STW grant then
        ends the outstanding miss.  An uncached load's data ends its miss
        with no cell."""
        miss = self.miss
        kind = cmd.kind
        if cmd.uncached:
            if miss is None or not miss.uncached or miss.addr != cmd.addr:
                raise UnexpectedFill(f"uncached data for {cmd.addr:#x}")
            self.completed = cmd.data[:miss.size]
            if self.on_load:
                self.on_load(self.lce_id, cmd.addr, miss.size,
                             self.completed)
            self.miss = None
            return
        grant = kind is DATA or kind is STW
        if grant and (miss is None
                      or self._block_base(miss.addr) != cmd.addr):
            raise UnexpectedFill(f"{kind._value_} for {cmd.addr:#x} "
                                 "without matching miss")
        way, line = self._lookup(cmd.addr)
        state = line.state if line else I
        action = self._action(state, kind._value_, cmd.state)
        block = None   # the line's bytes, copied for the first data emission

        for emission in action.sends:
            if emission in HEADER_ONLY:
                self._respond(emission, cmd.addr, cce)
            elif emission is DIRTY_WB:
                block = block or self._line_bytes(line)
                self._respond(DIRTY_WB, cmd.addr, cce, data=block)
            elif emission is DATA_TO_TARGET:
                block = block or self._line_bytes(line)
                fill = CceCommand(kind=DATA, addr=cmd.addr,
                                  target_way=cmd.target_way,
                                  state=cmd.transfer_state, data=block)
                self.outbox.append(NetMessage(
                    FILL, self.endpoint, f"lce{cmd.target_lce}", fill))
            else:
                raise ImpossibleTransition(f"unexpected emission {emission}")

        if kind is DATA:
            line = self.install(cmd.addr, cmd.target_way)
            line.data[:] = cmd.data
        if action.next_state is not None and line is not None:
            self.set_state(line, action.next_state, cmd.addr)
        if (self.reservation is not None
                and self._block_base(self.reservation) == self._block_base(cmd.addr)
                and (line is None or line.state not in WRITABLE_STATES)):
            self.reservation = None
        if grant:
            self.completed = self._perform(line, miss.addr, miss.size,
                                           miss.data, miss.atomic, miss.write)
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
