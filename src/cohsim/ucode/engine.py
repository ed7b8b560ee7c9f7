"""Microcoded coherence engine.

A two-stage (fetch, execute) pipeline over a 256-entry instruction memory,
running on the shared engine core (`cce.CceCore`).  Each instruction
word is decoded once, when the first engine with that program is built,
into a `Uop` that carries its handler, so executing an instruction is one
call; engines built from the same words share the decoded program.
Branches are
statically predicted not-taken unless annotated `[pt]`; unconditional
jumps redirect at predecode.  A mispredicted branch costs one bubble
cycle.  An instruction that drives one of the core's multi-cycle datapath
units (`rdw`, `rde`, `inv`, `pushq memcmd`) starts it in the engine's one
unit slot and advances `pc` at once; the unit then occupies the execute
stage for its full duration, as does the bubble (`_busy(1)`).  A unit
that takes no cycle (an `inv` with no targets) fuses with the next
instruction.

Each cycle the execute stage does work (bubbles included) is busy; a cycle
blocked on an empty queue or an exhausted memory credit, and every `wfq`
cycle, is not.  The core classifies the latter under its one accounting
rule, the same for both engines: wait inside a transaction, stall or idle
outside one.  A transaction opens at `popq req` and closes at the next
`wfq req` or `popq req`.

The core's message unit runs alongside the pipeline: it silently consumes
coherence acks and auto-forwards memory responses under the
speculative-read bits.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Optional

from ..cce import BUSY, WAIT, CceCore
from ..directory import ENTRY_READ_LATENCY
from ..messages import CceCommand, CohRequest, LceResponse, MemCmd
from ..protocol import (DEFAULT_REGION_MAP, CoherenceState, CommandKind,
                        I, S, E, O, F)
from . import asm, isa
from .isa import Instr, NO_STATE, Op, RESP_KIND_CODE

MASK64 = (1 << 64) - 1

FREE = "free"   # zero-cost completion (fused with the next instruction)

# Flag bit positions as plain ints, named by their assembler mnemonics, so
# that building a flags word looks up no enum attribute.
WNR, UCF, NEX, AF, CAF, PF, CSF, CEF, CMF, COF, CFF, RF, UF = (
    isa.FLAGS.index(n)
    for n in ("wnr", "ucf", "nex", "af", "caf", "pf", "csf", "cef", "cmf",
              "cof", "cff", "rf", "uf"))
# The flags other than those `gad` writes.
GAD_KEEP = ~sum(1 << f for f in (CSF, CEF, CMF, COF, CFF, RF, UF))
# A copy's state, by value -> the cached-state flag `gad` sets for it.
CACHED_FLAG = {"S": 1 << CSF, "E": 1 << CEF, "M": 1 << CMF, "O": 1 << COF,
               "F": 1 << CFF}
# The requester's states from which a write is an upgrade.
UPGRADE_STATES = (S, O, F)
# The commands that also transfer the block to the requester.
TRANSFERS = (CommandKind.Tr, CommandKind.StTr, CommandKind.StTrWb)


class MicrocodeFault(Exception):
    pass


@dataclass(slots=True)
class UMshr:
    addr: int = 0
    lce: int = 0
    lru_way: int = 0
    size: int = 64
    data: Optional[bytes] = None
    req_way: int = 0
    req_state: CoherenceState = I
    owner_lce: int = 0
    owner_way: int = 0
    owner_state: CoherenceState = I
    lru_tag: int = 0
    lru_state: CoherenceState = I


def default_program(protocol_name: str) -> str:
    ref = resources.files(__package__).joinpath(
        f"programs/{protocol_name.lower()}.ucs")
    return ref.read_text()


class Uop:
    """One instruction-memory word, decoded once when the engine is built:
    its opcode, its fields as attributes (`u.rd`, `u.target`, ...), the
    handler that executes it (`run`), the comparison or ALU function its
    handler applies (`fn`, where the opcode has one) and its static
    prediction (`predict`).  A name-coded field holds its name from
    `isa`'s tables, except that a state field holds its `CoherenceState`
    (None for no state) and a `pushq lcecmd` kind its `CommandKind`; a
    `wfq` queue mask holds its bits as `waits_req`, `waits_resp` and
    `waits_memresp`.  So executing an instruction decodes nothing."""

    def __init__(self, instr: Instr):
        dest = instr.get("dest")
        for field, code in instr.fields:
            if field in ("state", "tr_state"):
                value = (None if code == NO_STATE
                         else CoherenceState(isa.name_of(field, code)))
            elif field == "kind" and isa.name_of("dest", dest) == "lcecmd":
                value = isa.COMMANDS[code]
            elif field in isa.NAMES or field == "kind":
                value = isa.name_of(field, code, dest)
            else:
                value = code
            setattr(self, field, value)
        if instr.op is Op.WFQ:
            waits = {q for bit, q in enumerate(isa.QUEUES)
                     if self.qmask >> bit & 1}
            self.waits_req = "req" in waits
            self.waits_resp = "resp" in waits
            self.waits_memresp = "memresp" in waits
        self.op = instr.op
        self.run = _HANDLERS[instr.op]
        self.fn = (_SPECIAL_READERS[self.special] if instr.op is Op.MOVS
                   else _FNS.get(instr.op))
        self.predict = isa.predicted_taken(instr)


class UcodeCce(CceCore):
    """Coherence engine driven by a microcode program instead of a
    hardwired request flow."""

    def __init__(self, *args, program: Optional[str] = None, **kwargs):
        super().__init__(*args, **kwargs)
        if program is None:
            source = default_program(self.tables.name)
        else:
            with open(program) as f:
                source = f.read()
        self.imem = _decoded(tuple(asm.assemble_words(source)))
        self.pc = 0
        self.regs = [0] * isa.NUM_GPRS
        self.flags = 0
        self.umshr = UMshr()
        self.last_resp = None
        self._found = None   # the last way-group read of this request
        self._unit = None   # the running datapath unit, if any
        self.mispredicts = 0

    # -- sequencer -------------------------------------------------------------

    def _active(self) -> bool:
        return self._txn is not None or self._unit is not None

    def _step(self) -> str:
        unit = self._unit
        if unit is not None:
            tag = next(unit, None)
            if tag is not None:
                return tag
            # The finished unit consumed no cycle here; the next
            # instruction runs in this same cycle.
            self._unit = None
        # Zero-cost completions (an inv with no targets) fuse with the next
        # instruction; bound the fusion chain, 8 instructions in all,
        # defensively.
        for _ in range(8):
            try:
                u = self.imem[self.pc]
            except IndexError:
                raise MicrocodeFault(f"pc {self.pc} is past the end of the "
                                     "program") from None
            outcome = u.run(self, u)
            if outcome is not FREE:
                return outcome
        raise MicrocodeFault("zero-cost instruction chain too long")

    def _start(self, unit) -> str:
        """Advance `pc` and run `unit` from this cycle on in the unit slot;
        FREE when it takes no cycle."""
        self.pc += 1
        tag = next(unit, None)
        if tag is None:
            return FREE
        self._unit = unit
        return tag

    def _branch(self, u: Uop, taken: bool) -> str:
        if taken:
            self.pc = u.target
        else:
            self.pc += 1
        if taken != u.predict:
            self._unit = self._busy(1)   # the bubble, in the next cycle
            self.mispredicts += 1
        return BUSY

    def _wg(self) -> int:
        return self.local_wg(self.umshr.addr)

    # -- instruction semantics ---------------------------------------------------
    # One handler per opcode (see `_HANDLERS`), called as
    # `handler(self, uop)`; each returns BUSY, WAIT or FREE.

    def _nop(self, u) -> str:
        self.pc += 1
        return BUSY

    def _alu(self, u) -> str:
        regs = self.regs
        regs[u.rd] = u.fn(regs[u.rs1], regs[u.rs2]) & MASK64
        self.pc += 1
        return BUSY

    def _mov(self, u) -> str:
        self.regs[u.rd] = self.regs[u.rs1]
        self.pc += 1
        return BUSY

    def _movi(self, u) -> str:
        self.regs[u.rd] = u.imm & MASK64
        self.pc += 1
        return BUSY

    def _movs(self, u) -> str:
        self.regs[u.rd] = u.fn(self, self.umshr)
        self.pc += 1
        return BUSY

    def _br(self, u) -> str:
        return self._branch(u, u.fn(self.regs[u.rs1], self.regs[u.rs2]))

    def _bri(self, u) -> str:
        return self._branch(u, u.fn(self.regs[u.rs1], u.imm))

    def _bi(self, u) -> str:
        self.pc = u.target
        return BUSY

    def _sf(self, u) -> str:
        self.flags |= u.mask
        self.pc += 1
        return BUSY

    def _sfz(self, u) -> str:
        self.flags &= ~u.mask
        self.pc += 1
        return BUSY

    def _flagop(self, u) -> str:
        self.regs[u.rd] = int(u.fn(self.flags & u.mask, u.mask))
        self.pc += 1
        return BUSY

    def _flagbr(self, u) -> str:
        return self._branch(u, u.fn(self.flags & u.mask, u.mask))

    def _rdp(self, u) -> str:
        self.flags = (self.flags & ~(1 << PF)
                      | self.pending.read(self._wg()) << PF)
        self.pc += 1
        return BUSY

    def _rdw(self, u) -> str:
        m = self.umshr
        found = self._found = self.directory.read_way_group(
            m.addr, m.lce, m.lru_way)
        m.lru_tag, m.lru_state = found.lru_tag, found.lru_state
        return self._start(self._busy(self.cfg.way_group_read_latency))

    def _rde(self, u) -> str:
        """An entry read: no instruction reads its result, so it only
        occupies the execute stage."""
        return self._start(self._busy(ENTRY_READ_LATENCY))

    def _wdp(self, u) -> str:
        self.pending.adjust(self._wg(), +1 if u.inc == "inc" else -1)
        self.pc += 1
        return BUSY

    def _clp(self, u) -> str:
        self.pending.clear(self._wg())
        self.pc += 1
        return BUSY

    def _clr(self, u) -> str:
        m = self.umshr
        self.directory.clear_row(m.addr, m.lce)
        self.pc += 1
        return BUSY

    def _wde(self, u) -> str:
        m = self.umshr
        self.directory.write_entry(m.addr, m.lce, m.req_way, state=u.state)
        self.pc += 1
        return BUSY

    def _wds(self, u) -> str:
        m = self.umshr
        if u.cmd_target == "owner":
            self.directory.write_state(m.addr, m.owner_lce, m.owner_way,
                                       u.state)
        else:
            self.directory.write_state(m.addr, m.lce, m.req_way, u.state)
        self.pc += 1
        return BUSY

    def _specq(self, u) -> str:
        cmd = u.spec_cmd
        wg = self._wg()
        if cmd == "set":
            self.spec.set(wg)
        elif cmd == "unset":
            self.spec.unset(wg)
        elif cmd == "squash":
            self.spec.squash(wg)
        else:
            self.spec.fwd_mod(wg, u.state)
        self.pc += 1
        return BUSY

    def _wfq(self, u) -> str:
        if u.waits_req:
            self._close_txn()
        ready = ((u.waits_req and self._admissible() is not None)
                 or (u.waits_resp and self.resp_q)
                 or (u.waits_memresp and self.memresp_q))
        if ready:
            self.pc += 1
        return WAIT

    def _poph(self, u) -> str:
        q = self.resp_q if u.queue == "resp" else self.memresp_q
        if not q:
            return WAIT
        self.regs[u.rd] = self._resp_code(q[0])
        self.pc += 1
        return BUSY

    def _gad(self, u) -> str:
        """Digest the last way-group read into the flags: the cached-state
        flags of every copy but the requester's, replacement, and upgrade
        (a write, by the current WNR flag, from S, O or F)."""
        found = self._found
        if found is None:
            raise MicrocodeFault("gad before rdw")
        m = self.umshr
        lce = m.lce
        flags = (self.flags & GAD_KEEP | found.replacement << RF
                 | (self.flags >> WNR & 1
                    and found.req_state in UPGRADE_STATES) << UF)
        for c, _, state in found.copies:
            if c != lce:
                flags |= CACHED_FLAG[state._value_]
        self.flags = flags
        m.owner_lce, m.owner_way, m.owner_state = found.owner or (0, 0, I)
        m.req_way = found.req_way
        m.req_state = found.req_state
        if self._txn is not None:
            self._note_lookup(found)
        self.pc += 1
        return BUSY

    @staticmethod
    def _resp_code(resp) -> int:
        if type(resp) is LceResponse:
            return RESP_KIND_CODE[resp.kind._value_]
        return 4 if resp.write else 5   # a memory response

    def _popq(self, u) -> str:
        queue = u.queue
        if queue == "req":
            self._close_txn()
            req = self._arbitrate()
            if req is None:
                return WAIT
            self._open_txn(req)
            self._load_request(req)
            self.pc += 1
            return BUSY
        q = self.resp_q if queue == "resp" else self.memresp_q
        if not q:
            return WAIT
        resp = q.popleft()
        self.last_resp = resp
        if (queue == "resp" and self._txn is not None
                and self.flags >> RF & 1
                and resp.addr == self._victim_addr(self.umshr.addr,
                                                   self.umshr.lru_tag)):
            self._note_victim_wb(resp)
        self.regs[u.rd] = self._resp_code(resp)
        if u.wp:
            self.pending.adjust(self._wg(), -1)
        if queue == "memresp":
            self.net.release_mem_credit()
        self.pc += 1
        return BUSY

    def _load_request(self, req: CohRequest):
        m = self.umshr
        m.addr = req.addr
        m.lce = req.lce
        m.lru_way = req.lru_way
        m.size = req.size
        m.data = req.data
        m.req_way = req.lru_way
        m.req_state = I
        self._found = None
        self.flags = (req.write << WNR | req.uncached << UCF
                      | req.non_exclusive << NEX
                      | (req.atomic is not None) << AF
                      | DEFAULT_REGION_MAP.is_cacheable(req.addr) << CAF)

    def _pushq(self, u) -> str:
        m = self.umshr
        if u.dest == "memcmd":
            kind = u.kind
            wg = self._wg() if u.wp else None
            if kind == "specread":
                cmd = MemCmd(addr=m.addr, write=False, spec=True, lce=m.lce,
                             way=m.lru_way, state=E)
            elif kind == "wb":
                return self._start(self._write_back(self.last_resp, wg))
            else:   # uncached access for the current request
                write = bool(self.flags >> WNR & 1)
                cmd = MemCmd(addr=m.addr, write=write, uncached=True,
                             size=m.size, data=m.data if write else None,
                             lce=m.lce, wp=bool(u.wp))
            return self._start(self._to_memory(cmd, wg))

        kind = u.kind
        to_owner = u.cmd_target == "owner"
        victim = u.addr_sel == "victim"
        addr = self._victim_addr(m.addr, m.lru_tag) if victim else m.addr
        if to_owner:
            lce, way = m.owner_lce, m.owner_way
        else:
            lce, way = m.lce, (m.lru_way if victim else m.req_way)
        cmd = CceCommand(kind=kind, addr=addr, way=way, state=u.state,
                         transfer_state=u.tr_state)
        if kind in TRANSFERS:
            cmd.target_lce = m.lce
            cmd.target_way = m.req_way
        self._send_cmd(lce, cmd)
        self.pc += 1
        return BUSY

    def _inv(self, u) -> str:
        found = self._found
        if found is None:
            raise MicrocodeFault("inv before rdw")
        m = self.umshr
        return self._start(
            self._invalidate(m.addr, self._inv_targets(found, m.lce)))


@lru_cache(maxsize=16)
def _decoded(words: tuple) -> tuple:
    """The instruction memory for `words`, shared by every engine built
    from them: nothing writes to a `Uop` once it is built."""
    return tuple(Uop(isa.decode(w)) for w in words)


def _flags_all(hit, mask):
    return hit == mask


def _flags_not_all(hit, mask):
    return hit != mask


def _flags_any(hit, mask):
    return hit != 0


def _flags_none(hit, mask):
    return hit == 0


def _sharers(engine, m) -> int:
    found = engine._found
    return found.sharers if found else 0


_STATE_CODE = {CoherenceState(name): code
               for code, name in enumerate(isa.STATES)}

# Special name -> its reader, called as reader(engine, umshr).
_SPECIAL_READERS = {
    "reqaddr": lambda engine, m: m.addr,
    "reqlce": lambda engine, m: m.lce,
    "reqstate": lambda engine, m: _STATE_CODE[m.req_state],
    "ownerlce": lambda engine, m: m.owner_lce,
    "ownerstate": lambda engine, m: _STATE_CODE[m.owner_state],
    "reqway": lambda engine, m: m.req_way,
    "lruway": lambda engine, m: m.lru_way,
    "lrutag": lambda engine, m: m.lru_tag,
    "setindex": lambda engine, m: engine.cfg.set_index(m.addr),
    "sharers": _sharers,
    "reqsize": lambda engine, m: m.size,
}

# Opcode -> the function its handler applies: ALU ops to (rs1, rs2),
# register branches to their two operands, flag ops and flag branches to
# (flags & mask, mask).
_FNS = {
    Op.ADD: operator.add, Op.SUB: operator.sub, Op.AND: operator.and_,
    Op.OR: operator.or_, Op.XOR: operator.xor,
    Op.SLL: lambda a, b: a << (b & 63), Op.SRL: lambda a, b: a >> (b & 63),
    Op.BEQ: operator.eq, Op.BNE: operator.ne,
    Op.BEQI: operator.eq, Op.BNEI: operator.ne,
    Op.ANDF: _flags_all, Op.BF: _flags_all,
    Op.NANDF: _flags_not_all, Op.BFNOT: _flags_not_all,
    Op.ORF: _flags_any, Op.BFNZ: _flags_any,
    Op.NOTF: _flags_none, Op.BFZ: _flags_none,
}

# Opcode -> handler, called as handler(engine, uop).
_HANDLERS = {
    Op.NOP: UcodeCce._nop,
    **dict.fromkeys((Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLL, Op.SRL),
                    UcodeCce._alu),
    Op.MOV: UcodeCce._mov, Op.MOVI: UcodeCce._movi, Op.MOVS: UcodeCce._movs,
    Op.BEQ: UcodeCce._br, Op.BNE: UcodeCce._br,
    Op.BEQI: UcodeCce._bri, Op.BNEI: UcodeCce._bri, Op.BI: UcodeCce._bi,
    Op.SF: UcodeCce._sf, Op.SFZ: UcodeCce._sfz,
    **dict.fromkeys((Op.ANDF, Op.ORF, Op.NANDF, Op.NOTF), UcodeCce._flagop),
    **dict.fromkeys((Op.BF, Op.BFNOT, Op.BFZ, Op.BFNZ), UcodeCce._flagbr),
    Op.RDP: UcodeCce._rdp, Op.RDW: UcodeCce._rdw, Op.RDE: UcodeCce._rde,
    Op.WDP: UcodeCce._wdp, Op.CLP: UcodeCce._clp, Op.CLR: UcodeCce._clr,
    Op.WDE: UcodeCce._wde, Op.WDS: UcodeCce._wds, Op.GAD: UcodeCce._gad,
    Op.WFQ: UcodeCce._wfq, Op.PUSHQ: UcodeCce._pushq,
    Op.POPQ: UcodeCce._popq, Op.POPH: UcodeCce._poph,
    Op.SPECQ: UcodeCce._specq, Op.INV: UcodeCce._inv,
}
