"""Microcoded coherence engine.

A two-stage (fetch, execute) pipeline over a 256-entry instruction memory,
running on the shared engine core (`cce.CceCore`).  Each instruction
word is decoded once, when the first engine with that program is built,
into a `Uop` that carries its handler, so executing an instruction is one
call; engines built from the same words share the decoded program.
Branches are statically predicted not-taken unless annotated `[pt]`;
unconditional jumps redirect at predecode.  A mispredicted branch costs
one bubble cycle.

The pipeline is the engine's sequencer, a generator of one BUSY or WAIT
tag per cycle that the core drives.  An instruction that drives one of
the core's multi-cycle datapath units (`rdw`, `rde`, `inv`, `pushq
memcmd`) advances `pc` and returns the unit, which the pipeline runs with
`yield from`: it occupies the execute stage for its full duration, as a
mispredicted branch and its bubble do (`_busy(2)`).  A unit that takes no
cycle (an `inv` with no targets) fuses with the next instruction.  Only
such an `inv` takes no cycle, and it advances `pc`, so a chain of them
ends at an instruction that costs a cycle or runs past the program's end.

Each cycle the execute stage does work (bubbles included) is busy; a cycle
blocked on an empty queue or an exhausted memory credit, and every `wfq`
cycle, is not.  The core classifies the latter under its one accounting
rule, the same for both engines: wait inside a transaction, stall or idle
outside one.  A transaction opens at `popq req` and closes at the next
`wfq req` or `popq req`.

Instructions read the request `popq req` took and the way-group read
`rdw` made for it in place.  Reading either before it exists, naming an
owner the read did not find, writing back a response this request has
not popped, or moving a pending counter or speculation bit past what the
directory holds is a `MicrocodeFault` that names the instruction, also
when a unit the instruction started does it in a later cycle.

The core's message unit runs alongside the pipeline: it silently consumes
coherence acks and auto-forwards memory responses under the
speculative-read bits.  A CohAck or memory response that underflows its
way group's pending counter (a memory command sent without `wp`, say) is
a `MicrocodeFault` that names the way group and the message.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from importlib import resources
from typing import Optional

from ..cce import BUSY, WAIT, CceCore
from ..directory import (ENTRY_READ_LATENCY, DoubleSpeculation, Overflow,
                         Underflow, WayGroupRead)
from ..messages import CceCommand, CohRequest, MemCmd
from ..protocol import (DEFAULT_REGION_MAP, UPGRADE_STATES, CoherenceState,
                        CommandKind, I, E)
from . import asm, isa
from .isa import Instr, NO_STATE, Op, RESP_KIND_CODE

MASK64 = (1 << 64) - 1

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
# The commands that also transfer the block to the requester.
TRANSFERS = (CommandKind.Tr, CommandKind.StTr, CommandKind.StTrWb)
# What `%ownerlce` and `%ownerstate` read when no copy is an owner.
NO_OWNER = (0, 0, I)
# The directory's pending-counter and speculation-bit errors -> what the
# instruction that raised one did, for its fault.
BIT_FAULTS = {Underflow: "underflows the", Overflow: "overflows the",
              DoubleSpeculation: "speculates twice on"}


class MicrocodeFault(Exception):
    """The program asked for something its engine cannot do."""


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
    `wfq` queue mask holds its bits as `waits_req` and `waits_resp`.  So
    executing an instruction decodes nothing.  The decoded `instr` is kept
    for fault messages."""

    def __init__(self, instr: Instr):
        self.instr = instr
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
        self.op = instr.op
        self.run = _HANDLERS[instr.op]
        self.fn = (_SPECIAL_READERS[self.special] if instr.op is Op.MOVS
                   else _FNS.get(instr.op))
        self.predict = isa.predicted_taken(instr)


class UcodeCce(CceCore):
    """Coherence engine driven by a microcode program instead of a
    hardwired request flow."""

    Fault = MicrocodeFault

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        program = self.cfg.ucode_program
        if program is None:
            source = default_program(self.tables.name)
        else:
            with open(program) as f:
                source = f.read()
        self.imem = _decoded(tuple(asm.assemble_words(source)))
        self.pc = 0
        self.regs = [0] * isa.NUM_GPRS
        self.flags = 0
        self.last_resp = None   # this request's last popped response
        self._found = None   # this request's way-group read, once `rdw` ran
        self._unit = None   # the running datapath unit, for `_active`
        self.mispredicts = 0

    # -- sequencer -------------------------------------------------------------

    def _active(self) -> bool:
        return self._txn is not None or self._unit is not None

    def _sequencer(self):
        """The pipeline: run the instruction at `pc`, then the unit it
        started, if any, from this cycle on."""
        imem = self.imem
        while True:
            pc = self.pc
            try:
                u = imem[pc]
            except IndexError:
                raise MicrocodeFault(f"pc {pc} is past the end of the "
                                     "program") from None
            try:
                outcome = u.run(self, u)
                if outcome is BUSY or outcome is WAIT:
                    yield outcome
                else:
                    self._unit = outcome
                    yield from outcome
                    self._unit = None
            except tuple(BIT_FAULTS) as exc:
                raise self._fault(f"{BIT_FAULTS[type(exc)]} {exc}",
                                  pc) from None

    def _branch(self, u: Uop, taken: bool):
        if taken:
            self.pc = u.target
        else:
            self.pc += 1
        if taken != u.predict:
            self.mispredicts += 1
            return self._busy(2)     # the branch cycle and its bubble
        return BUSY

    def _fault(self, why: str, pc: Optional[int] = None) -> MicrocodeFault:
        """A fault of the instruction at `pc`, by default the executing
        one."""
        if pc is None:
            pc = self.pc
        text = asm.disassemble([isa.encode(self.imem[pc].instr)],
                               labels=False)
        return MicrocodeFault(f"pc {pc} ({text.strip()}) {why}")

    def _request(self) -> CohRequest:
        if self._req is None:
            raise self._fault("reads the request before the first popq req")
        return self._req

    def _read(self) -> WayGroupRead:
        if self._found is None:
            raise self._fault("reads the way-group read before rdw")
        return self._found

    def _owner(self, found: WayGroupRead) -> tuple:
        """The (cache, way, state) of the owner copy `found`."""
        if found.owner is None:
            raise self._fault("names the owner, but no copy is an owner")
        return found.owner

    def _wg(self) -> int:
        """The request's local way group, which `popq req` resolved."""
        self._request()
        return self._req_wg

    # -- instruction semantics ---------------------------------------------------
    # One handler per opcode (see `_HANDLERS`), called as
    # `handler(self, uop)`; each returns BUSY, WAIT or, having advanced
    # `pc`, the datapath unit it starts.

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
        self.regs[u.rd] = u.fn(self, self._request())
        self.pc += 1
        return BUSY

    def _br(self, u):
        return self._branch(u, u.fn(self.regs[u.rs1], self.regs[u.rs2]))

    def _bri(self, u):
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

    def _flagbr(self, u):
        return self._branch(u, u.fn(self.flags & u.mask, u.mask))

    def _rdp(self, u) -> str:
        self.flags = (self.flags & ~(1 << PF)
                      | self.pending.read(self._wg()) << PF)
        self.pc += 1
        return BUSY

    def _rdw(self, u):
        req = self._request()
        self._found = self.directory.read_way_group(
            self._req_wg, self.cfg.tag_of(req.addr), req.lce, req.lru_way)
        self.pc += 1
        return self._busy(self.cfg.way_group_read_latency)

    def _rde(self, u):
        """An entry read: no instruction reads its result, so it only
        occupies the execute stage."""
        self.pc += 1
        return self._busy(ENTRY_READ_LATENCY)

    def _wdp(self, u) -> str:
        self.pending.adjust(self._wg(), +1 if u.inc == "inc" else -1)
        self.pc += 1
        return BUSY

    def _clp(self, u) -> str:
        self.pending.clear(self._wg())
        self.pc += 1
        return BUSY

    def _clr(self, u) -> str:
        self.directory.clear_row(self._wg(), self._req.lce)
        self.pc += 1
        return BUSY

    def _wde(self, u) -> str:
        found = self._read()
        req = self._req
        self.directory.write_entry(self._req_wg, self.cfg.tag_of(req.addr),
                                   req.lce, found.req_way, u.state)
        self.pc += 1
        return BUSY

    def _wds(self, u) -> str:
        found = self._read()
        if u.cmd_target == "owner":
            lce, way, _ = self._owner(found)
        else:
            lce, way = self._req.lce, found.req_way
        self.directory.write_state(self._req_wg, lce, way, u.state)
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
                 or (u.waits_resp and self.resp_q))
        if ready:
            self.pc += 1
        return WAIT

    def _poph(self, u) -> str:
        if not self.resp_q:
            return WAIT
        self.regs[u.rd] = RESP_KIND_CODE[self.resp_q[0].kind._value_]
        self.pc += 1
        return BUSY

    def _gad(self, u) -> str:
        """Digest this request's way-group read into the flags: the
        cached-state flags of every copy but the requester's, replacement,
        and upgrade (a write, by the current WNR flag, from an
        `UPGRADE_STATES` state)."""
        found = self._read()
        lce = self._req.lce
        flags = (self.flags & GAD_KEEP | found.replacement << RF
                 | (self.flags >> WNR & 1
                    and found.req_state in UPGRADE_STATES) << UF)
        for c, _, state in found.copies:
            if c != lce:
                flags |= CACHED_FLAG[state._value_]
        self.flags = flags
        if self._txn is not None:
            self._note_lookup(found)
        self.pc += 1
        return BUSY

    def _popq(self, u) -> str:
        if u.queue == "req":
            self._close_txn()
            req = self._arbitrate()
            if req is None:
                return WAIT
            self._open_txn(req)
            self._found = None
            self.last_resp = None
            self.flags = (req.write << WNR | req.uncached << UCF
                          | req.non_exclusive << NEX
                          | (req.atomic is not None) << AF
                          | DEFAULT_REGION_MAP.is_cacheable(req.addr) << CAF)
            self.pc += 1
            return BUSY
        if not self.resp_q:
            return WAIT
        resp = self.resp_q.popleft()
        self.last_resp = resp
        if (self._txn is not None
                and self.flags >> RF & 1
                and resp.addr == self._victim_addr(self._req.addr,
                                                   self._read().lru_tag)):
            self._note_victim_wb(resp)
        self.regs[u.rd] = RESP_KIND_CODE[resp.kind._value_]
        if u.wp:
            self.pending.adjust(self._wg(), -1)
        self.pc += 1
        return BUSY

    def _pushq(self, u):
        if u.dest == "memcmd":
            kind = u.kind
            wg = self._wg() if u.wp else None
            if kind == "wb":
                if self.last_resp is None:
                    raise self._fault("writes back a response, but this "
                                      "request has popped none")
                self.pc += 1
                return self._write_back(self.last_resp, wg)
            req = self._request()
            if kind == "specread":
                cmd = MemCmd(addr=req.addr, write=False, spec=True,
                             lce=req.lce, way=req.lru_way, state=E)
            else:   # uncached access for the current request
                write = bool(self.flags >> WNR & 1)
                cmd = MemCmd(addr=req.addr, write=write, uncached=True,
                             size=req.size, data=req.data if write else None,
                             lce=req.lce, wp=bool(u.wp))
            self.pc += 1
            return self._to_memory(cmd, wg)

        kind = u.kind
        found = self._read()
        req = self._req
        victim = u.addr_sel == "victim"
        addr = (self._victim_addr(req.addr, found.lru_tag) if victim
                else req.addr)
        if u.cmd_target == "owner":
            lce, way, _ = self._owner(found)
        else:
            lce, way = req.lce, (req.lru_way if victim else found.req_way)
        cmd = CceCommand(kind=kind, addr=addr, way=way, state=u.state,
                         transfer_state=u.tr_state)
        if kind in TRANSFERS:
            cmd.target_lce = req.lce
            cmd.target_way = found.req_way
        self._send_cmd(lce, cmd)
        self.pc += 1
        return BUSY

    def _inv(self, u):
        found = self._read()
        self.pc += 1
        return self._invalidate(self._inv_targets(found, self._req.lce))


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


_STATE_CODE = {CoherenceState(name): code
               for code, name in enumerate(isa.STATES)}

# Special name -> its reader, called as reader(engine, request).
_SPECIAL_READERS = {
    "reqaddr": lambda engine, req: req.addr,
    "reqlce": lambda engine, req: req.lce,
    "reqstate": lambda engine, req: _STATE_CODE[engine._read().req_state],
    "ownerlce": lambda engine, req: (engine._read().owner or NO_OWNER)[0],
    "ownerstate": lambda engine, req: _STATE_CODE[
        (engine._read().owner or NO_OWNER)[2]],
    "reqway": lambda engine, req: engine._read().req_way,
    "lruway": lambda engine, req: req.lru_way,
    "lrutag": lambda engine, req: engine._read().lru_tag,
    "setindex": lambda engine, req: engine.cfg.set_index(req.addr),
    "sharers": lambda engine, req: engine._read().sharers,
    "reqsize": lambda engine, req: req.size,
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
