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
from ..directory import gad
from ..messages import CceCommand, CohRequest, LceResponse, MemCmd
from ..protocol import (DEFAULT_REGION_MAP, CoherenceState, CommandKind,
                        I, S, E)
from . import asm, isa
from .isa import (AddrSel, CmdTarget, Instr, MemPushKind, Op, PushDest,
                  Queue, RESP_KIND_CODE, SpecCmd, Special, STATE_BY_CODE,
                  STATE_CODE)

MASK64 = (1 << 64) - 1

FREE = "free"   # zero-cost completion (fused with the next instruction)

# Flag bit positions as plain ints, named by their assembler mnemonics, so
# that building a flags word looks up no enum attribute.
WNR, UCF, NEX, AF, CAF, PF, CSF, CEF, CMF, COF, CFF, RF, UF = (
    int(isa.FLAG_BY_NAME[n])
    for n in ("wnr", "ucf", "nex", "af", "caf", "pf", "csf", "cef", "cmf",
              "cof", "cff", "rf", "uf"))
# The flags other than those `gad` writes.
GAD_KEEP = ~sum(1 << f for f in (CSF, CEF, CMF, COF, CFF, RF, UF))


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
    prediction (`predict`).  Enum-coded fields hold their members (a
    `pushq` kind its `MemPushKind` or `CommandKind`, a state field its
    `CoherenceState` or None) and a `wfq` queue mask its three bits as
    `waits_req`, `waits_resp` and `waits_memresp`, so executing an
    instruction decodes nothing."""

    def __init__(self, instr: Instr):
        fields = {name: _DECODERS[name][value] if name in _DECODERS
                  else value for name, value in instr.fields}
        if instr.op is Op.PUSHQ:
            fields["kind"] = (_MEM_PUSH_KINDS
                              if fields["dest"] is PushDest.MemCmd
                              else isa.COMMAND_BY_CODE)[fields["kind"]]
        elif instr.op is Op.WFQ:
            qmask = fields["qmask"]
            self.waits_req = bool(qmask & 1 << Queue.Req)
            self.waits_resp = bool(qmask & 1 << Queue.Resp)
            self.waits_memresp = bool(qmask & 1 << Queue.MemResp)
        self.__dict__.update(fields)
        self.op = instr.op
        self.run = _HANDLERS[instr.op]
        self.fn = _FNS.get(instr.op)
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
        self._sv = None
        self._lru = None
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
            u = self.imem[self.pc]
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
        self.regs[u.rd] = self._read_special(u.special)
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
        sv, lru, latency = self.directory.read_way_group(
            m.addr, m.lce, m.lru_way)
        self._sv, self._lru = sv, lru
        m.lru_tag, m.lru_state = lru.lru_tag, lru.lru_state
        return self._start(self._busy(latency))

    def _rde(self, u) -> str:
        m = self.umshr
        lce, way = ((m.owner_lce, m.owner_way)
                    if u.cmd_target is CmdTarget.Owner
                    else (m.lce, m.req_way))
        _, latency = self.directory.read_entry(m.addr, lce, way)
        return self._start(self._busy(latency))

    def _wdp(self, u) -> str:
        self.pending.adjust(self._wg(), +1 if u.inc else -1)
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
        if u.cmd_target is CmdTarget.Owner:
            self.directory.write_state(m.addr, m.owner_lce, m.owner_way,
                                       u.state)
        else:
            self.directory.write_state(m.addr, m.lce, m.req_way, u.state)
        self.pc += 1
        return BUSY

    def _specq(self, u) -> str:
        cmd = u.spec_cmd
        wg = self._wg()
        if cmd is SpecCmd.Set:
            self.spec.set(wg)
        elif cmd is SpecCmd.Unset:
            self.spec.unset(wg)
        elif cmd is SpecCmd.Squash:
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
        queue = u.queue
        if queue is Queue.Req:
            raise MicrocodeFault("poph req is not supported")
        q = self.resp_q if queue is Queue.Resp else self.memresp_q
        if not q:
            return WAIT
        self.regs[u.rd] = self._resp_code(q[0])
        self.pc += 1
        return BUSY

    def _read_special(self, sp: Special) -> int:
        m = self.umshr
        return {
            Special.ReqAddr: m.addr,
            Special.ReqLce: m.lce,
            Special.ReqState: STATE_CODE[m.req_state],
            Special.OwnerLce: m.owner_lce,
            Special.OwnerState: STATE_CODE[m.owner_state],
            Special.ReqWay: m.req_way,
            Special.LruWay: m.lru_way,
            Special.LruTag: m.lru_tag,
            Special.SetIndex: self.cfg.set_index(m.addr),
            Special.Sharers: (sum(
                1 for c, h in enumerate(self._sv.hits)
                if h and self._sv.states[c] is S) if self._sv else 0),
            Special.ReqSize: m.size,
        }[sp]

    def _gad(self, u) -> str:
        if self._sv is None:
            raise MicrocodeFault("gad before rdw")
        m = self.umshr
        info = gad(self._sv, self._lru, m.lce, bool(self.flags >> WNR & 1))
        self.flags = (self.flags & GAD_KEEP
                      | info.cached_s << CSF | info.cached_e << CEF
                      | info.cached_m << CMF | info.cached_o << COF
                      | info.cached_f << CFF | info.replacement << RF
                      | info.upgrade << UF)
        if info.owner is not None:
            m.owner_lce, m.owner_way, m.owner_state = info.owner
        else:
            m.owner_lce, m.owner_way, m.owner_state = 0, 0, I
        m.req_way = (info.req_way_hit if info.req_way_hit is not None
                     else m.lru_way)
        m.req_state = (self._sv.states[m.lce] if self._sv.hits[m.lce] else I)
        if self._txn is not None:
            self._note_lookup(self._sv)
        self.pc += 1
        return BUSY

    @staticmethod
    def _resp_code(resp) -> int:
        if type(resp) is LceResponse:
            return RESP_KIND_CODE[resp.kind._value_]
        return 4 if resp.write else 5   # a memory response

    def _popq(self, u) -> str:
        queue = u.queue
        if queue is Queue.Req:
            self._close_txn()
            req = self._arbitrate()
            if req is None:
                return WAIT
            self._open_txn(req)
            self._load_request(req)
            self.pc += 1
            return BUSY
        q = self.resp_q if queue is Queue.Resp else self.memresp_q
        if not q:
            return WAIT
        resp = q.popleft()
        self.last_resp = resp
        if (queue is Queue.Resp and self._txn is not None
                and self.flags >> RF & 1
                and resp.addr == self._victim_addr(self.umshr.addr,
                                                   self.umshr.lru_tag)):
            self._note_victim_wb(resp)
        self.regs[u.rd] = self._resp_code(resp)
        if u.wp:
            self.pending.adjust(self._wg(), -1)
        if queue is Queue.MemResp:
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
        self._sv = self._lru = None
        self.flags = (req.write << WNR | req.uncached << UCF
                      | req.non_exclusive << NEX
                      | (req.atomic is not None) << AF
                      | DEFAULT_REGION_MAP.is_cacheable(req.addr) << CAF)

    def _pushq(self, u) -> str:
        m = self.umshr
        if u.dest is PushDest.MemCmd:
            kind = u.kind
            wg = self._wg() if u.wp else None
            if kind is MemPushKind.SpecRead:
                cmd = MemCmd(addr=m.addr, write=False, spec=True, lce=m.lce,
                             way=m.lru_way, state=E)
            elif kind is MemPushKind.Writeback:
                return self._start(self._write_back(self.last_resp, wg))
            else:   # uncached access for the current request
                write = bool(self.flags >> WNR & 1)
                cmd = MemCmd(addr=m.addr, write=write, uncached=True,
                             size=m.size, data=m.data if write else None,
                             lce=m.lce, wp=bool(u.wp))
            return self._start(self._to_memory(cmd, wg))

        kind = u.kind
        to_owner = u.cmd_target is CmdTarget.Owner
        victim = u.addr_sel is AddrSel.Victim
        addr = self._victim_addr(m.addr, m.lru_tag) if victim else m.addr
        if to_owner:
            lce, way = m.owner_lce, m.owner_way
        else:
            lce, way = m.lce, (m.lru_way if victim else m.req_way)
        cmd = CceCommand(kind=kind, addr=addr, way=way, state=u.state,
                         transfer_state=u.tr_state)
        if kind in (CommandKind.Tr, CommandKind.StTr, CommandKind.StTrWb):
            cmd.target_lce = m.lce
            cmd.target_way = m.req_way
        self._send_cmd(lce, cmd)
        self.pc += 1
        return BUSY

    def _inv(self, u) -> str:
        sv = self._sv
        if sv is None:
            raise MicrocodeFault("inv before rdw")
        m = self.umshr
        return self._start(self._invalidate(m.addr, [
            (c, sv.ways[c]) for c, hit in enumerate(sv.hits)
            if hit and c != m.lce and sv.states[c] is S]))


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


def _by_code(enum) -> dict:
    return {member.value: member for member in enum}


# Enum-coded field name -> {code: member}.  A `pushq` kind's meaning
# depends on its destination, so `Uop` decodes it itself.
_DECODERS = {
    "queue": _by_code(Queue), "spec_cmd": _by_code(SpecCmd),
    "special": _by_code(Special), "dest": _by_code(PushDest),
    "cmd_target": _by_code(CmdTarget), "addr_sel": _by_code(AddrSel),
    "state": STATE_BY_CODE, "tr_state": STATE_BY_CODE,
}
_MEM_PUSH_KINDS = _by_code(MemPushKind)

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
