"""Microcoded coherence engine.

A two-stage (fetch, execute) pipeline over a 256-entry instruction memory,
running on the shared engine core (`cce.CceCore`).  Each instruction
word is decoded once, when the engine is built, into a `Uop` that carries
its handler, so executing an instruction is one call.  Branches are
statically predicted not-taken unless annotated `[pt]`; unconditional
jumps redirect at predecode.  A mispredicted branch costs one bubble
cycle.  Multi-beat pushes, the way-group read, and the hardware
invalidation sequencer occupy the execute stage for their full duration.

Each cycle the execute stage does work (bubbles included) is busy; a cycle
blocked on an empty queue or an exhausted memory credit, and every `wfq`
cycle, is not.  The core classifies the latter under its one accounting
rule, the same for both engines: wait inside a transaction, stall or idle
outside one.  A transaction opens at `popq req` and closes at the next
`wfq req` or `popq req`.

The core's message unit runs alongside the pipeline: it silently consumes
coherence acks and auto-forwards memory responses under the
speculative-read bits.  The invalidation sequencer runs one command or
ack per cycle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from ..cce import BUSY, WAIT, CceCore
from ..directory import GadRequest, gad
from ..messages import CceCommand, CohRequest, Emission, MemCmd
from ..protocol import CoherenceState, CommandKind, I, S, E
from . import asm, isa
from .isa import (AddrSel, CmdTarget, Flag, Instr, MemPushKind, Op, PushDest,
                  Queue, RESP_KIND_CODE, SpecCmd, Special, STATE_BY_CODE,
                  STATE_CODE)

MASK64 = (1 << 64) - 1

FREE = "free"   # zero-cost completion (fused with the next instruction)


class MicrocodeFault(Exception):
    pass


@dataclass
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
        self.imem = [Uop(isa.decode(w)) for w in asm.assemble_words(source)]
        self.pc = 0
        self.regs = [0] * isa.NUM_GPRS
        self.flags = 0
        self.umshr = UMshr()
        self.last_resp = None
        self._sv = None
        self._lru = None
        self._bubbles = 0
        self.mispredicts = 0
        self._multi = 0
        self._inv_job = None

    # -- sequencer -------------------------------------------------------------

    def _active(self) -> bool:
        return (self._txn is not None or self._bubbles > 0
                or self._multi > 0 or self._inv_job is not None)

    def _step(self) -> str:
        if self._bubbles:
            self._bubbles -= 1
            return BUSY
        if self._multi:
            self._multi -= 1
            return BUSY
        if self._inv_job is not None:
            return self._inv_step()
        # Zero-cost completions (an inv with no targets) fuse with the next
        # instruction; bound the fusion chain defensively.
        for _ in range(8):
            u = self.imem[self.pc]
            outcome = u.run(self, u)
            if outcome is not FREE:
                return outcome
        raise MicrocodeFault("zero-cost instruction chain too long")

    def _branch(self, u: Uop, taken: bool) -> str:
        if taken:
            self.pc = u.target
        else:
            self.pc += 1
        if taken != u.predict:
            self._bubbles += 1
            self.mispredicts += 1
        return BUSY

    def _wg(self) -> int:
        return self.local_wg(self.umshr.addr)

    def _victim_addr(self) -> int:
        m = self.umshr
        return ((m.lru_tag * self.cfg.sets_per_cache
                 + self.cfg.set_index(m.addr)) * self.cfg.block_bytes)

    def _flag(self, flag: Flag) -> bool:
        return bool(self.flags & (1 << flag))

    def _set_flag(self, flag: Flag, value: bool):
        if value:
            self.flags |= 1 << flag
        else:
            self.flags &= ~(1 << flag)

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
        self._set_flag(Flag.Pending, self.pending.read(self._wg()))
        self.pc += 1
        return BUSY

    def _rdw(self, u) -> str:
        m = self.umshr
        sv, lru, latency = self.directory.read_way_group(
            m.addr, m.lce, m.lru_way)
        self._sv, self._lru = sv, lru
        m.lru_tag, m.lru_state = lru.lru_tag, lru.lru_state
        self._multi = latency - 1
        self.pc += 1
        return BUSY

    def _rde(self, u) -> str:
        m = self.umshr
        lce, way = ((m.owner_lce, m.owner_way)
                    if u.cmd_target is CmdTarget.Owner
                    else (m.lce, m.req_way))
        _, latency = self.directory.read_entry(m.addr, lce, way)
        self._multi = latency - 1
        self.pc += 1
        return BUSY

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
        info = gad(self._sv, self._lru, GadRequest(
            lce=m.lce, write=self._flag(Flag.WriteNotRead),
            non_exclusive=self._flag(Flag.NonExclusive),
            atomic=self._flag(Flag.Atomic)))
        self._set_flag(Flag.CachedShared, info.cached_s)
        self._set_flag(Flag.CachedExclusive, info.cached_e)
        self._set_flag(Flag.CachedModified, info.cached_m)
        self._set_flag(Flag.CachedOwned, info.cached_o)
        self._set_flag(Flag.CachedForward, info.cached_f)
        self._set_flag(Flag.Replacement, info.replacement)
        self._set_flag(Flag.Upgrade, info.upgrade)
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
        if isinstance(resp, (MemCmd,)) or hasattr(resp, "write"):
            return 4 if resp.write else 5
        return RESP_KIND_CODE[resp.kind._value_]

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
                and self._flag(Flag.Replacement)
                and resp.addr == self._victim_addr()):
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
        self.flags = 0
        self._set_flag(Flag.WriteNotRead, req.write)
        self._set_flag(Flag.Uncached, req.uncached)
        self._set_flag(Flag.NonExclusive, req.non_exclusive)
        self._set_flag(Flag.Atomic, req.atomic is not None)
        self._set_flag(Flag.AtomicNoReturn, req.atomic_no_return)
        self._set_flag(Flag.CacheableAddress,
                       self.region_map.is_cacheable(req.addr))

    def _pushq(self, u) -> str:
        m = self.umshr
        if u.dest is PushDest.MemCmd:
            if not self.net.has_mem_credit():
                return WAIT
            kind = u.kind
            wp = bool(u.wp)
            if kind is MemPushKind.SpecRead:
                # The spec annotation latches the speculative bits with it.
                self.spec.set(self._wg())
                if wp:
                    self.pending.adjust(self._wg(), +1)
                self._send_mem(MemCmd(addr=m.addr, write=False, spec=True,
                                      lce=m.lce, way=m.lru_way, state=E))
                self.pc += 1
                return BUSY
            if kind is MemPushKind.Writeback:
                addr, data = self.last_resp.addr, self.last_resp.data
                if wp:
                    self.pending.adjust(self._wg(), +1)
                # An uncached request's command carries a sub-block address.
                self._send_mem(MemCmd(addr=addr - addr % self.cfg.block_bytes,
                                      write=True, data=data))
                self._multi = max(1, self.net.beats_of(data)) - 1
                self.pc += 1
                return BUSY
            # Uncached access for the current request.
            data = m.data if self._flag(Flag.WriteNotRead) else None
            if wp:
                self.pending.adjust(self._wg(), +1)
            self._send_mem(MemCmd(addr=m.addr,
                                  write=self._flag(Flag.WriteNotRead),
                                  uncached=True, size=m.size, data=data,
                                  lce=m.lce, wp=wp))
            self._multi = max(1, self.net.beats_of(data)) - 1
            self.pc += 1
            return BUSY

        kind = u.kind
        to_owner = u.cmd_target is CmdTarget.Owner
        victim = u.addr_sel is AddrSel.Victim
        addr = self._victim_addr() if victim else m.addr
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

    # -- hardware invalidation sequencer -----------------------------------------

    def _inv_start(self, u) -> str:
        if self._sv is None:
            raise MicrocodeFault("inv before rdw")
        m = self.umshr
        targets = [(c, self._sv.ways[c])
                   for c, hit in enumerate(self._sv.hits)
                   if hit and c != m.lce and self._sv.states[c] is S]
        if not targets:
            self.pc += 1
            return FREE
        self._inv_job = {"to_send": targets, "acks": len(targets)}
        return self._inv_step()

    def _inv_step(self) -> str:
        job = self._inv_job
        m = self.umshr
        if job["to_send"]:
            c, way = job["to_send"].pop(0)
            self.directory.write_state(m.addr, c, way, I)
            self._send_cmd(c, CceCommand(kind=CommandKind.Inv, addr=m.addr,
                                         way=way))
            return BUSY
        if self._take_resp(m.addr, (Emission.InvAck,)) is None:
            return WAIT
        job["acks"] -= 1
        if job["acks"] == 0:
            self._inv_job = None
            self.pc += 1
        return BUSY


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
    Op.SPECQ: UcodeCce._specq, Op.INV: UcodeCce._inv_start,
}
