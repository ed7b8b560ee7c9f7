"""Microcoded coherence engine.

A two-stage (fetch, execute) pipeline over a 256-entry instruction memory,
running on the shared engine core (`cce.CceCore`).  Branches are
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
        self.imem_words = asm.assemble_words(source)
        self.imem = [isa.decode(w) for w in self.imem_words]
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

    def _seq_quiet(self) -> bool:
        if self._bubbles or self._multi or self._inv_job:
            return False
        if self.last_tag is not WAIT and self._txn is not None:
            return False
        # Blocked at wfq/popq: quiet unless an admissible request waits.
        instr = self.imem[self.pc]
        wants_req = (instr.op is Op.WFQ and instr["qmask"] & 1) or (
            instr.op in (Op.POPQ, Op.POPH) and instr["queue"] == int(Queue.Req))
        if wants_req or self._txn is None:
            return self._admissible() is None
        return True

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
            outcome = self._execute(self.imem[self.pc])
            if outcome is not FREE:
                return outcome
        raise MicrocodeFault("zero-cost instruction chain too long")

    def _branch(self, instr: Instr, taken: bool) -> str:
        if taken:
            self.pc = instr["target"]
        else:
            self.pc += 1
        if taken != isa.predicted_taken(instr):
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

    def _execute(self, instr: Instr) -> str:
        op = instr.op
        m = self.umshr

        if op is Op.NOP:
            self.pc += 1
            return BUSY

        if op.fmt == "alu":
            a = self.regs[instr["rs1"]]
            b = self.regs[instr["rs2"]]
            fn = {Op.ADD: lambda: a + b, Op.SUB: lambda: a - b,
                  Op.AND: lambda: a & b, Op.OR: lambda: a | b,
                  Op.XOR: lambda: a ^ b, Op.SLL: lambda: a << (b & 63),
                  Op.SRL: lambda: a >> (b & 63)}[op]
            self.regs[instr["rd"]] = fn() & MASK64
            self.pc += 1
            return BUSY
        if op is Op.MOV:
            self.regs[instr["rd"]] = self.regs[instr["rs1"]]
            self.pc += 1
            return BUSY
        if op is Op.MOVI:
            self.regs[instr["rd"]] = instr["imm"] & MASK64
            self.pc += 1
            return BUSY
        if op is Op.MOVS:
            self.regs[instr["rd"]] = self._read_special(
                Special(instr["special"]))
            self.pc += 1
            return BUSY

        if op in (Op.BEQ, Op.BNE):
            eq = self.regs[instr["rs1"]] == self.regs[instr["rs2"]]
            return self._branch(instr, eq if op is Op.BEQ else not eq)
        if op in (Op.BEQI, Op.BNEI):
            eq = self.regs[instr["rs1"]] == instr["imm"]
            return self._branch(instr, eq if op is Op.BEQI else not eq)
        if op is Op.BI:
            self.pc = instr["target"]
            return BUSY

        if op is Op.SF:
            self.flags |= instr["mask"]
            self.pc += 1
            return BUSY
        if op is Op.SFZ:
            self.flags &= ~instr["mask"]
            self.pc += 1
            return BUSY
        if op.fmt == "flagop":
            mask = instr["mask"]
            hit = self.flags & mask
            value = {Op.ANDF: hit == mask, Op.ORF: hit != 0,
                     Op.NANDF: hit != mask, Op.NOTF: hit == 0}[op]
            self.regs[instr["rd"]] = int(value)
            self.pc += 1
            return BUSY
        if op.fmt == "flagbr":
            mask = instr["mask"]
            hit = self.flags & mask
            taken = {Op.BF: hit == mask, Op.BFNOT: hit != mask,
                     Op.BFZ: hit == 0, Op.BFNZ: hit != 0}[op]
            return self._branch(instr, taken)

        if op is Op.RDP:
            self._set_flag(Flag.Pending, self.pending.read(self._wg()))
            self.pc += 1
            return BUSY
        if op is Op.RDW:
            sv, lru, latency = self.directory.read_way_group(
                m.addr, m.lce, m.lru_way)
            self._sv, self._lru = sv, lru
            m.lru_tag, m.lru_state = lru.lru_tag, lru.lru_state
            self._multi = latency - 1
            self.pc += 1
            return BUSY
        if op is Op.RDE:
            lce, way = ((m.owner_lce, m.owner_way) if instr["cmd_target"]
                        else (m.lce, m.req_way))
            _, latency = self.directory.read_entry(m.addr, lce, way)
            self._multi = latency - 1
            self.pc += 1
            return BUSY
        if op is Op.WDP:
            self.pending.adjust(self._wg(), +1 if instr["inc"] else -1)
            self.pc += 1
            return BUSY
        if op is Op.CLP:
            self.pending.clear(self._wg())
            self.pc += 1
            return BUSY
        if op is Op.CLR:
            self.directory.clear_row(m.addr, m.lce)
            self.pc += 1
            return BUSY
        if op is Op.WDE:
            self.directory.write_entry(m.addr, m.lce, m.req_way,
                                       state=STATE_BY_CODE[instr["state"]])
            self.pc += 1
            return BUSY
        if op is Op.WDS:
            state = STATE_BY_CODE[instr["state"]]
            if instr["cmd_target"]:
                self.directory.write_state(m.addr, m.owner_lce, m.owner_way,
                                           state)
            else:
                self.directory.write_state(m.addr, m.lce, m.req_way, state)
            self.pc += 1
            return BUSY
        if op is Op.GAD:
            self._gad()
            self.pc += 1
            return BUSY
        if op is Op.SPECQ:
            cmd = SpecCmd(instr["spec_cmd"])
            wg = self._wg()
            if cmd is SpecCmd.Set:
                self.spec.set(wg)
            elif cmd is SpecCmd.Unset:
                self.spec.unset(wg)
            elif cmd is SpecCmd.Squash:
                self.spec.squash(wg)
            else:
                self.spec.fwd_mod(wg, STATE_BY_CODE[instr["state"]])
            self.pc += 1
            return BUSY

        if op is Op.WFQ:
            qmask = instr["qmask"]
            if qmask & (1 << Queue.Req):
                self._close_txn()
            ready = ((qmask & (1 << Queue.Req)
                      and self._admissible() is not None)
                     or (qmask & (1 << Queue.Resp) and self.resp_q)
                     or (qmask & (1 << Queue.MemResp) and self.memresp_q))
            if ready:
                self.pc += 1
            return WAIT
        if op is Op.POPQ:
            return self._popq(instr)
        if op is Op.POPH:
            queue = Queue(instr["queue"])
            q = {Queue.Req: None, Queue.Resp: self.resp_q,
                 Queue.MemResp: self.memresp_q}[queue]
            if queue is Queue.Req:
                raise MicrocodeFault("poph req is not supported")
            if not q:
                return WAIT
            self.regs[instr["rd"]] = self._resp_code(q[0])
            self.pc += 1
            return BUSY
        if op is Op.PUSHQ:
            return self._pushq(instr)
        if op is Op.INV:
            return self._inv_start()

        raise MicrocodeFault(f"unimplemented op {op.name}")

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

    def _gad(self):
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

    @staticmethod
    def _resp_code(resp) -> int:
        if isinstance(resp, (MemCmd,)) or hasattr(resp, "write"):
            return 4 if resp.write else 5
        return RESP_KIND_CODE[resp.kind.value]

    def _popq(self, instr: Instr) -> str:
        queue = Queue(instr["queue"])
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
        self.regs[instr["rd"]] = self._resp_code(resp)
        if instr["wp"]:
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

    def _pushq(self, instr: Instr) -> str:
        m = self.umshr
        if instr["dest"] == int(PushDest.MemCmd):
            if not self.net.has_mem_credit():
                return WAIT
            kind = MemPushKind(instr["kind"])
            wp = bool(instr["wp"])
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

        kind = isa.COMMAND_BY_CODE[instr["kind"]]
        to_owner = instr["cmd_target"] == int(CmdTarget.Owner)
        victim = instr["addr_sel"] == int(AddrSel.Victim)
        addr = self._victim_addr() if victim else m.addr
        if to_owner:
            lce, way = m.owner_lce, m.owner_way
        else:
            lce, way = m.lce, (m.lru_way if victim else m.req_way)
        state = STATE_BY_CODE[instr["state"]]
        tr_state = STATE_BY_CODE[instr["tr_state"]]
        cmd = CceCommand(kind=kind, addr=addr, way=way, state=state,
                         transfer_state=tr_state)
        if kind in (CommandKind.Tr, CommandKind.StTr, CommandKind.StTrWb):
            cmd.target_lce = m.lce
            cmd.target_way = m.req_way
        self._send_cmd(lce, cmd)
        self.pc += 1
        return BUSY

    # -- hardware invalidation sequencer -----------------------------------------

    def _inv_start(self) -> str:
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
