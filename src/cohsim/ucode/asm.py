"""Two-pass assembler and disassembler for the coherence microcode.

Source syntax, one instruction per line:

    # comment                      (to end of line)
    label:                         (alone or before an instruction)
    nop | rdp | rdw | gad | inv | clp | clr
    add/sub/and/or/xor/sll/srl rd, rs1, rs2
    mov rd, rs          |  mov rd, %special
    movi rd, imm
    beq/bne rs1, rs2, label [pt]
    beqi/bnei rs1, imm, label [pt]
    bi label
    sf/sfz mask                    (mask: flag names joined with |)
    andf/orf/nandf/notf rd, mask
    bf/bfnot/bfz/bfnz mask, label [pt]
    rde req|owner
    wdp inc|dec
    wde STATE                      (I S E M O F)
    wds req|owner, STATE
    specq set|unset|squash | specq fwd_mod STATE
    wfq queues                     (req|resp|memresp, joined with |)
    pushq lcecmd KIND req|owner [, addr=victim] [, st=STATE] [, tr=STATE]
    pushq memcmd specread|wb|uncached [wp]
    popq req|resp|memresp [wp]
    poph req|resp|memresp

The binary container is the magic "UCOH", a little-endian u16 version and
u16 word count, then the instruction words as little-endian u32.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import lru_cache

from ..messages import CommandKind
from . import isa
from .isa import (AddrSel, CmdTarget, EncodingError, Flag, IMEM_SIZE, Instr,
                  MemPushKind, Op, PushDest, Queue, SpecCmd, Special,
                  COMMAND_BY_CODE, COMMAND_CODE, FLAG_BY_NAME, NAME_BY_FLAG,
                  NAME_BY_SPECIAL, SPECIAL_BY_NAME, STATE_BY_CODE, STATE_CODE,
                  make)

MAGIC = b"UCOH"
VERSION = 1


class AsmError(Exception):
    def __init__(self, message: str, line_no: int = 0, line: str = ""):
        self.line_no = line_no
        self.line = line
        super().__init__(f"line {line_no}: {message}"
                         + (f"\n    {line.strip()}" if line else ""))


_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_STATE_RE = {name: code for code, st in STATE_BY_CODE.items()
             if st is not None for name in [st.value]}
_CMD_BY_NAME = {k.value.replace("-", "_").lower(): k for k in CommandKind}
_QUEUE_BY_NAME = {"req": Queue.Req, "resp": Queue.Resp,
                  "memresp": Queue.MemResp}
_MEMKIND_BY_NAME = {"specread": MemPushKind.SpecRead,
                    "wb": MemPushKind.Writeback,
                    "uncached": MemPushKind.Uncached}


@dataclass
class _Line:
    no: int
    text: str
    label: str
    body: str


def _split_lines(source: str):
    out = []
    for no, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("#", 1)[0].rstrip()
        body = text.strip()
        label = None
        if ":" in body:
            label, body = body.split(":", 1)
            label = label.strip()
            if not _LABEL_RE.match(label):
                raise AsmError(f"bad label {label!r}", no, raw)
            body = body.strip()
        out.append(_Line(no, raw, label, body))
    return out


def _reg(tok: str, line: _Line) -> int:
    m = re.match(r"^r([0-7])$", tok)
    if not m:
        raise AsmError(f"expected register r0-r7, got {tok!r}",
                       line.no, line.text)
    return int(m.group(1))


def _mask(tok: str, line: _Line) -> int:
    mask = 0
    for part in tok.split("|"):
        part = part.strip()
        if part not in FLAG_BY_NAME:
            raise AsmError(f"unknown flag {part!r}", line.no, line.text)
        mask |= 1 << int(FLAG_BY_NAME[part])
    return mask


def _state(tok: str, line: _Line) -> int:
    if tok not in _STATE_RE:
        raise AsmError(f"unknown state {tok!r}", line.no, line.text)
    return _STATE_RE[tok]


def _int(tok: str, line: _Line) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise AsmError(f"expected integer, got {tok!r}", line.no, line.text)


def _target(tok: str, labels, line: _Line) -> int:
    if tok in labels:
        return labels[tok]
    if re.match(r"^\d+$", tok):
        return int(tok)
    raise AsmError(f"undefined label {tok!r}", line.no, line.text)


def _split_args(body: str):
    """'beq r1, r2, foo [pt]' -> (mnemonic, [args...], pt)"""
    pt = False
    if body.endswith("[pt]"):
        pt = True
        body = body[:-4].strip()
    parts = body.split(None, 1)
    mnem = parts[0].lower()
    args = []
    if len(parts) > 1:
        args = [a.strip() for a in parts[1].split(",")]
    return mnem, args, pt


_SIMPLE = {"nop": Op.NOP, "rdp": Op.RDP, "rdw": Op.RDW, "gad": Op.GAD,
           "inv": Op.INV, "clp": Op.CLP, "clr": Op.CLR}
_ALU = {"add": Op.ADD, "sub": Op.SUB, "and": Op.AND, "or": Op.OR,
        "xor": Op.XOR, "sll": Op.SLL, "srl": Op.SRL}
_FLAGOP = {"andf": Op.ANDF, "orf": Op.ORF, "nandf": Op.NANDF,
           "notf": Op.NOTF}
_FLAGBR = {"bf": Op.BF, "bfnot": Op.BFNOT, "bfz": Op.BFZ, "bfnz": Op.BFNZ}
_SPECCMD = {"set": SpecCmd.Set, "unset": SpecCmd.Unset,
            "squash": SpecCmd.Squash, "fwd_mod": SpecCmd.FwdMod}


def _argc(args, n, line):
    if len(args) != n:
        raise AsmError(f"expected {n} operand(s), got {len(args)}",
                       line.no, line.text)


def _parse_instr(line: _Line, labels) -> Instr:
    mnem, args, pt = _split_args(line.body)
    if mnem in _SIMPLE:
        _argc(args, 0, line)
        return make(_SIMPLE[mnem])
    if mnem in _ALU:
        _argc(args, 3, line)
        return make(_ALU[mnem], rd=_reg(args[0], line),
                    rs1=_reg(args[1], line), rs2=_reg(args[2], line))
    if mnem == "mov":
        _argc(args, 2, line)
        rd = _reg(args[0], line)
        if args[1].startswith("%"):
            name = args[1][1:]
            if name not in SPECIAL_BY_NAME:
                raise AsmError(f"unknown special %{name}", line.no, line.text)
            return make(Op.MOVS, rd=rd, special=int(SPECIAL_BY_NAME[name]))
        return make(Op.MOV, rd=rd, rs1=_reg(args[1], line))
    if mnem == "movi":
        _argc(args, 2, line)
        return make(Op.MOVI, rd=_reg(args[0], line), imm=_int(args[1], line))
    if mnem in ("beq", "bne"):
        _argc(args, 3, line)
        return make(Op.BEQ if mnem == "beq" else Op.BNE,
                    rs1=_reg(args[0], line), rs2=_reg(args[1], line),
                    target=_target(args[2], labels, line), pt=int(pt))
    if mnem in ("beqi", "bnei"):
        _argc(args, 3, line)
        imm = _int(args[1], line)
        if not 0 <= imm < 32:
            raise AsmError(f"immediate {imm} out of range 0..31",
                           line.no, line.text)
        return make(Op.BEQI if mnem == "beqi" else Op.BNEI,
                    rs1=_reg(args[0], line), imm=imm,
                    target=_target(args[2], labels, line), pt=int(pt))
    if mnem == "bi":
        _argc(args, 1, line)
        return make(Op.BI, target=_target(args[0], labels, line))
    if mnem in ("sf", "sfz"):
        _argc(args, 1, line)
        return make(Op.SF if mnem == "sf" else Op.SFZ,
                    mask=_mask(args[0], line))
    if mnem in _FLAGOP:
        _argc(args, 2, line)
        return make(_FLAGOP[mnem], rd=_reg(args[0], line),
                    mask=_mask(args[1], line))
    if mnem in _FLAGBR:
        _argc(args, 2, line)
        return make(_FLAGBR[mnem], mask=_mask(args[0], line),
                    target=_target(args[1], labels, line), pt=int(pt))
    if mnem == "rde":
        _argc(args, 1, line)
        return make(Op.RDE, cmd_target=int(_cmd_target(args[0], line)))
    if mnem == "wdp":
        _argc(args, 1, line)
        if args[0] not in ("inc", "dec"):
            raise AsmError("wdp takes inc or dec", line.no, line.text)
        return make(Op.WDP, inc=int(args[0] == "inc"))
    if mnem == "wde":
        _argc(args, 1, line)
        return make(Op.WDE, state=_state(args[0], line))
    if mnem == "wds":
        _argc(args, 2, line)
        return make(Op.WDS, cmd_target=int(_cmd_target(args[0], line)),
                    state=_state(args[1], line))
    if mnem == "specq":
        if not args:
            raise AsmError("specq needs a subcommand", line.no, line.text)
        toks = args[0].split()
        if toks[0] not in _SPECCMD:
            raise AsmError(f"unknown specq command {toks[0]!r}",
                           line.no, line.text)
        cmd = _SPECCMD[toks[0]]
        state = STATE_CODE[None]
        if cmd is SpecCmd.FwdMod:
            if len(toks) != 2:
                raise AsmError("specq fwd_mod needs a state",
                               line.no, line.text)
            state = _state(toks[1], line)
        elif len(toks) != 1:
            raise AsmError("unexpected operand", line.no, line.text)
        return make(Op.SPECQ, spec_cmd=int(cmd), state=state)
    if mnem == "wfq":
        _argc(args, 1, line)
        qmask = 0
        for part in args[0].split("|"):
            part = part.strip()
            if part not in _QUEUE_BY_NAME:
                raise AsmError(f"unknown queue {part!r}", line.no, line.text)
            qmask |= 1 << int(_QUEUE_BY_NAME[part])
        return make(Op.WFQ, qmask=qmask)
    if mnem == "pushq":
        return _parse_pushq(args, pt, line)
    if mnem in ("popq", "poph"):
        if not args:
            raise AsmError(f"{mnem} needs a queue", line.no, line.text)
        toks = args[0].split()
        queue = toks[0]
        if queue not in _QUEUE_BY_NAME:
            raise AsmError(f"unknown queue {queue!r}", line.no, line.text)
        rd = 0
        wp = False
        for tok in toks[1:]:
            if tok == "wp":
                wp = True
            else:
                rd = _reg(tok, line)  # receives the message kind code
        return make(Op.POPQ if mnem == "popq" else Op.POPH,
                    queue=int(_QUEUE_BY_NAME[queue]), rd=rd, wp=int(wp))
    raise AsmError(f"unknown mnemonic {mnem!r}", line.no, line.text)


def _cmd_target(tok: str, line: _Line) -> CmdTarget:
    if tok == "req":
        return CmdTarget.Req
    if tok == "owner":
        return CmdTarget.Owner
    raise AsmError(f"expected req or owner, got {tok!r}", line.no, line.text)


def _parse_pushq(args, pt, line: _Line) -> Instr:
    if not args:
        raise AsmError("pushq needs operands", line.no, line.text)
    toks = args[0].split()
    dest = toks[0]
    if dest == "memcmd":
        if len(toks) < 2 or toks[1] not in _MEMKIND_BY_NAME:
            raise AsmError("pushq memcmd needs specread|wb|uncached",
                           line.no, line.text)
        wp = "wp" in toks[2:]
        return make(Op.PUSHQ, dest=int(PushDest.MemCmd),
                    kind=int(_MEMKIND_BY_NAME[toks[1]]), wp=int(wp),
                    state=STATE_CODE[None], tr_state=STATE_CODE[None])
    if dest != "lcecmd":
        raise AsmError(f"pushq target must be lcecmd or memcmd, got {dest!r}",
                       line.no, line.text)
    if len(toks) != 3:
        raise AsmError("pushq lcecmd KIND req|owner", line.no, line.text)
    kind_name = toks[1].lower()
    if kind_name not in _CMD_BY_NAME:
        raise AsmError(f"unknown command kind {toks[1]!r}",
                       line.no, line.text)
    kind = _CMD_BY_NAME[kind_name]
    target = _cmd_target(toks[2], line)
    state = STATE_CODE[None]
    tr_state = STATE_CODE[None]
    addr_sel = AddrSel.ReqAddr
    for extra in args[1:]:
        key, _, value = extra.partition("=")
        key, value = key.strip(), value.strip()
        if key == "st":
            state = _state(value, line)
        elif key == "tr":
            tr_state = _state(value, line)
        elif key == "addr":
            if value != "victim":
                raise AsmError("addr= takes only 'victim'",
                               line.no, line.text)
            addr_sel = AddrSel.Victim
        else:
            raise AsmError(f"unknown pushq option {key!r}",
                           line.no, line.text)
    return make(Op.PUSHQ, dest=int(PushDest.LceCmd), kind=COMMAND_CODE[kind],
                cmd_target=int(target), addr_sel=int(addr_sel),
                state=state, tr_state=tr_state)


def assemble(source: str):
    """Assemble to a list of Instr; raises AsmError with line context."""
    lines = _split_lines(source)
    labels = {}
    pc = 0
    for line in lines:
        if line.label is not None:
            if line.label in labels:
                raise AsmError(f"duplicate label {line.label!r}",
                               line.no, line.text)
            labels[line.label] = pc
        if line.body:
            pc += 1
    if pc > IMEM_SIZE:
        raise AsmError(f"program has {pc} instructions; "
                       f"instruction memory holds {IMEM_SIZE}")
    out = []
    for line in lines:
        if line.body:
            out.append(_parse_instr(line, labels))
    return out


def assemble_words(source: str) -> list:
    """The encoded words of `source`, as a fresh list of a value
    memoised per source text.  A source that fails to assemble raises on
    every call."""
    return list(_assembled_words(source))


@lru_cache(maxsize=16)
def _assembled_words(source: str) -> tuple:
    return tuple(isa.encode(i) for i in assemble(source))


def to_binary(words) -> bytes:
    return (MAGIC + struct.pack("<HH", VERSION, len(words))
            + b"".join(struct.pack("<I", w) for w in words))


def from_binary(blob: bytes):
    if blob[:4] != MAGIC:
        raise EncodingError("bad magic")
    version, count = struct.unpack("<HH", blob[4:8])
    if version != VERSION:
        raise EncodingError(f"unsupported version {version}")
    words = list(struct.unpack(f"<{count}I", blob[8:8 + 4 * count]))
    return words


# -- disassembler ------------------------------------------------------------

def _mask_text(mask: int) -> str:
    names = [NAME_BY_FLAG[Flag(i)] for i in range(14) if mask & (1 << i)]
    return "|".join(names) if names else "pf"  # empty masks never assemble


def _state_text(code: int) -> str:
    st = STATE_BY_CODE.get(code)
    return st.value if st is not None else "?"


def disassemble(words, labels: bool = True) -> str:
    instrs = [isa.decode(w) for w in words]
    targets = sorted({i["target"] for i in instrs
                      if i.op in isa.BRANCH_OPS | isa.JUMP_OPS})
    name_of = {t: f"L{t}" for t in targets}

    def tgt(i):
        return name_of.get(i["target"], str(i["target"]))

    out = []
    for pc, i in enumerate(instrs):
        if labels and pc in name_of:
            out.append(f"{name_of[pc]}:")
        op = i.op
        pt = " [pt]" if i.get("pt") else ""
        if op.fmt == "none":
            text = op.name.lower()
        elif op.fmt == "alu":
            text = f"{op.name.lower()} r{i['rd']}, r{i['rs1']}, r{i['rs2']}"
        elif op is Op.MOV:
            text = f"mov r{i['rd']}, r{i['rs1']}"
        elif op is Op.MOVI:
            text = f"movi r{i['rd']}, {i['imm']}"
        elif op is Op.MOVS:
            text = f"mov r{i['rd']}, %{NAME_BY_SPECIAL[Special(i['special'])]}"
        elif op in (Op.BEQ, Op.BNE):
            text = (f"{op.name.lower()} r{i['rs1']}, r{i['rs2']}, "
                    f"{tgt(i)}{pt}")
        elif op in (Op.BEQI, Op.BNEI):
            text = f"{op.name.lower()} r{i['rs1']}, {i['imm']}, {tgt(i)}{pt}"
        elif op is Op.BI:
            text = f"bi {tgt(i)}"
        elif op in (Op.SF, Op.SFZ):
            text = f"{op.name.lower()} {_mask_text(i['mask'])}"
        elif op.fmt == "flagop":
            text = f"{op.name.lower()} r{i['rd']}, {_mask_text(i['mask'])}"
        elif op.fmt == "flagbr":
            text = f"{op.name.lower()} {_mask_text(i['mask'])}, {tgt(i)}{pt}"
        elif op is Op.RDE:
            text = f"rde {'owner' if i['cmd_target'] else 'req'}"
        elif op is Op.WDP:
            text = f"wdp {'inc' if i['inc'] else 'dec'}"
        elif op is Op.WDE:
            text = f"wde {_state_text(i['state'])}"
        elif op is Op.WDS:
            text = (f"wds {'owner' if i['cmd_target'] else 'req'}, "
                    f"{_state_text(i['state'])}")
        elif op is Op.SPECQ:
            cmd = SpecCmd(i["spec_cmd"])
            text = f"specq {cmd.name.lower() if cmd is not SpecCmd.FwdMod else 'fwd_mod ' + _state_text(i['state'])}"
        elif op is Op.WFQ:
            qs = [q.name.lower() for q in Queue if i["qmask"] & (1 << int(q))]
            text = f"wfq {'|'.join(qs)}"
        elif op is Op.PUSHQ:
            if i["dest"] == int(PushDest.MemCmd):
                kind = MemPushKind(i["kind"]).name.lower()
                kind = {"specread": "specread", "writeback": "wb",
                        "uncached": "uncached"}[kind]
                text = f"pushq memcmd {kind}{' wp' if i['wp'] else ''}"
            else:
                kind = COMMAND_BY_CODE[i["kind"]]
                parts = [f"pushq lcecmd "
                         f"{kind.value.replace('-', '_').lower()} "
                         f"{'owner' if i['cmd_target'] else 'req'}"]
                if i["addr_sel"]:
                    parts.append("addr=victim")
                if i["state"] != STATE_CODE[None]:
                    parts.append(f"st={_state_text(i['state'])}")
                if i["tr_state"] != STATE_CODE[None]:
                    parts.append(f"tr={_state_text(i['tr_state'])}")
                text = ", ".join(parts)
        elif op in (Op.POPQ, Op.POPH):
            q = Queue(i["queue"]).name.lower()
            rd = f" r{i['rd']}" if i["rd"] else ""
            text = f"{op.name.lower()} {q}{rd}{' wp' if i['wp'] else ''}"
        else:
            raise AssertionError(op)
        out.append("  " + text)
    return "\n".join(out) + "\n"
