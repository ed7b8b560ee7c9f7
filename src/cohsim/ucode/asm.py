"""Two-pass assembler and disassembler for the coherence microcode.

Source syntax, one instruction per line.  A mnemonic is its `isa.Op`
name in lower case; operands are separated by commas or spaces, in the
order `isa.FIELDS` lists them, and name values from `isa`'s tables:

    # comment                      (to end of line)
    label:                         (alone or before an instruction)
    nop | rdp | rdw | gad | inv | clp | clr
    add/sub/and/or/xor/sll/srl rd, rs1, rs2
    mov rd, rs          |  mov rd, %special     (also movs rd, %special)
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
    wfq queues                     (req|resp, joined with |)
    pushq lcecmd KIND req|owner [, addr=victim] [, st=STATE] [, tr=STATE]
                                   (KIND: inv stw wb st_wb tr st_tr
                                    st_tr_wb data)
    pushq memcmd specread|wb|uncached [wp]
    popq req | popq resp [rd] [wp]
    poph resp [rd]                 (reads the head without popping it)

Every branch and jump target lies inside the program.

The binary container is the magic "UCOH", a little-endian u16 version and
u16 word count, then the instruction words as little-endian u32.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import lru_cache

from . import isa
from .isa import (EncodingError, FIELDS, IMEM_SIZE, Instr, MASKS, NO_STATE,
                  Op, make)

MAGIC = b"UCOH"
VERSION = 1


class AsmError(Exception):
    def __init__(self, message: str, line_no: int = 0, line: str = ""):
        self.line_no = line_no
        self.line = line
        super().__init__(f"line {line_no}: {message}"
                         + (f"\n    {line.strip()}" if line else ""))


_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_OPS = {op.name.lower(): op for op in Op}
_REGS = ("rd", "rs1", "rs2")
# Optional one-bit fields, written as a keyword when set.
_KEYWORDS = {"pt": "[pt]", "wp": "wp"}
# `pushq lcecmd`'s key=value options: key -> (field, value when left out).
_OPTIONS = {"addr": ("addr_sel", 0), "st": ("state", NO_STATE),
            "tr": ("tr_state", NO_STATE)}
# What an unknown name of a field is called in an error message.
_NOUN = {"mask": "flag", "qmask": "queue", "tr_state": "state"}


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


def _layout(op: Op, first: str) -> list:
    """The fields an `op` instruction writes as operands, in source
    order, given its first operand: a `pushq`'s fields depend on its
    dest, a `specq` writes a state only after fwd_mod, and a `poph`,
    which pops nothing, takes no `wp`."""
    if op is Op.PUSHQ:
        return ["dest", "kind", "wp" if first == "memcmd" else "cmd_target"]
    if op is Op.POPH:
        return ["queue", "rd"]
    if op is Op.SPECQ and first != "fwd_mod":
        return ["spec_cmd"]
    return list(FIELDS[op.fmt])


def _value(field: str, tok: str, fields: dict, labels, line: _Line) -> int:
    """The code of operand `tok` for `field`."""
    if field in _REGS:
        if not re.fullmatch(r"r[0-7]", tok):
            raise AsmError(f"expected register r0-r7, got {tok!r}",
                           line.no, line.text)
        return int(tok[1:])
    if field == "imm":
        try:
            return int(tok, 0)
        except ValueError:
            raise AsmError(f"expected integer, got {tok!r}",
                           line.no, line.text) from None
    if field == "target":
        if tok in labels:
            return labels[tok]
        if tok.isdigit():
            return int(tok)
        raise AsmError(f"undefined label {tok!r}", line.no, line.text)
    if field in MASKS:
        names, parts = MASKS[field], tok.split("|")
    else:
        names = isa.names(field, fields.get("dest", 0))
        parts = [tok.removeprefix("%") if field == "special" else tok]
    for part in parts:
        if part not in names:
            raise AsmError(f"unknown {_NOUN.get(field, field)} {part!r} "
                           f"(one of {'|'.join(names)})", line.no, line.text)
    if field in MASKS:
        return sum(1 << names.index(part) for part in set(parts))
    return names.index(parts[0])


def _parse_instr(line: _Line, labels) -> Instr:
    mnem, *toks = (re.sub(r"\s*([|=])\s*", r"\1", line.body)
                   .replace(",", " ").split() or [line.body])
    op = _OPS.get(mnem.lower())
    if op is None:
        raise AsmError(f"unknown mnemonic {mnem!r}", line.no, line.text)
    if op is Op.MOV and toks[1:2] and toks[1].startswith("%"):
        op = Op.MOVS
    fields = {field: default for field, default in _OPTIONS.values()
              if field in FIELDS[op.fmt]}
    first = toks[0] if toks else ""
    for field in _layout(op, first):
        if toks and toks[0] == _KEYWORDS.get(field):
            toks.pop(0)
            fields[field] = 1
        elif field in _KEYWORDS or (op.fmt == "pop" and field == "rd"
                                    and toks[:1] in ([], ["wp"])):
            continue    # an optional operand, left out
        elif not toks:
            raise AsmError(f"{mnem} needs a {field} operand",
                           line.no, line.text)
        else:
            fields[field] = _value(field, toks.pop(0), fields, labels, line)
    if op is Op.PUSHQ and first == "lcecmd":
        while toks:
            key, _, value = toks.pop(0).partition("=")
            if key not in _OPTIONS:
                raise AsmError(f"unknown pushq option {key!r}",
                               line.no, line.text)
            field = _OPTIONS[key][0]
            if value not in isa.NAMES[field]:
                raise AsmError(f"{key}= takes only "
                               f"{'|'.join(isa.NAMES[field])}",
                               line.no, line.text)
            fields[field] = isa.NAMES[field].index(value)
    if toks:
        raise AsmError(f"unexpected operand {toks[0]!r}", line.no, line.text)
    if op is Op.POPH and first == "req":
        raise AsmError("poph cannot read the request queue",
                       line.no, line.text)
    if op is Op.POPQ and first == "req" and fields.keys() != {"queue"}:
        raise AsmError("popq req loads the request into the MSHR, so "
                       "takes no rd or wp", line.no, line.text)
    for field, value in fields.items():
        valid = isa.field_range(op.fmt, field)
        if value not in valid:
            raise AsmError(f"{field} {value} out of range "
                           f"{valid[0]}..{valid[-1]}", line.no, line.text)
    return make(op, **fields)


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
            instr = _parse_instr(line, labels)
            if (instr.op in isa.BRANCH_OPS | isa.JUMP_OPS
                    and instr["target"] >= pc):
                raise AsmError(f"target {instr['target']} is past the end "
                               f"of the program ({pc} instructions)",
                               line.no, line.text)
            out.append(instr)
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
    if len(blob) < 8:
        raise EncodingError("truncated header")
    version, count = struct.unpack("<HH", blob[4:8])
    if version != VERSION:
        raise EncodingError(f"unsupported version {version}")
    if len(blob) != 8 + 4 * count:
        raise EncodingError(f"header gives {count} words, but "
                            f"{len(blob) - 8} bytes follow it")
    return list(struct.unpack(f"<{count}I", blob[8:]))


# -- disassembler ------------------------------------------------------------

def _text(field: str, fields: dict, label_of) -> str:
    """Field `field` of an instruction with `fields`, as an operand."""
    code = fields[field]
    if field in _REGS:
        return f"r{code}"
    if field == "target":
        return label_of.get(code, str(code))
    if field in MASKS:
        return "|".join(name for bit, name in enumerate(MASKS[field])
                        if code >> bit & 1)
    if field == "imm":
        return str(code)
    name = isa.name_of(field, code, fields.get("dest", 0))
    return "%" + name if field == "special" else name


def _instr_text(i: Instr, label_of) -> str:
    op, fields = i.op, dict(i.fields)
    order = list(FIELDS[op.fmt])
    first = _text(order[0], fields, label_of) if order else ""
    operands, keywords = [], []
    for field in _layout(op, first):
        if field in _KEYWORDS:
            if fields[field]:
                keywords.append(_KEYWORDS[field])
        elif not (op.fmt == "pop" and field == "rd" and fields["rd"] == 0):
            operands.append(_text(field, fields, label_of))
    words = ["mov" if op is Op.MOVS else op.name.lower()]
    if operands:
        sep = " " if op.fmt in ("push", "pop", "specq") else ", "
        words.append(sep.join(operands))
    text = " ".join(words + keywords)
    if op is Op.PUSHQ and first == "lcecmd":
        text = ", ".join([text] + [
            f"{key}={isa.name_of(field, fields[field])}"
            for key, (field, default) in _OPTIONS.items()
            if fields[field] != default])
    return text


def disassemble(words, labels: bool = True) -> str:
    """A listing of `words` in source syntax; EncodingError if a word is
    not an instruction, a code in it names nothing, or its line would
    assemble to another instruction (it sets a field that its source
    form cannot write, such as `poph`'s wp)."""
    instrs = [isa.decode(w) for w in words]
    targets = sorted({i["target"] for i in instrs
                      if i.op in isa.BRANCH_OPS | isa.JUMP_OPS})
    label_of = {t: f"L{t}" for t in targets}
    pc_of = {label: t for t, label in label_of.items()}
    out = []
    for pc, i in enumerate(instrs):
        text = _instr_text(i, label_of)
        try:
            same = _parse_instr(_Line(pc, text, None, text), pc_of) == i
        except AsmError:
            same = False
        if not same:
            raise EncodingError(f"word {pc} sets bits that its listing "
                                f"{text!r} cannot show")
        if labels and pc in label_of:
            out.append(f"{label_of[pc]}:")
        out.append("  " + text)
    return "\n".join(out) + "\n"
