"""Instruction set of the microcoded coherence engine.

Fixed 32-bit encoding, opcode in bits [31:26], remaining fields per
format as listed in `FIELDS`.  The instruction memory holds up to 256
words, so branch targets are absolute 9-bit instruction indices.

This module is the one place that names operands.  A name-coded field
is a code into a tuple of names (`NAMES`, and `KINDS` for a `pushq`
kind), a mask field is a set of bits over one (`MASKS`); the assembler,
the disassembler and the engine's decode all read these tables.
Flag-mask operands name the per-transaction control flags; multi-flag
masks are allowed everywhere a mask appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..protocol import I, S, E, M, O, F
from ..messages import CommandKind

IMEM_SIZE = 256
NUM_GPRS = 8

# Per-transaction control flags, by bit index in a 14-bit mask: write
# not read, uncached, non-exclusive, atomic, atomic no-return (no request
# kind sets it: always reads 0), cacheable address, pending, cached
# S/E/M/O/F, replacement, upgrade.
FLAGS = ("wnr", "ucf", "nex", "af", "anrf", "caf", "pf",
         "csf", "cef", "cmf", "cof", "cff", "rf", "uf")

# Read-only special sources for `mov rd, %name`.
SPECIALS = ("reqaddr", "reqlce", "reqstate", "ownerlce", "ownerstate",
            "reqway", "lruway", "lrutag", "setindex", "sharers", "reqsize")

# Coherence states in 3-bit fields; NO_STATE encodes "no state" where
# the state is optional (a `pushq` option, a `specq` other than fwd_mod).
STATES = tuple(st.value for st in (I, S, E, M, O, F))
NO_STATE = 7

# Inbound queues: coherence requests and cache-controller responses.  The
# engine core owns the memory-response queue, so no code names it; code 2
# stays unassigned, and `disasm` rejects a word that uses it.
QUEUES = ("req", "resp")

# Cache-controller commands, in code order.
COMMANDS = (CommandKind.Inv, CommandKind.StW, CommandKind.Wb,
            CommandKind.StWb, CommandKind.Tr, CommandKind.StTr,
            CommandKind.StTrWb, CommandKind.Data)

# Field name -> the names of its codes.  `addr_sel` victim is the
# address reconstructed from the requester's LRU tag.
NAMES = {
    "special": SPECIALS,
    "state": STATES,
    "tr_state": STATES,
    "queue": QUEUES,
    "dest": ("lcecmd", "memcmd"),
    "cmd_target": ("req", "owner"),
    "addr_sel": ("req", "victim"),
    "spec_cmd": ("set", "unset", "squash", "fwd_mod"),
    "inc": ("dec", "inc"),
}

# A `pushq` kind's names, by its dest code: a cache-controller command,
# or to memory a speculative block read for the current request, the
# last-popped dirty writeback, or the request's own uncached operation.
KINDS = (tuple(k.value.replace("-", "_").lower() for k in COMMANDS),
         ("specread", "wb", "uncached"))

# Mask field -> the names of its bits.
MASKS = {"mask": FLAGS, "qmask": QUEUES}


def names(field: str, dest: int = 0) -> tuple:
    """The names of `field`'s codes; a `pushq` kind's depend on its
    `dest` code."""
    return KINDS[dest] if field == "kind" else NAMES[field]


def name_of(field: str, code: int, dest: int = 0) -> str:
    """The name of `field`'s `code`; EncodingError if it names nothing."""
    table = names(field, dest)
    if not 0 <= code < len(table):
        raise EncodingError(f"{field} code {code} names nothing")
    return table[code]


class Op(Enum):
    # value = (opcode, format)
    NOP = (0, "none")
    ADD = (1, "alu")
    SUB = (2, "alu")
    AND = (3, "alu")
    OR = (4, "alu")
    XOR = (5, "alu")
    SLL = (6, "alu")
    SRL = (7, "alu")
    MOV = (8, "mov")
    MOVI = (9, "movi")
    MOVS = (10, "movs")
    BEQ = (11, "br")
    BNE = (12, "br")
    BEQI = (13, "bri")
    BNEI = (14, "bri")
    BI = (15, "bi")

    SF = (16, "flag")
    SFZ = (17, "flag")
    ANDF = (18, "flagop")
    ORF = (19, "flagop")
    NANDF = (20, "flagop")
    NOTF = (21, "flagop")
    BF = (22, "flagbr")
    BFNOT = (23, "flagbr")
    BFZ = (24, "flagbr")
    BFNZ = (25, "flagbr")

    RDP = (26, "none")
    RDW = (27, "none")
    RDE = (28, "rde")
    WDP = (29, "wdp")
    CLP = (30, "none")
    CLR = (31, "none")
    WDE = (32, "wde")
    WDS = (33, "wds")
    GAD = (34, "none")
    WFQ = (35, "wfq")
    PUSHQ = (36, "push")
    POPQ = (37, "pop")
    POPH = (38, "pop")
    SPECQ = (39, "specq")
    INV = (40, "none")

    @property
    def opcode(self):
        return self.value[0]

    @property
    def fmt(self):
        return self.value[1]


OP_BY_CODE = {op.opcode: op for op in Op}

# Field name -> (hi, lo) bit positions, per format, in the order the
# assembler writes the operands.  Unlisted bits are zero.
FIELDS = {
    "none": {},
    "alu": {"rd": (25, 23), "rs1": (22, 20), "rs2": (19, 17)},
    "mov": {"rd": (25, 23), "rs1": (22, 20)},
    "movi": {"rd": (25, 23), "imm": (15, 0)},
    "movs": {"rd": (25, 23), "special": (19, 16)},
    "br": {"rs1": (25, 23), "rs2": (22, 20), "target": (8, 0),
           "pt": (11, 11)},
    "bri": {"rs1": (25, 23), "imm": (22, 18), "target": (8, 0),
            "pt": (11, 11)},
    "bi": {"target": (8, 0)},
    "flag": {"mask": (13, 0)},
    "flagop": {"rd": (25, 23), "mask": (13, 0)},
    "flagbr": {"mask": (25, 12), "target": (8, 0), "pt": (11, 11)},
    "rde": {"cmd_target": (0, 0)},
    "wdp": {"inc": (0, 0)},
    "wde": {"state": (2, 0)},
    "wds": {"cmd_target": (4, 4), "state": (2, 0)},
    "specq": {"spec_cmd": (4, 3), "state": (2, 0)},
    "wfq": {"qmask": (2, 0)},
    "push": {"dest": (25, 25), "kind": (24, 21), "cmd_target": (20, 20),
             "addr_sel": (19, 19), "state": (18, 16), "tr_state": (15, 13),
             "wp": (12, 12)},
    "pop": {"queue": (25, 24), "rd": (19, 17), "wp": (23, 23)},
}

# Message kind codes a popq/poph writes to its destination register.
RESP_KIND_CODE = {
    "InvAck": 0,
    "CohAck": 1,
    "NullWB": 2,
    "DirtyWB": 3,
}

SIGNED_FIELDS = {("movi", "imm")}

BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BEQI, Op.BNEI,
                        Op.BF, Op.BFNOT, Op.BFZ, Op.BFNZ})
JUMP_OPS = frozenset({Op.BI})


@dataclass(frozen=True)
class Instr:
    op: Op
    fields: tuple = ()  # sorted (name, value) pairs

    def __getitem__(self, name):
        return dict(self.fields)[name]

    def get(self, name, default=0):
        return dict(self.fields).get(name, default)


def make(op: Op, **fields) -> Instr:
    spec = FIELDS[op.fmt]
    for name in fields:
        if name not in spec:
            raise ValueError(f"{op.name}: unknown field {name!r}")
    full = {name: fields.get(name, 0) for name in spec}
    return Instr(op, tuple(sorted(full.items())))


class EncodingError(Exception):
    pass


def field_range(fmt: str, name: str) -> range:
    """The values field `name` of format `fmt` can encode."""
    hi, lo = FIELDS[fmt][name]
    width = hi - lo + 1
    if (fmt, name) in SIGNED_FIELDS:
        return range(-(1 << (width - 1)), 1 << (width - 1))
    return range(1 << width)


def encode(instr: Instr) -> int:
    word = instr.op.opcode << 26
    for name, (hi, lo) in FIELDS[instr.op.fmt].items():
        value = instr.get(name, 0)
        if value not in field_range(instr.op.fmt, name):
            raise EncodingError(f"{instr.op.name}.{name}={value}")
        word |= (value & ((1 << (hi - lo + 1)) - 1)) << lo
    return word


def decode(word: int) -> Instr:
    opcode = (word >> 26) & 0x3F
    if opcode not in OP_BY_CODE:
        raise EncodingError(f"bad opcode {opcode}")
    op = OP_BY_CODE[opcode]
    fields = {}
    for name, (hi, lo) in FIELDS[op.fmt].items():
        width = hi - lo + 1
        value = (word >> lo) & ((1 << width) - 1)
        if (op.fmt, name) in SIGNED_FIELDS and value >= (1 << (width - 1)):
            value -= 1 << width
        fields[name] = value
    return Instr(op, tuple(sorted(fields.items())))


def predicted_taken(instr: Instr) -> bool:
    """Static prediction: unconditional jumps and [pt] branches."""
    if instr.op in JUMP_OPS:
        return True
    return instr.op in BRANCH_OPS and bool(instr.get("pt"))
