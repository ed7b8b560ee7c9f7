"""Instruction set of the microcoded coherence engine.

Fixed 32-bit encoding, opcode in bits [31:26], remaining fields per
format as listed in `FIELDS`.  The instruction memory holds up to 256
words, so branch targets are absolute 9-bit instruction indices.

Flag-mask operands name the per-transaction control flags; multi-flag
masks are allowed everywhere a mask appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

from ..protocol import I, S, E, M, O, F
from ..messages import CommandKind

IMEM_SIZE = 256
NUM_GPRS = 8


class Flag(IntEnum):
    """Per-transaction control flags (bit index within a 14-bit mask)."""

    WriteNotRead = 0
    Uncached = 1
    NonExclusive = 2
    Atomic = 3
    AtomicNoReturn = 4
    CacheableAddress = 5
    Pending = 6
    CachedShared = 7
    CachedExclusive = 8
    CachedModified = 9
    CachedOwned = 10
    CachedForward = 11
    Replacement = 12
    Upgrade = 13


FLAG_BY_NAME = {
    "wnr": Flag.WriteNotRead,
    "ucf": Flag.Uncached,
    "nex": Flag.NonExclusive,
    "af": Flag.Atomic,
    "anrf": Flag.AtomicNoReturn,
    "caf": Flag.CacheableAddress,
    "pf": Flag.Pending,
    "csf": Flag.CachedShared,
    "cef": Flag.CachedExclusive,
    "cmf": Flag.CachedModified,
    "cof": Flag.CachedOwned,
    "cff": Flag.CachedForward,
    "rf": Flag.Replacement,
    "uf": Flag.Upgrade,
}
NAME_BY_FLAG = {v: k for k, v in FLAG_BY_NAME.items()}


class Special(IntEnum):
    """Read-only special sources for `mov rd, %name`."""

    ReqAddr = 0
    ReqLce = 1
    ReqState = 2
    OwnerLce = 3
    OwnerState = 4
    ReqWay = 5
    LruWay = 6
    LruTag = 7
    SetIndex = 8
    Sharers = 9
    ReqSize = 10


SPECIAL_BY_NAME = {
    "reqaddr": Special.ReqAddr,
    "reqlce": Special.ReqLce,
    "reqstate": Special.ReqState,
    "ownerlce": Special.OwnerLce,
    "ownerstate": Special.OwnerState,
    "reqway": Special.ReqWay,
    "lruway": Special.LruWay,
    "lrutag": Special.LruTag,
    "setindex": Special.SetIndex,
    "sharers": Special.Sharers,
    "reqsize": Special.ReqSize,
}
NAME_BY_SPECIAL = {v: k for k, v in SPECIAL_BY_NAME.items()}

# Coherence states in 3-bit command fields; 7 encodes "no state".
STATE_CODE = {I: 0, S: 1, E: 2, M: 3, O: 4, F: 5, None: 7}
STATE_BY_CODE = {v: k for k, v in STATE_CODE.items()}

# pushq / popq queue selectors.
class Queue(IntEnum):
    Req = 0       # inbound coherence requests
    Resp = 1      # inbound cache-controller responses
    MemResp = 2   # inbound memory responses (normally auto-forwarded)


class PushDest(IntEnum):
    LceCmd = 0
    MemCmd = 1


class MemPushKind(IntEnum):
    SpecRead = 0   # speculative block read for the current request
    Writeback = 1  # forward the last-popped dirty writeback to memory
    Uncached = 2   # the request's own uncached operation


class CmdTarget(IntEnum):
    Req = 0
    Owner = 1


class AddrSel(IntEnum):
    ReqAddr = 0
    Victim = 1     # reconstructed from the requester's LRU tag


class SpecCmd(IntEnum):
    Set = 0
    Unset = 1
    Squash = 2
    FwdMod = 3


COMMAND_CODE = {
    CommandKind.Inv: 0,
    CommandKind.StW: 1,
    CommandKind.Wb: 2,
    CommandKind.StWb: 3,
    CommandKind.Tr: 4,
    CommandKind.StTr: 5,
    CommandKind.StTrWb: 6,
    CommandKind.Data: 7,
}
COMMAND_BY_CODE = {v: k for k, v in COMMAND_CODE.items()}


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

# Field name -> (hi, lo) bit positions, per format.  Unlisted bits are zero.
FIELDS = {
    "none": {},
    "alu": {"rd": (25, 23), "rs1": (22, 20), "rs2": (19, 17)},
    "mov": {"rd": (25, 23), "rs1": (22, 20)},
    "movi": {"rd": (25, 23), "imm": (15, 0)},
    "movs": {"rd": (25, 23), "special": (19, 16)},
    "br": {"rs1": (25, 23), "rs2": (22, 20), "pt": (11, 11),
           "target": (8, 0)},
    "bri": {"rs1": (25, 23), "imm": (22, 18), "pt": (11, 11),
            "target": (8, 0)},
    "bi": {"target": (8, 0)},
    "flag": {"mask": (13, 0)},
    "flagop": {"rd": (25, 23), "mask": (13, 0)},
    "flagbr": {"mask": (25, 12), "pt": (11, 11), "target": (8, 0)},
    "rde": {"cmd_target": (0, 0)},
    "wdp": {"inc": (0, 0)},
    "wde": {"state": (2, 0)},
    "wds": {"cmd_target": (4, 4), "state": (2, 0)},
    "specq": {"spec_cmd": (4, 3), "state": (2, 0)},
    "wfq": {"qmask": (2, 0)},
    "push": {"dest": (25, 25), "kind": (24, 21), "cmd_target": (20, 20),
             "addr_sel": (19, 19), "state": (18, 16), "tr_state": (15, 13),
             "wp": (12, 12)},
    "pop": {"queue": (25, 24), "wp": (23, 23), "rd": (19, 17)},
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


def encode(instr: Instr) -> int:
    word = instr.op.opcode << 26
    for name, (hi, lo) in FIELDS[instr.op.fmt].items():
        value = instr.get(name, 0)
        width = hi - lo + 1
        if (instr.op.fmt, name) in SIGNED_FIELDS:
            if not (-(1 << (width - 1)) <= value < (1 << (width - 1))):
                raise EncodingError(f"{instr.op.name}.{name}={value}")
            value &= (1 << width) - 1
        if not (0 <= value < (1 << width)):
            raise EncodingError(f"{instr.op.name}.{name}={value}")
        word |= value << lo
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
