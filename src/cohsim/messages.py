"""Wire-level message types carried by the coherence and memory networks."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .protocol import CoherenceState, CommandKind, Emission


class NetKind(Enum):
    """A logical network.  `priority` is its endpoint arbitration rank:
    messages due at one endpoint are delivered lowest rank first.  It is a
    plain attribute, so sorting by it hashes no enum member."""

    Request = "req", 3
    Command = "cmd", 2
    Fill = "fill", 1
    Response = "resp", 0
    MemCmd = "memCmd", 4
    MemResp = "memResp", 5

    def __new__(cls, value: str, priority: int):
        member = object.__new__(cls)
        member._value_ = value
        member.priority = priority
        return member


# The networks as module constants, for the per-message tests: on CPython
# 3.11 reading `NetKind.Request` costs about 0.15 us, a global load 0.02
# (timeit, 2-vCPU VM).
REQUEST, COMMAND, FILL, RESPONSE, MEM_CMD, MEM_RESP = NetKind


class AtomicOp(Enum):
    Add = "amoadd"
    Swap = "amoswap"
    Lr = "lr"
    Sc = "sc"


@dataclass(slots=True)
class CohRequest:
    """Cache controller -> directory, on the Request network."""

    lce: int
    addr: int
    write: bool
    lru_way: int = 0
    non_exclusive: bool = False
    uncached: bool = False
    atomic: Optional[AtomicOp] = None
    size: int = 64
    data: Optional[bytes] = None  # uncached store payload


@dataclass(slots=True)
class CceCommand:
    """Directory -> cache controller, on the Command network; a DATA
    command also carries a cache-to-cache transfer on the Fill network."""

    kind: CommandKind
    addr: int
    way: int = 0
    state: Optional[CoherenceState] = None       # "X" set-state
    transfer_state: Optional[CoherenceState] = None
    target_lce: Optional[int] = None             # transfer destination
    target_way: int = 0
    data: Optional[bytes] = None                 # DATA fill payload
    uncached: bool = False


@dataclass(slots=True)
class LceResponse:
    """Cache controller -> directory, on the Response network."""

    kind: Emission
    lce: int
    addr: int
    data: Optional[bytes] = None


@dataclass(slots=True)
class MemCmd:
    """Directory -> memory, on the MemCmd network.  Memory answers with
    one on the MemResp network that echoes the command's fields."""

    addr: int
    write: bool
    uncached: bool = False
    size: int = 64
    data: Optional[bytes] = None
    spec: bool = False
    wp: bool = False  # response consumption decrements the pending counter
    # Routing metadata echoed back in the response.
    lce: Optional[int] = None
    way: int = 0
    state: Optional[CoherenceState] = None


@dataclass(slots=True)
class NetMessage:
    net: NetKind
    src: str
    dst: str
    payload: object   # a message record with a `data` field
    # Data beats, set by `Network.send` from the payload's data.
    beats: int = field(default=0, init=False)
    seq: int = field(default=0, compare=False)
