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


class AtomicOp(Enum):
    Add = "amoadd"
    Swap = "amoswap"
    Lr = "lr"
    Sc = "sc"


@dataclass
class CohRequest:
    """Cache controller -> directory, on the Request network."""

    lce: int
    addr: int
    write: bool
    lru_way: int = 0
    non_exclusive: bool = False
    uncached: bool = False
    atomic: Optional[AtomicOp] = None
    atomic_no_return: bool = False
    size: int = 64
    data: Optional[bytes] = None  # uncached store payload


@dataclass
class CceCommand:
    """Directory -> cache controller, on the Command network."""

    kind: CommandKind
    addr: int
    way: int = 0
    state: Optional[CoherenceState] = None       # "X" set-state
    transfer_state: Optional[CoherenceState] = None
    target_lce: Optional[int] = None             # transfer destination
    target_way: int = 0
    data: Optional[bytes] = None                 # DATA fill payload
    uncached: bool = False
    size: int = 64


@dataclass
class LceResponse:
    """Cache controller -> directory, on the Response network."""

    kind: Emission
    lce: int
    addr: int
    data: Optional[bytes] = None


@dataclass
class FillData:
    """Cache-to-cache transfer on the Fill network."""

    src_lce: int
    addr: int
    way: int
    state: CoherenceState
    data: bytes


@dataclass
class MemCmd:
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


@dataclass
class MemResp:
    addr: int
    write: bool
    uncached: bool = False
    size: int = 64
    data: Optional[bytes] = None
    spec: bool = False
    wp: bool = False
    lce: Optional[int] = None
    way: int = 0
    state: Optional[CoherenceState] = None


@dataclass
class NetMessage:
    net: NetKind
    src: str
    dst: str
    payload: object
    beats: int = 0  # data beats beyond the header slot
    seq: int = field(default=0, compare=False)
