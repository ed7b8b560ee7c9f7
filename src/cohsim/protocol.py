"""Pure encodings of the MOESIF coherence protocol tables.

Both coherence engines, the cache-controller model, and the model checker
derive their transition behavior from the lookup tables in this module.
The tables are built from an embedded golden text rendering and validated
at import time, so any drift between the rendering and the structured data
is caught immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class ImpossibleTransition(Exception):
    """Raised for a blank protocol-table cell; signals a caller bug."""


class CoherenceState(Enum):
    I = "I"
    S = "S"
    E = "E"
    M = "M"
    O = "O"
    F = "F"

    def __repr__(self):
        return self.value


I, S, E, M, O, F = CoherenceState  # noqa: E741 - protocol letters

# Tuples, so that a membership test compares identities and hashes no
# enum member (`Enum.__hash__` is Python code).
OWNER_STATES = (E, M, O, F)
WRITABLE_STATES = (E, M)
VALID_STATES = frozenset({S, E, M, O, F})


def state_permissions(state: CoherenceState) -> dict:
    """Read/write permission of a block held in `state`.

    E is writable because a store hit silently upgrades it to M.
    """
    return {"read": state in VALID_STATES, "write": state in WRITABLE_STATES}


class LceEventKind(Enum):
    Load = "Load"
    Store = "Store"
    Inv = "Inv"
    Data = "DATA"
    StW = "STW"
    Wb = "WB"
    StWb = "ST-WB"
    Tr = "TR"
    StTr = "ST-TR"
    StTrWb = "ST-TR-WB"


# Command kinds whose cell (or originating directory command) carries an
# explicit coherence state that resolves the table's "X" next state.
ATTACHED_STATE_KINDS = frozenset(
    {LceEventKind.Data, LceEventKind.StW, LceEventKind.StWb,
     LceEventKind.StTr, LceEventKind.StTrWb}
)


@dataclass(frozen=True)
class LceEvent:
    kind: LceEventKind
    attached_state: Optional[CoherenceState] = None

    def __post_init__(self):
        if self.kind in ATTACHED_STATE_KINDS:
            if self.attached_state is None:
                raise ValueError(f"{self.kind.value} requires an attached state")
        elif self.attached_state is not None:
            raise ValueError(f"{self.kind.value} never carries an attached state")


class Emission(Enum):
    ReqRd = "ReqRd"
    ReqWr = "ReqWr"
    InvAck = "InvAck"
    CohAck = "CohAck"
    NullWB = "NullWB"
    DirtyWB = "DirtyWB"
    DataToTarget = "DATA"  # cache-to-cache transfer on the Fill network


@dataclass(frozen=True)
class LceAction:
    sends: tuple
    next_state: Optional[CoherenceState]  # None = hit, state unchanged

    @property
    def is_miss(self) -> bool:
        return Emission.ReqRd in self.sends or Emission.ReqWr in self.sends


class DirRequestKind(Enum):
    ReqRd = "ReqRd"
    ReqRdNE = "ReqRd-NE"
    ReqWrFromI = "ReqWr from I"
    ReqWrFromS = "ReqWr from S"
    ReqWrFromOF = "ReqWr from O/F"
    Replacement = "Replacement"


class InvalidateSet(Enum):
    Nothing = "None"
    AllSharers = "all S"
    OtherSharers = "other S"
    OtherSharersAndOwner = "other S and Owner"


class CommandKind(Enum):
    Inv = "Inv"
    Data = "DATA"
    StW = "STW"
    Wb = "WB"
    StWb = "ST-WB"
    Tr = "TR"
    StTr = "ST-TR"
    StTrWb = "ST-TR-WB"


class RequesterGrant(Enum):
    DataFromMemory = "DATA to Req"
    UpgradeStW = "STW to Req"
    Nothing = "None"


@dataclass(frozen=True)
class OwnerDirective:
    command: CommandKind
    set_owner_state: Optional[CoherenceState] = None
    transfer_state: Optional[CoherenceState] = None


@dataclass(frozen=True)
class DirectivePlan:
    invalidate_set: InvalidateSet
    owner_command: Optional[OwnerDirective]
    requester_grant: RequesterGrant
    grant_state: Optional[CoherenceState]
    next_dir_state: CoherenceState


# ---------------------------------------------------------------------------
# Golden text renderings.  Cell text uses the tables' own Action/State
# notation; "." marks a blank (impossible) cell.  Superscript states are
# written with a caret, e.g. ST^I-TR^M.
# ---------------------------------------------------------------------------

LCE_TABLE_TEXT_MOESIF = """\
state | Load  | Store | Inv      | DATA     | STW      | WB        | TR     | ST-WB     | ST-TR  | ST-TR-WB
I     | ReqRd | ReqWr | .        | CohAck/X | .        | .         | .      | .         | .      | .
S     | Hit   | ReqWr | InvAck/I | .        | CohAck/M | .         | .      | .         | .      | .
E     | Hit   | Hit/M | .        | .        | .        | NullWB/E  | .      | NullWB/X  | DATA/X | DATA,NullWB/X
M     | Hit   | Hit   | .        | .        | .        | DirtyWB/M | .      | DirtyWB/X | DATA/X | DATA,DirtyWB/X
O     | Hit   | ReqWr | InvAck/I | .        | CohAck/M | DirtyWB/O | DATA/O | DirtyWB/X | DATA/X | .
F     | Hit   | ReqWr | InvAck/I | .        | CohAck/M | .         | DATA/F | .         | DATA/X | .
"""
# Note on (O, Inv) and (F, Inv): the directory's "Inv other S and Owner"
# action (ReqWr from S with an owned block) invalidates the owner with a
# plain Inv, so owners must acknowledge it.  Dropping dirty O data here is
# sound: the upgrading requester's S copy is identical and becomes M.

DIR_TABLE_TEXT_MOESIF = """\
state | ReqRd                     | ReqRd-NE                  | ReqWr from I                    | ReqWr from S                            | ReqWr from O/F              | Replacement
I     | DATA to Req/E             | DATA to Req/S             | DATA to Req/M                   | .                                       | .                           | .
S     | DATA to Req/S             | DATA to Req/S             | Inv all S, DATA to Req/M        | Inv other S, STW^M to Req/M             | .                           | .
E     | ST^F-TR^S-WB to Owner/F   | ST^F-TR^S-WB to Owner/F   | ST^I-TR^M to Owner/M            | .                                       | .                           | ST^I-WB to Req/I
M     | ST^O-TR^S to Owner/O      | ST^O-TR^S to Owner/O      | ST^I-TR^M to Owner/M            | .                                       | .                           | ST^I-WB to Req/I
O     | TR^S to Owner/O           | TR^S to Owner/O           | Inv all S, ST^I-TR^M to Owner/M | Inv other S and Owner, STW^M to Req/M   | Inv all S, STW^M to Req/M   | ST^I-WB to Req/I
F     | TR^S to Owner/F           | TR^S to Owner/F           | Inv all S, ST^I-TR^M to Owner/M | Inv other S and Owner, STW^M to Req/M   | Inv all S, STW^M to Req/M   | .
"""

# MESI variant: no O/F states.  Reads of an owned block downgrade the owner
# to S with a writeback, since S copies are clean and memory must be current.
LCE_TABLE_TEXT_MESI = """\
state | Load  | Store | Inv      | DATA     | STW      | WB        | TR     | ST-WB     | ST-TR  | ST-TR-WB
I     | ReqRd | ReqWr | .        | CohAck/X | .        | .         | .      | .         | .      | .
S     | Hit   | ReqWr | InvAck/I | .        | CohAck/M | .         | .      | .         | .      | .
E     | Hit   | Hit/M | .        | .        | .        | NullWB/E  | .      | NullWB/X  | DATA/X | DATA,NullWB/X
M     | Hit   | Hit   | .        | .        | .        | DirtyWB/M | .      | DirtyWB/X | DATA/X | DATA,DirtyWB/X
"""

DIR_TABLE_TEXT_MESI = """\
state | ReqRd                     | ReqRd-NE                  | ReqWr from I                    | ReqWr from S                 | Replacement
I     | DATA to Req/E             | DATA to Req/S             | DATA to Req/M                   | .                            | .
S     | DATA to Req/S             | DATA to Req/S             | Inv all S, DATA to Req/M        | Inv other S, STW^M to Req/M  | .
E     | ST^S-TR^S-WB to Owner/S   | ST^S-TR^S-WB to Owner/S   | ST^I-TR^M to Owner/M            | .                            | ST^I-WB to Req/I
M     | ST^S-TR^S-WB to Owner/S   | ST^S-TR^S-WB to Owner/S   | ST^I-TR^M to Owner/M            | .                            | ST^I-WB to Req/I
"""


_EMISSION_BY_TEXT = {
    "ReqRd": Emission.ReqRd,
    "ReqWr": Emission.ReqWr,
    "InvAck": Emission.InvAck,
    "CohAck": Emission.CohAck,
    "NullWB": Emission.NullWB,
    "DirtyWB": Emission.DirtyWB,
    "DATA": Emission.DataToTarget,
}

_STATE_BY_LETTER = {s.value: s for s in CoherenceState}
X_STATE = "X"  # placeholder resolved from the command's attached state


def _parse_lce_cell(text: str):
    """Parse a cache-controller cell like 'DATA,NullWB/X' or 'Hit/M'."""
    if text == ".":
        return None
    if "/" in text:
        action, nxt = text.rsplit("/", 1)
        next_state = X_STATE if nxt == "X" else _STATE_BY_LETTER[nxt]
    else:
        action, next_state = text, None
    if action == "Hit":
        sends = ()
    else:
        sends = tuple(_EMISSION_BY_TEXT[a] for a in action.split(","))
    return sends, next_state


def _parse_dir_cell(text: str):
    """Parse a directory cell like 'Inv all S, ST^I-TR^M to Owner/M'."""
    if text == ".":
        return None
    body, nxt = text.rsplit("/", 1)
    next_dir_state = _STATE_BY_LETTER[nxt]
    invalidate = InvalidateSet.Nothing
    owner_cmd = None
    grant = RequesterGrant.Nothing
    grant_state = None

    for part in [p.strip() for p in body.split(",")]:
        if part.startswith("Inv "):
            invalidate = InvalidateSet(part[4:])
            continue
        action, target = part.rsplit(" to ", 1)
        if action == "DATA":
            grant = RequesterGrant.DataFromMemory
            grant_state = next_dir_state
            continue
        # Superscripted command, e.g. ST^I-TR^M, TR^S, ST^F-TR^S-WB, STW^M
        pieces = action.split("-")
        set_state = transfer_state = None
        names = []
        for piece in pieces:
            if "^" in piece:
                name, sup = piece.split("^")
                sup_state = _STATE_BY_LETTER[sup]
                if name == "ST":
                    set_state = sup_state
                elif name == "TR":
                    transfer_state = sup_state
                elif name == "STW":
                    set_state = sup_state
                else:
                    raise ValueError(f"unknown command piece {piece!r}")
                names.append(name)
            else:
                names.append(piece)
        kind = CommandKind("-".join(names))
        if target != ("Req" if kind in (CommandKind.StW, CommandKind.StWb)
                      else "Owner"):
            raise ValueError(f"{kind.value} cannot go to {target!r}")
        if kind is CommandKind.StW:
            grant = RequesterGrant.UpgradeStW
            grant_state = set_state
        elif kind is CommandKind.StWb:
            # Replacement column: ST-WB addressed to the requester's block.
            owner_cmd = OwnerDirective(kind, set_owner_state=set_state)
        else:
            owner_cmd = OwnerDirective(kind, set_owner_state=set_state,
                                       transfer_state=transfer_state)
            if transfer_state is not None:
                grant_state = transfer_state
    return DirectivePlan(invalidate, owner_cmd, grant, grant_state,
                         next_dir_state)


def _parse_table(text: str, key_enum, cell_parser):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = [h.strip() for h in lines[0].split("|")][1:]
    columns = [key_enum(h) for h in header]
    table = {}
    for line in lines[1:]:
        cells = [c.strip() for c in line.split("|")]
        state = _STATE_BY_LETTER[cells[0]]
        for col, cell in zip(columns, cells[1:]):
            table[(state, col)] = cell_parser(cell)
    return table


@dataclass(frozen=True, eq=False)
class ProtocolTables:
    """One protocol variant: parsed cache-controller and directory tables.

    Compared and hashed by identity, so a table object can key a dict.
    `directory` is keyed by (state letter, request-kind value), so a plan
    lookup hashes two strings and no enum member."""

    name: str
    states: tuple
    lce: dict
    directory: dict
    # `Lce._action`'s memo, shared by every cache that uses these tables;
    # `dataclasses.replace` gives the copy an empty one.
    lce_actions: dict = field(default_factory=dict, init=False, repr=False)

    def lce_event_action(self, state: CoherenceState, event: LceEvent) -> LceAction:
        try:
            cell = self.lce[(state, event.kind)]
        except KeyError:
            raise ImpossibleTransition(
                f"{self.name}: no cache-controller row for state {state.value}")
        if cell is None:
            raise ImpossibleTransition(
                f"{self.name}: ({state.value}, {event.kind.value}) is a blank cell")
        sends, next_state = cell
        if next_state == X_STATE:
            next_state = event.attached_state
        elif (event.kind in ATTACHED_STATE_KINDS
              and event.attached_state is not next_state):
            # Cell names a literal state (e.g. CohAck/M for STW^M); the
            # command's attached state must agree.
            raise ImpossibleTransition(
                f"{self.name}: ({state.value}, {event.kind.value}) attached "
                f"state {event.attached_state} conflicts with table")
        return LceAction(sends=sends, next_state=next_state)

    def dir_request_plan(self, dir_state: CoherenceState,
                         req: DirRequestKind) -> DirectivePlan:
        try:
            plan = self.directory[dir_state._value_, req._value_]
        except KeyError:
            raise ImpossibleTransition(
                f"{self.name}: no directory cell ({dir_state.value}, {req.value})")
        if plan is None:
            raise ImpossibleTransition(
                f"{self.name}: ({dir_state.value}, {req.value}) is a blank cell")
        return plan


def _build(name, lce_text, dir_text, states):
    return ProtocolTables(
        name=name,
        states=tuple(states),
        lce=_parse_table(lce_text, LceEventKind, _parse_lce_cell),
        directory={(state._value_, req._value_): plan for (state, req), plan
                   in _parse_table(dir_text, DirRequestKind,
                                   _parse_dir_cell).items()},
    )


MOESIF = _build("MOESIF", LCE_TABLE_TEXT_MOESIF, DIR_TABLE_TEXT_MOESIF,
                (I, S, E, M, O, F))
MESI = _build("MESI", LCE_TABLE_TEXT_MESI, DIR_TABLE_TEXT_MESI, (I, S, E, M))

PROTOCOLS = {"moesif": MOESIF, "mesi": MESI}


# ---------------------------------------------------------------------------
# Address classification
# ---------------------------------------------------------------------------

class AddressClass(Enum):
    CacheableCoherent = "cacheable-coherent"
    UncachedToCacheable = "uncached-to-cacheable"
    UncachedToUncacheable = "uncached-to-uncacheable"


@dataclass(frozen=True)
class RegionMap:
    """Cacheable regions of the physical address space as (base, size) pairs."""

    cacheable: tuple

    def is_cacheable(self, addr: int) -> bool:
        for base, size in self.cacheable:
            if base <= addr < base + size:
                return True
        return False


DEFAULT_REGION_MAP = RegionMap(cacheable=((0x8000_0000, 0x8000_0000),))


def classify_request(addr: int, uncached_flag: bool,
                     region_map: RegionMap = DEFAULT_REGION_MAP) -> AddressClass:
    if region_map.is_cacheable(addr):
        if uncached_flag:
            return AddressClass.UncachedToCacheable
        return AddressClass.CacheableCoherent
    return AddressClass.UncachedToUncacheable


# ---------------------------------------------------------------------------
# Startup validation: structural sanity of the parsed tables.
# ---------------------------------------------------------------------------

def _validate_tables(tables: ProtocolTables):
    def require(ok, where):
        if not ok:
            raise ValueError(f"{tables.name}: malformed cell {where}")

    for (state, kind), cell in tables.lce.items():
        if cell is None:
            continue
        sends, nxt = cell
        require(nxt == X_STATE or nxt is None
                or isinstance(nxt, CoherenceState), (state, kind))
        require(all(isinstance(e, Emission) for e in sends), (state, kind))
    for (state, req), plan in tables.directory.items():
        if plan is None:
            continue
        # No transient state is ever handed to a cache controller.
        for s in (plan.grant_state, plan.next_dir_state):
            require(s is None or s in tables.states, (state, req))
        if plan.grant_state in (E, M):
            # SWMR: an exclusive grant must leave no other valid copy.
            if state != I.value and plan.requester_grant is not RequesterGrant.Nothing:
                require(plan.invalidate_set is not InvalidateSet.Nothing
                        or plan.owner_command is not None, (state, req))


_validate_tables(MOESIF)
_validate_tables(MESI)
