"""Pure encodings of the MOESIF coherence protocol tables.

Both coherence engines, the cache-controller model, and the model checker
derive their transition behavior from the lookup tables in this module.
The tables are built from an embedded golden text rendering and validated
at import time, so any drift between the rendering and the structured data
is caught immediately.

The state classes come from the tables too.  A copy is writable in the
states whose Store cell is a hit (`ProtocolTables.writable_states`), and
an owner is a valid copy that is not in S; `_validate_tables` holds each
table to both rules, so no other module keeps a list of either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
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

    @cached_property
    def is_miss(self) -> bool:
        return Emission.ReqRd in self.sends or Emission.ReqWr in self.sends


class DirRequestKind(Enum):
    ReqRd = "ReqRd"
    ReqRdNE = "ReqRd-NE"
    ReqWrFromI = "ReqWr from I"
    ReqWrFromS = "ReqWr from S"
    ReqWrFromOF = "ReqWr from O/F"
    Replacement = "Replacement"


# Requester state letter -> write column; each column names its states.
_WRITE_COLUMNS = {letter: kind for kind in DirRequestKind
                  if kind._value_.startswith("ReqWr from ")
                  for letter in kind._value_[11:].split("/")}


def request_kind(write: bool, non_exclusive: bool,
                 req_state: CoherenceState) -> DirRequestKind:
    """The directory-table column of a coherent read or write request from
    a cache the directory records in `req_state`."""
    if not write:
        return (DirRequestKind.ReqRdNE if non_exclusive
                else DirRequestKind.ReqRd)
    kind = _WRITE_COLUMNS.get(req_state._value_)
    if kind is None:
        raise ImpossibleTransition(
            f"write request from cache holding {req_state}")
    return kind


# The requester states from which a write is an upgrade: those whose write
# column is not "ReqWr from I".
UPGRADE_STATES = tuple(CoherenceState(letter)
                       for letter, kind in _WRITE_COLUMNS.items()
                       if kind is not DirRequestKind.ReqWrFromI)


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


# The cache-controller table's columns are the core's Load and Store, then
# one per directory command, named by its `CommandKind` value.
LOAD, STORE = "Load", "Store"

# Command columns whose command carries an explicit coherence state, which
# resolves the cell's "X" next state or must agree with its literal one.
ATTACHED_STATE_COLUMNS = frozenset(k._value_ for k in (
    CommandKind.Data, CommandKind.StW, CommandKind.StWb, CommandKind.StTr,
    CommandKind.StTrWb))


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


X_STATE = "X"  # placeholder resolved from the command's attached state


def _parse_lce_cell(text: str):
    """Parse a cache-controller cell like 'DATA,NullWB/X' or 'Hit/M'."""
    if text == ".":
        return None
    if "/" in text:
        action, nxt = text.rsplit("/", 1)
        next_state = X_STATE if nxt == "X" else CoherenceState(nxt)
    else:
        action, next_state = text, None
    if action == "Hit":
        sends = ()
    else:
        sends = tuple(Emission(a) for a in action.split(","))
    return sends, next_state


def _parse_dir_cell(text: str):
    """Parse a directory cell like 'Inv all S, ST^I-TR^M to Owner/M'."""
    if text == ".":
        return None
    body, nxt = text.rsplit("/", 1)
    next_dir_state = CoherenceState(nxt)
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
                sup_state = CoherenceState(sup)
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
        else:
            owner_cmd = OwnerDirective(kind, set_owner_state=set_state,
                                       transfer_state=transfer_state)
            if transfer_state is not None:
                grant_state = transfer_state
    return DirectivePlan(invalidate, owner_cmd, grant, grant_state,
                         next_dir_state)


def _parse_table(text: str, cell_parser):
    """{(state letter, column name): parsed cell} of a text rendering."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    columns = [h.strip() for h in lines[0].split("|")][1:]
    table = {}
    for line in lines[1:]:
        cells = [c.strip() for c in line.split("|")]
        letter = CoherenceState(cells[0])._value_
        for col, cell in zip(columns, cells[1:]):
            table[(letter, col)] = cell_parser(cell)
    return table


@dataclass(frozen=True, eq=False)
class ProtocolTables:
    """One protocol variant: parsed cache-controller and directory tables.

    Compared and hashed by identity, so a table object can key a dict.
    Both tables are keyed by (state letter, column name): `lce`'s columns
    are LOAD, STORE and the `CommandKind` values, `directory`'s the
    `DirRequestKind` values.  A lookup hashes two strings and no enum
    member."""

    name: str
    states: tuple
    lce: dict
    directory: dict
    # Derived from the cells by `__post_init__`, so that a copy made by
    # `dataclasses.replace` derives them from its own cells.  Tuples, so
    # that a membership test hashes no enum member.
    # The states whose Store cell is a hit: a line in one is writable.
    writable_states: tuple = field(init=False)
    # The states whose Replacement cell is filled: evicting a block held
    # in one takes the writeback flow; other victims are dropped.
    replacement_states: tuple = field(init=False)
    # `lce_event_action`'s memo; `dataclasses.replace` gives the copy an
    # empty one.
    lce_actions: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        stores = [(s, self.lce.get((s._value_, STORE))) for s in self.states]
        object.__setattr__(self, "writable_states", tuple(
            s for s, cell in stores
            if cell is not None and not LceAction(*cell).is_miss))
        object.__setattr__(self, "replacement_states", tuple(
            s for s in self.states if self.directory.get(
                (s._value_, DirRequestKind.Replacement._value_)) is not None))

    def lce_event_action(self, state: CoherenceState, event: str,
                         attached: Optional[CoherenceState] = None
                         ) -> LceAction:
        """The action in `state` for column `event`; `attached` is the
        state its command carries (see ATTACHED_STATE_COLUMNS).  Memoised
        on plain values, so that a repeated lookup hashes no enum member;
        a cell that raises is looked up again each time."""
        key = (state._value_, event, attached and attached._value_)
        action = self.lce_actions.get(key)
        if action is not None:
            return action
        if event in ATTACHED_STATE_COLUMNS:
            if attached is None:
                raise ValueError(f"{event} requires an attached state")
        elif attached is not None:
            raise ValueError(f"{event} never carries an attached state")
        try:
            cell = self.lce[state._value_, event]
        except KeyError:
            raise ImpossibleTransition(
                f"{self.name}: no cell ({state.value}, {event})")
        if cell is None:
            raise ImpossibleTransition(
                f"{self.name}: ({state.value}, {event}) is a blank cell")
        sends, next_state = cell
        if next_state == X_STATE:
            next_state = attached
        elif attached is not None and attached is not next_state:
            # Cell names a literal state (e.g. CohAck/M for STW^M); the
            # command's attached state must agree.
            raise ImpossibleTransition(
                f"{self.name}: ({state.value}, {event}) attached "
                f"state {attached.value} conflicts with table")
        action = self.lce_actions[key] = LceAction(sends, next_state)
        return action

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
        lce=_parse_table(lce_text, _parse_lce_cell),
        directory=_parse_table(dir_text, _parse_dir_cell),
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


# The one cacheable region of the physical address space; every other
# address is uncacheable.
CACHEABLE = range(0x8000_0000, 0x1_0000_0000)


def classify_request(addr: int, uncached_flag: bool) -> AddressClass:
    if addr in CACHEABLE:
        if uncached_flag:
            return AddressClass.UncachedToCacheable
        return AddressClass.CacheableCoherent
    return AddressClass.UncachedToUncacheable


# ---------------------------------------------------------------------------
# Startup validation: structural sanity of the parsed tables.
# ---------------------------------------------------------------------------

def _validate_tables(tables: ProtocolTables):
    def require(ok, what):
        if not ok:
            raise ValueError(f"{tables.name}: {what}")

    # The cache controller and the checker look cells up by column name.
    columns = {col for _, col in tables.lce}
    require(columns == {LOAD, STORE} | {k._value_ for k in CommandKind},
            f"columns {sorted(columns)} are not Load, Store and the commands")
    for (state, kind), cell in tables.lce.items():
        if cell is None:
            continue
        sends, nxt = cell
        require((nxt == X_STATE or nxt is None
                 or isinstance(nxt, CoherenceState))
                and all(isinstance(e, Emission) for e in sends),
                f"malformed cell {(state, kind)}")
        # A cache in I holds no data to send; the checker clears the
        # is-latest bit of an entry in I, so such a cell would read it.
        if state == I._value_:
            require(Emission.DirtyWB not in sends
                    and Emission.DataToTarget not in sends,
                    f"({state}, {kind}) sends data with no line")
    # Every access is a hit or a miss by its Load or Store cell, and one
    # with no line (I) must miss.
    for state in tables.states:
        for column in (LOAD, STORE):
            cell = tables.lce.get((state._value_, column))
            require(cell is not None, f"({state.value}, {column}) is blank")
            require(state is not I or LceAction(*cell).is_miss,
                    f"({state.value}, {column}) is a hit with no line")
    # A store misses, and sends a write request, exactly in the states
    # that one of the directory's write columns serves.
    dir_columns = {col for _, col in tables.directory}
    served = {letter for letter, kind in _WRITE_COLUMNS.items()
              if kind._value_ in dir_columns}
    unserved = {s for s in tables.states if s._value_ not in served}
    require(set(tables.writable_states) == unserved,
            f"store hits in {sorted(s.value for s in tables.writable_states)}"
            f", not in the states no write column serves "
            f"{sorted(s.value for s in unserved)}")
    # An LR reservation lives only on a writable line.  Evicting one takes
    # the Replacement flow, whose command clears the reservation before
    # the fill that overwrites the line.
    blank = set(tables.writable_states) - set(tables.replacement_states)
    require(not blank, f"store hits in {sorted(s.value for s in blank)}, "
            f"whose Replacement cell is blank")
    # An owner is a valid copy that is not in S: a read of a block held in
    # any other state is served by its owner, one in I or S by memory.
    for state in tables.states:
        plan = tables.directory.get(
            (state._value_, DirRequestKind.ReqRd._value_))
        owned = state is not I and state is not S
        require(plan is not None and (plan.owner_command is not None) == owned,
                f"({state.value}, ReqRd) "
                f"{'does not command' if owned else 'commands'} an owner")
    for (state, req), plan in tables.directory.items():
        if plan is None:
            continue
        # No transient state is ever handed to a cache controller.
        for s in (plan.grant_state, plan.next_dir_state):
            require(s is None or s in tables.states, (state, req))
        if plan.grant_state in tables.writable_states:
            # SWMR: an exclusive grant must leave no other valid copy.
            if state != I.value and plan.requester_grant is not RequesterGrant.Nothing:
                require(plan.invalidate_set is not InvalidateSet.Nothing
                        or plan.owner_command is not None, (state, req))


_validate_tables(MOESIF)
_validate_tables(MESI)
