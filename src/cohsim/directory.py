"""Duplicate-tag directory segment, pending bits and speculative bits.

Storage is functional: operations apply immediately, and the owning
engine accounts for their cycles (a way-group read's are
`SystemConfig.way_group_read_latency`, a single entry read's
`ENTRY_READ_LATENCY`), which keeps the structures independently testable
while the engines do the scheduling.  A way-group read returns one
`WayGroupRead`, the engines' only view of the tag sets.

Like the pending and speculation bits, the segment is indexed by local way
group, which the owning engine looks up once per request
(`CceCore.local_wg`): its methods take that and a block's tag, no address.

Each tag set, here and in a cache (`lce.Lce`), keeps an index beside it,
a map from tag to way, so that finding a block's copy reads one entry per
tag set instead of every way.  `install_tag` writes a tag and its index
together; `DirectorySegment.clear_row` is the only other tag writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import protocol
from .protocol import CoherenceState, I, S

PENDING_COUNTER_MAX = 15  # 4-bit counters; overflow is a protocol bug

# Two caches' tag sets share one physical row of directory storage, so a
# way-group read takes one cycle per row of the set.
TAG_SETS_PER_ROW = 2

# A single entry read (the microcode's `rde`) takes two cycles.
ENTRY_READ_LATENCY = 2


class OutOfRange(Exception):
    pass


class Underflow(Exception):
    pass


class Overflow(Exception):
    pass


class DoubleSpeculation(Exception):
    pass


class MultipleOwners(Exception):
    pass


class DuplicateTag(Exception):
    pass


def way_group_home(set_idx: int, num_cces: int) -> tuple:
    """Stripe way groups round-robin across CCEs by low set-index bits.

    Returns (cce_id, the way group's index within that CCE).
    """
    return set_idx % num_cces, set_idx // num_cces


def install_tag(tag_set: list, index: dict, way: int, tag: int):
    """Write `tag` into way `way` of `tag_set` (a cache set, or one cache's
    tag set in a way group) and keep `index`, its map from tag to way, in
    step.  The index holds the way of every valid entry, since an entry
    becomes valid only once its tag is installed, so a lookup reads the
    one entry the index names and checks that entry's own tag and state.
    A block installed into one way while another way of the set holds it
    valid raises DuplicateTag: a lookup would find only one of the two
    copies."""
    other = index.get(tag)
    if other is not None and other != way:
        held = tag_set[other]
        if held.state is not I and held.tag == tag:
            raise DuplicateTag(f"tag {tag:#x} installed in way {way} is "
                               f"valid in way {other}")
    entry = tag_set[way]
    if index.get(entry.tag) == way:
        del index[entry.tag]
    entry.tag = tag
    index[tag] = way


@dataclass(slots=True)
class TagSetEntry:
    tag: int = 0
    state: CoherenceState = I


@dataclass(slots=True)
class WayGroupRead:
    """What one way-group read found for the addressed block and the
    requesting cache."""

    copies: list            # (cache, way, state) of every valid copy
    owner: Optional[tuple]  # the copy in an owner state, or None
    req_way: int            # the requester's way: its copy's, else the LRU way
    req_state: CoherenceState   # the requester's state (I on a miss)
    lru_way: int
    lru_tag: int
    lru_state: CoherenceState
    dir_state: CoherenceState   # the owner's state, else S or I
    sharers: int            # copies in S, the requester's included
    replacement: bool       # a miss whose LRU entry needs a writeback flow


class DirectorySegment:
    """Duplicate tags for every (cache, set, way) of the sets homed at one
    CCE.

    A set's way group holds every cache's tag set in cache order; caches
    2k and 2k + 1 share a physical row (see TAG_SETS_PER_ROW).  Way groups
    are stored by local index, the one `PendingBits` and `SpecBits` use.
    """

    def __init__(self, cfg, cce_id: int, tables: protocol.ProtocolTables):
        self.cfg = cfg     # the system's `SystemConfig`
        # Victim states that take the writeback flow: those whose
        # Replacement cell is filled.  Other victims are dropped silently.
        self.replacement_states = tables.replacement_states
        # Set index -> local way group, or None for a set homed elsewhere.
        homes = [way_group_home(s, cfg.num_cces) for s in range(cfg.sets)]
        self.local_wgs = [local if home == cce_id else None
                          for home, local in homes]
        # Per local way group, every cache's tag set in cache order, and
        # each tag set's index (see `install_tag`).
        self.way_groups = [
            [[TagSetEntry() for _ in range(cfg.assoc)]
             for _ in range(cfg.cores)]
            for local in self.local_wgs if local is not None]
        self.tag_index = [[{} for _ in range(cfg.cores)]
                          for _ in self.way_groups]

    def __len__(self) -> int:
        """The number of way groups homed here."""
        return len(self.way_groups)

    def _way_group(self, wg: int, lce: int) -> list:
        """Local way group `wg`'s tag sets, once `lce` is checked."""
        if not (0 <= lce < self.cfg.cores):
            raise OutOfRange(f"cache id {lce}")
        return self.way_groups[wg]

    def read_way_group(self, wg: int, tag: int, lce: int,
                       lru_way: int) -> WayGroupRead:
        """Read every cache's tag set in way group `wg` in one pass, for the
        block tagged `tag` and requesting cache `lce`, whose request names
        `lru_way` as its LRU way; raise MultipleOwners if two copies own it.
        It takes `SystemConfig.way_group_read_latency` cycles."""
        tag_sets = self._way_group(wg, lce)
        if not (0 <= lru_way < self.cfg.assoc):
            raise OutOfRange(f"lru way {lru_way}")
        copies = []
        owner = None
        sharers = 0
        req_way, req_state = lru_way, I
        for c, index in enumerate(self.tag_index[wg]):
            w = index.get(tag)
            if w is None:
                continue
            entry = tag_sets[c][w]
            state = entry.state
            if state is not I and entry.tag == tag:
                copies.append((c, w, state))
                if state is S:
                    sharers += 1
                elif owner is None:   # every other valid state owns
                    owner = (c, w, state)
                else:
                    raise MultipleOwners(f"caches {owner[0]} and {c}")
                if c == lce:
                    req_way, req_state = w, state
        lru = tag_sets[lce][lru_way]
        return WayGroupRead(
            copies, owner, req_way, req_state, lru_way, lru.tag, lru.state,
            owner[2] if owner else (S if copies else I), sharers,
            req_state is I and lru.state in self.replacement_states)

    def write_entry(self, wg: int, tag: int, lce: int, way: int,
                    state: CoherenceState):
        if not (0 <= way < self.cfg.assoc):
            raise OutOfRange(f"way {way}")
        tag_set = self._way_group(wg, lce)[lce]
        install_tag(tag_set, self.tag_index[wg][lce], way, tag)
        tag_set[way].state = state

    def write_state(self, wg: int, lce: int, way: int,
                    state: CoherenceState):
        if not (0 <= way < self.cfg.assoc):
            raise OutOfRange(f"way {way}")
        self._way_group(wg, lce)[lce][way].state = state

    def clear_row(self, wg: int, lce: int):
        """Clear the physical row holding this cache's tag set (reset
        state): way group `wg`'s tag sets of every cache in the row."""
        tag_sets = self._way_group(wg, lce)
        first = lce - lce % TAG_SETS_PER_ROW
        for tag_set in tag_sets[first:first + TAG_SETS_PER_ROW]:
            for entry in tag_set:
                entry.tag = 0
                entry.state = I
        for index in self.tag_index[wg][first:first + TAG_SETS_PER_ROW]:
            index.clear()

    def snapshot(self):
        """Quiescent view: {(lce, set, way): (tag, state)} of valid entries."""
        out = {}
        for set_idx, local in enumerate(self.local_wgs):
            if local is None:
                continue
            for c, tag_set in enumerate(self.way_groups[local]):
                for w, entry in enumerate(tag_set):
                    if entry.state is not I:
                        out[(c, set_idx, w)] = (entry.tag, entry.state)
        return out


class PendingBits:
    """Per-way-group transaction counters; 'pending' means non-zero."""

    def __init__(self, num_way_groups: int):
        self.counters = [0] * num_way_groups
        # Set when a counter returns to zero, which may admit a request
        # blocked behind it; the owning engine clears it when it rescans.
        self.freed = False

    def read(self, wg: int) -> bool:
        return self.counters[wg] != 0

    def adjust(self, wg: int, delta: int):
        if delta not in (1, -1):
            raise ValueError("delta must be +1 or -1")
        value = self.counters[wg] + delta
        if value < 0:
            raise Underflow(f"pending counter for way group {wg}")
        if value > PENDING_COUNTER_MAX:
            raise Overflow(f"pending counter for way group {wg}")
        self.counters[wg] = value
        if not value:
            self.freed = True

    def clear(self, wg: int):
        self.counters[wg] = 0
        self.freed = True


# A way group's speculation value while its speculative read is
# outstanding, and once the read is squashed.
UNRESOLVED = "unresolved"
SQUASHED = "squashed"


class SpecBits:
    """Per-way-group speculative memory read resolution: one value per way
    group, UNRESOLVED, SQUASHED, the state to forward the response in, or
    None, which lets the response stand."""

    def __init__(self, num_way_groups: int):
        self.values = [None] * num_way_groups

    def read(self, wg: int):
        return self.values[wg]

    def set(self, wg: int):
        if self.values[wg] == UNRESOLVED:
            raise DoubleSpeculation(f"way group {wg}")
        self.values[wg] = UNRESOLVED

    def squash(self, wg: int):
        self.values[wg] = SQUASHED

    def fwd_mod(self, wg: int, state: CoherenceState):
        self.values[wg] = state

    def unset(self, wg: int):
        self.values[wg] = None
