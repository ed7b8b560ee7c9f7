"""Duplicate-tag directory segment, pending bits, speculative bits, and GAD.

Storage is functional: operations apply immediately and return the cycle
latency the owning engine must account for, which keeps the structures
independently testable while the engines do the scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .protocol import CoherenceState, I, S, E, M, O, F, OWNER_STATES

# Victim states that require an explicit writeback flow.  S and F victims
# are clean non-exclusive copies and are dropped silently when overwritten
# (the controller tables define no ST-WB action for them).
REPLACEMENT_STATES = (E, M, O)   # a tuple: see protocol.OWNER_STATES

PENDING_COUNTER_MAX = 15  # 4-bit counters; overflow is a protocol bug

# Two caches' tag sets share one physical row of directory storage, so a
# way-group read takes one cycle per row of the set.
TAG_SETS_PER_ROW = 2


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


@dataclass(frozen=True)
class SegmentConfig:
    num_caches: int
    assoc: int = 8
    sets_per_cache: int = 64
    block_bytes: int = 64

    @property
    def rows_per_set(self) -> int:
        return math.ceil(self.num_caches / TAG_SETS_PER_ROW)

    @property
    def way_group_read_latency(self) -> int:
        return 1 + self.rows_per_set

    def set_index(self, addr: int) -> int:
        return (addr // self.block_bytes) % self.sets_per_cache

    def tag_of(self, addr: int) -> int:
        return (addr // self.block_bytes) // self.sets_per_cache


def way_group_home(set_idx: int, num_cces: int) -> tuple:
    """Stripe way groups round-robin across CCEs by low set-index bits.

    Returns (cce_id, the way group's index within that CCE).
    """
    return set_idx % num_cces, set_idx // num_cces


@dataclass(slots=True)
class TagSetEntry:
    tag: int = 0
    state: CoherenceState = I


@dataclass(slots=True)
class SharersVectors:
    hits: list
    states: list
    ways: list


@dataclass(slots=True)
class LruEntry:
    lru_tag: int
    lru_state: CoherenceState
    lru_way: int


class DirectorySegment:
    """Duplicate tags for every (cache, set, way) of one cache type.

    A set's way group holds every cache's tag set in cache order; caches
    2k and 2k + 1 share a physical row (see TAG_SETS_PER_ROW).
    """

    def __init__(self, cfg: SegmentConfig, cce_id: int = 0, num_cces: int = 1):
        self.cfg = cfg
        self.cce_id = cce_id
        self.num_cces = num_cces
        self._read_latency = cfg.way_group_read_latency
        # Set index -> whether its way group is homed here.
        self._homed = [way_group_home(s, num_cces)[0] == cce_id
                       for s in range(cfg.sets_per_cache)]
        # Per set, every cache's tag set in cache order.
        self.way_groups = [
            [[TagSetEntry() for _ in range(cfg.assoc)]
             for _ in range(cfg.num_caches)]
            for _ in range(cfg.sets_per_cache)]

    def _set_of(self, addr: int) -> int:
        """The addressed set, once its way group is checked to be homed
        here."""
        cfg = self.cfg
        set_idx = (addr // cfg.block_bytes) % cfg.sets_per_cache
        if not self._homed[set_idx]:
            home, _ = way_group_home(set_idx, self.num_cces)
            raise OutOfRange(f"addr {addr:#x} belongs to CCE {home}")
        return set_idx

    def _way_group(self, addr: int, lce: int) -> list:
        """The addressed set's tag sets, once `lce` and the set are
        checked."""
        if not (0 <= lce < self.cfg.num_caches):
            raise OutOfRange(f"cache id {lce}")
        return self.way_groups[self._set_of(addr)]

    def read_way_group(self, addr: int, req_lce: int, lru_way: int):
        """Read every cache's tag set for the addressed set.

        Returns (SharersVectors, LruEntry, latency).  The LRU entry comes
        from the requesting cache's tag set at the request-supplied way.
        """
        cfg = self.cfg
        if not (0 <= req_lce < cfg.num_caches):
            raise OutOfRange(f"cache id {req_lce}")
        if not (0 <= lru_way < cfg.assoc):
            raise OutOfRange(f"lru way {lru_way}")
        tag_sets = self.way_groups[self._set_of(addr)]
        tag = cfg.tag_of(addr)
        hits, states, ways = [], [], []
        for tag_set in tag_sets:
            for w, entry in enumerate(tag_set):
                if entry.state is not I and entry.tag == tag:
                    hits.append(True)
                    states.append(entry.state)
                    ways.append(w)
                    break
            else:
                hits.append(False)
                states.append(I)
                ways.append(0)
        lru_ent = tag_sets[req_lce][lru_way]
        lru = LruEntry(lru_ent.tag, lru_ent.state, lru_way)
        return SharersVectors(hits, states, ways), lru, self._read_latency

    def read_entry(self, addr: int, lce: int, way: int):
        if not (0 <= way < self.cfg.assoc):
            raise OutOfRange(f"way {way}")
        entry = self._way_group(addr, lce)[lce][way]
        return TagSetEntry(entry.tag, entry.state), 2

    def write_entry(self, addr: int, lce: int, way: int,
                    tag: Optional[int] = None,
                    state: CoherenceState = I) -> int:
        if not (0 <= way < self.cfg.assoc):
            raise OutOfRange(f"way {way}")
        entry = self._way_group(addr, lce)[lce][way]
        entry.tag = self.cfg.tag_of(addr) if tag is None else tag
        entry.state = state
        return 1

    def write_state(self, addr: int, lce: int, way: int,
                    state: CoherenceState) -> int:
        if not (0 <= way < self.cfg.assoc):
            raise OutOfRange(f"way {way}")
        self._way_group(addr, lce)[lce][way].state = state
        return 1

    def clear_row(self, addr: int, lce: int) -> int:
        """Clear the physical row holding this cache's tag set (reset
        state): the addressed set's tag sets of every cache in the row."""
        tag_sets = self._way_group(addr, lce)
        first = lce - lce % TAG_SETS_PER_ROW
        for tag_set in tag_sets[first:first + TAG_SETS_PER_ROW]:
            for entry in tag_set:
                entry.tag = 0
                entry.state = I
        return 1

    def snapshot(self):
        """Quiescent view: {(lce, set, way): (tag, state)} of valid entries."""
        out = {}
        for set_idx, tag_sets in enumerate(self.way_groups):
            for c, tag_set in enumerate(tag_sets):
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


@dataclass(slots=True)
class SpecRecord:
    spec: bool = False
    squash: bool = False
    fwd_mod: bool = False
    state: CoherenceState = I


class SpecBits:
    """Per-way-group speculative memory read resolution bits."""

    def __init__(self, num_way_groups: int):
        self.records = [SpecRecord() for _ in range(num_way_groups)]

    def read(self, wg: int) -> SpecRecord:
        return self.records[wg]

    def set(self, wg: int):
        rec = self.records[wg]
        if rec.spec:
            raise DoubleSpeculation(f"way group {wg}")
        rec.spec = True
        rec.squash = rec.fwd_mod = False
        rec.state = I

    def squash(self, wg: int):
        rec = self.records[wg]
        rec.spec = False
        rec.squash = True
        rec.fwd_mod = False

    def fwd_mod(self, wg: int, state: CoherenceState):
        rec = self.records[wg]
        rec.spec = False
        rec.squash = False
        rec.fwd_mod = True
        rec.state = state

    def unset(self, wg: int):
        rec = self.records[wg]
        rec.spec = rec.squash = rec.fwd_mod = False
        rec.state = I


@dataclass(slots=True)
class GadResult:
    cached_s: bool = False
    cached_e: bool = False
    cached_m: bool = False
    cached_o: bool = False
    cached_f: bool = False
    replacement: bool = False
    upgrade: bool = False
    owner: Optional[tuple] = None  # (cache, way, state)
    req_way_hit: Optional[int] = None


def gad(sv: SharersVectors, lru: LruEntry, lce: int,
        write: bool) -> GadResult:
    """Single-cycle digest of a way-group read for requester `lce` (whose
    request writes when `write`) into MSHR control flags.

    Cached-state flags consider every cache except the requester; the owner
    may be any cache, including the requester.
    """
    res = GadResult()
    owner = None
    for c, hit in enumerate(sv.hits):
        if not hit:
            continue
        state = sv.states[c]
        if state in OWNER_STATES:
            if owner is not None:
                raise MultipleOwners(f"caches {owner[0]} and {c}")
            owner = (c, sv.ways[c], state)
        if c == lce:
            res.req_way_hit = sv.ways[c]
            continue
        if state is S:
            res.cached_s = True
        elif state is E:
            res.cached_e = True
        elif state is M:
            res.cached_m = True
        elif state is O:
            res.cached_o = True
        elif state is F:
            res.cached_f = True
    res.owner = owner
    req_hit = sv.hits[lce]
    req_state = sv.states[lce]
    res.upgrade = bool(write and req_hit and req_state in (S, O, F))
    res.replacement = bool(not req_hit and lru.lru_state in REPLACEMENT_STATES)
    return res
