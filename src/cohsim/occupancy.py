"""Engine-occupancy scenarios and their closed-form cycle models.

Each scenario preloads cache and directory state through the system
back door, issues exactly one request, and reports how many cycles the
coherence engine was busy with it.  The model functions give the expected
count as a function of cache count C, sharer count S, and data beats N.
Scenarios and models are MOESIF's: some preload O or F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .lce import LceKind
from .protocol import CACHEABLE, CoherenceState, I, S, E, M, O, F
from .system import System, SystemConfig


@dataclass(frozen=True)
class Scenario:
    name: str
    write: bool
    non_exclusive: bool = False
    req_state: CoherenceState = I       # requester's state before the op
    owner_state: Optional[CoherenceState] = None   # another cache's state
    owner_dir_state: Optional[CoherenceState] = None  # directory's view of it
    extra_sharers: str = "none"  # none | S | S-1  (count of other S copies)


SCENARIOS = {
    s.name: s for s in [
        Scenario("read_excl_ii", write=False),
        Scenario("read_ne_ii", write=False, non_exclusive=True),
        Scenario("read_is", write=False, extra_sharers="S"),
        Scenario("read_ie_clean", write=False, owner_state=E),
        Scenario("read_ie_dirty", write=False, owner_state=M,
                 owner_dir_state=E),
        Scenario("read_im", write=False, owner_state=M),
        Scenario("read_io", write=False, owner_state=O),
        Scenario("read_if", write=False, owner_state=F),
        Scenario("write_ii", write=True),
        Scenario("write_is", write=True, extra_sharers="S"),
        Scenario("write_ie", write=True, owner_state=E),
        Scenario("write_im", write=True, owner_state=M),
        Scenario("write_io", write=True, owner_state=O, extra_sharers="S"),
        Scenario("write_if", write=True, owner_state=F, extra_sharers="S"),
        Scenario("write_ss", write=True, req_state=S, extra_sharers="S-1"),
        Scenario("write_so", write=True, req_state=S, owner_state=O,
                 extra_sharers="S-1"),
        Scenario("write_sf", write=True, req_state=S, owner_state=F,
                 extra_sharers="S-1"),
        Scenario("write_oo", write=True, req_state=O, extra_sharers="S"),
        Scenario("write_ff", write=True, req_state=F, extra_sharers="S"),
    ]
}


def dir_read_rows(cores: int) -> int:
    """Directory rows a way-group read covers: two caches per row."""
    return math.ceil(cores / 2)


def fsm_occupancy_model(name: str, cores: int, sharers: int = 0,
                        beats: int = 1) -> int:
    """Expected busy cycles of the fixed-function engine."""
    h = dir_read_rows(cores)
    s = sharers
    n = beats
    return {
        "read_excl_ii": 8 + h,
        "read_ne_ii": 8 + h,
        "read_is": 8 + h,
        "read_ie_clean": 9 + h,
        "read_ie_dirty": 9 + h + n,
        "read_im": 9 + h,
        "read_io": 9 + h,
        "read_if": 9 + h,
        "write_ii": 8 + h,
        "write_is": 8 + h + 2 * s,
        "write_ie": 9 + h,
        "write_im": 9 + h,
        "write_io": 9 + h + 2 * s,
        "write_if": 9 + h + 2 * s,
        "write_ss": 9 + h + 2 * (s - 1),
        "write_so": 9 + h + 2 * s,
        "write_sf": 9 + h + 2 * s,
        "write_oo": 9 + h + 2 * s,
        "write_ff": 9 + h + 2 * s,
    }[name]


def ucode_occupancy_model(name: str, cores: int, sharers: int = 0,
                          beats: int = 1) -> int:
    """Expected busy cycles of the microcoded engine."""
    h = dir_read_rows(cores)
    s = sharers
    n = beats
    return {
        "read_excl_ii": 12 + h,
        "read_ne_ii": 26 + h,
        "read_is": 26 + h,
        "read_ie_clean": 36 + h,
        "read_ie_dirty": 35 + h + n,
        "read_im": 32 + h,
        "read_io": 27 + h,
        "read_if": 27 + h,
        "write_ii": 23 + h,
        "write_is": 24 + h + 2 * s,
        "write_ie": 27 + h,
        "write_im": 27 + h,
        "write_io": 28 + h + 2 * s,
        "write_if": 28 + h + 2 * s,
        "write_ss": 24 + h + 2 * (s - 1),
        "write_so": 30 + h + 2 * s,
        "write_sf": 30 + h + 2 * s,
        "write_oo": 24 + h + 2 * s,
        "write_ff": 24 + h + 2 * s,
    }[name]


def replacement_extra(engine: str, victim: str, beats: int = 1) -> int:
    """Additional busy cycles when the request also evicts a victim."""
    if engine == "fsm":
        return 2 if victim == "clean" else 1 + beats
    return 7 if victim == "clean" else 6 + beats


def occupancy_model(engine: str, name: str, cores: int, sharers: int = 0,
                    beats: int = 1, victim: Optional[str] = None) -> int:
    model = (fsm_occupancy_model if engine == "fsm"
             else ucode_occupancy_model)
    # The microcode's fast dispatch for an exclusive read fires only when
    # no flag (Replacement included) is set, so a read miss that also
    # evicts runs the generic read path and costs what `read_is` does; it
    # still grants E.
    if engine == "ucode" and victim is not None and name == "read_excl_ii":
        name = "read_is"
    total = model(name, cores, sharers, beats)
    if victim is not None:
        total += replacement_extra(engine, victim, beats)
    return total


def sharer_range(name: str, cores: int):
    """Valid sharer counts for a scenario on a system with `cores` caches.

    S counts every cache holding the block in state S, including the
    requester when it is one of them.
    """
    sc = SCENARIOS[name]
    if sc.extra_sharers == "none":
        return (0,)
    used = 1 + (1 if sc.owner_state is not None else 0)  # requester + owner
    if sc.extra_sharers == "S":
        return range(1, cores - used + 1)
    # "S-1": the requester itself is one of the S sharers.
    return range(1, cores - used + 2)


def check_cores(cores: int):
    """Raise ValueError unless the scenarios fit on `cores` caches: each
    needs the requester and at least one other cache."""
    if cores < 2:
        raise ValueError(f"occupancy scenarios need at least 2 cores, "
                         f"got {cores}")


def measure_occupancy(name: str, cores: int, sharers: int = 0,
                      beats: int = 1, engine: str = "fsm",
                      victim: Optional[str] = None) -> int:
    """Run one scenario and return the engine's busy-cycle count for it."""
    check_cores(cores)
    sc = SCENARIOS[name]
    block = 64
    cfg = SystemConfig(cores=cores, sets=8,
                       assoc=(1 if victim is not None else 2),
                       block_bytes=block, beat_bytes=block // beats,
                       engine=engine)
    system = System(cfg)
    addr = CACHEABLE.start

    others = iter(range(1, cores))
    if sc.owner_state is not None:
        system.preload_line(next(others), addr, sc.owner_state,
                            dir_state=sc.owner_dir_state)
    n_extra = {"none": 0, "S": sharers, "S-1": sharers - 1}[sc.extra_sharers]
    for _ in range(n_extra):
        system.preload_line(next(others), addr, S)
    if sc.req_state is not I:
        system.preload_line(0, addr, sc.req_state)
    if victim is not None:
        victim_addr = addr + cfg.sets * block
        system.preload_line(0, victim_addr,
                            E if victim == "clean" else M,
                            dir_state=E if victim == "clean" else M)

    if sc.non_exclusive:
        # Non-exclusive reads come from instruction fetch.
        system.lces[0].kind = LceKind.Instruction
    system.submit(0, addr, write=sc.write, size=8,
                  data=b"\xa5" * 8 if sc.write else None)
    system.run(limit=100_000)
    if not system.idle():
        raise RuntimeError(f"scenario {name} did not settle")
    records = system.home_cce(addr).stats.transactions
    if len(records) != 1:
        raise RuntimeError(f"scenario {name}: expected one transaction, "
                           f"saw {len(records)}")
    return records[0].busy_cycles
