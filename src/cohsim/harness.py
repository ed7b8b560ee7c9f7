"""Workload generation, trace-driven simulation, runtime invariant monitors,
engine-equivalence comparison, and the directory storage-overhead calculator.

Trace file format (text, diff-friendly): one operation per line,

    <lce_id> <OP> <hex addr> [<hex data>]

with ``#`` starting a comment.  OPs: LD, ST, LDU, STU, AMOADD, AMOSWAP,
LR, SC, FENCE (FENCE takes no address).  Every access is one 8-byte word,
so its address is a 64-bit address aligned to 8 bytes; only LDU and STU
may name an address outside the cacheable region.  ST, STU, AMOADD,
AMOSWAP and SC carry a data word of at most 64 bits in hex, and no other
op takes one.  `parse_trace` rejects a line that breaks any of these rules,
or has more than 4 fields, with a `TraceError`.

Equivalence caveat: the trace driver serializes operations that touch the
same block in trace order, so any trace it accepts yields the same final
state regardless of engine timing.  Posted uncached stores are the one
exception — traces should not race uncached stores against another cache's
accesses to the same block.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .lce import Hit
from .messages import AtomicOp
from .protocol import (DEFAULT_REGION_MAP, STORE, WRITABLE_STATES,
                       CoherenceState, I)
from .system import System, SystemConfig

OPS = ("LD", "ST", "LDU", "STU", "AMOADD", "AMOSWAP", "LR", "SC", "FENCE")
_DATA_OPS = ("ST", "STU", "AMOADD", "AMOSWAP", "SC")   # carry a data word
_ATOMIC_BY_OP = {"AMOADD": AtomicOp.Add, "AMOSWAP": AtomicOp.Swap,
                 "LR": AtomicOp.Lr, "SC": AtomicOp.Sc}


class TraceOp(NamedTuple):
    """One trace operation: immutable and hashable, and cheap to build."""

    lce: int
    op: str                      # one of OPS
    addr: int = 0
    data: Optional[int] = None   # 64-bit payload for stores/atomics

    def format(self) -> str:
        if self.op == "FENCE":
            return f"{self.lce} FENCE"
        s = f"{self.lce} {self.op} {self.addr:#x}"
        if self.data is not None:
            s += f" {self.data:#x}"
        return s


class TraceError(ValueError):
    pass


def parse_trace(text: str) -> list:
    ops = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if len(parts) > 4:
                raise ValueError(f"{len(parts)} fields; a line has at most 4")
            lce = int(parts[0])
            op = parts[1].upper()
            if op not in OPS:
                raise ValueError(f"unknown op {op!r}")
            if op == "FENCE":
                if len(parts) > 2:
                    raise ValueError("FENCE takes no address")
                ops.append(TraceOp(lce, op))
                continue
            addr = int(parts[2], 16)
            if len(parts) > 3 and op not in _DATA_OPS:
                raise ValueError(f"{op} takes no data word")
            data = int(parts[3], 16) if len(parts) > 3 else None
            if not 0 <= addr < 1 << 64:
                raise ValueError(f"address {addr:#x} is not a 64-bit address")
            if addr % 8:
                raise ValueError(f"address {addr:#x} is not 8-byte aligned")
            if (op not in ("LDU", "STU")
                    and not DEFAULT_REGION_MAP.is_cacheable(addr)):
                raise ValueError(f"{op} needs a cacheable address, "
                                 f"got {addr:#x}")
            if data is None and op in _DATA_OPS:
                raise ValueError(f"{op} needs a data word")
            if data is not None and not 0 <= data < 1 << 64:
                raise ValueError(f"data {data:#x} is not a 64-bit word")
            ops.append(TraceOp(lce, op, addr, data))
        except (IndexError, ValueError) as exc:
            raise TraceError(f"line {line_no}: {raw!r}: {exc}") from exc
    return ops


def check_caches(ops, caches: int):
    """Raise TraceError at the first op of a cache outside range(caches)."""
    for idx, op in enumerate(ops):
        if not 0 <= op.lce < caches:
            raise TraceError(f"op {idx}: no such cache {op.lce}")


def format_trace(ops) -> str:
    return "".join(op.format() + "\n" for op in ops)


# ---------------------------------------------------------------------------
# Random workload generation
# ---------------------------------------------------------------------------

def random_workload(seed: int, lces: int = 2, ops: int = 1000,
                    footprint_blocks: int = 64, write_ratio: float = 0.4,
                    sharing_degree: float = 0.5, uncached_ratio: float = 0.02,
                    atomic_ratio: float = 0.05, fence_ratio: float = 0.01,
                    block_bytes: int = 64) -> list:
    """Reproducible trace: same seed, same parameters, same trace.

    `sharing_degree` is the probability an access targets the pool of
    blocks shared by every cache (the rest go to a per-cache private
    pool); raising it raises cross-cache conflict and invalidation rates.
    Uncached accesses go to a per-cache slice of the uncacheable region so
    posted uncached stores never race across caches.

    The trace depends only on the seeded generator's `getrandbits` and
    `random` draws.  Each index below `n` is drawn as `Random.randrange(n)`
    and `Random.choice` draw it: `getrandbits(n.bit_length())`, repeated
    until the value is below `n`.
    """
    rng = random.Random(seed)
    bits, rand = rng.getrandbits, rng.random

    def below(n):
        if n < 1:
            raise ValueError(f"no index below {n}")
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    base = DEFAULT_REGION_MAP.cacheable[0][0]
    shared_n = max(1, footprint_blocks // 2)
    private_n = max(1, footprint_blocks - shared_n)
    shared = [base + i * block_bytes for i in range(shared_n)]
    private = [[base + (shared_n + c * private_n + i) * block_bytes
                for i in range(private_n)] for c in range(lces)]
    uncacheable = [[0x1000 + (c * private_n + i) * block_bytes
                    for i in range(private_n)] for c in range(lces)]
    words = block_bytes // 8
    uncached_below = fence_ratio + uncached_ratio
    out = []
    append = out.append
    reserved = [None] * lces  # address of each cache's live LR, if any
    for _ in range(ops):
        lce = below(lces)
        r = rand()
        if r < fence_ratio:
            append(TraceOp(lce, "FENCE"))
            continue
        word = bits(64)
        if r < uncached_below:
            addr = uncacheable[lce][below(private_n)]
            if rand() < write_ratio:
                append(TraceOp(lce, "STU", addr, word))
            else:
                append(TraceOp(lce, "LDU", addr))
            continue
        if rand() < sharing_degree:
            addr = shared[below(shared_n)]
        else:
            addr = private[lce][below(private_n)]
        addr += 8 * below(words)
        if reserved[lce] is not None:
            append(TraceOp(lce, "SC", reserved[lce], word))
            reserved[lce] = None
        elif rand() < atomic_ratio:
            kind = ("AMOADD", "AMOSWAP", "LR")[below(3)]
            if kind == "LR":
                reserved[lce] = addr
                append(TraceOp(lce, "LR", addr))
            else:
                append(TraceOp(lce, kind, addr, word))
        elif rand() < write_ratio:
            append(TraceOp(lce, "ST", addr, word))
        else:
            append(TraceOp(lce, "LD", addr))
    return out


# ---------------------------------------------------------------------------
# Invariant monitors
# ---------------------------------------------------------------------------

# A tuple, so that a membership test compares identities and hashes no
# enum member.
OWNERLIKE = (CoherenceState.E, CoherenceState.M,
             CoherenceState.O, CoherenceState.F)


@dataclass
class Violation:
    monitor: str
    cycle: int
    detail: str

    def __str__(self):
        return f"[{self.monitor}] cycle {self.cycle}: {self.detail}"


class Monitor:
    """Watches a System through the LCE hooks that `attach` installs and
    records each breach of its invariant in `violations`."""

    def __init__(self):
        self.violations = []
        self._system = None

    def attach(self, system: System):
        self._system = system

    def check(self, addr: int):
        """Check one block after a cache changed its line state."""

    def _flag(self, monitor: str, detail: str):
        self.violations.append(Violation(monitor, self._system.now, detail))


class CoherenceMonitor(Monitor):
    """SWMR and single owner, checked for a block each time a cache writes
    that block's line state (install, downgrade, invalidation, silent E to
    M), so a breach is flagged in the cycle it appears.

    Single-Writer/Multiple-Reader (`swmr`): a block writable in one cache is
    not valid anywhere else.  Single owner (`single-owner`): at most one
    cache holds the block in an owner-class state."""

    def attach(self, system: System):
        super().attach(system)
        # Per set, (cache id, its lines of that set, their tag index) in
        # cache order.
        self._sets = [[(i, lce.sets[s], lce.tag_index[s])
                       for i, lce in enumerate(system.lces)]
                      for s in range(system.cfg.sets)]
        for lce in system.lces:
            lce.on_state = self.check

    def holders(self, addr: int) -> list:
        """(cache id, state) of every cache holding the block, found by
        looking its tag up in the block's set's index in each cache."""
        cfg = self._system.cfg
        blk = addr // cfg.block_bytes
        set_idx, tag = blk % cfg.sets, blk // cfg.sets
        found = []
        for i, lines, index in self._sets[set_idx]:
            way = index.get(tag)
            if way is not None:
                line = lines[way]
                if line.state is not I and line.tag == tag:
                    found.append((i, line.state))
        return found

    def check(self, addr: int):
        holders = self.holders(addr)
        if len(holders) < 2:
            return
        if any(s in WRITABLE_STATES for _, s in holders):
            self._flag("swmr", f"block {addr:#x} held as {holders}")
        owners = [(l, s) for l, s in holders if s in OWNERLIKE]
        if len(owners) > 1:
            self._flag("single-owner", f"block {addr:#x} owned by {owners}")


class DataValueMonitor(Monitor):
    """Every load observes the most recent committed store to those bytes.

    A shadow copy of each block is taken when the monitor is attached, from
    a valid cached copy (the owner's, when there is one) or else memory,
    and updated from each cache's store-commit hook, and from memory's for
    an uncached store; the protocol serializes conflicting accesses, so at
    each load hook the shadow holds the latest value.  Accesses are
    aligned, so none crosses a block.  Only loads from the
    cacheable-coherent region are checked (posted uncached stores commit
    asynchronously)."""

    def __init__(self):
        super().__init__()
        self.shadow = {}   # block address -> bytearray of its bytes

    def attach(self, system: System):
        super().attach(system)
        cfg = system.cfg
        self._block_bytes = block = cfg.block_bytes
        self.shadow = {blk * block: bytearray(data)
                       for blk, data in system.store.blocks.items()}
        cached = set()   # blocks the shadow took from a cache
        for lce in system.lces:
            for (set_idx, _), (tag, state, data) in lce.snapshot().items():
                addr = (tag * cfg.sets + set_idx) * block
                if state in OWNERLIKE or addr not in cached:
                    self.shadow[addr] = bytearray(data)
                    cached.add(addr)
        for lce in system.lces:
            lce.on_load = self._on_load
            lce.on_store = self._on_store
        system.mem.on_store = self._on_store

    def _on_store(self, lce_id, addr, size, data):
        off = addr % self._block_bytes
        block = self.shadow.get(addr - off)
        if block is None:
            block = self.shadow[addr - off] = bytearray(self._block_bytes)
        block[off:off + size] = data[:size]

    def _on_load(self, lce_id, addr, size, value):
        if not DEFAULT_REGION_MAP.is_cacheable(addr):
            return
        off = addr % self._block_bytes
        block = self.shadow.get(addr - off)
        expect = (bytes(size) if block is None
                  else bytes(block[off:off + size]))
        if bytes(value) != expect:
            self._flag("data-value",
                       f"lce{lce_id} load {addr:#x}/{size} saw "
                       f"{bytes(value).hex()} want {expect.hex()}")


def default_monitors():
    return [CoherenceMonitor(), DataValueMonitor()]


# ---------------------------------------------------------------------------
# Trace driver
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    cycles: int = 0
    completed: int = 0
    loads: int = 0
    stores: int = 0
    violations: list = field(default_factory=list)


def run_trace(system: System, ops, monitors=(),
              limit: int = 50_000_000) -> RunReport:
    """Drive a trace to completion, serializing cache-set conflicts.

    Each cache issues its own operations in order (one outstanding each).
    Across caches, operations that touch the same cache set are issued in
    trace order, each waiting for the previous one to complete.  A set is
    the unit of interference — invalidations, LRU updates, and evictions
    never cross sets — so the final architectural state is independent of
    engine timing, while operations on different sets still overlap.
    The monitors are attached for the run and detached when it ends."""
    block = system.cfg.block_bytes

    def domain(addr):
        """Serialization domain: cache set for cacheable addresses, the
        block itself for the uncacheable region."""
        if DEFAULT_REGION_MAP.is_cacheable(addr):
            return (addr // block) % system.cfg.sets
        return ("u", addr - addr % block)

    queues = [[] for _ in system.lces]
    domains = [None] * len(ops)   # trace index -> serialization domain
    domain_order = {}             # domain -> trace indices, oldest first
    check_caches(ops, len(system.lces))
    for idx, op in enumerate(ops):
        lce, kind, addr, _ = op
        queues[lce].append((idx, op))
        if kind != "FENCE":
            d = domains[idx] = domain(addr)
            domain_order.setdefault(d, []).append(idx)
    for q in queues:
        q.reverse()  # pop() from the tail
    heads = {d: 0 for d in domain_order}   # index into each order list
    outstanding = {}   # cache -> domain of its outstanding op, or "fence"
    fenced = []        # caches whose outstanding op is a fence
    report = RunReport()
    start = system.now
    deadline = start + limit
    retired = ()
    # Only a finish or a retire can make a queue head eligible, so the
    # issue pass runs only after one.
    changed = True

    def finish(d):
        nonlocal changed
        heads[d] += 1
        report.completed += 1
        changed = True

    for m in monitors:
        m.attach(system)
    try:
        while system.now < deadline:
            # Retire the misses that ended, and the fences once all is idle.
            for i in retired:
                finish(outstanding.pop(i))
            if fenced and system.idle():
                for i in fenced:
                    del outstanding[i]
                report.completed += len(fenced)
                fenced.clear()
                changed = True
            # Issue new ones.
            if changed:
                changed = False
                for i, q in enumerate(queues):
                    if not q or i in outstanding:
                        continue
                    # Unpacked once: a `TraceOp` field read costs more than
                    # a local.
                    idx, (_, kind, addr, data) = q[-1]
                    if kind == "FENCE":
                        q.pop()
                        outstanding[i] = "fence"
                        fenced.append(i)
                        continue
                    d = domains[idx]
                    if domain_order[d][heads[d]] != idx:
                        # An earlier trace op on this set must finish.
                        continue
                    q.pop()
                    if data is not None:
                        data = data.to_bytes(8, "little")
                    result = system.submit(
                        i, addr, write=kind in ("ST", "STU"),
                        data=data, atomic=_ATOMIC_BY_OP.get(kind),
                        uncached=kind in ("LDU", "STU"))
                    report.stores += kind in _DATA_OPS
                    report.loads += kind in ("LD", "LDU", "LR")
                    if isinstance(result, Hit) or system.lces[i].miss is None:
                        finish(d)   # hit, SC, or posted uncached store
                    else:
                        outstanding[i] = d
            if report.completed == len(ops) and system.idle():
                break
            # An op that finished at issue may free the next one, so the issue
            # pass runs again after one cycle; otherwise nothing changes until
            # a miss ends or the system goes idle.
            retired = system.advance(system.now + 1 if changed else deadline)
        else:
            raise TraceError(f"trace did not complete within {limit} cycles")
    finally:
        # A hook holds its monitor, which holds the system: detach them all,
        # so that nothing refers from the system back to itself.
        if monitors:
            for lce in system.lces:
                lce.on_state = lce.on_load = lce.on_store = None
            system.mem.on_store = None
    for m in monitors:
        report.violations.extend(m.violations)
    report.cycles = system.now - start
    return report


# ---------------------------------------------------------------------------
# Engine equivalence
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceReport:
    equivalent: bool
    differences: list
    cycles_fsm: int
    cycles_ucode: int
    violations: list

    @property
    def cycle_ratio(self) -> float:
        """ucode cycles per FSM cycle (1.0 for two empty runs)."""
        if self.cycles_fsm == 0:
            return 1.0
        return self.cycles_ucode / self.cycles_fsm

    def summary(self) -> str:
        lines = [f"equivalent: {'yes' if self.equivalent else 'NO'}",
                 f"cycles: fsm={self.cycles_fsm} ucode={self.cycles_ucode} "
                 f"ratio={self.cycle_ratio:.3f}",
                 f"monitor violations: {len(self.violations)}"]
        lines += [f"  {d}" for d in self.differences[:20]]
        lines += [f"  {v}" for v in self.violations[:20]]
        return "\n".join(lines)


def _memory_image(system: System):
    zero = bytes(system.cfg.block_bytes)
    return {a: bytes(b) for a, b in system.store.blocks.items()
            if bytes(b) != zero}


def _dir_image(system: System):
    """Directory contents with silent store upgrades canonicalized: an
    entry whose cache's Store cell is a hit into another state (E to M in
    the shipped tables), and whose line holds that state, is reported in
    it."""
    out = {}
    for ci, cce in enumerate(system.cces):
        for (lce, set_idx, way), (tag, state) in cce.directory.snapshot().items():
            cache = system.lces[lce]
            line = cache.sets[set_idx][way]
            if line.tag == tag and line.state is not state:
                action = cache.tables.lce_event_action(state, STORE)
                if not action.is_miss and action.next_state is line.state:
                    state = line.state
            out[(ci, lce, set_idx, way)] = (tag, state)
    return out


def compare_engines(ops, cfg: SystemConfig = SystemConfig()
                    ) -> EquivalenceReport:
    """Run one trace on both engines, under the default monitors, and
    compare final architectural state.  Both systems are built before
    either runs, so firmware that cannot be read or assembled fails at
    once."""
    sys_f, sys_u = (System(SystemConfig(**{**cfg.__dict__, "engine": engine}))
                    for engine in ("fsm", "ucode"))
    rep_f, rep_u = (run_trace(system, ops, monitors=default_monitors())
                    for system in (sys_f, sys_u))
    diffs = []
    for label, probe in (("memory", _memory_image),
                         ("directory", _dir_image)):
        a, b = probe(sys_f), probe(sys_u)
        if a != b:
            keys = [k for k in a.keys() | b.keys() if a.get(k) != b.get(k)]
            diffs += [f"{label} differs at {k}: fsm={a.get(k)} "
                      f"ucode={b.get(k)}" for k in sorted(keys, key=str)[:10]]
    for i, (lf, lu) in enumerate(zip(sys_f.lces, sys_u.lces)):
        a, b = lf.snapshot(), lu.snapshot()
        if a != b:
            keys = [k for k in a.keys() | b.keys() if a.get(k) != b.get(k)]
            diffs += [f"cache {i} differs at {k}: fsm={a.get(k)} "
                      f"ucode={b.get(k)}" for k in sorted(keys)[:10]]
    return EquivalenceReport(
        equivalent=not diffs, differences=diffs,
        cycles_fsm=rep_f.cycles, cycles_ucode=rep_u.cycles,
        violations=rep_f.violations + rep_u.violations)


# ---------------------------------------------------------------------------
# Directory storage overhead
# ---------------------------------------------------------------------------

def overhead_calc(scheme: str, caches: int, tag_bits: int = 28,
                  state_bits: int = 3, block_bits: int = 512) -> float:
    """Directory storage overhead as a percentage of tracked cache data.

    Schemes: "dup" (duplicate-tag: one tag+state entry per tracked line,
    padded to 32 bits, so overhead is independent of cache count),
    "complete" (full sharer bit-vector), "coarse:<b>" (b-bit coarse sharer
    vector); the vector schemes are not padded.
    """
    if caches < 2:
        raise ValueError("need at least 2 caches")
    for name, value in (("tag_bits", tag_bits), ("state_bits", state_bits)):
        if value < 0:
            raise ValueError(f"{name} must not be negative, got {value}")
    if block_bits < 1:
        raise ValueError(f"block_bits must be positive, got {block_bits}")
    scheme = scheme.lower()
    if scheme in ("dup", "duplicatetag", "duplicate-tag"):
        bits = -(-(tag_bits + state_bits) // 32) * 32
    elif scheme == "complete":
        bits = tag_bits + state_bits + caches
    elif scheme == "coarse" or scheme.startswith("coarse:"):
        arg = scheme[len("coarse:"):] or "8"
        if not arg.isdecimal() or int(arg) < 1:
            raise ValueError(f"coarse vector width must be a positive "
                             f"integer, got {arg!r}")
        bits = tag_bits + state_bits + int(arg)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return 100.0 * bits / block_bits


# ---------------------------------------------------------------------------
# Occupancy reporting
# ---------------------------------------------------------------------------

def occupancy_csv(engine: str, cores_list=(2, 4, 8, 16)) -> str:
    """CSV sweep of measured vs. modeled occupancy for every scenario, at
    1 and 8 data beats."""
    from .occupancy import (SCENARIOS, measure_occupancy, occupancy_model,
                            sharer_range)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["scenario", "engine", "cores", "sharers", "beats",
                "measured", "model", "match"])
    for name in SCENARIOS:
        for cores in cores_list:
            for s in sharer_range(name, cores):
                for beats in (1, 8):
                    got = measure_occupancy(name, cores, sharers=s,
                                            beats=beats, engine=engine)
                    want = occupancy_model(engine, name, cores=cores,
                                           sharers=s, beats=beats)
                    w.writerow([name, engine, cores, s, beats, got, want,
                                str(got == want).lower()])
    return buf.getvalue()
