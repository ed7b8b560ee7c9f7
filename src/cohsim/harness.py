"""Workload generation, trace-driven simulation, runtime invariant monitors,
engine-equivalence comparison, and the directory storage-overhead calculator.

Trace file format (text, diff-friendly): one operation per line,

    <lce_id> <OP> <hex addr> [<hex data>]

with ``#`` starting a comment.  OPs: LD, ST, LDU, STU, AMOADD, AMOSWAP,
LR, SC, FENCE (FENCE takes no address).  Stores and atomics carry a 64-bit
data word in hex.

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
from typing import Optional

from .lce import Hit
from .messages import AtomicOp
from .protocol import DEFAULT_REGION_MAP, CoherenceState, I
from .system import System, SystemConfig

OPS = ("LD", "ST", "LDU", "STU", "AMOADD", "AMOSWAP", "LR", "SC", "FENCE")
_ATOMIC_BY_OP = {"AMOADD": AtomicOp.Add, "AMOSWAP": AtomicOp.Swap,
                 "LR": AtomicOp.Lr, "SC": AtomicOp.Sc}


@dataclass(frozen=True)
class TraceOp:
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
            lce = int(parts[0])
            op = parts[1].upper()
            if op not in OPS:
                raise ValueError(f"unknown op {op!r}")
            if op == "FENCE":
                ops.append(TraceOp(lce, op))
                continue
            addr = int(parts[2], 16)
            data = int(parts[3], 16) if len(parts) > 3 else None
            ops.append(TraceOp(lce, op, addr, data))
        except (IndexError, ValueError) as exc:
            raise TraceError(f"line {line_no}: {raw!r}: {exc}") from exc
    return ops


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
    """
    rng = random.Random(seed)
    base = DEFAULT_REGION_MAP.cacheable[0][0]
    shared_n = max(1, footprint_blocks // 2)
    private_n = max(1, footprint_blocks - shared_n)
    shared = [base + i * block_bytes for i in range(shared_n)]
    private = [[base + (shared_n + c * private_n + i) * block_bytes
                for i in range(private_n)] for c in range(lces)]
    uncacheable = [[0x1000 + (c * private_n + i) * block_bytes
                    for i in range(private_n)] for c in range(lces)]
    out = []
    reserved = [None] * lces  # address of each cache's live LR, if any
    for _ in range(ops):
        lce = rng.randrange(lces)
        r = rng.random()
        if r < fence_ratio:
            out.append(TraceOp(lce, "FENCE"))
            continue
        word = rng.getrandbits(64)
        if r < fence_ratio + uncached_ratio:
            addr = rng.choice(uncacheable[lce])
            if rng.random() < write_ratio:
                out.append(TraceOp(lce, "STU", addr, word))
            else:
                out.append(TraceOp(lce, "LDU", addr))
            continue
        pool = shared if rng.random() < sharing_degree else private[lce]
        addr = rng.choice(pool) + 8 * rng.randrange(block_bytes // 8)
        if reserved[lce] is not None:
            out.append(TraceOp(lce, "SC", reserved[lce], word))
            reserved[lce] = None
        elif rng.random() < atomic_ratio:
            kind = rng.choice(("AMOADD", "AMOSWAP", "LR"))
            if kind == "LR":
                reserved[lce] = addr
                out.append(TraceOp(lce, "LR", addr))
            else:
                out.append(TraceOp(lce, kind, addr, word))
        elif rng.random() < write_ratio:
            out.append(TraceOp(lce, "ST", addr, word))
        else:
            out.append(TraceOp(lce, "LD", addr))
    return out


# ---------------------------------------------------------------------------
# Invariant monitors
# ---------------------------------------------------------------------------

# Tuples, so that a membership test compares identities and hashes no
# enum member.
EXCLUSIVE = (CoherenceState.E, CoherenceState.M)
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
        # Per set, each cache's lines of that set, in cache order.
        self._sets = [[lce.sets[s] for lce in system.lces]
                      for s in range(system.cfg.sets)]
        for lce in system.lces:
            lce.on_state = self.check

    def holders(self, addr: int) -> list:
        """(cache id, state) of every cache holding the block, found by
        looking only at the block's set in each cache."""
        cfg = self._system.cfg
        blk = addr // cfg.block_bytes
        set_idx, tag = blk % cfg.sets, blk // cfg.sets
        found = []
        for i, lines in enumerate(self._sets[set_idx]):
            for line in lines:
                if line.tag == tag and line.state is not I:
                    found.append((i, line.state))
                    break
        return found

    def check(self, addr: int):
        holders = self.holders(addr)
        if len(holders) < 2:
            return
        if any(s in EXCLUSIVE for _, s in holders):
            self._flag("swmr", f"block {addr:#x} held as {holders}")
        owners = [(l, s) for l, s in holders if s in OWNERLIKE]
        if len(owners) > 1:
            self._flag("single-owner", f"block {addr:#x} owned by {owners}")


class DataValueMonitor(Monitor):
    """Every load observes the most recent committed store to those bytes.

    A shadow copy of each stored-to block is updated from each cache's
    store-commit hook; the protocol serializes conflicting accesses, so at
    each load hook the shadow holds the latest value.  Accesses are
    aligned, so none crosses a block.  Only the cacheable-coherent region
    is tracked (posted uncached stores commit asynchronously)."""

    def __init__(self):
        super().__init__()
        self.shadow = {}   # block address -> bytearray of its bytes

    def attach(self, system: System):
        super().attach(system)
        self._block_bytes = system.cfg.block_bytes
        for lce in system.lces:
            lce.on_load = self._on_load
            lce.on_store = self._on_store

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

    @property
    def clean(self) -> bool:
        return not self.violations


def run_trace(system: System, ops, monitors=(),
              limit: int = 50_000_000) -> RunReport:
    """Drive a trace to completion, serializing cache-set conflicts.

    Each cache issues its own operations in order (one outstanding each).
    Across caches, operations that touch the same cache set are issued in
    trace order, each waiting for the previous one to complete.  A set is
    the unit of interference — invalidations, LRU updates, and evictions
    never cross sets — so the final architectural state is independent of
    engine timing, while operations on different sets still overlap."""
    for m in monitors:
        m.attach(system)
    block = system.cfg.block_bytes

    def domain(op):
        """Serialization domain: cache set for cacheable addresses, the
        block itself for the uncacheable region."""
        blk = op.addr - op.addr % block
        if DEFAULT_REGION_MAP.is_cacheable(op.addr):
            return (op.addr // block) % system.cfg.sets
        return ("u", blk)

    queues = [[] for _ in system.lces]
    domains = [None] * len(ops)   # trace index -> serialization domain
    domain_order = {}             # domain -> trace indices, oldest first
    for idx, op in enumerate(ops):
        if not 0 <= op.lce < len(system.lces):
            raise TraceError(f"op {idx}: no such cache {op.lce}")
        queues[op.lce].append((idx, op))
        if op.op != "FENCE":
            d = domains[idx] = domain(op)
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
                idx, op = q[-1]
                if op.op == "FENCE":
                    q.pop()
                    outstanding[i] = "fence"
                    fenced.append(i)
                    continue
                d = domains[idx]
                if domain_order[d][heads[d]] != idx:
                    continue   # an earlier trace op on this set must finish
                q.pop()
                data = (op.data.to_bytes(8, "little")
                        if op.data is not None else None)
                result = system.submit(
                    i, op.addr, write=op.op in ("ST", "STU"),
                    data=data, atomic=_ATOMIC_BY_OP.get(op.op),
                    uncached=op.op in ("LDU", "STU"))
                report.stores += op.op in ("ST", "STU", "AMOADD", "AMOSWAP",
                                           "SC")
                report.loads += op.op in ("LD", "LDU", "LR")
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
    """Directory contents with the silent E-to-M upgrade canonicalized:
    an E entry whose cache holds the line M is reported as M."""
    out = {}
    for ci, cce in enumerate(system.cces):
        for (lce, set_idx, way), (tag, state) in cce.directory.snapshot().items():
            if state is CoherenceState.E:
                line = system.lces[lce].sets[set_idx][way]
                if (line.tag == tag and line.state is CoherenceState.M):
                    state = CoherenceState.M
            out[(ci, lce, set_idx, way)] = (tag, state)
    return out


def compare_engines(ops, cfg: SystemConfig = SystemConfig(),
                    monitors: bool = True) -> EquivalenceReport:
    """Run one trace on both engines and compare final architectural state."""
    results = {}
    for engine in ("fsm", "ucode"):
        system = System(SystemConfig(**{**cfg.__dict__, "engine": engine}))
        mons = default_monitors() if monitors else []
        rep = run_trace(system, ops, monitors=mons)
        results[engine] = (system, rep)
    diffs = []
    sys_f, rep_f = results["fsm"]
    sys_u, rep_u = results["ucode"]
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
                  state_bits: int = 3, block_bits: int = 512,
                  pad: Optional[int] = None) -> float:
    """Directory storage overhead as a percentage of tracked cache data.

    Schemes: "dup" (duplicate-tag: one padded tag+state entry per tracked
    line, so overhead is independent of cache count), "complete" (full
    sharer bit-vector), "coarse:<b>" (b-bit coarse sharer vector).  `pad`
    rounds the entry up to a multiple of that many bits; the duplicate-tag
    scheme defaults to 32-bit entries, the vector schemes to no padding.
    """
    if caches < 2:
        raise ValueError("need at least 2 caches")
    for name, value in (("tag_bits", tag_bits), ("state_bits", state_bits)):
        if value < 0:
            raise ValueError(f"{name} must not be negative, got {value}")
    for name, value in (("block_bits", block_bits), ("pad", pad)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    scheme = scheme.lower()
    if scheme in ("dup", "duplicatetag", "duplicate-tag"):
        bits, default_pad = tag_bits + state_bits, 32
    elif scheme == "complete":
        bits, default_pad = tag_bits + state_bits + caches, 1
    elif scheme == "coarse" or scheme.startswith("coarse:"):
        arg = scheme[len("coarse:"):] or "8"
        if not arg.isdecimal() or int(arg) < 1:
            raise ValueError(f"coarse vector width must be a positive "
                             f"integer, got {arg!r}")
        bits, default_pad = tag_bits + state_bits + int(arg), 1
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    pad = default_pad if pad is None else pad
    padded = -(-bits // pad) * pad
    return 100.0 * padded / block_bits


# ---------------------------------------------------------------------------
# Occupancy reporting
# ---------------------------------------------------------------------------

def occupancy_csv(engine: str, cores_list=(2, 4, 8, 16),
                  beats_list=(1, 8)) -> str:
    """CSV sweep of measured vs. modeled occupancy for every scenario."""
    from .occupancy import (SCENARIOS, measure_occupancy, occupancy_model,
                            sharer_range)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["scenario", "engine", "cores", "sharers", "beats",
                "measured", "model", "match"])
    for name in SCENARIOS:
        for cores in cores_list:
            for s in sharer_range(name, cores):
                for beats in beats_list:
                    got = measure_occupancy(name, cores, sharers=s,
                                            beats=beats, engine=engine)
                    want = occupancy_model(engine, name, cores=cores,
                                           sharers=s, beats=beats)
                    w.writerow([name, engine, cores, s, beats, got, want,
                                str(got == want).lower()])
    return buf.getvalue()
