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

from .lce import Hit, MissIssued
from .messages import AtomicOp
from .protocol import DEFAULT_REGION_MAP, CoherenceState
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

EXCLUSIVE = {CoherenceState.E, CoherenceState.M}
OWNERLIKE = {CoherenceState.E, CoherenceState.M,
             CoherenceState.O, CoherenceState.F}


@dataclass
class Violation:
    monitor: str
    cycle: int
    detail: str

    def __str__(self):
        return f"[{self.monitor}] cycle {self.cycle}: {self.detail}"


class Monitor:
    name = "monitor"

    def __init__(self):
        self.violations = []

    def attach(self, system: System):
        pass

    def check(self, system: System):
        pass

    def _flag(self, cycle: int, detail: str):
        self.violations.append(Violation(self.name, cycle, detail))


def _states_by_block(system: System):
    """{block addr: [(lce, state)]} over every valid line in every cache,
    in cache, set, way order."""
    out = {}
    for i, lce in enumerate(system.lces):
        sets, block = lce.cfg.sets, lce.cfg.block_bytes
        for set_idx, lines in enumerate(lce.sets):
            for line in lines:
                if line.state is not CoherenceState.I:
                    addr = (line.tag * sets + set_idx) * block
                    out.setdefault(addr, []).append((i, line.state))
    return out


class SwmrMonitor(Monitor):
    """Single-Writer/Multiple-Reader: a block writable in one cache is not
    simultaneously valid anywhere else."""
    name = "swmr"

    def check(self, system: System):
        for addr, holders in _states_by_block(system).items():
            if len(holders) > 1 and any(s in EXCLUSIVE for _, s in holders):
                self._flag(system.now, f"block {addr:#x} held as {holders}")


class SingleOwnerMonitor(Monitor):
    """At most one cache holds a block in an owner-class state."""
    name = "single-owner"

    def check(self, system: System):
        for addr, holders in _states_by_block(system).items():
            owners = [(l, s) for l, s in holders if s in OWNERLIKE]
            if len(owners) > 1:
                self._flag(system.now, f"block {addr:#x} owned by {owners}")


class DataValueMonitor(Monitor):
    """Every load observes the most recent committed store to those bytes.

    A shadow byte map is updated from each cache's store-commit hook; the
    protocol serializes conflicting accesses, so at each load hook the
    shadow holds the latest value.  Only the cacheable-coherent region is
    tracked (posted uncached stores commit asynchronously)."""
    name = "data-value"

    def __init__(self):
        super().__init__()
        self.shadow = {}
        self._system = None

    def attach(self, system: System):
        self._system = system
        for lce in system.lces:
            lce.on_load = self._on_load
            lce.on_store = self._on_store

    def _on_store(self, lce_id, addr, size, data):
        for i in range(size):
            self.shadow[addr + i] = data[i]

    def _on_load(self, lce_id, addr, size, value):
        if not DEFAULT_REGION_MAP.is_cacheable(addr):
            return
        expect = bytes(self.shadow.get(addr + i, 0) for i in range(size))
        if bytes(value) != expect:
            self._flag(self._system.now,
                       f"lce{lce_id} load {addr:#x}/{size} saw "
                       f"{bytes(value).hex()} want {expect.hex()}")


def default_monitors():
    return [SwmrMonitor(), SingleOwnerMonitor(), DataValueMonitor()]


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


def run_trace(system: System, ops, monitors=(), check_interval: int = 64,
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
    outstanding = [None] * len(system.lces)   # (domain,) or "fence"
    report = RunReport()
    start = system.now
    deadline = start + limit

    def finish(d):
        heads[d] += 1
        report.completed += 1

    def retire(lce_id):
        d = outstanding[lce_id]
        outstanding[lce_id] = None
        if d != "fence":
            finish(d)

    while system.now < deadline:
        # Retire finished operations.
        for i, lce in enumerate(system.lces):
            if outstanding[i] is None:
                continue
            if outstanding[i] == "fence":
                if system.idle():
                    retire(i)
                    report.completed += 1
            elif lce.miss is None:
                retire(i)
        # Issue new ones.
        for i, q in enumerate(queues):
            if not q or outstanding[i] is not None:
                continue
            idx, op = q[-1]
            if op.op == "FENCE":
                q.pop()
                outstanding[i] = "fence"
                continue
            d = domains[idx]
            if domain_order[d][heads[d]] != idx:
                continue   # an earlier trace op on this set must finish first
            q.pop()
            data = (op.data.to_bytes(8, "little")
                    if op.data is not None else None)
            result = system.submit(
                i, op.addr, write=op.op in ("ST", "STU"),
                data=data, atomic=_ATOMIC_BY_OP.get(op.op),
                uncached=op.op in ("LDU", "STU"))
            report.stores += op.op in ("ST", "STU", "AMOADD", "AMOSWAP", "SC")
            report.loads += op.op in ("LD", "LDU", "LR")
            if isinstance(result, Hit) or system.lces[i].miss is None:
                finish(d)   # hit, SC, or posted uncached store
            else:
                outstanding[i] = d
        if (not any(queues) and all(o is None for o in outstanding)
                and system.idle()):
            break
        system.step()
        if monitors and system.now % check_interval == 0:
            for m in monitors:
                m.check(system)
    else:
        raise TraceError(f"trace did not complete within {limit} cycles")
    system.run(limit=limit)  # drain posted traffic
    for m in monitors:
        m.check(system)
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
    scheme = scheme.lower()
    if scheme in ("dup", "duplicatetag", "duplicate-tag"):
        bits, default_pad = tag_bits + state_bits, 32
    elif scheme == "complete":
        bits, default_pad = tag_bits + state_bits + caches, 1
    elif scheme.startswith("coarse"):
        _, _, arg = scheme.partition(":")
        vec = int(arg) if arg else 8
        bits, default_pad = tag_bits + state_bits + vec, 1
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    pad = default_pad if pad is None else pad
    padded = -(-bits // pad) * pad
    return 100.0 * padded / block_bits


# ---------------------------------------------------------------------------
# Occupancy reporting
# ---------------------------------------------------------------------------

def occupancy_csv(engine: str, cores_list=(2, 4, 8, 16), beats_list=(1, 8),
                  protocol: str = "moesif") -> str:
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
                                            beats=beats, engine=engine,
                                            protocol=protocol)
                    want = occupancy_model(engine, name, cores=cores,
                                           sharers=s, beats=beats)
                    w.writerow([name, engine, cores, s, beats, got, want,
                                str(got == want).lower()])
    return buf.getvalue()
