"""Full-system assembly: caches, coherence engines, network, and memory
advanced in lockstep, one cycle per step, with optional fast-forward over
provably idle stretches."""

from __future__ import annotations

from dataclasses import dataclass

from . import protocol
from .directory import SegmentConfig, way_group_home
from .fsm_cce import FsmCce, WAIT
from .lce import Lce, LceConfig, MissIssued
from .memory import BackingStore, MemoryConfig, MemoryModel
from .messages import NetKind, NetMessage
from .network import NetConfig, Network


@dataclass(frozen=True)
class SystemConfig:
    cores: int = 2
    sets: int = 64
    assoc: int = 8
    block_bytes: int = 64
    beat_bytes: int = 8
    engine: str = "fsm"          # "fsm" or "ucode"
    protocol: str = "moesif"
    ucode_program: str = None    # override microcode source path
    num_cces: int = 1
    mem_latency: int = 20
    net_latency: int = 1
    ordering: str = "fifo"
    seed: int = 0


class System:
    def __init__(self, cfg: SystemConfig = SystemConfig()):
        self.cfg = cfg
        self.tables = protocol.PROTOCOLS[cfg.protocol]
        self.net = Network(NetConfig(latency=cfg.net_latency,
                                     beat_bytes=cfg.beat_bytes,
                                     ordering=cfg.ordering, seed=cfg.seed))
        self.lces = [Lce(LceConfig(lce_id=i, sets=cfg.sets, assoc=cfg.assoc,
                                   block_bytes=cfg.block_bytes), self.tables)
                     for i in range(cfg.cores)]
        self.lce_endpoints = [f"lce{i}" for i in range(cfg.cores)]
        seg = SegmentConfig(num_caches=cfg.cores, assoc=cfg.assoc,
                            sets_per_cache=cfg.sets,
                            block_bytes=cfg.block_bytes)
        self.cces = [self._make_cce(i, seg) for i in range(cfg.num_cces)]
        store = BackingStore(cfg.block_bytes)
        self.mem = MemoryModel(MemoryConfig(latency=cfg.mem_latency,
                                            block_bytes=cfg.block_bytes),
                               store)
        self.store = store
        self.now = 0

    def _make_cce(self, cce_id: int, seg: SegmentConfig):
        if self.cfg.engine == "fsm":
            return FsmCce(cce_id, seg, self.net, self.cfg.num_cces,
                          self.tables)
        if self.cfg.engine == "ucode":
            from .ucode.engine import UcodeCce
            return UcodeCce(cce_id, seg, self.net, self.cfg.num_cces,
                            self.tables, program=self.cfg.ucode_program)
        raise ValueError(f"unknown engine {self.cfg.engine!r}")

    # -- back-door state injection -------------------------------------------

    def preload_line(self, lce_id: int, addr: int, cache_state,
                     dir_state=None, way: int = 0, data: bytes = None):
        """Install a block in one cache and the directory without traffic.

        `dir_state` defaults to `cache_state`; passing a different value
        models a silent E-to-M upgrade the directory has not observed.
        """
        lce = self.lces[lce_id]
        line = lce.sets[lce.cfg.set_index(addr)][way]
        line.tag = lce.cfg.tag_of(addr)
        line.state = cache_state
        payload = data if data is not None else bytes(self.cfg.block_bytes)
        line.data[:] = payload
        lce._touch(line)
        cce = self.home_cce(addr)
        cce.directory.write_entry(addr, lce_id, way,
                                  state=(dir_state if dir_state is not None
                                         else cache_state))
        self.store.write(addr - addr % self.cfg.block_bytes, payload)

    # -- request routing -----------------------------------------------------

    def home_cce(self, addr: int) -> "FsmCce":
        set_idx = (addr // self.cfg.block_bytes) % self.cfg.sets
        home, _ = way_group_home(set_idx, self.cfg.num_cces)
        return self.cces[home]

    def submit(self, lce_id: int, addr: int, write: bool, size: int = 8,
               data=None, atomic=None, uncached: bool = False):
        """Issue one processor operation; send its miss request if any."""
        result = self.lces[lce_id].access(addr, write, size=size, data=data,
                                          atomic=atomic, uncached=uncached)
        if isinstance(result, MissIssued):
            cce = self.home_cce(addr)
            self.net.send(NetMessage(net=NetKind.Request,
                                     src=self.lce_endpoints[lce_id],
                                     dst=cce.endpoint,
                                     payload=result.request,
                                     beats=self.net.beats_of(
                                         result.request.data)),
                          self.now)
        return result

    # -- clocking ------------------------------------------------------------

    def step(self):
        now = self.now
        for lce, endpoint in zip(self.lces, self.lce_endpoints):
            for msg in self.net.deliver(now, endpoint):
                cce_ep = self.home_cce(msg.payload.addr).endpoint
                if msg.net is NetKind.Command:
                    lce.handle_command(msg.payload, cce_ep,
                                       beats_of=self.net.beats_of)
                elif msg.net is NetKind.Fill:
                    lce.handle_fill_net(msg.payload, cce_ep)
                else:
                    raise AssertionError(f"unexpected {msg.net} at {endpoint}")
            if lce.outbox:
                for out in lce.outbox:
                    self.net.send(out, now)
                lce.outbox.clear()
        for cce in self.cces:
            for msg in self.net.deliver(now, cce.endpoint):
                cce.accept(msg)
            cce.tick(now)
        self.mem.tick(now, self.net)
        self.now = now + 1

    def idle(self) -> bool:
        return (self.net.idle() and not self.mem.inflight
                and not any(lce.outbox for lce in self.lces)
                and not any(cce.has_pending_input() for cce in self.cces))

    def _quiet_now(self) -> bool:
        """True when this cycle can only produce wait/idle everywhere."""
        if any(lce.outbox for lce in self.lces):
            return False
        if self.net.any_ready(self.now):
            return False
        if self.mem.inflight and self.mem.inflight[0][0] <= self.now:
            return False
        return all(cce.quiet() for cce in self.cces)

    def _next_event(self):
        times = []
        t = self.net.next_event()
        if t is not None:
            times.append(t)
        t = self.mem.next_event()
        if t is not None:
            times.append(t)
        return min(times) if times else None

    def run(self, limit: int = 1_000_000, fast_forward: bool = True) -> int:
        """Advance until idle (returns cycles elapsed) or the cycle limit."""
        start = self.now
        while self.now - start < limit:
            if self.idle():
                break
            if fast_forward and self._quiet_now():
                t = self._next_event()
                if t is not None and t > self.now:
                    skipped = t - self.now
                    for cce in self.cces:
                        cce.note_skipped(skipped)
                    self.now = t
                    continue
            self.step()
        return self.now - start

    def run_until(self, done, limit: int = 1_000_000) -> int:
        start = self.now
        while self.now - start < limit and not done():
            self.step()
        assert done(), "cycle limit reached"
        return self.now - start
