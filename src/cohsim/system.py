"""Full-system assembly: caches, coherence engines, network, and memory
advanced in lockstep, one cycle at a time.  `step` runs one cycle of every
endpoint; `advance` runs `step` until the next event `harness.run_trace`
acts on; `run` drains by calling `advance` until the system is idle or its
limit is reached.  No cycle is skipped: every CCE ticks every cycle, and
only `step` ticks it.  `advance` parks the CCEs' sequencers when the system
goes idle (see `cce`), so a `System` that is dropped after a run holds no
reference cycle and is freed at once."""

from __future__ import annotations

from dataclasses import dataclass

from . import protocol
from .directory import TAG_SETS_PER_ROW, way_group_home
from .cce import CceCore
from .fsm_cce import FsmCce
from .lce import Lce
from .memory import BackingStore, MemoryModel
from .messages import COMMAND, FILL, REQUEST, CohRequest, NetMessage
from .network import INF, Network

ENGINES = ("fsm", "ucode")


@dataclass(frozen=True)
class SystemConfig:
    """The one configuration: every component reads its values from it."""

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

    def __post_init__(self):
        for name in ("sets", "assoc", "block_bytes"):
            v = getattr(self, name)
            if v < 1 or v & (v - 1):
                raise ValueError(f"{name} must be a power of two, got {v}")
        if self.block_bytes < 8:
            raise ValueError(f"block_bytes must hold an 8-byte word, "
                             f"got {self.block_bytes}")
        v = self.beat_bytes
        if v < 1 or v & (v - 1) or v > self.block_bytes:
            raise ValueError(f"beat_bytes must be a power of two no larger "
                             f"than block_bytes ({self.block_bytes}), "
                             f"got {v}")
        for name in ("net_latency", "mem_latency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, "
                                 f"got {getattr(self, name)}")
        if self.cores < 1:
            raise ValueError(f"cores must be at least 1, got {self.cores}")
        if not 1 <= self.num_cces <= self.sets:
            raise ValueError(f"num_cces must be between 1 and sets "
                             f"({self.sets}), got {self.num_cces}")
        for name, allowed in (("engine", ENGINES),
                              ("protocol", tuple(protocol.PROTOCOLS))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}"
                                 f", got {getattr(self, name)!r}")

    # Geometry.  Plain methods and properties, not cached ones: a cached
    # value would land in `__dict__`, which `compare_engines` copies into
    # a new config.

    def set_index(self, addr: int) -> int:
        return (addr // self.block_bytes) % self.sets

    def tag_of(self, addr: int) -> int:
        return (addr // self.block_bytes) // self.sets

    @property
    def rows_per_set(self) -> int:
        """Physical directory rows per way group (see TAG_SETS_PER_ROW)."""
        return -(-self.cores // TAG_SETS_PER_ROW)

    @property
    def way_group_read_latency(self) -> int:
        """Cycles of one way-group read: one per row, plus one."""
        return 1 + self.rows_per_set


class System:
    def __init__(self, cfg: SystemConfig = SystemConfig()):
        self.cfg = cfg
        self.tables = protocol.PROTOCOLS[cfg.protocol]
        self.net = Network(cfg)
        self.lces = [Lce(cfg, i, self.tables) for i in range(cfg.cores)]
        engine = FsmCce
        if cfg.engine == "ucode":
            from .ucode.engine import UcodeCce as engine
        self.cces = [engine(i, cfg, self.net, self.tables)
                     for i in range(cfg.num_cces)]
        # Set index -> home CCE: the one routing rule for requests and for
        # the acks of cache-to-cache fills.
        self._homes = [self.cces[way_group_home(s, cfg.num_cces)[0]]
                       for s in range(cfg.sets)]
        self.store = BackingStore(cfg.block_bytes)
        self.mem = MemoryModel(cfg, self.store)
        self.now = 0
        self.retired = set()   # see `step` and `advance`

    # -- back-door state injection -------------------------------------------

    def preload_line(self, lce_id: int, addr: int, cache_state,
                     dir_state=None, way: int = 0, data: bytes = None):
        """Install a block in one cache and the directory without traffic.

        `dir_state` defaults to `cache_state`; passing a different value
        models a silent E-to-M upgrade the directory has not observed.
        """
        cfg = self.cfg
        lce = self.lces[lce_id]
        line = lce.install(addr, way)
        payload = data if data is not None else bytes(cfg.block_bytes)
        line.data[:] = payload
        lce.set_state(line, cache_state, addr)
        lce._touch(line)
        cce = self.home_cce(addr)
        cce.directory.write_entry(cce.local_wg(addr), line.tag, lce_id, way,
                                  (dir_state if dir_state is not None
                                   else cache_state))
        self.store.write(addr - addr % cfg.block_bytes, payload)

    # -- request routing -----------------------------------------------------

    def home_cce(self, addr: int) -> CceCore:
        cfg = self.cfg
        return self._homes[(addr // cfg.block_bytes) % cfg.sets]

    def submit(self, lce_id: int, addr: int, write: bool, size: int = 8,
               data=None, atomic=None, uncached: bool = False):
        """Issue one processor operation; send its miss request if any."""
        lce = self.lces[lce_id]
        result = lce.access(addr, write, size=size, data=data, atomic=atomic,
                            uncached=uncached)
        if isinstance(result, CohRequest):
            self.net.send(NetMessage(REQUEST, lce.endpoint,
                                     self.home_cce(addr).endpoint, result),
                          self.now)
        return result

    # -- clocking ------------------------------------------------------------

    def step(self):
        """Advance one cycle.  Endpoints are visited in a fixed order (LCEs
        by index, then CCEs, then memory), each reading the network's
        ready times when its turn comes, so with zero latency a message
        sent earlier in the cycle is delivered in it.  An endpoint with
        nothing due is not delivered to, the LCEs are visited only when
        some message is due, and memory is ticked only when a command is
        due or a response is ready; every CCE ticks.  A cache whose
        outstanding miss ends in the cycle is added to `retired`."""
        now = self.now
        net = self.net
        due = net.next_ready   # read live: sends earlier in the cycle count
        never = now + 1        # stands in for "nothing queued"
        if net.earliest <= now:
            for lce in self.lces:
                endpoint = lce.endpoint
                if due.get(endpoint, never) > now:
                    continue
                miss = lce.miss
                for msg in net.deliver(now, endpoint):
                    # A command's acks go back to the CCE that sent it; a
                    # fill comes from a cache, so its ack goes home.
                    if msg.net is COMMAND:
                        lce.handle_command(msg.payload, msg.src)
                    elif msg.net is FILL:
                        lce.handle_fill_net(
                            msg.payload,
                            self.home_cce(msg.payload.addr).endpoint)
                    else:
                        raise AssertionError(
                            f"unexpected {msg.net} at {endpoint}")
                # Only a delivery fills an outbox or ends a miss.
                if lce.outbox:
                    for out in lce.outbox:
                        net.send(out, now)
                    lce.outbox.clear()
                if miss is not None and lce.miss is None:
                    self.retired.add(lce.lce_id)
        for cce in self.cces:
            if due.get(cce.endpoint, never) <= now:
                for msg in net.deliver(now, cce.endpoint):
                    cce.accept(msg)
            cce.tick(now)
        mem = self.mem
        inflight = mem.inflight
        # Memory has work only with a command due or a response ready.
        if ((net.earliest <= now and due.get(mem.endpoint, never) <= now)
                or (inflight and inflight[0][0] <= now)):
            mem.tick(now, net)
        self.now = now + 1

    def advance(self, deadline: int) -> set:
        """Run cycles until a cache's outstanding miss ends, the system is
        idle (its CCEs are then parked), or `now` reaches `deadline`; at
        least one cycle runs.  Returns `retired`: the ids of the caches
        whose miss ended."""
        retired = self.retired
        retired.clear()
        net, inflight = self.net, self.mem.inflight
        while True:
            self.step()
            # Idle needs an empty network and memory: test those first.
            if net.earliest == INF and not inflight and self.idle():
                # Park every sequencer, so that no engine holds a generator
                # that holds the engine.
                for cce in self.cces:
                    cce.park()
                return retired
            if retired or self.now >= deadline:
                return retired

    def idle(self) -> bool:
        if not self.net.idle() or self.mem.inflight:
            return False
        for cce in self.cces:
            if cce.has_pending_input():
                return False
        return True

    def run(self, limit: int = 1_000_000) -> int:
        """Advance until idle (returns cycles elapsed) or the cycle limit."""
        start = self.now
        end = start + limit
        while self.now < end and not self.idle():
            self.advance(end)
        return self.now - start
