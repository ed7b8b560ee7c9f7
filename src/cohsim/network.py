"""Coherence and memory message transport.

Five logical networks (Request, Command, Fill, Response plus the memory
command/response pair) with per-(src, dst, net) FIFO order, per-channel
serialization of data beats, endpoint priority arbitration, and credit-based
flow control for memory commands.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .messages import NET_PRIORITY, NetKind, NetMessage


class Backpressure(Exception):
    pass


class CreditError(RuntimeError):
    """A memory credit was released with none outstanding."""


ORDERINGS = ("fifo", "random")


@dataclass(frozen=True)
class NetConfig:
    latency: int = 1
    beat_bytes: int = 8
    mem_credits: int = 8
    ordering: str = "fifo"  # one of ORDERINGS
    seed: int = 0


class Network:
    def __init__(self, cfg: NetConfig = NetConfig()):
        self.cfg = cfg
        self.channels = {}       # (src, dst, net) -> deque of (ready_time, msg)
        self.channel_free = {}   # (src, dst, net) -> next cycle the link is free
        # dst -> its channels in creation order.
        self._dst_channels = {}
        # dst -> earliest ready time of its queued messages; a destination
        # with nothing queued has no entry.  Callers may read it, so that a
        # cycle costs only the destinations whose time has come.
        self.next_ready = {}
        self.mem_credits_avail = cfg.mem_credits
        self._seq = 0
        self._rng = random.Random(cfg.seed)

    def beats_of(self, data) -> int:
        if not data:
            return 0
        return max(1, len(data) // self.cfg.beat_bytes)

    def has_mem_credit(self) -> bool:
        return self.mem_credits_avail > 0

    def release_mem_credit(self):
        if self.mem_credits_avail >= self.cfg.mem_credits:
            raise CreditError("memory credit released with none outstanding")
        self.mem_credits_avail += 1

    def send(self, msg: NetMessage, now: int):
        """Enqueue; raises Backpressure when out of memory credits."""
        if msg.net is NetKind.MemCmd:
            if not self.has_mem_credit():
                raise Backpressure("memory command credits exhausted")
            self.mem_credits_avail -= 1
        key = (msg.src, msg.dst, msg.net)
        chan = self.channels.get(key)
        if chan is None:
            chan = self.channels[key] = deque()
            self._dst_channels.setdefault(msg.dst, []).append(chan)
        # Header occupies one channel cycle, plus one per additional beat.
        serialization = 1 + max(0, msg.beats - 1)
        start = max(now, self.channel_free.get(key, 0))
        ready = start + self.cfg.latency + (serialization - 1)
        self.channel_free[key] = start + serialization
        msg.seq = self._seq
        self._seq += 1
        chan.append((ready, msg))
        if ready < self.next_ready.get(msg.dst, ready + 1):
            self.next_ready[msg.dst] = ready

    def next_event(self):
        """Earliest pending delivery time, or None when idle."""
        return min(self.next_ready.values(), default=None)

    def any_ready(self, now: int) -> bool:
        """True when some message can be delivered at `now`."""
        return any(t <= now for t in self.next_ready.values())

    def deliver(self, now: int, dst: str):
        """Pop every message for `dst` ready at `now`, priority-sorted.

        FIFO order is preserved within each (src, dst, net) channel; in
        random ordering mode the ready set is permuted across channels
        before the priority sort (head-of-line FIFO order still holds).
        """
        if self.next_ready.get(dst, now + 1) > now:
            return []
        ready = []
        # Ready times rise along a channel, so the heads left queued hold
        # the destination's next ready time.
        later = []
        for chan in self._dst_channels[dst]:
            while chan and chan[0][0] <= now:
                ready.append(chan.popleft()[1])
            if chan:
                later.append(chan[0][0])
        if later:
            self.next_ready[dst] = min(later)
        else:
            del self.next_ready[dst]
        if self.cfg.ordering == "random":
            self._rng.shuffle(ready)
            ready.sort(key=lambda m: NET_PRIORITY[m.net])
        else:
            ready.sort(key=lambda m: (NET_PRIORITY[m.net], m.seq))
        return ready

    def idle(self) -> bool:
        return not self.next_ready
