"""Coherence and memory message transport.

Five logical networks (Request, Command, Fill, Response plus the memory
command/response pair) with per-(src, dst, net) FIFO order, per-channel
serialization of data beats, endpoint priority arbitration, and credit-based
flow control for memory commands.
"""

from __future__ import annotations

import random
from bisect import insort
from collections import deque
from dataclasses import dataclass
from operator import attrgetter

from .messages import NetKind, NetMessage


class Backpressure(Exception):
    pass


class CreditError(RuntimeError):
    """A memory credit was released with none outstanding."""


ORDERINGS = ("fifo", "random")
INF = float("inf")
_rank = attrgetter("rank")


@dataclass(frozen=True)
class NetConfig:
    latency: int = 1
    beat_bytes: int = 8
    mem_credits: int = 8
    ordering: str = "fifo"  # one of ORDERINGS
    seed: int = 0


class _Channel(deque):
    """One (src, dst, net) FIFO of (ready_time, msg), with its creation
    rank and the next cycle its link is free."""

    __slots__ = ("rank", "free")

    def __init__(self, rank: int):
        super().__init__()
        self.rank = rank
        self.free = 0


class Network:
    def __init__(self, cfg: NetConfig = NetConfig()):
        self.cfg = cfg
        # (src, dst, net value) -> _Channel.  The key holds the NetKind's
        # value, not the member, so that a send hashes no enum member.
        self.channels = {}
        # dst -> its channels that hold messages, in creation order.
        self._busy = {}
        # dst -> earliest ready time of its queued messages; a destination
        # with nothing queued has no entry.  Callers may read it, so that a
        # cycle costs only the destinations whose time has come.
        self.next_ready = {}
        # The least of `next_ready`, or infinity when nothing is queued.
        self.earliest = INF
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
        dst = msg.dst
        key = (msg.src, dst, msg.net._value_)
        chan = self.channels.get(key)
        if chan is None:
            # Ranks follow global creation order, so they also order each
            # destination's channels by creation.
            chan = self.channels[key] = _Channel(len(self.channels))
            self._busy.setdefault(dst, [])
        # Header occupies one channel cycle, plus one per additional beat.
        serialization = max(1, msg.beats)
        start = max(now, chan.free)
        ready = start + self.cfg.latency + (serialization - 1)
        chan.free = start + serialization
        msg.seq = self._seq
        self._seq += 1
        if not chan:
            busy = self._busy[dst]
            if busy and busy[-1].rank > chan.rank:
                insort(busy, chan, key=_rank)
            else:
                busy.append(chan)
        chan.append((ready, msg))
        if ready < self.next_ready.get(dst, ready + 1):
            self.next_ready[dst] = ready
            if ready < self.earliest:
                self.earliest = ready

    def deliver(self, now: int, dst: str):
        """Pop every message for `dst` ready at `now`, priority-sorted.

        FIFO order is preserved within each (src, dst, net) channel; in
        random ordering mode the ready set, gathered channel by channel in
        creation order, is permuted before the priority sort (head-of-line
        FIFO order still holds).
        """
        next_ready = self.next_ready
        due = next_ready.get(dst, INF)
        if due > now:
            return []
        busy = self._busy[dst]
        ready = []
        # Ready times rise along a channel, so the heads left queued hold
        # the destination's next ready time.
        later = INF
        emptied = False
        for chan in busy:
            while chan and chan[0][0] <= now:
                ready.append(chan.popleft()[1])
            if not chan:
                emptied = True
            elif chan[0][0] < later:
                later = chan[0][0]
        if later == INF:
            busy.clear()
            del next_ready[dst]
        else:
            if emptied:
                busy[:] = [chan for chan in busy if chan]
            next_ready[dst] = later
        if due == self.earliest:
            # This destination held the earliest time.
            self.earliest = min(next_ready.values()) if next_ready else INF
        if len(ready) > 1:
            if self.cfg.ordering == "random":
                self._rng.shuffle(ready)
                ready.sort(key=lambda m: m.net.priority)
            else:
                ready.sort(key=lambda m: (m.net.priority, m.seq))
        return ready

    def idle(self) -> bool:
        return self.earliest == INF
