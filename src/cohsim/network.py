"""Coherence and memory message transport.

Five logical networks (Request, Command, Fill, Response plus the memory
command/response pair) with per-(src, dst, net) FIFO order, per-link
serialization of data beats, endpoint priority arbitration, and credit-based
flow control for memory commands.  Each destination has one heap of (ready,
seq, message); a link keeps only the next cycle it is free.  A message
starts no earlier than the link's previous one plus that one's
serialization, so ready times strictly rise along a link and the heap keeps
its FIFO order.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from operator import attrgetter

from .messages import MEM_CMD, NetMessage


class Backpressure(Exception):
    pass


class CreditError(RuntimeError):
    """A memory credit was released with none outstanding."""


INF = float("inf")
MEM_CREDITS = 8   # memory commands in flight at once
_priority_seq = attrgetter("net.priority", "seq")


class Network:
    def __init__(self, cfg):
        self.cfg = cfg     # the system's `SystemConfig`
        self._queues = defaultdict(list)   # dst -> heap of (ready, seq, msg)
        # (src, dst, net value) -> the next cycle that link is free; the key
        # holds the NetKind's value, so that a send hashes no enum member.
        self._free = {}
        # dst -> earliest ready time of its queued messages; a destination
        # with nothing queued has no entry.  Callers may read it, so that a
        # cycle costs only the destinations whose time has come.
        self.next_ready = {}
        # The least of `next_ready`, or infinity when nothing is queued.
        self.earliest = INF
        self.mem_credits_avail = MEM_CREDITS
        self._seq = 0

    def has_mem_credit(self) -> bool:
        return self.mem_credits_avail > 0

    def release_mem_credit(self):
        if self.mem_credits_avail >= MEM_CREDITS:
            raise CreditError("memory credit released with none outstanding")
        self.mem_credits_avail += 1

    def send(self, msg: NetMessage, now: int):
        """Size the message (`msg.beats`: 0 without data, else one per
        `beat_bytes` of its payload's data, at least one) and enqueue it;
        raises Backpressure when out of memory credits."""
        if msg.net is MEM_CMD:
            if not self.has_mem_credit():
                raise Backpressure("memory command credits exhausted")
            self.mem_credits_avail -= 1
        dst = msg.dst
        key = (msg.src, dst, msg.net._value_)
        # Header occupies one link cycle, plus one per additional beat.
        data = msg.payload.data
        if data:
            serialization = msg.beats = len(data) // self.cfg.beat_bytes or 1
        else:
            serialization = 1
        free = self._free.get(key, 0)
        start = free if free > now else now
        self._free[key] = start + serialization
        ready = start + self.cfg.net_latency + (serialization - 1)
        seq = msg.seq = self._seq
        self._seq = seq + 1
        heappush(self._queues[dst], (ready, seq, msg))
        if ready < self.next_ready.get(dst, ready + 1):
            self.next_ready[dst] = ready
            if ready < self.earliest:
                self.earliest = ready

    def deliver(self, now: int, dst: str):
        """Pop every message for `dst` ready at `now`, sorted by network
        priority and then by send order, which also keeps each (src, dst,
        net) link's FIFO order."""
        next_ready = self.next_ready
        due = next_ready.get(dst, INF)
        if due > now:
            return []
        queue = self._queues[dst]
        ready = [heappop(queue)[2]]
        while queue and queue[0][0] <= now:
            ready.append(heappop(queue)[2])
        if queue:
            next_ready[dst] = queue[0][0]
        else:
            del next_ready[dst]
        if due == self.earliest:
            # This destination held the earliest time.
            self.earliest = min(next_ready.values()) if next_ready else INF
        if len(ready) > 1:
            ready.sort(key=_priority_seq)
        return ready

    def idle(self) -> bool:
        return self.earliest == INF
