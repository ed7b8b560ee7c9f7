"""Message transport: FIFO links, serialization, priority, credits."""

import itertools
import random
from typing import NamedTuple, Optional

import pytest

from cohsim.messages import CohRequest, LceResponse, NetKind, NetMessage
from cohsim.network import (INF, MEM_CREDITS, Backpressure, CreditError,
                            Network)
from cohsim.system import SystemConfig


class Payload(NamedTuple):
    label: object
    data: Optional[bytes]


def msg(net, src="a", dst="b", beats=0, label=None):
    """A message whose payload carries `beats` 8-byte beats of data."""
    return NetMessage(net=net, src=src, dst=dst,
                      payload=Payload(label, bytes(8 * beats)))


def network(**kw):
    return Network(SystemConfig(**kw))


class TestTransport:
    def test_latency(self):
        net = network(net_latency=3)
        net.send(msg(NetKind.Request), now=0)
        assert net.deliver(2, "b") == []
        out = net.deliver(3, "b")
        assert len(out) == 1

    def test_channel_fifo(self):
        net = network()
        a = msg(NetKind.Request)
        b = msg(NetKind.Request)
        net.send(a, now=0)
        net.send(b, now=0)
        out = net.deliver(10, "b")
        assert out == [a, b]

    def test_serialization_of_beats(self):
        # A 8-beat message occupies its channel for 8 cycles.
        net = network(net_latency=1)
        first = msg(NetKind.Fill, beats=8)
        second = msg(NetKind.Fill, beats=1)
        net.send(first, now=0)
        net.send(second, now=0)
        assert net.deliver(7, "b") == []
        assert net.deliver(8, "b") == [first]   # 0 + latency + (8-1)
        assert net.deliver(9, "b") == [second]  # starts after the first

    def test_multi_beat_link_fifo_at_zero_latency(self):
        """At latency 0, messages of mixed beats on one link arrive one by
        one in send order, each when its last beat is through."""
        net = network(net_latency=0)
        sent = [msg(NetKind.Fill, beats=b, label=i)
                for i, b in enumerate((8, 0, 8, 1, 2))]
        for m in sent[:3]:
            net.send(m, now=0)
        for m in sent[3:]:
            net.send(m, now=5)
        arrivals = [(now, m.payload.label) for now in range(25)
                    for m in net.deliver(now, "b")]
        # Starts 0, 8, 9, 17, 18; ready at start + max(beats, 1) - 1.
        assert arrivals == [(7, 0), (8, 1), (16, 2), (17, 3), (19, 4)]
        assert net.idle()

    def test_beats_of(self):
        """`send` sizes each message from its payload's data: 0 beats
        without data, else one per `beat_bytes`, at least one."""
        for beat_bytes, data, beats in ((8, None, 0), (8, b"", 0),
                                        (8, b"x" * 4, 1), (8, b"x" * 8, 1),
                                        (8, b"x" * 64, 8), (16, b"x" * 64, 4)):
            m = NetMessage(NetKind.Fill, "a", "b", Payload(None, data))
            network(beat_bytes=beat_bytes).send(m, now=0)
            assert m.beats == beats, (beat_bytes, data)

    def test_priority_order(self):
        # Responses outrank commands, which outrank requests.
        net = network()
        req = msg(NetKind.Request)
        resp = msg(NetKind.Response)
        cmd = msg(NetKind.Command)
        for m in (req, cmd, resp):
            net.send(m, now=0)
        out = net.deliver(10, "b")
        assert out.index(resp) < out.index(cmd) < out.index(req)
        assert sorted(NetKind, key=lambda k: k.priority) == [
            NetKind.Response, NetKind.Fill, NetKind.Command, NetKind.Request,
            NetKind.MemCmd, NetKind.MemResp]

    def test_mem_credits(self):
        net = network()
        for _ in range(MEM_CREDITS):
            net.send(msg(NetKind.MemCmd), now=0)
        assert not net.has_mem_credit()
        with pytest.raises(Backpressure):
            net.send(msg(NetKind.MemCmd), now=0)
        net.release_mem_credit()
        net.send(msg(NetKind.MemCmd), now=1)

    def test_over_release_of_mem_credit_raises(self):
        net = network()
        net.send(msg(NetKind.MemCmd), now=0)
        net.release_mem_credit()
        with pytest.raises(CreditError):
            net.release_mem_credit()
        assert net.mem_credits_avail == MEM_CREDITS


def labels(msgs):
    return [m.payload.label for m in msgs]


def fan_in(net):
    """Three sources and three networks into "d", plus one message for
    another destination; sent at cycle 0 with latency 1."""
    for label, src, dst, kind, beats in (
            ("a", "s0", "d", NetKind.Request, 0),    # ready 1
            ("b", "s1", "d", NetKind.Request, 0),    # ready 1
            ("c", "s0", "d", NetKind.Response, 8),   # ready 8
            ("d", "s2", "d", NetKind.Command, 0),    # ready 1
            ("e", "s0", "d", NetKind.Request, 0),    # ready 2, behind a
            ("f", "s1", "x", NetKind.Request, 0),    # ready 1, elsewhere
            ("g", "s2", "d", NetKind.Response, 0),   # ready 1
            ("h", "s0", "d", NetKind.Response, 0)):  # ready 9, behind c
        net.send(msg(kind, src=src, dst=dst, beats=beats, label=label),
                 now=0)


class TestDeliveryOrder:
    def test_fan_in_orders_by_priority_then_seq(self):
        net = network(net_latency=1)
        fan_in(net)
        assert net.deliver(0, "d") == []
        assert labels(net.deliver(1, "d")) == ["g", "d", "a", "b"]
        assert labels(net.deliver(1, "d")) == []
        assert labels(net.deliver(2, "d")) == ["e"]
        assert labels(net.deliver(10, "d")) == ["c", "h"]
        assert labels(net.deliver(10, "x")) == ["f"]
        assert net.idle()

    def test_idle_and_next_event_after_partial_delivery(self):
        """`earliest`, the next delivery time, follows each delivery."""
        net = network(net_latency=1)
        assert net.idle() and net.earliest == INF
        fan_in(net)
        assert not net.idle()
        assert net.earliest == 1
        net.deliver(5, "d")                  # leaves c, h and f
        assert not net.idle()
        assert net.earliest == 1             # f still waits at "x"
        net.deliver(5, "x")
        assert not net.idle()
        assert net.earliest == 8
        assert labels(net.deliver(8, "d")) == ["c"]
        assert net.earliest == 9
        assert labels(net.deliver(9, "d")) == ["h"]
        assert net.idle() and net.earliest == INF


class LinkOracle:
    """The link rule worked out from the sends alone, without reading the
    network's internals: a message starts when its (src, dst, net) link
    is free and now has come, holds the link one cycle per beat (at least
    one), and is ready `latency` cycles after its last beat starts."""

    def __init__(self, net, latency):
        self.net = net
        self.latency = latency
        self.free = {}      # link -> next free cycle
        self.queued = []    # (ready, priority, send order, msg)
        self.order = itertools.count()

    def send(self, m, now):
        self.net.send(m, now)
        link = (m.src, m.dst, m.net)
        serial = max(1, len(m.payload.data) // 8)
        start = max(self.free.get(link, 0), now)
        self.free[link] = start + serial
        self.queued.append((start + self.latency + serial - 1,
                            m.net.priority, next(self.order), m))

    def next_ready(self):
        """dst -> earliest ready time of its queued messages."""
        out = {}
        for ready, _, _, m in self.queued:
            out[m.dst] = min(out.get(m.dst, ready), ready)
        return out

    def deliver(self, now, dst):
        """What `deliver(now, dst)` must return: every message for `dst`
        ready by `now`, in (priority, send order)."""
        due = [e for e in self.queued if e[3].dst == dst and e[0] <= now]
        self.queued = [e for e in self.queued
                       if not (e[3].dst == dst and e[0] <= now)]
        return [e[3] for e in sorted(due, key=lambda e: e[1:3])]


class TestReadyIndex:
    @pytest.mark.parametrize("latency", [0, 1, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_a_scan_of_every_channel(self, latency, seed):
        """After each send and each partial delivery, `next_ready`,
        `earliest` and `idle` agree with the link rule applied to every
        send so far, and each delivery holds what that rule makes ready,
        in (priority, seq) order."""
        rng = random.Random(seed)
        net = network(net_latency=latency)
        oracle = LinkOracle(net, latency)
        dsts = ["d0", "d1", "d2", "mem"]
        now = 0
        for _ in range(400):
            if rng.random() < 0.55:
                kind = rng.choice([NetKind.Request, NetKind.Command,
                                   NetKind.Fill, NetKind.Response])
                oracle.send(msg(kind, src=rng.choice(["s0", "s1", "s2"]),
                                dst=rng.choice(dsts),
                                beats=rng.choice([0, 1, 8])), now)
            else:
                dst = rng.choice(dsts)
                want = oracle.deliver(now, dst)
                got = net.deliver(now, dst)
                assert [id(m) for m in got] == [id(m) for m in want]
            now += rng.choice([0, 0, 1, 2])
            ready = oracle.next_ready()
            assert net.next_ready == ready
            assert net.idle() == (not ready)
            assert net.earliest == min(ready.values(), default=INF)

    @pytest.mark.parametrize("seed", range(5))
    def test_delivers_by_priority_then_seq(self, seed):
        """A delivery holds every ready message for its destination in
        (priority, seq) order, however often links empty and refill:
        checked against the link rule applied to every send."""
        rng = random.Random(seed)
        net = network(net_latency=1)
        oracle = LinkOracle(net, 1)
        dsts = ["d0", "d1", "mem"]
        now = 0
        for _ in range(400):
            if rng.random() < 0.55:
                kind = rng.choice([NetKind.Request, NetKind.Command,
                                   NetKind.Fill, NetKind.Response])
                oracle.send(msg(kind, src=rng.choice(["s0", "s1", "s2",
                                                      "s3"]),
                                dst=rng.choice(dsts),
                                beats=rng.choice([0, 1, 8])), now)
            else:
                dst = rng.choice(dsts)
                want = oracle.deliver(now, dst)
                got = net.deliver(now, dst)
                assert [id(m) for m in got] == [id(m) for m in want]
            now += rng.choice([0, 0, 1, 2])
