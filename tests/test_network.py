"""Message transport: FIFO channels, serialization, priority, credits."""

import random

import pytest

from cohsim.messages import CohRequest, LceResponse, NetKind, NetMessage
from cohsim.network import (INF, Backpressure, CreditError, NetConfig,
                            Network)


def msg(net, src="a", dst="b", beats=0, payload=None):
    return NetMessage(net=net, src=src, dst=dst, payload=payload, beats=beats)


class TestTransport:
    def test_latency(self):
        net = Network(NetConfig(latency=3))
        net.send(msg(NetKind.Request), now=0)
        assert net.deliver(2, "b") == []
        out = net.deliver(3, "b")
        assert len(out) == 1

    def test_channel_fifo(self):
        net = Network(NetConfig())
        a = msg(NetKind.Request)
        b = msg(NetKind.Request)
        net.send(a, now=0)
        net.send(b, now=0)
        out = net.deliver(10, "b")
        assert out == [a, b]

    def test_serialization_of_beats(self):
        # A 8-beat message occupies its channel for 8 cycles.
        net = Network(NetConfig(latency=1))
        first = msg(NetKind.Fill, beats=8)
        second = msg(NetKind.Fill, beats=1)
        net.send(first, now=0)
        net.send(second, now=0)
        assert net.deliver(7, "b") == []
        assert net.deliver(8, "b") == [first]   # 0 + latency + (8-1)
        assert net.deliver(9, "b") == [second]  # starts after the first

    def test_beats_of(self):
        net = Network(NetConfig(beat_bytes=8))
        assert net.beats_of(None) == 0
        assert net.beats_of(b"") == 0
        assert net.beats_of(b"x" * 8) == 1
        assert net.beats_of(b"x" * 64) == 8

    def test_priority_order(self):
        # Responses outrank commands, which outrank requests.
        net = Network(NetConfig())
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
        net = Network(NetConfig(mem_credits=2))
        net.send(msg(NetKind.MemCmd), now=0)
        net.send(msg(NetKind.MemCmd), now=0)
        assert not net.has_mem_credit()
        with pytest.raises(Backpressure):
            net.send(msg(NetKind.MemCmd), now=0)
        net.release_mem_credit()
        net.send(msg(NetKind.MemCmd), now=1)

    def test_over_release_of_mem_credit_raises(self):
        net = Network(NetConfig(mem_credits=2))
        net.send(msg(NetKind.MemCmd), now=0)
        net.release_mem_credit()
        with pytest.raises(CreditError):
            net.release_mem_credit()
        assert net.mem_credits_avail == 2


def labels(msgs):
    return [m.payload for m in msgs]


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
        net.send(msg(kind, src=src, dst=dst, beats=beats, payload=label),
                 now=0)


class TestDeliveryOrder:
    def test_fan_in_orders_by_priority_then_seq(self):
        net = Network(NetConfig(latency=1))
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
        net = Network(NetConfig(latency=1))
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


def scanned_ready(net):
    """dst -> earliest ready time, by a scan of every channel."""
    out = {}
    for (_, dst, _), chan in net.channels.items():
        if chan:
            out[dst] = min(out.get(dst, chan[0][0]), chan[0][0])
    return out


class TestReadyIndex:
    @pytest.mark.parametrize("latency", [0, 1, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_a_scan_of_every_channel(self, latency, seed):
        """After each send and each partial delivery, `next_ready`,
        `earliest` and `idle` agree with a full scan."""
        rng = random.Random(seed)
        net = Network(NetConfig(latency=latency))
        dsts = ["d0", "d1", "d2", "mem"]
        now = 0
        for _ in range(400):
            if rng.random() < 0.55:
                kind = rng.choice([NetKind.Request, NetKind.Command,
                                   NetKind.Fill, NetKind.Response])
                net.send(msg(kind, src=rng.choice(["s0", "s1", "s2"]),
                             dst=rng.choice(dsts),
                             beats=rng.choice([0, 1, 8])), now)
            else:
                dst = rng.choice(dsts)
                due = scanned_ready(net).get(dst)
                out = net.deliver(now, dst)
                assert bool(out) == (due is not None and due <= now)
            now += rng.choice([0, 0, 1, 2])
            scan = scanned_ready(net)
            assert net.next_ready == scan
            assert net.idle() == (not scan)
            assert net.earliest == min(scan.values(), default=INF)

    @pytest.mark.parametrize("seed", range(5))
    def test_delivers_by_priority_then_seq(self, seed):
        """A delivery holds every ready message for its destination in
        (priority, seq) order, however often channels empty and refill:
        checked against a gather over every channel."""
        rng = random.Random(seed)
        net = Network(NetConfig(latency=1))
        dsts = ["d0", "d1", "mem"]
        now = 0
        for _ in range(400):
            if rng.random() < 0.55:
                kind = rng.choice([NetKind.Request, NetKind.Command,
                                   NetKind.Fill, NetKind.Response])
                net.send(msg(kind, src=rng.choice(["s0", "s1", "s2", "s3"]),
                             dst=rng.choice(dsts),
                             beats=rng.choice([0, 1, 8])), now)
            else:
                dst = rng.choice(dsts)
                want = sorted((m for (_, d, _), chan in net.channels.items()
                               if d == dst for t, m in chan if t <= now),
                              key=lambda m: (m.net.priority, m.seq))
                got = net.deliver(now, dst)
                assert [id(m) for m in got] == [id(m) for m in want]
            now += rng.choice([0, 0, 1, 2])
