"""Backing store and memory-side responder."""

import pytest

from cohsim.memory import BackingStore, MemoryModel, SUPPORTED_SIZES
from cohsim.messages import MemCmd, NetKind, NetMessage
from cohsim.network import Network
from cohsim.system import SystemConfig


class TestBackingStore:
    def test_zero_fill_and_roundtrip(self):
        store = BackingStore()
        assert store.read(0x100, 8) == bytes(8)
        store.write(0x100, b"\x01\x02\x03\x04\x05\x06\x07\x08")
        assert store.read(0x100, 8) == b"\x01\x02\x03\x04\x05\x06\x07\x08"
        assert store.read(0x100, 4) == b"\x01\x02\x03\x04"
        assert store.read(0x104, 4) == b"\x05\x06\x07\x08"

    def test_sizes(self):
        store = BackingStore()
        for size in SUPPORTED_SIZES + (store.block_bytes,):
            store.write(0, bytes(range(size % 256)) or b"\x7f")
        with pytest.raises(ValueError, match="size 3"):
            store.read(0, 3)
        with pytest.raises(ValueError, match="misaligned"):
            store.read(4, 8)


def _send_cmd(net, cmd, now=0):
    net.send(NetMessage(net=NetKind.MemCmd, src="cce0", dst="mem",
                        payload=cmd), now)


def _parts(mem_latency):
    """A network with latency 1 and memory with `mem_latency`."""
    cfg = SystemConfig(net_latency=1, mem_latency=mem_latency)
    return Network(cfg), MemoryModel(cfg, BackingStore(cfg.block_bytes))


class TestMemoryModel:
    def test_cached_read_latency_and_alignment(self):
        net, mem = _parts(20)
        mem.store.write(0x8000_0040, b"\x11" * 8)
        _send_cmd(net, MemCmd(addr=0x8000_0048, write=False))
        for t in range(1, 40):
            mem.tick(t, net)
        out = net.deliver(1 + 20 + 1 + 7, "cce0")  # net + mem + 8-beat payload
        assert len(out) == 1
        resp = out[0].payload
        assert resp.addr == 0x8000_0048
        assert resp.size == 64
        assert resp.data[:8] == b"\x11" * 8      # block-aligned read

    def test_write_then_fifo_order(self):
        net, mem = _parts(5)
        _send_cmd(net, MemCmd(addr=0x8000_0000, write=True,
                              data=b"\x22" * 64))
        _send_cmd(net, MemCmd(addr=0x8000_0000, write=False))
        for t in range(1, 60):
            mem.tick(t, net)
        out = net.deliver(60, "cce0")
        assert [m.payload.write for m in out] == [True, False]
        assert out[1].payload.data == b"\x22" * 64

    def test_uncached_echo_and_size(self):
        net, mem = _parts(2)
        mem.store.write(0x1000, b"\xab\xcd\xef\x01")
        _send_cmd(net, MemCmd(addr=0x1000, write=False, uncached=True,
                              size=4, wp=3, lce=1, spec=True))
        for t in range(1, 20):
            mem.tick(t, net)
        resp = net.deliver(20, "cce0")[0].payload
        assert resp.uncached and resp.size == 4
        assert resp.data == b"\xab\xcd\xef\x01"
        # Bookkeeping fields echo back so the controller can route the reply.
        assert (resp.wp, resp.lce, resp.spec) == (3, 1, True)

    def test_next_event(self):
        """A response is ready `latency` cycles after its command is
        delivered: the head of `inflight` holds that time."""
        net, mem = _parts(7)
        assert not mem.inflight
        _send_cmd(net, MemCmd(addr=0x8000_0000, write=False))
        mem.tick(1, net)
        assert mem.inflight[0][0] == 8

    def test_deliver_only_when_a_command_is_due(self):
        """A tick for a ready response alone leaves the network's deliver
        alone; the responses are the same either way."""
        net, mem = _parts(3)
        _send_cmd(net, MemCmd(addr=0x8000_0000, write=True,
                              data=b"\x33" * 64))
        _send_cmd(net, MemCmd(addr=0x8000_0040, write=False))
        calls, due, ticked = [], [], []
        real_deliver = net.deliver

        def deliver(now, dst):
            calls.append(now)
            return real_deliver(now, dst)

        net.deliver = deliver
        for t in range(1, 40):
            # The system's test: a command is due or a response is ready.
            command_due = net.next_ready.get("mem", t + 1) <= t
            if command_due or (mem.inflight and mem.inflight[0][0] <= t):
                ticked.append(t)
                if command_due:
                    due.append(t)
                mem.tick(t, net)
        assert calls == due
        assert set(ticked) - set(due), "no tick for a response alone"
        out = real_deliver(60, "cce0")
        assert [(m.payload.addr, m.payload.write) for m in out] == \
            [(0x8000_0000, True), (0x8000_0040, False)]
