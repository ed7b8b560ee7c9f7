"""Backing store and memory-side responder.

Stands in for the L2/main-memory side of the system: services cached and
uncached memory commands after a fixed latency and echoes the speculative
bit into every response.  The real system's L2 is a memory-side buffer that
does not participate in coherence, so no hit/miss behavior is modeled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .messages import MEM_CMD, MEM_RESP, MemCmd, NetMessage
from .network import Network

SUPPORTED_SIZES = (1, 2, 4, 8)   # word accesses; a whole block is allowed too


class BackingStore:
    """Sparse block-addressed byte store; unwritten blocks read as zeros."""

    def __init__(self, block_bytes: int = 64):
        self.block_bytes = block_bytes
        self.blocks = {}

    def _block(self, addr: int) -> bytearray:
        blk = addr // self.block_bytes
        if blk not in self.blocks:
            self.blocks[blk] = bytearray(self.block_bytes)
        return self.blocks[blk]

    def _check(self, addr: int, size: int):
        if size > self.block_bytes or (size not in SUPPORTED_SIZES
                                       and size != self.block_bytes):
            raise ValueError(f"unsupported access size {size}")
        if addr % size:
            raise ValueError(f"{size}-byte access at {addr:#x} is misaligned")

    def read(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        block = self._block(addr)
        off = addr % self.block_bytes
        return bytes(block[off:off + size])

    def write(self, addr: int, data: bytes):
        self._check(addr, len(data))
        block = self._block(addr)
        off = addr % self.block_bytes
        block[off:off + len(data)] = data


@dataclass(slots=True)
class MemoryConfig:
    latency: int = 20
    block_bytes: int = 64


class MemoryModel:
    """Consumes memory commands and answers each, in FIFO order, with a
    `MemCmd` record on the MemResp network."""

    endpoint = "mem"

    def __init__(self, cfg: MemoryConfig = MemoryConfig(),
                 store: BackingStore = None):
        self.cfg = cfg
        self.store = store if store is not None else BackingStore(cfg.block_bytes)
        self.inflight = deque()  # (ready_time, resp_msg_dst, response)

    def handle_mem_cmd(self, cmd: MemCmd) -> MemCmd:
        if cmd.write:
            self.store.write(cmd.addr, cmd.data)
            # Header-only acknowledgment.  Fields in order: addr, write,
            # uncached, size, data, spec, wp, lce, way, state.
            return MemCmd(cmd.addr, True, cmd.uncached, cmd.size, None,
                          cmd.spec, cmd.wp, cmd.lce, cmd.way, cmd.state)
        size = cmd.size if cmd.uncached else self.cfg.block_bytes
        addr = cmd.addr if cmd.uncached else (
            cmd.addr - cmd.addr % self.cfg.block_bytes)
        return MemCmd(cmd.addr, False, cmd.uncached, size,
                      self.store.read(addr, size), cmd.spec, cmd.wp,
                      cmd.lce, cmd.way, cmd.state)

    def tick(self, now: int, net: Network):
        if net.next_ready.get(self.endpoint, now + 1) <= now:
            for msg in net.deliver(now, self.endpoint):
                if msg.net is not MEM_CMD:
                    raise AssertionError(
                        f"unexpected {msg.net} at {self.endpoint}")
                resp = self.handle_mem_cmd(msg.payload)
                self.inflight.append((now + self.cfg.latency, msg.src, resp))
        while self.inflight and self.inflight[0][0] <= now:
            _, dst, resp = self.inflight.popleft()
            beats = net.beats_of(resp.data)
            net.send(NetMessage(MEM_RESP, self.endpoint, dst, resp,
                                beats), now)
