"""Backing store and memory-side responder.

Stands in for the L2/main-memory side of the system: services cached and
uncached memory commands after a fixed latency, each answered with its own
record.  The real system's L2 is a memory-side buffer that does not
participate in coherence, so no hit/miss behavior is modeled.
"""

from __future__ import annotations

from collections import deque

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


class MemoryModel:
    """Consumes memory commands and answers each, in FIFO order, with the
    command's own `MemCmd` record on the MemResp network."""

    endpoint = "mem"

    def __init__(self, cfg, store: BackingStore):
        self.cfg = cfg     # the system's `SystemConfig`
        self.store = store
        self.inflight = deque()  # (ready_time, resp_msg_dst, response)
        # Called as (lce, addr, size, data) when an uncached store commits
        # here, as `Lce.on_store` is when a cached store commits.
        self.on_store = None

    def handle_mem_cmd(self, cmd: MemCmd) -> MemCmd:
        """Perform `cmd` and return it as its own response: a read gets
        its data (a cached read the whole block) and a write drops it.
        No sender reads a command again once it is sent."""
        if cmd.write:
            self.store.write(cmd.addr, cmd.data)
            if cmd.uncached and self.on_store:
                self.on_store(cmd.lce, cmd.addr, cmd.size, cmd.data)
            cmd.data = None   # header-only acknowledgment
            return cmd
        if cmd.uncached:
            cmd.data = self.store.read(cmd.addr, cmd.size)
        else:
            cmd.size = block = self.cfg.block_bytes
            cmd.data = self.store.read(cmd.addr - cmd.addr % block, block)
        return cmd

    def tick(self, now: int, net: Network):
        if net.next_ready.get(self.endpoint, now + 1) <= now:
            for msg in net.deliver(now, self.endpoint):
                if msg.net is not MEM_CMD:
                    raise AssertionError(
                        f"unexpected {msg.net} at {self.endpoint}")
                resp = self.handle_mem_cmd(msg.payload)
                self.inflight.append((now + self.cfg.mem_latency, msg.src,
                                      resp))
        while self.inflight and self.inflight[0][0] <= now:
            _, dst, resp = self.inflight.popleft()
            net.send(NetMessage(MEM_RESP, self.endpoint, dst, resp), now)
