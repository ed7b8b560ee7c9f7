"""Fixed-function coherence engine occupancy, and the cycle accounting and
bookkeeping of the engine core that both engines share."""

import os
import subprocess
import sys
from collections import defaultdict
from dataclasses import replace

import pytest

import cohsim
from cohsim import harness
from cohsim.cce import EngineFault
from cohsim.harness import TraceOp, random_workload, run_trace
from cohsim.messages import Emission, LceResponse, NetKind, NetMessage
from cohsim.network import MEM_CREDITS
from cohsim.occupancy import (SCENARIOS, measure_occupancy, occupancy_model,
                              replacement_extra, sharer_range)
from cohsim.protocol import CoherenceState
from cohsim.system import System, SystemConfig
from cohsim.ucode.engine import MicrocodeFault

I, S, E, M, O, F = CoherenceState
BASE = 0x8000_0000
ENGINES = ("fsm", "ucode")

# One cached read on an idle system, and an 8-core trace that fits the
# 16-set x 8-way caches and carries uncached (LDU/STU) and atomic ops.
ACCOUNTING_WORKLOADS = {
    "one-read": (SystemConfig(cores=2, sets=8), [TraceOp(0, "LD", BASE)]),
    "8-core": (SystemConfig(cores=8, sets=16),
               random_workload(5, lces=8, ops=600, footprint_blocks=64)),
}


def _count_calls(cce):
    """Count the engine's tick calls and the requests it accepts."""
    counts = {"ticks": 0, "requests": 0}
    tick, accept = cce.tick, cce.accept

    def counted_tick(now):
        counts["ticks"] += 1
        tick(now)

    def counted_accept(msg):
        counts["requests"] += msg.net is NetKind.Request
        accept(msg)

    cce.tick, cce.accept = counted_tick, counted_accept
    return counts


def _run_in_batches(system, ops) -> int:
    """Issue the trace a batch at a time, at most one op per cache, and let
    System.run drain each batch; returns elapsed cycles."""
    elapsed, batch = 0, {}
    for op in [op for op in ops if op.op != "FENCE"] + [None]:
        if op is None or op.lce in batch:
            for o in batch.values():
                system.submit(o.lce, o.addr, write=o.op in ("ST", "STU"),
                              data=(o.data.to_bytes(8, "little")
                                    if o.data is not None else None),
                              atomic=harness._ATOMIC_BY_OP.get(o.op),
                              uncached=o.op in ("LDU", "STU"))
            elapsed += system.run()
            batch = {}
        if op is not None:
            batch[op.lce] = op
    return elapsed


class TestSpotOccupancy:
    """A few hand-computed busy-cycle values, independent of the model
    functions (h = rows per directory set = cores/2)."""

    def test_read_miss_no_sharers_8_cores(self):
        # 8 fixed steps + 4-row directory read.
        assert measure_occupancy("read_excl_ii", cores=8) == 12
        assert occupancy_model("fsm", "read_excl_ii", 8) == 12

    def test_write_with_three_sharers_8_cores(self):
        # 8 + h=4 + 2 cycles per invalidation.
        assert measure_occupancy("write_is", cores=8, sharers=3) == 18

    def test_read_of_silently_dirtied_line_8_beats(self):
        # Owner upgraded E->M without telling the directory; the engine
        # must absorb the dirty writeback (one cycle per beat).
        assert measure_occupancy("read_ie_dirty", cores=8, beats=8) == 21

    def test_write_upgrade_counts_other_sharers_only(self):
        # S counts all S-state holders including the requester; with S=2
        # only one other copy is invalidated.
        assert measure_occupancy("write_ss", cores=4, sharers=2) == \
            9 + 2 + 2 * 1

    @pytest.mark.parametrize("victim,extra", [("clean", 2), ("dirty", 2)])
    def test_replacement_addon(self, victim, extra):
        base = measure_occupancy("read_excl_ii", cores=4)
        got = measure_occupancy("read_excl_ii", cores=4, victim=victim)
        assert got - base == replacement_extra("fsm", victim, beats=1)


class TestModelSweep:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("cores", [2, 8])
    def test_matches_model(self, name, cores):
        for sharers in sharer_range(name, cores):
            got = measure_occupancy(name, cores=cores, sharers=sharers)
            want = occupancy_model("fsm", name, cores, sharers)
            assert got == want, (name, cores, sharers)


class TestBookkeeping:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_transaction_record_fields(self, engine):
        cfg = SystemConfig(cores=4, sets=8, engine=engine)
        system = System(cfg)
        system.preload_line(1, BASE, S)
        system.preload_line(2, BASE, S)
        system.submit(0, BASE, write=True, data=b"\x01" * 8)
        system.run()
        rec = system.cces[0].stats.transactions[0]
        assert rec.req_kind == "ReqWr from I"
        assert rec.dir_state is S
        assert rec.sharers == 2 and rec.invalidations == 2
        assert rec.replacement is None

    def test_pending_bits_balanced_after_quiesce(self):
        cfg = SystemConfig(cores=2, sets=8)
        system = System(cfg)
        for i in range(6):
            system.submit(0, BASE + i * 64, write=(i % 2 == 0),
                          data=b"\x02" * 8 if i % 2 == 0 else None)
            system.run()
        cce = system.cces[0]
        assert all(not cce.pending.read(w) for w in range(cfg.sets))

    def test_mem_resp_accounting(self):
        # A read miss speculatively fetches from memory; with no owner the
        # response is forwarded to the requester.
        system = System(SystemConfig(cores=2, sets=8))
        system.submit(0, BASE, write=False)
        system.run()
        stats = system.cces[0].stats
        assert stats.mem_resp_forwards == 1
        assert stats.mem_resp_squashed == 0

    def test_mem_resp_squashed_when_owner_supplies(self):
        # The owner transfer makes the speculative memory read useless.
        system = System(SystemConfig(cores=2, sets=8))
        system.preload_line(1, BASE, M)
        system.submit(0, BASE, write=False)
        system.run()
        stats = system.cces[0].stats
        assert stats.mem_resp_squashed == 1
        assert system.lces[0].completed is not None

    def test_uncached_load_of_uncacheable_address(self):
        system = System(SystemConfig(cores=2, sets=8))
        system.store.write(0x1000, b"\xbe\xef\x00\x00\x00\x00\x00\x00")
        system.submit(0, 0x1000, write=False, uncached=True, size=8)
        system.run()
        assert system.lces[0].completed == b"\xbe\xef" + bytes(6)

    def test_uncached_store_to_cached_block_invalidates_copies(self):
        # Uncached write to a cacheable address flushes the coherent copy
        # and lands in memory.
        system = System(SystemConfig(cores=2, sets=8))
        system.preload_line(1, BASE, M, data=b"\x11" * 64)
        system.submit(0, BASE, write=True, uncached=True, size=8,
                      data=b"\x99" * 8)
        system.run()
        assert system.lces[1]._lookup(BASE) == (None, None)
        assert system.store.read(BASE, 8) == b"\x99" * 8

    @pytest.mark.parametrize("driver", ["trace", "run"])
    @pytest.mark.parametrize("workload", sorted(ACCOUNTING_WORKLOADS))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_busy_cycles_match_transaction_record(self, engine, workload,
                                                  driver):
        cfg, ops = ACCOUNTING_WORKLOADS[workload]
        system = System(replace(cfg, engine=engine))
        cce = system.cces[0]
        counts = _count_calls(cce)
        if driver == "trace":   # run_trace steps every cycle
            run_trace(system, ops)
            elapsed = counts["ticks"]
        else:
            elapsed = _run_in_batches(system, ops)
        st = cce.stats
        # Every cycle lands in exactly one class, skipped ones included.
        assert (st.busy_cycles + st.wait_cycles + st.idle_cycles
                + st.stall_cycles) == elapsed
        assert st.busy_cycles == sum(r.busy_cycles for r in st.transactions)
        assert st.wait_cycles == sum(r.wait_cycles for r in st.transactions)
        # Every request, uncached ones included, closes one record.
        assert len(st.transactions) == counts["requests"] > 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 5])
    def test_engines_keep_the_same_records_per_block(self, seed):
        # The footprint fits the caches, so no line is ever replaced.
        ops = random_workload(seed, lces=8, ops=1500, footprint_blocks=64)
        per_block = {}
        for engine in ENGINES:
            system = System(SystemConfig(cores=8, sets=16, engine=engine))
            run_trace(system, ops)
            seqs = per_block[engine] = defaultdict(list)
            for r in system.cces[0].stats.transactions:
                seqs[r.addr // 64].append(
                    (r.lce, r.req_kind, r.lce_state, r.dir_state, r.sharers,
                     r.invalidations, r.replacement))
        assert per_block["fsm"] == per_block["ucode"]


class TestMemoryCredits:
    # request -> (address, uncached, busy cycles per engine); the busy
    # cycles are a no-wait run's, 2 cores.
    REQUESTS = {"read-miss": (BASE, False, {"fsm": 9, "ucode": 13}),
                "LDU": (0x1000, True, {"fsm": 2, "ucode": 5})}

    @staticmethod
    def _start(engine, kind, credits):
        addr, uncached, _ = TestMemoryCredits.REQUESTS[kind]
        system = System(SystemConfig(cores=2, sets=8, engine=engine))
        sent = []
        handle = system.mem.handle_mem_cmd
        system.mem.handle_mem_cmd = lambda cmd: (sent.append(cmd),
                                                 handle(cmd))[1]
        system.net.mem_credits_avail = credits
        system.submit(0, addr, write=False, uncached=uncached,
                      size=8 if uncached else 64)
        return system, sent

    @pytest.mark.parametrize("kind", sorted(REQUESTS))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_waits_for_a_credit(self, engine, kind):
        """With no memory credit the memory-command unit waits: nothing
        reaches memory, no busy cycle is spent and, for a read miss, the
        speculation bits are not latched although the transaction has
        counted its pending bit.  Once credits return the request costs
        the busy cycles of a run that never waited."""
        system, sent = self._start(engine, kind, credits=0)
        cce = system.cces[0]
        busy = []
        for _ in range(60):
            system.step()
            busy.append(cce.stats.busy_cycles)
        assert not sent
        assert busy[-1] == busy[29]
        assert cce.stats.wait_cycles > 30
        if kind == "read-miss":
            wg = cce.local_wg(BASE)
            assert cce.spec.read(wg) is None
            assert cce.pending.counters[wg] == 1
        system.net.mem_credits_avail = MEM_CREDITS
        system.run()
        assert len(sent) == 1 and system.lces[0].completed is not None
        want = self.REQUESTS[kind][2][engine]
        no_wait, _ = self._start(engine, kind,
                                 credits=MEM_CREDITS)
        no_wait.run()
        assert ([r.busy_cycles for r in cce.stats.transactions]
                == [r.busy_cycles for r in no_wait.cces[0].stats.transactions]
                == [want])


class TestArbitration:
    # engine -> (cycle whose delivery brings the CohAck that frees the way
    # group, cycle whose tick takes the blocked request off its queue,
    # cycles to idle)
    GOLDEN = {"fsm": ([42], [42], 75), "ucode": ([45], [46], 81)}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_blocked_request_admitted_when_cohack_frees_way_group(
            self, engine):
        """Two caches' requests for one block reach the CCE together; the
        second waits behind the first's pending way group and is admitted
        in the cycle the first's CohAck brings that counter to zero.
        `fsm` takes it off the queue in that tick; `ucode`'s `wfq req`
        lets it through then and its `popq req` takes it in the next."""
        system = System(SystemConfig(cores=2, sets=8, engine=engine))
        cce = system.cces[0]
        wg = cce.local_wg(BASE)
        accept, tick = cce.accept, cce.tick
        freed, taken = [], []

        def watched_accept(msg):
            accept(msg)
            if (msg.net is NetKind.Response
                    and msg.payload.kind is Emission.CohAck
                    and cce.pending.counters[wg] == 0):
                freed.append(system.now)

        def watched_tick(now):
            queued = len(cce.req_qs[1])
            tick(now)
            if queued and not cce.req_qs[1]:
                taken.append(now)

        cce.accept, cce.tick = watched_accept, watched_tick
        system.submit(0, BASE, write=False)
        system.submit(1, BASE, write=True, data=b"\x01" * 8)
        while not system.idle() and system.now < 200:
            system.advance(200)
        assert (freed[:1], taken[:1], system.now) == self.GOLDEN[engine]


@pytest.mark.parametrize("engine,fault", [("fsm", EngineFault),
                                          ("ucode", MicrocodeFault)])
def test_cohack_underflow_is_the_engines_fault(engine, fault):
    """A CohAck with nothing pending is consumed on arrival and raises the
    engine's own fault: a simulator bug under `fsm`, a firmware fault
    under `ucode`."""
    system = System(SystemConfig(cores=2, sets=8, engine=engine))
    cce = system.cces[0]
    ack = NetMessage(NetKind.Response, "lce1", cce.endpoint,
                     LceResponse(Emission.CohAck, 1, BASE + 0x40))
    with pytest.raises(fault, match="CohAck for 0x80000040 underflows the "
                                    "pending counter for way group 1$"):
        cce.accept(ack)


def test_checks_survive_optimized_python():
    """The engine's guards are exceptions, not asserts that -O strips."""
    script = """
from cohsim.cce import EngineFault
from cohsim.directory import Overflow, PendingBits
from cohsim.memory import BackingStore
from cohsim.messages import CohRequest, NetKind, NetMessage
from cohsim.system import System, SystemConfig

assert False  # stripped under -O
pend = PendingBits(1)
for _ in range(15):
    pend.adjust(0, +1)
try:
    pend.adjust(0, +1)
    raise SystemExit("pending-counter overflow went unnoticed")
except Overflow:
    pass
system = System(SystemConfig(cores=2, sets=8, num_cces=2))
wrong = system.cces[1]   # set 0 belongs to CCE 0
wrong.accept(NetMessage(net=NetKind.Request, src="lce0", dst=wrong.endpoint,
                        payload=CohRequest(lce=0, addr=0x8000_0000,
                                           write=False, lru_way=0)))
try:
    wrong.tick(0)
    raise SystemExit("mis-routed request went unnoticed")
except EngineFault:
    pass
try:
    BackingStore().write(4, bytes(8))
    raise SystemExit("misaligned store went unnoticed")
except ValueError:
    pass
try:
    SystemConfig(sets=3)
    raise SystemExit("non-power-of-two geometry went unnoticed")
except ValueError:
    pass
print("ok")
"""
    src = os.path.dirname(os.path.dirname(cohsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
