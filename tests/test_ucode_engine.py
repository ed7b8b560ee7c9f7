"""Microcoded engine pipeline: branch cost, multi-cycle units, ALU model."""

import pytest
from hypothesis import example, given, settings, strategies as st

from cohsim import harness
from cohsim.messages import (REQUEST, CohRequest, Emission, LceResponse,
                             NetMessage)
from cohsim.network import Network
from cohsim.occupancy import measure_occupancy
from cohsim.protocol import MOESIF, CoherenceState
from cohsim.system import System, SystemConfig
from cohsim.ucode import asm, engine as ucode_engine
from cohsim.ucode.engine import UcodeCce
from cohsim.ucode import isa
from cohsim.ucode.isa import NUM_GPRS, Op, encode
from test_ucode_asm import assemblable

I, S, E, M, O, F = CoherenceState
BASE = 0x8000_0000
MASK64 = (1 << 64) - 1


def make_engine(tmp_path, source, caches=2, req=None):
    """An engine running `source`; `req`, when given, is the request its
    instructions read, and its way group the one they index, as if a
    `popq req` had taken it."""
    path = tmp_path / "prog.ucs"
    path.write_text(source)
    cfg = SystemConfig(cores=caches, engine="ucode", ucode_program=str(path))
    eng = UcodeCce(0, cfg, Network(cfg), MOESIF)
    eng._req = req
    eng._req_wg = None if req is None else eng.local_wg(req.addr)
    return eng


def write_entry(eng, addr, lce, way, state):
    """Write cache `lce`'s directory entry at `way` for `addr`'s block."""
    eng.directory.write_entry(eng.local_wg(addr), eng.cfg.tag_of(addr), lce,
                              way, state)


def request(addr=BASE, lce=0, **kw):
    """A coherent read of `addr` by `lce`, unless `kw` says otherwise."""
    return CohRequest(lce=lce, addr=addr, write=False, **kw)


def busy_after(engine, ticks=100):
    """Run until the program parks at its final wait; return busy cycles."""
    for t in range(ticks):
        engine.tick(t)
    return engine.stats.busy_cycles


class TestBranchCost:
    @pytest.mark.parametrize("pt,expect_busy,expect_miss", [
        ("", 3, 1),      # taken, predicted not-taken: 1 bubble
        (" [pt]", 2, 0),  # taken, predicted taken: no bubble
    ])
    def test_taken_branch(self, tmp_path, pt, expect_busy, expect_miss):
        src = (f"  movi r1, 3\n"
               f"  beqi r1, 3, done{pt}\n"
               f"  nop\n"
               f"done: wfq resp\n")
        eng = make_engine(tmp_path, src)
        assert busy_after(eng) == expect_busy
        assert eng.mispredicts == expect_miss

    def test_not_taken_branch_is_free_of_bubbles(self, tmp_path):
        src = ("  movi r1, 3\n"
               "  beqi r1, 4, skip\n"
               "  nop\n"
               "skip: wfq resp\n")
        eng = make_engine(tmp_path, src)
        assert busy_after(eng) == 3   # movi, beqi, fall-through nop
        assert eng.mispredicts == 0

    def test_unconditional_jump_never_bubbles(self, tmp_path):
        src = "  bi done\n  nop\ndone: wfq resp\n"
        eng = make_engine(tmp_path, src)
        assert busy_after(eng) == 1
        assert eng.mispredicts == 0


class TestPredecode:
    def test_every_opcode_has_a_handler(self):
        assert set(ucode_engine._HANDLERS) == set(Op)

    def test_flag_tests(self, tmp_path):
        eng = make_engine(tmp_path, (
            "  sf wnr|af\n"
            "  andf r1, wnr|af\n"      # all set
            "  andf r2, wnr|ucf\n"
            "  orf r3, wnr|ucf\n"      # any set
            "  nandf r4, wnr|ucf\n"    # not all set
            "  nandf r5, wnr\n"
            "  notf r6, ucf|nex\n"     # none set
            "  notf r7, af\n"
            "  wfq resp\n"))
        busy_after(eng, ticks=20)
        assert eng.regs[1:] == [1, 0, 1, 1, 0, 1, 0]


class TestProgramEnd:
    """A program the assembler accepts can still run past its last
    instruction, as a test fragment ending in `wfq` does once its queue
    fills; that is a microcode fault, not an IndexError."""

    @pytest.mark.parametrize("source,resp", [
        ("  nop\n", False),
        ("  wfq resp\n", True),
    ])
    def test_falling_off_the_end_is_a_microcode_fault(self, tmp_path,
                                                      source, resp):
        eng = make_engine(tmp_path, source)
        if resp:
            eng.resp_q.append(LceResponse(kind=Emission.InvAck, lce=1,
                                          addr=BASE))
        with pytest.raises(ucode_engine.MicrocodeFault,
                           match="pc 1 is past the end"):
            busy_after(eng, ticks=3)


class TestReadFaults:
    """An instruction that reads the request before any `popq req`, the
    way-group read before `rdw`, names an owner the read did not find,
    writes back a response this request has not popped, or moves a
    pending counter or speculation bit past what the directory holds is
    a microcode fault naming the instruction; it writes and sends
    nothing."""

    @pytest.mark.parametrize("source,req,message", [
        ("  rdw\n", None,
         r"pc 0 \(rdw\) reads the request before the first popq req"),
        ("  mov r1, %reqway\n", request(),
         r"pc 0 \(mov r1, %reqway\) reads the way-group read before rdw"),
        ("  rdw\n  wds owner, I\n", request(),
         r"pc 1 \(wds owner, I\) names the owner, but no copy is an owner"),
        ("  rdw\n  pushq lcecmd inv owner\n", request(),
         r"pc 1 \(pushq lcecmd inv owner\) names the owner"),
        ("  pushq memcmd wb\n", request(),
         r"pc 0 \(pushq memcmd wb\) writes back a response, but this "
         r"request has popped none"),
        ("  wdp dec\n", request(),
         r"pc 0 \(wdp dec\) underflows the pending counter for way group 0"),
        ("  wdp inc\n" * 16, request(),
         r"pc 15 \(wdp inc\) overflows the pending counter for way group 0"),
        ("  specq set\n  specq set\n", request(),
         r"pc 1 \(specq set\) speculates twice on way group 0"),
        ("  specq set\n  pushq memcmd specread\n", request(),
         r"pc 1 \(pushq memcmd specread\) speculates twice on way group 0"),
        # Instructions that index the request's way group read the request.
        *((f"  {instr}\n", None, rf"pc 0 \({instr}\) reads the request "
           "before the first popq req")
          for instr in ("rdp", "wdp inc", "clp", "specq set",
                        "pushq memcmd specread")),
    ])
    def test_fault_names_the_instruction(self, tmp_path, source, req,
                                         message):
        eng = make_engine(tmp_path, source + "  wfq resp\n", req=req)
        with pytest.raises(ucode_engine.MicrocodeFault, match=message):
            busy_after(eng, ticks=20)
        assert eng.directory.snapshot() == {}
        assert eng.net.idle()

    def test_a_tick_after_a_fault_faults_again(self, tmp_path):
        """The sequencer ends at a fault; ticking on is the engine's fault
        too, not a bare StopIteration."""
        eng = make_engine(tmp_path, "  wdp dec\n  wfq resp\n", req=request())
        with pytest.raises(ucode_engine.MicrocodeFault, match="underflows"):
            eng.tick(0)
        with pytest.raises(ucode_engine.MicrocodeFault,
                           match="cce0 stopped at an earlier fault"):
            eng.tick(1)

    def test_popq_req_forgets_the_last_response(self, tmp_path):
        eng = make_engine(tmp_path, "  popq resp r1\n  popq req\n"
                                    "  pushq memcmd wb\n  wfq resp\n")
        eng.resp_q.append(LceResponse(kind=Emission.DirtyWB, lce=1,
                                      addr=BASE, data=bytes(64)))
        eng.req_qs[0].append(request())
        with pytest.raises(ucode_engine.MicrocodeFault,
                           match=r"pc 2 \(pushq memcmd wb\) writes back"):
            busy_after(eng, ticks=10)
        assert eng.net.idle()

    def test_fault_in_a_later_unit_cycle_names_the_unit(self, tmp_path):
        """A speculative read waiting for a memory credit sets its bit
        only once one is free; the fault still names the `pushq`."""
        eng = make_engine(tmp_path, "  pushq memcmd specread\n"
                                    "  wfq resp\n", req=request())
        eng.net.mem_credits_avail = 0
        eng.spec.set(eng.local_wg(BASE))
        busy_after(eng, ticks=5)
        assert eng.pc == 1
        eng.net.release_mem_credit()
        with pytest.raises(ucode_engine.MicrocodeFault, match=(
                r"pc 0 \(pushq memcmd specread\) speculates twice")):
            eng.tick(5)


class TestIdle:
    def test_a_unit_outside_a_transaction_keeps_the_system_busy(
            self, tmp_path):
        """An entry read with no transaction open still has a cycle to
        run after its first: the system is idle only once it is done."""
        path = tmp_path / "prog.ucs"
        path.write_text("ready: rde req\n  wfq req\n  popq req\n"
                        "  bi ready\n")
        system = System(SystemConfig(cores=2, engine="ucode",
                                     ucode_program=str(path)))
        idle = []
        for _ in range(3):
            system.step()
            idle.append(system.idle())
        assert idle == [False, False, True]


class TestPopqArbitrates:
    def test_popq_takes_a_request_that_arrived_after_wfq(self, tmp_path):
        """`wfq req` only waits until some queued head is admissible, and
        `popq req` arbitrates again: a request that arrives between the two
        instructions, earlier in round-robin order than the head `wfq req`
        saw, is the one `popq req` takes."""
        eng = make_engine(tmp_path, "  wfq req\n  popq req\n  wfq resp\n",
                          caches=4)

        def deliver(lce):
            eng.accept(NetMessage(REQUEST, f"lce{lce}", eng.endpoint,
                                  request(BASE + 64 * lce, lce=lce)))

        deliver(2)
        eng.tick(0)                 # wfq req sees cache 2's head
        assert (eng.pc, eng._req) == (1, None)
        deliver(1)
        eng.tick(1)                 # popq req
        assert eng._req.lce == 1
        assert [len(q) for q in eng.req_qs] == [0, 0, 1, 0]


@st.composite
def fuzz_programs(draw):
    """The source of 2 to 8 instructions the assembler can produce."""
    size = draw(st.integers(2, 8))
    return asm.disassemble([encode(draw(assemblable(size)))
                            for _ in range(size)])


class TestFirmwareFuzz:
    """Firmware is outside input: whatever program the assembler accepts
    runs, or stops with a `MicrocodeFault`, and raises nothing else."""

    @settings(max_examples=100, deadline=None)
    @given(source=fuzz_programs())
    # The directory's and the engine's own errors that drawn programs
    # once raised instead of a fault.
    @example(source="L0: pushq memcmd wb\n  rdp\n  bi L0\n")
    @example(source="L0: wdp dec\n  bi L0\n")
    @example(source="L0: wdp inc\n  bi L0\n")
    @example(source="  specq set\n  specq set\n")
    def test_runs_or_faults(self, tmp_path_factory, source):
        for with_request in (False, True):
            eng = make_engine(tmp_path_factory.getbasetemp(), source,
                              req=request() if with_request else None)
            if with_request:
                eng.req_qs[1].append(request(lce=1, addr=BASE + 64))
                eng.resp_q.append(LceResponse(kind=Emission.DirtyWB, lce=1,
                                              addr=BASE, data=bytes(64)))
            try:
                busy_after(eng, ticks=60)
            except ucode_engine.MicrocodeFault:
                pass


class TestMultiCycleUnits:
    @pytest.mark.parametrize("caches", [2, 4, 8, 16])
    def test_way_group_read_occupies_one_plus_half_caches(self, tmp_path,
                                                          caches):
        eng = make_engine(tmp_path, "  rdw\n  wfq resp\n", caches=caches,
                          req=request())
        assert busy_after(eng) == 1 + caches // 2

    @pytest.mark.parametrize("sharers", [1, 2, 3])
    def test_invalidation_costs_two_cycles_per_sharer(self, tmp_path,
                                                      sharers):
        eng = make_engine(tmp_path, "  rdw\n  gad\n  inv\n  wfq resp\n",
                          caches=4, req=request())
        for c in range(1, sharers + 1):
            write_entry(eng, BASE, c, 0, S)
            eng.resp_q.append(LceResponse(kind=Emission.InvAck, lce=c,
                                          addr=BASE))
        base = (1 + 4 // 2) + 1      # rdw + gad
        assert busy_after(eng) == base + 2 * sharers

    def test_invalidation_with_no_targets_is_free(self, tmp_path):
        eng = make_engine(tmp_path, "  rdw\n  gad\n  inv\n  nop\n  wfq resp\n",
                          caches=4, req=request())
        base = (1 + 4 // 2) + 1 + 1  # rdw + gad + trailing nop
        assert busy_after(eng) == base

    @pytest.mark.parametrize("invs", [0, 9])
    def test_invalidations_with_no_targets_fuse_in_any_number(self, tmp_path,
                                                              invs):
        """No-target `inv`s fuse with the instruction after them however
        many follow one another: only `popq req`, `rdw` and the trailing
        `nop` take cycles, on a block no other cache holds."""
        eng = make_engine(tmp_path, "  popq req\n  rdw\n" + "  inv\n" * invs
                          + "  nop\n  wfq resp\n", caches=4)
        eng.req_qs[0].append(request())
        busy = 1 + (1 + 4 // 2) + 1  # popq req + rdw + trailing nop
        assert busy_after(eng) == busy
        assert eng.pc == 3 + invs
        assert eng._txn.busy_cycles == busy


class TestSpecials:
    """`mov rN, %special` after `popq req; rdw; gad` reads the request
    taken and the way-group read made for it, on a preloaded way group
    with and without an owner copy."""

    STATE_CODE = {CoherenceState(name): code
                  for code, name in enumerate(isa.STATES)}

    @staticmethod
    def preload(eng, with_owner):
        """Four caches; the requester, cache 1, names way 1 as its LRU way,
        which holds another block of the set."""
        cfg = eng.cfg
        addr = BASE + 5 * cfg.block_bytes
        other = addr + 3 * cfg.sets * cfg.block_bytes
        write_entry(eng, addr, 0, 2, S)
        write_entry(eng, other, 1, 1, M)
        if with_owner:
            write_entry(eng, addr, 2, 3, O)
            write_entry(eng, addr, 3, 0, S)
        else:
            write_entry(eng, addr, 1, 2, S)
        return CohRequest(lce=1, addr=addr, write=True, lru_way=1)

    @pytest.mark.parametrize("with_owner", [True, False])
    @pytest.mark.parametrize("special", isa.SPECIALS)
    def test_special_reads_request_and_way_group_read(self, tmp_path,
                                                      special, with_owner):
        eng = make_engine(tmp_path, "  popq req\n  rdw\n  gad\n"
                          f"  mov r1, %{special}\n  wfq resp\n", caches=4)
        req = self.preload(eng, with_owner)
        eng.accept(NetMessage(REQUEST, "lce1", eng.endpoint, req))
        busy_after(eng, ticks=20)
        found = eng.directory.read_way_group(
            eng.local_wg(req.addr), eng.cfg.tag_of(req.addr), req.lce,
            req.lru_way)
        assert (found.owner is not None) is with_owner
        owner_lce, _, owner_state = found.owner or (0, 0, I)
        code = self.STATE_CODE
        expect = {
            "reqaddr": req.addr, "reqlce": req.lce,
            "reqstate": code[found.req_state],
            "ownerlce": owner_lce, "ownerstate": code[owner_state],
            "reqway": found.req_way, "lruway": req.lru_way,
            "lrutag": found.lru_tag,
            "setindex": eng.cfg.set_index(req.addr),
            "sharers": found.sharers, "reqsize": req.size,
        }
        assert set(expect) == set(isa.SPECIALS)
        assert eng.regs[1] == expect[special]


class TestFastPath:
    def test_read_miss_fast_path_has_no_mispredicts(self):
        # The common-case dispatch is arranged so a clean read miss falls
        # straight through every branch.
        cfg = SystemConfig(cores=4, sets=8, engine="ucode")
        system = System(cfg)
        system.submit(0, BASE, write=False)
        system.run()
        assert system.lces[0].completed is not None
        assert system.cces[0].mispredicts == 0

    def test_fast_path_occupancy(self):
        assert measure_occupancy("read_excl_ii", cores=8, engine="ucode") == \
            12 + 4


_ALU_OPS = ["add", "sub", "and", "or", "xor", "sll", "srl"]


class TestUncachedToCacheable:
    """An uncached access from cache 0 to a cacheable block that cache 0
    itself (holder 0) or another cache (holder 1) holds: the engines take
    the block back, then go to memory."""

    @staticmethod
    def run(engine, holder, state, op):
        system = System(SystemConfig(cores=2, sets=8, engine=engine))
        system.preload_line(holder, BASE, state, data=bytes(range(64)))
        system.submit(0, BASE + 8, write=op == "STU", uncached=True,
                      data=b"\x5a" * 8 if op == "STU" else None)
        system.run()
        assert system.idle() and system.lces[0].miss is None
        return (harness._memory_image(system),
                [lce.snapshot() for lce in system.lces],
                harness._dir_image(system), system.lces[0].completed)

    @pytest.mark.parametrize("op", ["LDU", "STU"])
    @pytest.mark.parametrize("state", [S, E, M, O, F])
    @pytest.mark.parametrize("holder", [0, 1])
    def test_engines_agree(self, holder, state, op):
        fsm = self.run("fsm", holder, state, op)
        assert fsm == self.run("ucode", holder, state, op)
        if op == "LDU":
            assert fsm[3] == bytes(range(8, 16))


def reference_run(lines):
    """Independent interpreter for straight-line register programs."""
    regs = [0] * NUM_GPRS

    def val(tok):
        return regs[int(tok[1:])]

    for mnem, args in lines:
        if mnem == "movi":
            regs[int(args[0][1:])] = args[1] & MASK64
        elif mnem == "mov":
            regs[int(args[0][1:])] = val(args[1])
        else:
            a, b = val(args[1]), val(args[2])
            out = {"add": a + b, "sub": a - b, "and": a & b, "or": a | b,
                   "xor": a ^ b, "sll": a << (b & 63),
                   "srl": a >> (b & 63)}[mnem]
            regs[int(args[0][1:])] = out & MASK64
    return regs


@st.composite
def alu_programs(draw):
    lines = [("movi", (f"r{r}", draw(st.integers(-32768, 32767))))
             for r in range(NUM_GPRS)]
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["alu", "mov"]))
        rd = f"r{draw(st.integers(0, 7))}"
        if kind == "mov":
            lines.append(("mov", (rd, f"r{draw(st.integers(0, 7))}")))
        else:
            lines.append((draw(st.sampled_from(_ALU_OPS)),
                          (rd, f"r{draw(st.integers(0, 7))}",
                           f"r{draw(st.integers(0, 7))}")))
    return lines


class TestAluDifferential:
    @settings(max_examples=80, deadline=None)
    @given(alu_programs())
    def test_matches_reference_interpreter(self, tmp_path_factory, lines):
        src = "".join(f"  {m} {', '.join(str(a) for a in args)}\n"
                      for m, args in lines) + "  wfq resp\n"
        tmp = tmp_path_factory.mktemp("alu")
        eng = make_engine(tmp, src)
        busy_after(eng, ticks=len(lines) + 10)
        assert eng.regs == reference_run(lines)


class TestProgramCache:
    """Engines built from the same microcode share one assembled and
    decoded program; other text gets its own, and a source that fails to
    assemble fails every build."""

    def test_same_source_shares_one_decoded_program(self):
        a = System(SystemConfig(engine="ucode", num_cces=2))
        b = System(SystemConfig(engine="ucode"))
        assert a.cces[0].imem is a.cces[1].imem is b.cces[0].imem

    def test_other_text_gets_its_own_program(self, tmp_path):
        source = ucode_engine.default_program("moesif")
        path = tmp_path / "extra.ucs"
        path.write_text(source + "  nop\n")
        shipped = System(SystemConfig(engine="ucode")).cces[0].imem
        extra = System(SystemConfig(engine="ucode",
                                    ucode_program=str(path))).cces[0].imem
        assert extra is not shipped
        assert len(extra) == len(shipped) + 1
        assert [u.op for u in extra[:-1]] == [u.op for u in shipped]

    def test_assembled_words_cannot_be_changed_by_a_caller(self):
        source = ucode_engine.default_program("mesi")
        words = asm.assemble_words(source)
        words[0] ^= 1
        assert asm.assemble_words(source)[0] == words[0] ^ 1

    def test_assembly_error_raises_on_every_build(self, tmp_path):
        path = tmp_path / "bad.ucs"
        path.write_text("  nop\n  bogus r1\n")
        for _ in range(2):
            with pytest.raises(asm.AsmError, match="bogus"):
                System(SystemConfig(engine="ucode", ucode_program=str(path)))
