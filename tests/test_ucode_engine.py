"""Microcoded engine pipeline: branch cost, multi-cycle units, ALU model."""

import pytest
from hypothesis import given, settings, strategies as st

from cohsim import harness
from cohsim.directory import SegmentConfig
from cohsim.messages import Emission, LceResponse
from cohsim.network import NetConfig, Network
from cohsim.occupancy import measure_occupancy
from cohsim.protocol import CoherenceState
from cohsim.system import System, SystemConfig
from cohsim.ucode import asm, engine as ucode_engine
from cohsim.ucode.engine import UcodeCce
from cohsim.ucode.isa import NUM_GPRS, Op

I, S, E, M, O, F = CoherenceState
BASE = 0x8000_0000
MASK64 = (1 << 64) - 1


def make_engine(tmp_path, source, caches=2):
    path = tmp_path / "prog.ucs"
    path.write_text(source)
    net = Network(NetConfig())
    seg = SegmentConfig(num_caches=caches)
    return UcodeCce(0, seg, net, program=str(path))


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


class TestMultiCycleUnits:
    @pytest.mark.parametrize("caches", [2, 4, 8, 16])
    def test_way_group_read_occupies_one_plus_half_caches(self, tmp_path,
                                                          caches):
        eng = make_engine(tmp_path, "  rdw\n  wfq resp\n", caches=caches)
        assert busy_after(eng) == 1 + caches // 2

    @pytest.mark.parametrize("sharers", [1, 2, 3])
    def test_invalidation_costs_two_cycles_per_sharer(self, tmp_path,
                                                      sharers):
        eng = make_engine(tmp_path, "  rdw\n  gad\n  inv\n  wfq resp\n",
                          caches=4)
        eng.umshr.addr = BASE
        eng.umshr.lce = 0
        for c in range(1, sharers + 1):
            eng.directory.write_entry(BASE, c, 0, state=S)
            eng.resp_q.append(LceResponse(kind=Emission.InvAck, lce=c,
                                          addr=BASE))
        base = (1 + 4 // 2) + 1      # rdw + gad
        assert busy_after(eng) == base + 2 * sharers

    def test_invalidation_with_no_targets_is_free(self, tmp_path):
        eng = make_engine(tmp_path, "  rdw\n  gad\n  inv\n  nop\n  wfq resp\n",
                          caches=4)
        eng.umshr.addr = BASE
        base = (1 + 4 // 2) + 1 + 1  # rdw + gad + trailing nop
        assert busy_after(eng) == base


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
