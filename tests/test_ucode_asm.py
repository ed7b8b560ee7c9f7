"""Microcode assembler, disassembler, and binary container."""

import pytest
from hypothesis import given, settings, strategies as st

from cohsim.ucode import asm, isa
from cohsim.ucode.asm import AsmError, MAGIC, VERSION
from cohsim.ucode.isa import (EncodingError, FIELDS, IMEM_SIZE, NO_STATE,
                              Op, SIGNED_FIELDS, decode, encode, make)


def field_strategy(fmt, name):
    hi, lo = FIELDS[fmt][name]
    width = hi - lo + 1
    if (fmt, name) in SIGNED_FIELDS:
        return st.integers(-(1 << (width - 1)), (1 << (width - 1)) - 1)
    return st.integers(0, (1 << width) - 1)


@st.composite
def instrs(draw):
    op = draw(st.sampled_from(sorted(Op, key=lambda o: o.opcode)))
    fields = {name: draw(field_strategy(op.fmt, name))
              for name in FIELDS[op.fmt]}
    return make(op, **fields)


class TestEncoding:
    @settings(max_examples=500, deadline=None)
    @given(instrs())
    def test_roundtrip(self, instr):
        assert decode(encode(instr)) == instr

    def test_out_of_range_field_rejected(self):
        with pytest.raises(EncodingError):
            encode(make(Op.WDE, state=8))
        with pytest.raises(EncodingError):
            encode(make(Op.MOVI, rd=0, imm=1 << 20))

    def test_bad_opcode_rejected(self):
        with pytest.raises(EncodingError):
            decode(63 << 26)


PROGRAM = """\
# exercise every syntactic form
start:
  nop
  movi r1, -5
  mov r2, r1
  mov r3, %sharers
  add r4, r2, r3
  beqi r1, 3, start [pt]
  bne r1, r2, start
  sf rf|uf
  andf r5, csf|cef
  bfnz wnr|cmf, start
  rdp
  wdp inc
  rdw
  gad
  rde owner
  wde S
  wds owner, F
  specq set
  specq fwd_mod M
  wfq req|resp
  pushq memcmd specread wp
  pushq lcecmd st_tr_wb owner, st=F, tr=S
  pushq lcecmd st_wb req, addr=victim, st=I
  popq resp r7
  poph memresp
  inv
  clp
  clr
  bi start
"""


class TestAssembler:
    def test_assemble_disassemble_fixpoint(self):
        words = asm.assemble_words(PROGRAM)
        listing = asm.disassemble(words)
        assert asm.assemble_words(listing) == words

    def test_labels_resolve(self):
        words = asm.assemble_words("a: nop\n bi b\nb: nop\n bi a\n")
        assert decode(words[1])["target"] == 2
        assert decode(words[3])["target"] == 0

    @pytest.mark.parametrize("source,fragment", [
        ("frob r1", "unknown mnemonic"),
        ("mov r9, r1", "expected register"),
        ("bf zzz, nowhere", "unknown flag"),
        ("bi nowhere", "undefined label"),
        ("wde Q", "unknown state"),
        ("beqi r0, 99, x\nx: nop", "out of range"),
        ("dup: nop\ndup: nop", "duplicate label"),
        ("pushq lcecmd st_wb req, addr=self", "addr= takes only"),
        ("movi r1, 100000", "out of range"),
        ("bi 600", "out of range"),
        ("nop [pt]", "unexpected operand"),
        ("pushq memcmd specread, st=I", "unexpected operand"),
        ("popq req r1 r2", "unexpected operand"),
        ("poph resp wp", "unexpected operand"),
        ("bi 5", "past the end"),
        ("  beqi r0, 1, end\n  bi 0\nend:", "past the end"),
        ("popq req r1", "takes no rd or wp"),
        ("popq req wp", "takes no rd or wp"),
        ("poph req", "cannot read the request queue"),
        ("poph req r1", "cannot read the request queue"),
    ])
    def test_errors_carry_line_numbers(self, source, fragment):
        with pytest.raises(AsmError) as exc:
            asm.assemble(source)
        assert fragment in str(exc.value)
        assert exc.value.line_no >= 1

    def test_imem_overflow(self):
        with pytest.raises(AsmError, match="instruction memory"):
            asm.assemble("nop\n" * (IMEM_SIZE + 1))

    def test_comments_and_blank_lines_ignored(self):
        assert asm.assemble("# nothing\n\n  nop  # trailing\n") == \
            asm.assemble("nop")


@st.composite
def assemblable(draw, size):
    """An instruction the assembler can produce, in a program of `size`
    instructions: masks non-empty, codes inside their name tables,
    targets inside the program, a `poph` reading a queue other than
    req, and each field the source form leaves out holding what the
    assembler writes there."""
    op = draw(st.sampled_from(sorted(Op, key=lambda o: o.opcode)))
    fields = {}
    for name in FIELDS[op.fmt]:
        if name == "target":
            values = st.integers(0, size - 1)
        elif name in isa.MASKS:
            values = st.integers(1, (1 << len(isa.MASKS[name])) - 1)
        elif name in isa.NAMES or name == "kind":
            names = isa.names(name, fields.get("dest", 0))
            values = st.integers(0, len(names) - 1)
        else:
            values = field_strategy(op.fmt, name)
        fields[name] = draw(values)
    if op is Op.PUSHQ and isa.name_of("dest", fields["dest"]) == "memcmd":
        fields.update(cmd_target=0, addr_sel=0, state=NO_STATE,
                      tr_state=NO_STATE)
    elif op is Op.PUSHQ:
        fields["wp"] = 0
        for name in ("state", "tr_state"):
            if draw(st.booleans()):
                fields[name] = NO_STATE
    elif (op is Op.SPECQ
          and isa.name_of("spec_cmd", fields["spec_cmd"]) != "fwd_mod"):
        fields["state"] = NO_STATE
    elif op is Op.POPQ and isa.name_of("queue", fields["queue"]) == "req":
        fields.update(rd=0, wp=0)
    elif op is Op.POPH:
        fields["wp"] = 0
        fields["queue"] = draw(st.integers(1, len(isa.QUEUES) - 1))
    return make(op, **fields)


@st.composite
def programs(draw):
    size = draw(st.integers(1, 4))
    return [draw(assemblable(size)) for _ in range(size)]


class TestEveryInstruction:
    @settings(max_examples=300, deadline=None)
    @given(programs())
    def test_disassembly_assembles_to_the_same_words(self, program):
        words = [encode(i) for i in program]
        assert asm.assemble_words(asm.disassemble(words)) == words


class TestUnlistableWords:
    """A word whose fields its source form cannot write has no listing:
    disassembling it raises instead of dropping the bits."""

    @pytest.mark.parametrize("fields", [
        dict(cmd_target=1), dict(addr_sel=1), dict(state=3),
    ], ids=["cmd_target", "addr_sel", "state"])
    def test_pushq_memcmd_with_lcecmd_fields(self, fields):
        base = dict(dest=1, kind=0, state=NO_STATE, tr_state=NO_STATE)
        assert asm.disassemble([encode(make(Op.PUSHQ, **base))]) == \
            "  pushq memcmd specread\n"
        word = encode(make(Op.PUSHQ, **{**base, **fields}))
        with pytest.raises(EncodingError, match="word 0 sets bits"):
            asm.disassemble([word])

    def test_poph_with_wp(self):
        assert asm.disassemble([encode(make(Op.POPH, queue=1, rd=2))]) == \
            "  poph resp r2\n"
        with pytest.raises(EncodingError, match="'poph resp r2' cannot show"):
            asm.disassemble([encode(make(Op.POPH, queue=1, rd=2, wp=1))])


class TestBinaryContainer:
    def test_roundtrip(self):
        words = asm.assemble_words(PROGRAM)
        blob = asm.to_binary(words)
        assert blob[:4] == MAGIC
        assert asm.from_binary(blob) == words

    def test_bad_magic_and_version(self):
        with pytest.raises(EncodingError, match="magic"):
            asm.from_binary(b"XXXX\x00\x00\x00\x00")
        blob = bytearray(asm.to_binary([0]))
        blob[4] = 99
        with pytest.raises(EncodingError, match="version"):
            asm.from_binary(bytes(blob))


class TestShippedPrograms:
    @pytest.mark.parametrize("name", ["moesif", "mesi"])
    def test_assembles_within_imem(self, name):
        import importlib.resources as res
        source = (res.files("cohsim.ucode") / "programs" /
                  f"{name}.ucs").read_text()
        program = asm.assemble(source)
        assert 0 < len(program) <= IMEM_SIZE
