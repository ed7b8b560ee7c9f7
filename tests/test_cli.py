"""Command-line interface: every subcommand, exit codes, stable output."""

import re

import pytest

from cohsim import harness
from cohsim.cli import load_config, main
from cohsim.ucode import asm
from cohsim.ucode.engine import default_program
from cohsim.ucode.isa import NO_STATE, Op, encode, make


_ST = "[ISEMOF]"
# Every transition label the model checker prints in a counterexample.
CHECK_LABELS = (
    rf"cache \d+: store hit in {_ST}",
    rf"cache \d+: write request from {_ST}",
    r"cache \d+: (read|read-ne) request",
    rf"cache \d+: evict {_ST} block",
    rf"cache \d+: (Inv|DATA|STW|WB|ST-WB|TR|ST-TR|ST-TR-WB) -> {_ST}",
    r"directory: collect InvAck from cache \d+",
    r"directory: consume (dirty|null) writeback from cache \d+",
    r"directory: transaction done \(CohAck\)",
    r"directory: drop stale replacement from cache \d+",
    rf"directory: accept (read|read-ne|write|replace) from cache \d+ "
    rf"\(dir state {_ST}\)",
)


@pytest.fixture
def trace_file(tmp_path):
    ops = harness.random_workload(seed=4, lces=2, ops=80,
                                  footprint_blocks=16)
    path = tmp_path / "trace.txt"
    path.write_text(harness.format_trace(ops))
    return str(path)


class TestConfig:
    def test_load_config(self, tmp_path):
        path = tmp_path / "sys.cfg"
        path.write_text("# system\ncores = 4\nsets = 0x10\nengine = ucode\n")
        cfg = load_config(str(path))
        assert (cfg.cores, cfg.sets, cfg.engine) == (4, 16, "ucode")

    def test_bad_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "sys.cfg"
        path.write_text("flux_capacitors = 3\n")
        with pytest.raises(SystemExit) as exc:
            load_config(str(path))
        assert exc.value.code == 2
        assert "bad config line" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("cores = two\n", "cores needs an integer, got 'two'"),
        ("sets = 3\n", "sets must be a power of two, got 3"),
        ("sets = 8\nnum_cces = 16\n", "num_cces must be between 1 and sets"),
        ("ordering = rnd\n", "bad config line"),
        ("protocol = msi\n", "protocol must be one of moesif, mesi"),
        ("beat_bytes = 0\n", "beat_bytes must be a power of two no larger "
                             "than block_bytes (64), got 0"),
    ])
    def test_bad_value_exits_2_with_one_line(self, tmp_path, capsys, text,
                                             message):
        path = tmp_path / "sys.cfg"
        path.write_text(text)
        trace = tmp_path / "t.txt"
        trace.write_text("0 LD 0x80000000\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(path), "--trace", str(trace)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1


class TestSimulate:
    def test_fsm_run(self, trace_file, tmp_path, capsys):
        report = tmp_path / "report.csv"
        rc = main(["simulate", "--trace", trace_file, "--engine", "fsm",
                   "--report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine: fsm" in out and "monitor violations: 0" in out
        header, row = report.read_text().splitlines()
        assert header.startswith("engine,")
        assert row.startswith("fsm,80,")

    def test_config_file(self, trace_file, tmp_path, capsys):
        cfg = tmp_path / "sys.cfg"
        cfg.write_text("cores = 2\nsets = 16\nengine = ucode\n")
        assert main(["simulate", "--config", str(cfg),
                     "--trace", trace_file]) == 0
        assert "engine: ucode" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_microcode_fault_exits_2_with_one_error_line(tmp_path, capsys,
                                                     command):
    """Firmware is outside input: a fault in it is one error line and
    exit 2, not a traceback."""
    firmware = tmp_path / "bad.ucs"
    firmware.write_text("ready: wfq req\n  popq req\n  wdp dec\n"
                        "  bi ready\n")
    trace = tmp_path / "t.txt"
    trace.write_text("0 LD 0x80000000\n")
    if command == "simulate":
        argv = ["simulate", "--engine", "ucode", "--ucode", str(firmware),
                "--trace", str(trace)]
    else:
        cfg = tmp_path / "sys.cfg"
        cfg.write_text(f"ucode_program = {firmware}\n")
        argv = ["compare", "--config", str(cfg), "--trace", str(trace)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", (
        "cohsim: error: microcode fault: pc 2 (wdp dec) underflows the "
        "pending counter for way group 0\n"))


# Firmware whose memory read is sent without `wp`, so its response
# underflows the way group's pending counter when the core forwards it.
UNPENDED_READ = ("ready: popq req\n  pushq memcmd specread\n  rdw\n  gad\n"
                 "  specq unset\n  wde E\n  wds req, E\n  bi ready\n")


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_message_unit_underflow_is_a_microcode_fault(tmp_path, capsys,
                                                     command):
    """A memory response that underflows its pending counter is a fault
    of the firmware that names the way group and the message."""
    firmware = tmp_path / "unpended.ucs"
    firmware.write_text(UNPENDED_READ)
    trace = tmp_path / "t.txt"
    trace.write_text("0 LD 0x800001c0\n")
    if command == "simulate":
        argv = ["simulate", "--engine", "ucode", "--ucode", str(firmware),
                "--trace", str(trace)]
    else:
        cfg = tmp_path / "sys.cfg"
        cfg.write_text(f"ucode_program = {firmware}\n")
        argv = ["compare", "--config", str(cfg), "--trace", str(trace)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "cohsim: error: microcode fault: memory response for 0x800001c0 "
        "underflows the pending counter for way group 7\n")


# Outside input to `simulate` and `compare`: case -> (argv with {d} for the
# directory of the files below, the one error line after "cohsim: error: ").
OUTSIDE_INPUT = {
    "ucode-does-not-assemble": (
        "simulate --engine ucode --ucode {d}/frob.ucs --trace {d}/t.txt",
        "microcode does not assemble: line 1: unknown mnemonic 'frob'"),
    "assemble-does-not-assemble": (
        "assemble {d}/frob.ucs -o {d}/frob.bin",
        "microcode does not assemble: line 1: unknown mnemonic 'frob'"),
    "config-ucode-does-not-assemble": (
        "compare --config {d}/frob.cfg --trace {d}/t.txt",
        "microcode does not assemble: line 1: unknown mnemonic 'frob'"),
    "trace-missing": (
        "simulate --trace {d}/missing.txt",
        "{d}/missing.txt: No such file or directory"),
    "ucode-missing": (
        "simulate --engine ucode --ucode {d}/missing.ucs --trace {d}/t.txt",
        "{d}/missing.ucs: No such file or directory"),
    "config-missing": (
        "compare --config {d}/missing.cfg --trace {d}/t.txt",
        "{d}/missing.cfg: No such file or directory"),
    "trace-does-not-parse": (
        "simulate --trace {d}/frob.txt",
        "{d}/frob.txt: line 1: '0 FROB 0x0': unknown op 'FROB'"),
    "trace-names-missing-cache": (
        "compare --trace {d}/cache5.txt",
        "{d}/cache5.txt: op 1: no such cache 5"),
    "trace-misaligned": (
        "simulate --trace {d}/misaligned.txt",
        "{d}/misaligned.txt: line 1: '0 LDU 0x1003': "
        "address 0x1003 is not 8-byte aligned"),
    "trace-crosses-a-block": (
        "compare --trace {d}/crossing.txt",
        "{d}/crossing.txt: line 1: '0 LD 0x80000039': "
        "address 0x80000039 is not 8-byte aligned"),
    "trace-negative-address": (
        "simulate --trace {d}/negative.txt",
        "{d}/negative.txt: line 1: '0 LD -0x10': "
        "address -0x10 is not a 64-bit address"),
    "trace-cached-op-uncacheable": (
        "simulate --trace {d}/uncacheable.txt",
        "{d}/uncacheable.txt: line 1: '0 LD 0x1000': "
        "LD needs a cacheable address, got 0x1000"),
    "trace-data-too-wide": (
        "simulate --trace {d}/wide.txt",
        "{d}/wide.txt: line 1: '0 ST 0x80000000 0x1ffffffffffffffff': "
        "data 0x1ffffffffffffffff is not a 64-bit word"),
    "trace-store-without-data": (
        "compare --trace {d}/nodata.txt",
        "{d}/nodata.txt: line 1: '0 ST 0x80000000': ST needs a data word"),
    "trace-sc-without-data": (
        "simulate --trace {d}/sc.txt",
        "{d}/sc.txt: line 2: '0 SC 0x80000000': SC needs a data word"),
    "trace-load-with-data": (
        "simulate --trace {d}/lddata.txt",
        "{d}/lddata.txt: line 1: '0 LD 0x80000000 0x5': "
        "LD takes no data word"),
    "trace-lr-with-data": (
        "compare --trace {d}/lrdata.txt",
        "{d}/lrdata.txt: line 1: '0 LR 0x80000000 0x3': "
        "LR takes no data word"),
    "trace-five-fields": (
        "simulate --trace {d}/five.txt",
        "{d}/five.txt: line 1: '0 ST 0x80000000 0x5 0x9': "
        "5 fields; a line has at most 4"),
    "trace-fence-with-address": (
        "simulate --trace {d}/fence.txt",
        "{d}/fence.txt: line 1: '0 FENCE 0x10': FENCE takes no address"),
}


@pytest.mark.parametrize("case", OUTSIDE_INPUT)
def test_outside_input_exits_2_with_one_error_line(tmp_path, capsys, case):
    """An unreadable, unparsable or unassemblable input file is one error
    line and exit 2, not a traceback."""
    files = {"frob.ucs": "frob\n",
             "frob.cfg": "ucode_program = {d}/frob.ucs\n",
             "t.txt": "0 LD 0x80000000\n", "frob.txt": "0 FROB 0x0\n",
             "cache5.txt": "0 LD 0x80000000\n5 LD 0x80000000\n",
             "misaligned.txt": "0 LDU 0x1003\n",
             "crossing.txt": "0 LD 0x80000039\n",
             "negative.txt": "0 LD -0x10\n",
             "uncacheable.txt": "0 LD 0x1000\n",
             "wide.txt": "0 ST 0x80000000 0x1ffffffffffffffff\n",
             "nodata.txt": "0 ST 0x80000000\n",
             "sc.txt": "0 LR 0x80000000\n0 SC 0x80000000\n",
             "lddata.txt": "0 LD 0x80000000 0x5\n",
             "lrdata.txt": "0 LR 0x80000000 0x3\n",
             "five.txt": "0 ST 0x80000000 0x5 0x9\n",
             "fence.txt": "0 FENCE 0x10\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text.format(d=tmp_path))
    argv, message = (s.format(d=tmp_path) for s in OUTSIDE_INPUT[case])
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"cohsim: error: {message}\n")


class TestMicrocodeTools:
    def test_assemble_and_disasm(self, tmp_path, capsys):
        src = tmp_path / "p.ucs"
        src.write_text(default_program("moesif"))
        binary = tmp_path / "p.bin"
        assert main(["assemble", str(src), "-o", str(binary)]) == 0
        assert binary.read_bytes()[:4] == b"UCOH"
        capsys.readouterr()
        assert main(["disasm", str(binary)]) == 0
        listing = capsys.readouterr().out
        assert "wfq req" in listing and "pushq memcmd specread" in listing

    @pytest.mark.parametrize("blob,message", [
        (b"XXXX" + asm.to_binary([0])[4:], "bad magic"),
        (asm.to_binary([0, 0])[:-3], "header gives 2 words"),
        (asm.to_binary([63 << 26]), "bad opcode 63"),
        (asm.to_binary([Op.POPQ.opcode << 26 | 3 << 24]), "queue code 3"),
        (asm.to_binary([Op.WDE.opcode << 26 | 6]), "state code 6"),
        (asm.to_binary([0, encode(make(Op.POPH, queue=1, rd=2, wp=1))]),
         "word 1 sets bits"),
        (asm.to_binary([encode(make(Op.PUSHQ, dest=1, cmd_target=1,
                                    state=NO_STATE, tr_state=NO_STATE))]),
         "word 0 sets bits"),
    ], ids=["magic", "truncated", "opcode-63", "queue-3", "state-6",
            "poph-wp", "memcmd-target"])
    def test_disasm_bad_binary_exits_2_with_one_line(self, tmp_path, capsys,
                                                     blob, message):
        path = tmp_path / "bad.bin"
        path.write_bytes(blob)
        with pytest.raises(SystemExit) as exc:
            main(["disasm", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cohsim: error: ")
        assert message in captured.err and captured.err.count("\n") == 1


class TestCheck:
    def test_verified(self, capsys):
        assert main(["check", "--protocol", "mesi", "--caches", "2"]) == 0
        assert "verified" in capsys.readouterr().out.lower()

    def test_mutation_fails(self, capsys):
        rc = main(["check", "--protocol", "moesif", "--caches", "2",
                   "--mutation", "drop-invalidations"])
        assert rc == 1

    def test_counterexample_steps(self, capsys):
        rc = main(["check", "--protocol", "mesi", "--caches", "3",
                   "--mutation", "drop-invalidations"])
        assert rc == 1
        head, *steps = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"VIOLATION at depth 7 \(\d+ states explored\): "
                            r"SWMR: .*", head)
        assert len(steps) == 7
        for n, line in enumerate(steps, 1):
            number, label = line.split(". ", 1)
            assert number == f"  {n}"
            assert any(re.fullmatch(p, label) for p in CHECK_LABELS), label
        labels = "\n".join(steps)
        assert re.search(r"cache \d: (read|read-ne|write) request", labels)
        assert re.search(r"directory: accept \S+ from cache \d "
                         r"\(dir state [IS]\)", labels)

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--protocol", "mosi"])
        assert exc.value.code == 2


class TestOccupancy:
    def test_fsm_csv(self, tmp_path, capsys):
        out = tmp_path / "occ.csv"
        rc = main(["occupancy", "--engine", "fsm", "--cores", "4",
                   "-o", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.splitlines()[0] == \
            "scenario,engine,cores,sharers,beats,measured,model,match"
        assert ",false" not in text

    def test_protocol_flag_removed(self, capsys):
        """The occupancy scenarios and models are MOESIF's only."""
        with pytest.raises(SystemExit) as exc:
            main(["occupancy", "--engine", "fsm", "--protocol", "mesi"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --protocol mesi" in \
            capsys.readouterr().err


class TestCompare:
    def test_engines_agree(self, trace_file, capsys):
        assert main(["compare", "--trace", trace_file]) == 0
        assert "equivalent" in capsys.readouterr().out


class TestOverhead:
    def test_duplicate_tag_output(self, capsys):
        assert main(["overhead", "--scheme", "dup", "--caches", "64"]) == 0
        assert capsys.readouterr().out == "6.25%\n"

    def test_complete(self, capsys):
        assert main(["overhead", "--scheme", "complete",
                     "--caches", "33"]) == 0
        assert capsys.readouterr().out == "12.50%\n"


@pytest.mark.parametrize("argv,message", [
    (["check", "--caches", "256"],
     "cohsim: error: caches must be from 1 to 255, got 256"),
    (["check", "--caches", "-1"],
     "cohsim: error: caches must be from 1 to 255, got -1"),
    (["check", "--mutation", "nonsense"],
     "argument --mutation: invalid choice: 'nonsense'"),
    (["overhead", "--scheme", "foo", "--caches", "4"],
     "cohsim: error: unknown scheme 'foo'"),
    (["overhead", "--scheme", "dup", "--caches", "1"],
     "cohsim: error: need at least 2 caches"),
    (["tracegen", "--seed", "1", "--lces", "0"],
     "cohsim: error: lces must be at least 1, got 0"),
    (["overhead", "--scheme", "dup", "--caches", "4", "--tag-bits", "-100"],
     "cohsim: error: tag_bits must not be negative, got -100"),
    (["overhead", "--scheme", "coarse:x", "--caches", "4"],
     "cohsim: error: coarse vector width must be a positive integer, "
     "got 'x'"),
    (["check", "--max-states", "0"],
     "cohsim: error: max_states must be at least 1, got 0"),
    (["occupancy", "--engine", "fsm", "--cores", "1"],
     "cohsim: error: occupancy scenarios need at least 2 cores, got 1"),
    (["occupancy", "--engine", "ucode", "--cores", "0"],
     "cohsim: error: occupancy scenarios need at least 2 cores, got 0"),
    (["tracegen", "--seed", "1", "--ops", "-5"],
     "cohsim: error: ops must not be negative, got -5"),
    (["tracegen", "--seed", "1", "--write-ratio", "3", "--sharing", "-1"],
     "cohsim: error: write_ratio must be from 0 to 1, got 3.0"),
    (["tracegen", "--seed", "1", "--sharing", "-1"],
     "cohsim: error: sharing must be from 0 to 1, got -1.0"),
    (["tracegen", "--seed", "1", "--sharing", "nan"],
     "cohsim: error: sharing must be from 0 to 1, got nan"),
    (["tracegen", "--seed", "1", "--footprint", "0"],
     "cohsim: error: footprint must be at least 1, got 0"),
    (["check", "--caches", "0"],
     "cohsim: error: caches must be from 1 to 255, got 0"),
])
def test_bad_input_exits_2_with_one_error_line(capsys, argv, message):
    """Bad input is an error line and exit 2, not a traceback; argparse
    puts its usage lines before its own."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if message.startswith("cohsim: error:"):
        assert err == message + "\n"
    else:
        assert message in err.splitlines()[-1]


class TestTracegen:
    def test_deterministic_and_parseable(self, tmp_path, capsys):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        main(["tracegen", "--seed", "9", "--ops", "50", "-o", str(out1)])
        main(["tracegen", "--seed", "9", "--ops", "50", "-o", str(out2)])
        assert out1.read_text() == out2.read_text()
        assert len(harness.parse_trace(out1.read_text())) == 50

    def test_stdout(self, capsys):
        assert main(["tracegen", "--seed", "1", "--ops", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5
