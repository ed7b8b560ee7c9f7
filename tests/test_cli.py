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
    rf"cache \d+: (install fill|upgrade \(STW\)) -> {_ST}",
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

    def test_assemble_error_exit_code(self, tmp_path, capsys):
        src = tmp_path / "bad.ucs"
        src.write_text("frobnicate r1\n")
        assert main(["assemble", str(src), "-o", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

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
     "cohsim: error: caches must be from 0 to 255, got 256"),
    (["check", "--caches", "-1"],
     "cohsim: error: caches must be from 0 to 255, got -1"),
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
