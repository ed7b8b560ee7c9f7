"""Command-line interface: every subcommand, exit codes, stable output."""

import pytest

from cohsim import harness
from cohsim.cli import load_config, main
from cohsim.ucode.engine import default_program


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
        ("ordering = rnd\n", "ordering must be one of fifo, random"),
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


class TestCheck:
    def test_verified(self, capsys):
        assert main(["check", "--protocol", "mesi", "--caches", "2"]) == 0
        assert "verified" in capsys.readouterr().out.lower()

    def test_mutation_fails(self, capsys):
        rc = main(["check", "--protocol", "moesif", "--caches", "2",
                   "--mutation", "drop-invalidations"])
        assert rc == 1

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
