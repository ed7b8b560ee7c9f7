"""End-to-end acceptance gate.

Each criterion is one test that records a single PASS/FAIL line, printed
in the "acceptance criteria" section of the pytest summary.

Criterion 4's bounded large-configuration check reads its state cap from
the COHSIM_CHECK_MAX_STATES environment variable (default 200000,
clamped to 10 million).
"""

import os

import pytest

from conftest import record_criterion
from test_protocol import (ALL_DIR_CELLS, ALL_LCE_CELLS, DIR_BLANKS,
                           DIR_EXPECTED, LCE_BLANKS, LCE_EXPECTED)

from cohsim.checker import CheckConfig, MUTATIONS, check
from cohsim.directory import PendingBits, SegmentConfig
from cohsim.harness import compare_engines, overhead_calc, random_workload
from cohsim.occupancy import (SCENARIOS, measure_occupancy, occupancy_model,
                              sharer_range)
from cohsim.system import SystemConfig
from cohsim.ucode import asm
from cohsim.ucode.engine import default_program

CORES_SWEEP = (2, 4, 8, 16)
# (states, depth) of the exhaustive 4-cache searches.
EXHAUSTIVE_4 = {"mesi": (48_984, 34), "moesif": (99_256, 35)}
BEATS_SWEEP = (1, 8)


def _criterion(number, description):
    """Wrap a test body so its verdict lands in the summary section."""
    def run(body):
        try:
            body()
        except BaseException:
            record_criterion(number, description, passed=False)
            raise
        record_criterion(number, description, passed=True)
    return run


def _occupancy_sweep(engine):
    failures = []
    for cores in CORES_SWEEP:
        for name in SCENARIOS:
            for sharers in sharer_range(name, cores):
                for beats in BEATS_SWEEP:
                    got = measure_occupancy(name, cores=cores,
                                            sharers=sharers, beats=beats,
                                            engine=engine)
                    want = occupancy_model(engine, name, cores, sharers,
                                           beats)
                    if got != want:
                        failures.append((name, cores, sharers, beats,
                                         got, want))
    return failures


def test_criterion_1_fsm_occupancy():
    @_criterion(1, "fixed-function engine occupancy matches the closed-form "
                   "model exactly over the full sweep")
    def body():
        failures = _occupancy_sweep("fsm")
        assert not failures, failures[:10]


def test_criterion_2_ucode_occupancy():
    @_criterion(2, "microcoded engine occupancy matches the closed-form "
                   "model exactly, including replacement add-ons")
    def body():
        failures = _occupancy_sweep("ucode")
        for name in ("read_excl_ii", "write_ii"):
            for cores in CORES_SWEEP:
                for victim in ("clean", "dirty"):
                    for beats in BEATS_SWEEP:
                        got = measure_occupancy(name, cores=cores,
                                                beats=beats, engine="ucode",
                                                victim=victim)
                        want = occupancy_model("ucode", name, cores,
                                               beats=beats, victim=victim)
                        if got != want:
                            failures.append((name, cores, victim, beats,
                                             got, want))
        assert not failures, failures[:10]


def test_criterion_3_microcode_size():
    @_criterion(3, "shipped microcode fits the 256-entry instruction memory")
    def body():
        for name in ("moesif", "mesi"):
            program = asm.assemble(default_program(name))
            assert len(program) <= 256, (name, len(program))
        # Informational: the main program should be in the same size class
        # as a hand-written implementation (125 +/- 50%).
        moesif_len = len(asm.assemble(default_program("moesif")))
        assert 63 <= moesif_len <= 188, moesif_len


def test_criterion_4_model_checking():
    @_criterion(4, "model checker verifies both protocols exhaustively and "
                   "catches every seeded bug within depth 12")
    def body():
        for protocol in ("mesi", "moesif"):
            for caches in (2, 3, 4):
                result = check(CheckConfig(protocol=protocol, caches=caches))
                assert result.verified and result.exhaustive, \
                    (protocol, caches, result.violation)
                if caches == 4:
                    assert (result.states, result.depth) == \
                        EXHAUSTIVE_4[protocol], (protocol, result.summary())
        cap = min(int(os.environ.get("COHSIM_CHECK_MAX_STATES", "200000")),
                  10_000_000)
        bounded = check(CheckConfig(protocol="mesi", caches=8,
                                    max_states=cap))
        assert bounded.verified, bounded.violation
        if cap == 200_000:
            assert (bounded.states, bounded.depth) == (200_000, 6), \
                bounded.summary()
        for protocol in ("mesi", "moesif"):
            for mutation in MUTATIONS:
                result = check(CheckConfig(protocol=protocol, caches=3,
                                           mutation=mutation))
                assert not result.verified, (protocol, mutation)
                assert result.trace and result.depth <= 12, \
                    (protocol, mutation, result.depth)


def test_criterion_5_engine_equivalence():
    @_criterion(5, "both engines reach identical architectural state on "
                   "random workloads (10 seeds x 10000 ops x 2/4/8 cores)")
    def body():
        ratios = []
        for seed in range(1, 11):
            for cores in (2, 4, 8):
                ops = random_workload(seed=seed, lces=cores, ops=10_000,
                                      footprint_blocks=64)
                report = compare_engines(
                    ops, SystemConfig(cores=cores, sets=16))
                assert report.equivalent, \
                    (seed, cores, report.differences[:5])
                assert not report.violations, (seed, cores)
                ratios.append(report.cycle_ratio)
        print(f"cycle ratio ucode/fsm: min {min(ratios):.2f} "
              f"max {max(ratios):.2f} "
              f"mean {sum(ratios) / len(ratios):.2f}")


def test_criterion_6_storage_overhead():
    @_criterion(6, "directory storage overhead: duplicate-tag is 6.25% at "
                   "every cache count; complete vectors grow monotonically")
    def body():
        for caches in range(2, 65):
            assert overhead_calc("dup", caches) == 6.25, caches
        prev = None
        for caches in range(2, 65):
            pct = overhead_calc("complete", caches)
            assert prev is None or pct > prev, caches
            assert pct > overhead_calc("dup", caches), caches
            prev = pct


def test_criterion_7_table_fidelity():
    @_criterion(7, "every protocol-table cell (filled and blank) behaves "
                   "per the transcribed oracle")
    def body():
        # The cell-by-cell assertions live in test_protocol.py against the
        # independently transcribed oracle; here we require full coverage.
        assert len(ALL_LCE_CELLS) == 60
        assert len(LCE_EXPECTED) == 33 and len(LCE_BLANKS) == 27
        assert len(ALL_DIR_CELLS) == 36
        assert len(DIR_EXPECTED) == 26 and len(DIR_BLANKS) == 10
        assert set(LCE_EXPECTED) | set(LCE_BLANKS) == set(ALL_LCE_CELLS)
        assert set(DIR_EXPECTED) | set(DIR_BLANKS) == set(ALL_DIR_CELLS)
        import test_protocol
        cell_tests = [n for n in dir(test_protocol.TestLceTable)
                      + dir(test_protocol.TestDirTable)
                      if n.startswith("test_")]
        assert "test_filled_cell" in cell_tests
        assert "test_blank_cell_is_impossible" in cell_tests


def test_criterion_8_micro_latencies(tmp_path):
    @_criterion(8, "micro-latencies: way-group read 1 + C/2, invalidation "
                   "2 cycles per sharer, one-bubble mispredicts, same-cycle "
                   "pending-bit forwarding")
    def body():
        from test_ucode_engine import busy_after, make_engine, request
        from cohsim.messages import Emission, LceResponse
        from cohsim.protocol import S

        for caches in CORES_SWEEP:
            assert SegmentConfig(num_caches=caches).way_group_read_latency \
                == 1 + caches // 2
            eng = make_engine(tmp_path, "  rdw\n  wfq resp\n", caches=caches,
                              req=request())
            assert busy_after(eng) == 1 + caches // 2

        for sharers in (1, 2, 3):
            eng = make_engine(tmp_path, "  rdw\n  gad\n  inv\n  wfq resp\n",
                              caches=8, req=request(0x8000_0000))
            for c in range(1, sharers + 1):
                eng.directory.write_entry(0x8000_0000, c, 0, state=S)
                eng.resp_q.append(LceResponse(kind=Emission.InvAck, lce=c,
                                              addr=0x8000_0000))
            assert busy_after(eng) == (1 + 8 // 2) + 1 + 2 * sharers

        eng = make_engine(tmp_path,
                          "  movi r1, 3\n  beqi r1, 3, d\n  nop\nd: wfq resp\n")
        assert busy_after(eng) == 3 and eng.mispredicts == 1

        pend = PendingBits(1)
        pend.adjust(0, +1)
        assert pend.read(0) is True
        pend.adjust(0, -1)
        assert pend.read(0) is False
