"""Explicit-state model checker for the protocol tables."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from cohsim import checker, protocol
from cohsim.checker import (CheckConfig, CheckResult, MUTATIONS, Model,
                            ModelError, check, check_invariants,
                            initial_state, mutated)
from cohsim.directory import MultipleOwners
from cohsim.harness import (CoherenceMonitor, TraceError, default_monitors,
                            parse_trace, random_workload, run_trace)
from cohsim.protocol import (MESI, MOESIF, CoherenceState, DirRequestKind,
                             Emission, ImpossibleTransition, InvalidateSet)
from cohsim.system import System, SystemConfig

# (states, depth) of exhaustive searches, and the depth at which each
# seeded mutation is caught with 3 caches (the same for both protocols).
# Breadth-first search fixes these whatever order it expands a level in.
EXHAUSTIVE = {("mesi", 2): (464, 22), ("moesif", 2): (608, 22),
              ("mesi", 3): (4_899, 28), ("moesif", 3): (8_088, 29)}
MUTANT_DEPTH = {"drop-invalidations": 7, "grant-e-with-sharers": 7,
                "skip-writeback": 11, "wrong-transfer-state": 8}
# The number of states first reached at each BFS depth, and the number of
# successors generated over every reachable state.  Neither depends on
# expansion order, and both pin the transition relation more tightly than
# the totals do.
LEVELS = {
    "mesi": [1, 9, 36, 90, 156, 222, 327, 384, 441, 504, 471, 336, 247, 180,
             156, 211, 210, 168, 129, 165, 150, 72, 63, 84, 45, 24, 6, 3, 9],
    "moesif": [1, 9, 36, 90, 156, 222, 327, 390, 477, 588, 603, 540, 577,
               606, 642, 517, 267, 210, 309, 438, 354, 156, 132, 132, 96, 84,
               45, 27, 39, 18]}
GENERATED = {"mesi": 14_391, "moesif": 22_842}
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
I, S, E, M, O, F = CoherenceState


class TestVerification:
    @pytest.mark.parametrize("protocol", ["mesi", "moesif"])
    def test_two_caches_exhaustive(self, protocol):
        result = check(CheckConfig(protocol=protocol, caches=2))
        assert result.verified and result.exhaustive
        assert result.violation is None
        assert "verified" in result.summary().lower()
        assert (result.states, result.depth) == EXHAUSTIVE[protocol, 2]

    def test_three_caches_mesi(self):
        result = check(CheckConfig(protocol="mesi", caches=3))
        assert result.verified and result.exhaustive
        assert (result.states, result.depth) == EXHAUSTIVE["mesi", 3]

    def test_three_caches_moesif(self):
        result = check(CheckConfig(protocol="moesif", caches=3))
        assert result.verified and result.exhaustive
        assert (result.states, result.depth) == EXHAUSTIVE["moesif", 3]

    @pytest.mark.parametrize("protocol", ["mesi", "moesif"])
    def test_three_caches_level_sizes(self, protocol):
        model = Model(CheckConfig(protocol=protocol, caches=3))
        init = initial_state(3)
        seen, level, sizes, generated = {init}, [init], [], 0
        while level:
            sizes.append(len(level))
            nxt = []
            for state in level:
                succs = model.successors(state)
                generated += len(succs)
                for s in succs:
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            level = nxt
        assert sizes == LEVELS[protocol]
        assert generated == GENERATED[protocol]
        assert (len(seen), len(sizes) - 1) == EXHAUSTIVE[protocol, 3]

    def test_deterministic(self):
        a = check(CheckConfig(protocol="mesi", caches=2))
        b = check(CheckConfig(protocol="mesi", caches=2))
        assert (a.states, a.depth) == (b.states, b.depth)

    def test_bounded_run_is_not_exhaustive(self):
        result = check(CheckConfig(protocol="mesi", caches=3,
                                   max_states=100))
        assert result.verified and not result.exhaustive
        assert result.states <= 100

    @pytest.mark.parametrize("cap", [1, 2])
    def test_state_cap_is_never_exceeded(self, cap):
        result = check(CheckConfig(protocol="mesi", caches=2,
                                   max_states=cap))
        assert result.verified and not result.exhaustive
        assert result.states == cap

    @pytest.mark.parametrize("depth", [0, 1, 6, 20])
    @pytest.mark.parametrize("protocol", ["mesi", "moesif"])
    def test_depth_bound_stops_at_its_level(self, protocol, depth):
        """A search bounded at depth k stores the levels through k, whose
        sizes `test_three_caches_level_sizes` pins."""
        result = check(CheckConfig(protocol=protocol, caches=3,
                                   max_depth=depth))
        assert result.summary() == (
            f"No violation (bounded): {sum(LEVELS[protocol][:depth + 1])} "
            f"states, depth {depth}")

    @pytest.mark.parametrize("field,value", [("max_states", 0),
                                             ("max_states", -1),
                                             ("max_depth", -1)])
    def test_bad_bound_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must"):
            CheckConfig(**{field: value})


class TestMutations:
    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("protocol", ["mesi", "moesif"])
    def test_seeded_bug_is_caught_with_short_counterexample(self, protocol,
                                                            mutation):
        result = check(CheckConfig(protocol=protocol, caches=3,
                                   mutation=mutation))
        assert not result.verified, mutation
        assert result.violation is not None
        assert result.trace, "counterexample trace missing"
        assert result.depth <= 12
        assert result.depth == len(result.trace) == MUTANT_DEPTH[mutation]
        # Every trace step is a human-readable transition label, and the
        # labels, re-derived after the search, name a path of transitions
        # from the initial state to the first violating state.
        assert all(isinstance(step, str) and step for step in result.trace)
        model = Model(CheckConfig(protocol=protocol, caches=3,
                                  mutation=mutation))
        state = initial_state(3)
        for label in result.trace:
            assert check_invariants(state, model.writable) is None
            state = next(nxt for lab, nxt in model.labelled_successors(state)
                         if lab == label)
        assert check_invariants(state, model.writable) == result.violation

    def test_labels_match_successors(self):
        model = Model(CheckConfig(protocol="moesif", caches=3))
        frontier = [initial_state(3)]
        for _ in range(6):
            state = frontier.pop()
            labelled = model.labelled_successors(state)
            assert [nxt for _, nxt in labelled] == model.successors(state)
            assert len({lab for lab, _ in labelled}) == len(labelled)
            frontier += [nxt for _, nxt in labelled]

    def test_mutations_deterministic(self):
        a = check(CheckConfig(protocol="moesif", caches=2,
                              mutation="drop-invalidations"))
        b = check(CheckConfig(protocol="moesif", caches=2,
                              mutation="drop-invalidations"))
        assert a.trace == b.trace

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="mutation must be one of "
                           "drop-invalidations, .*, got 'nonsense'"):
            check(CheckConfig(protocol="mesi", caches=2, mutation="nonsense"))

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="protocol must be one of"):
            CheckConfig(protocol="msi")


class TestStateEncoding:
    def test_message_count_overflow_raises(self):
        """Sending a message whose count field is full raises ModelError
        and never carries into the next field."""
        model = Model(CheckConfig(protocol="mesi", caches=2))
        # Cache 0's outstanding op, cleared to let it send the same
        # request again while the earlier copies are still in flight.
        pend = 7 << (checker._N_BITS + checker._PEND_SHIFT)
        state = initial_state(2)
        for _ in range(checker._COUNT_MAX):
            (state,) = [nxt for label, nxt in model.labelled_successors(state)
                        if label == "cache 0: read request"]
            state &= ~pend
        field = model._shift(model._number(("req", 0, checker.RD)))
        assert state == initial_state(2) + (checker._COUNT_MAX << field)
        with pytest.raises(ModelError, match=r"more than 3 copies of "
                                             r"\('req', 0, 1\) in flight"):
            model.successors(state)

    def test_cache_count_must_fit_its_field(self):
        with pytest.raises(ValueError, match="caches must be from 1 to 255"):
            check(CheckConfig(protocol="mesi", caches=256))

    def test_store_stales_data_in_flight(self):
        """A store hit moves every copy of a latest-data message in flight
        to its stale twin and makes memory stale.  No search reaches such
        a state, so it is built by hand: cache 0 in M, two fills of the
        latest data to cache 1 in flight."""
        model = Model(CheckConfig(protocol="moesif", caches=2))

        def fill(latest):
            return model._shift(model._number(
                ("cmd", 1, checker._DATA, 1, -1, -1, latest)))

        owner = checker._entry(checker._NUM[checker.M], 1, checker.IDLE) \
            << checker._N_BITS
        state = initial_state(2) + owner + (2 << fill(1))
        (nxt,) = [nxt for label, nxt in model.labelled_successors(state)
                  if label == "cache 0: store hit in M"]
        assert nxt == 2 + owner + (2 << fill(0))


def _reachable(model):
    """Every state an exhaustive search of `model` reaches."""
    init = initial_state(model.n)
    seen, level = {init}, [init]
    while level:
        nxt = []
        for state in level:
            for succ in model.successors(state):
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        level = nxt
    return seen


def _raw_entry(st, latest, pend):
    """An entry that keeps every field as given."""
    return st | latest << 3 | pend << checker._PEND_SHIFT


def _dead_fields_cleared(state, caches):
    """`state` with each entry's is-latest bit cleared in I and a pending
    read-ne made a pending read."""
    for i in range(caches):
        shift = checker._N_BITS + checker._ENTRY_BITS * i
        entry = state >> shift & checker._ENTRY_MASK
        new = entry
        if entry & 7 == checker._NUM[checker.I]:
            new &= ~checker._LATEST
        if new >> checker._PEND_SHIFT == checker.RD_NE:
            new += (checker.RD - checker.RD_NE) << checker._PEND_SHIFT
        state += (new - entry) << shift
    return state


class TestDeadFields:
    """An entry's is-latest bit in I and its read-ne pending code are
    read by no rule, so the checker stores them canonically.  That is
    exact: the reduced search reaches one state per class of the states
    an unreduced search reaches, classes differing only in those
    fields."""

    @pytest.mark.parametrize("caches", [2, 3])
    @pytest.mark.parametrize("protocol", ["mesi", "moesif"])
    def test_reduced_count_is_the_unreduced_class_count(self, monkeypatch,
                                                        protocol, caches):
        cfg = CheckConfig(protocol=protocol, caches=caches)
        with monkeypatch.context() as patch:
            patch.setattr(checker, "_entry", _raw_entry)
            unreduced = _reachable(Model(cfg))
        reduced = _reachable(Model(cfg))
        classes = {_dead_fields_cleared(s, caches) for s in unreduced}
        assert len(reduced) == len(classes) == EXHAUSTIVE[protocol, caches][0]
        assert len(unreduced) > len(reduced)


def _reached_labels(model):
    """Every transition label of an exhaustive search of `model` that
    expands past each state it cannot expand."""
    init = initial_state(model.n)
    seen, level, labels = {init}, [init], set()
    while level:
        nxt = []
        for state in level:
            try:
                succs = model.labelled_successors(state)
            except ModelError:
                continue
            for label, succ in succs:
                labels.add(label)
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        level = nxt
    return labels


class TestTableDrivenLocalOperations:
    """A cache's own operations come from the tables' cells: a mutated
    cell changes what the checker explores."""

    def test_replacement_cells_decide_evictions(self):
        model = Model(CheckConfig(protocol="moesif", caches=2))
        labels = _reached_labels(model)
        assert {"cache 0: evict O block", "cache 0: evict E block",
                "cache 0: evict M block"} <= labels
        assert "cache 0: evict F block" not in labels
        directory = MOESIF.directory
        model = Model(CheckConfig(protocol="moesif", caches=2))
        model.tables = dataclasses.replace(MOESIF, directory={
            **directory,
            ("F", "Replacement"): directory["O", "Replacement"]})
        assert "cache 0: evict F block" in _reached_labels(model)


# Cache-controller cell mutants at MESI-3: (cells, verdict, depth).  A
# cell that sends no acknowledgement leaves its transaction open until no
# transition is enabled; a grant cell whose state disagrees with the
# grant's is a blank-cell error.
CELL_MUTANTS = {
    "S-Inv-no-InvAck": ({("S", "Inv"): ((), I)},
                        "deadlock: no transition is enabled", 9),
    "S-STW-no-CohAck": ({("S", "STW"): ((), M)},
                        "deadlock: no transition is enabled", 10),
    "S-STW-keeps-S": ({("S", "STW"): ((Emission.CohAck,), S)},
                      "impossible transition: cache 0 in S got STW: MESI: "
                      "(S, STW) attached state M conflicts with table", 6),
    "I-DATA-keeps-I": ({("I", "DATA"): ((Emission.CohAck,), I)},
                       "impossible transition: cache 0 in I got DATA: MESI: "
                       "(I, DATA) attached state M conflicts with table", 2),
}


class TestCellMutants:
    """Grants go through the (I, DATA) and (S, STW) cells, and a
    transaction closes only on a CohAck that a cell sent, so a mutated
    cell is a deadlock or an impossible transition, with a trace that
    replays."""

    @pytest.mark.parametrize("name", CELL_MUTANTS)
    def test_mutant_is_caught_with_a_replayable_trace(self, name):
        cells, verdict, depth = CELL_MUTANTS[name]
        cfg = CheckConfig(protocol="mesi", caches=3)
        model = Model(cfg)
        model.tables = dataclasses.replace(MESI, lce={**MESI.lce, **cells})
        result = checker._search(model, cfg)
        assert not result.verified
        assert result.violation == verdict
        assert result.depth == len(result.trace) == depth
        state = initial_state(3)
        for label in result.trace:
            assert check_invariants(state, model.writable) is None
            state = next(nxt for lab, nxt in model.labelled_successors(state)
                         if lab == label)
        if verdict.startswith("deadlock"):
            assert model.successors(state) == []
        else:
            with pytest.raises(ModelError):
                model.successors(state)

    def test_engine_hangs_on_a_data_cell_without_cohack(self):
        """The `fsm` engine's directory waits for the CohAck that the
        cache's (I, DATA) cell no longer sends, so the second cache's
        load never ends."""
        _, nxt = MESI.lce["I", "DATA"]
        broken = dataclasses.replace(
            MESI, lce={**MESI.lce, ("I", "DATA"): ((), nxt)})
        system = System(SystemConfig(cores=2, sets=8, protocol="mesi"))
        for lce in system.lces:
            lce.tables = broken
        ops = parse_trace("0 LD 0x80000000\n1 LD 0x80000000\n")
        with pytest.raises(TraceError, match="within 5000 cycles"):
            run_trace(system, ops, limit=5_000)


class TestMutatedTables:
    """A seeded mutation is a copy of the tables with its cells edited;
    the shipped tables are left as they are."""

    def test_each_edit(self):
        drop = mutated(MOESIF, "drop-invalidations")
        assert {plan.invalidate_set for plan in drop.directory.values()
                if plan} == {InvalidateSet.Nothing}
        grant = mutated(MESI, "grant-e-with-sharers")
        changed = [key for key, plan in MESI.directory.items()
                   if grant.directory[key] is not plan]
        assert changed == [("S", "ReqRd")]
        assert grant.dir_request_plan(S, DirRequestKind.ReqRd).grant_state \
            is E
        skip = mutated(MOESIF, "skip-writeback")
        assert skip.lce["M", "WB"] == ((Emission.NullWB,), M)
        assert not any(Emission.DirtyWB in cell[0]
                       for cell in skip.lce.values() if cell)
        wrong = mutated(MOESIF, "wrong-transfer-state")
        for state in (O, F):
            plan = wrong.dir_request_plan(state, DirRequestKind.ReqRd)
            assert plan.owner_command.transfer_state is M
            assert plan.grant_state is S
        assert MOESIF.dir_request_plan(
            O, DirRequestKind.ReqRd).owner_command.transfer_state is S

    def test_built_once_per_pair(self):
        skip = mutated(MESI, "skip-writeback")
        assert mutated(MESI, "skip-writeback") is skip
        assert mutated(MOESIF, "skip-writeback") is not skip
        assert Model(CheckConfig(mutation="skip-writeback")).tables is skip
        assert Model(CheckConfig()).tables is MESI

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation 'nonsense'"):
            mutated(MESI, "nonsense")


class TestTablesDecideWritability:
    """A copy is writable in the states whose Store cell is a hit, in the
    checker and in the `fsm` engine alike: a MESI table whose (S, Store)
    cell is a hit is an SWMR violation in both."""

    TABLES = dataclasses.replace(MESI, lce={**MESI.lce,
                                            ("S", "Store"): ((), S)})

    def test_checker_reports_swmr(self):
        cfg = CheckConfig(protocol="mesi", caches=2)
        model = Model(cfg)
        model.tables = self.TABLES
        result = checker._search(model, cfg)
        assert result.violation == ("SWMR: cache 0 writable (S) while "
                                    "[(0, 'S'), (1, 'S')] also valid")
        assert result.depth == 7

    def test_engine_monitor_flags_swmr(self, monkeypatch):
        monkeypatch.setitem(protocol.PROTOCOLS, "mesi", self.TABLES)
        system = System(SystemConfig(cores=2, sets=8, protocol="mesi"))
        ops = parse_trace("0 LD 0x80000000\n1 LD 0x80000000\n"
                          "0 ST 0x80000000 0x5\n")
        report = run_trace(system, ops, monitors=[CoherenceMonitor()])
        assert [v.monitor for v in report.violations] == ["swmr", "swmr"]
        assert "held as [(0, S), (1, S)]" in report.violations[0].detail


# The checker's seeded bugs on the `fsm` engine: a 600-op trace per shape
# and seed (1, then 2), run under the default monitors.  Each outcome is
# the monitors that flag the run ("clean" for none) or the error the
# engine raises; every mutant is caught in at least one run per protocol.
ENGINE_SHAPES = {
    "criterion-5": (SystemConfig(cores=4, sets=16),
                    dict(lces=4, footprint_blocks=64)),
    "evict-2c": (SystemConfig(cores=2, sets=16, assoc=2),
                 dict(lces=2, footprint_blocks=256, write_ratio=0.5)),
}
_IT, _MO = ImpossibleTransition.__name__, MultipleOwners.__name__
ENGINE_OUTCOMES = {   # criterion-5 seeds 1, 2; evict-2c seeds 1, 2
    ("mesi", "drop-invalidations"): (_IT, _IT, "clean", _IT),
    ("mesi", "grant-e-with-sharers"): (_IT, _IT, "swmr", "clean"),
    ("mesi", "skip-writeback"): ("data-value",) * 4,
    ("mesi", "wrong-transfer-state"): (_IT, _IT, "swmr", _IT),
    ("moesif", "drop-invalidations"): (_MO, _MO, "clean", _MO),
    ("moesif", "grant-e-with-sharers"): ("clean", "clean", "swmr", "clean"),
    ("moesif", "skip-writeback"): ("clean", "clean", "data-value",
                                   "data-value"),
    ("moesif", "wrong-transfer-state"): (_IT, _IT, "single-owner+swmr",
                                         _IT),
}


@pytest.mark.parametrize("protocol_name, mutation", list(ENGINE_OUTCOMES))
def test_seeded_bug_on_the_fsm_engine(monkeypatch, protocol_name, mutation):
    monkeypatch.setitem(protocol.PROTOCOLS, protocol_name, mutated(
        protocol.PROTOCOLS[protocol_name], mutation))
    outcomes = []
    for cfg, workload in ENGINE_SHAPES.values():
        for seed in (1, 2):
            system = System(dataclasses.replace(cfg, protocol=protocol_name))
            ops = random_workload(seed, ops=600, **workload)
            try:
                report = run_trace(system, ops, monitors=default_monitors())
            except (ImpossibleTransition, MultipleOwners) as exc:
                outcomes.append(type(exc).__name__)
                continue
            outcomes.append("+".join(sorted({v.monitor for v in
                                             report.violations}))
                            or "clean")
    assert tuple(outcomes) == ENGINE_OUTCOMES[protocol_name, mutation]
    assert set(outcomes) != {"clean"}


_RESULTS_SCRIPT = """
from cohsim.checker import CheckConfig, check
print(repr(check(CheckConfig(protocol="moesif", caches=3,
                             mutation="wrong-transfer-state"))))
print(repr(check(CheckConfig(protocol="mesi", caches=3))))
"""


def test_results_independent_of_hash_seed():
    """Exploration order, and so every result and trace, must not depend
    on string hashing."""
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _RESULTS_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert "CheckResult(verified=False" in outs[0]
    assert "CheckResult(verified=True, exhaustive=True, states=4899" \
        in outs[0]
