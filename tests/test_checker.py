"""Explicit-state model checker for the protocol tables."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from cohsim import checker
from cohsim.checker import (CheckConfig, CheckResult, MUTATIONS, Model,
                            ModelError, check, check_invariants,
                            initial_state)
from cohsim.protocol import MOESIF

# (states, depth) of exhaustive searches, and the depth at which each
# seeded mutation is caught with 3 caches (the same for both protocols).
# Breadth-first search fixes these whatever order it expands a level in.
EXHAUSTIVE = {("mesi", 2): (776, 22), ("moesif", 2): (942, 22),
              ("mesi", 3): (12_574, 28), ("moesif", 3): (17_680, 29)}
MUTANT_DEPTH = {"drop-invalidations": 7, "grant-e-with-sharers": 7,
                "skip-writeback": 11, "wrong-transfer-state": 8}
# The number of states first reached at each BFS depth, and the number of
# successors generated over every reachable state.  Neither depends on
# expansion order, and both pin the transition relation more tightly than
# the totals do.
LEVELS = {
    "mesi": [1, 9, 36, 90, 156, 222, 345, 477, 612, 690, 594, 561, 553, 534,
             675, 769, 846, 882, 735, 693, 645, 495, 513, 489, 376, 288, 159,
             66, 63],
    "moesif": [1, 9, 36, 90, 156, 222, 345, 489, 684, 846, 780, 771, 913,
               1014, 1233, 1171, 999, 1026, 1035, 1110, 1116, 891, 822, 666,
               427, 372, 249, 90, 93, 24]}
GENERATED = {"mesi": 36_546, "moesif": 49_506}
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


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
            assert check_invariants(state) is None
            state = next(nxt for lab, nxt in model.labelled_successors(state)
                         if lab == label)
        assert check_invariants(state) == result.violation

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
        with pytest.raises((ValueError, KeyError)):
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
        with pytest.raises(ValueError, match="caches must be from 0 to 255"):
            check(CheckConfig(protocol="mesi", caches=256))

    def test_store_stales_data_in_flight(self):
        """A store hit moves every copy of a latest-data message in flight
        to its stale twin and makes memory stale.  No search reaches such
        a state, so it is built by hand: cache 0 in M, two fills of the
        latest data to cache 1 in flight."""
        model = Model(CheckConfig(protocol="moesif", caches=2))

        def fill(latest):
            return model._shift(model._number(("fill", 1, 1, latest)))

        owner = checker._entry(checker._NUM[checker.M], 1, checker.IDLE) \
            << checker._N_BITS
        state = initial_state(2) + owner + (2 << fill(1))
        (nxt,) = [nxt for label, nxt in model.labelled_successors(state)
                  if label == "cache 0: store hit in M"]
        assert nxt == 2 + owner + (2 << fill(0))


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
    assert "CheckResult(verified=True, exhaustive=True, states=12574" \
        in outs[0]
