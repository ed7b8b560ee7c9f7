"""Golden tests for the protocol tables.

The expected cells below are written out literally and independently of the
table-text parser, so a parsing or transcription bug cannot hide.
"""

import dataclasses

import pytest

from cohsim import protocol
from cohsim.protocol import (AddressClass, CoherenceState, DirRequestKind,
                             Emission, ImpossibleTransition, InvalidateSet,
                             MESI, MOESIF, RequesterGrant, classify_request)

I, S, E, M, O, F = CoherenceState

# The cache-controller table's columns, by name.
LCE_COLUMNS = ("Load", "Store", "Inv", "DATA", "STW", "WB", "ST-WB", "TR",
               "ST-TR", "ST-TR-WB")
ATTACHED_COLUMNS = ("DATA", "STW", "ST-WB", "ST-TR", "ST-TR-WB")
EV = Emission

# (state, event) -> (emissions, next state); next None = unchanged,
# "X" = taken from the command's attached state.
LCE_EXPECTED = {
    (I, "Load"): ((EV.ReqRd,), None),
    (I, "Store"): ((EV.ReqWr,), None),
    (I, "DATA"): ((EV.CohAck,), "X"),
    (S, "Load"): ((), None),
    (S, "Store"): ((EV.ReqWr,), None),
    (S, "Inv"): ((EV.InvAck,), I),
    (S, "STW"): ((EV.CohAck,), M),
    (E, "Load"): ((), None),
    (E, "Store"): ((), M),
    (E, "WB"): ((EV.NullWB,), E),
    (E, "ST-WB"): ((EV.NullWB,), "X"),
    (E, "ST-TR"): ((EV.DataToTarget,), "X"),
    (E, "ST-TR-WB"): ((EV.DataToTarget, EV.NullWB), "X"),
    (M, "Load"): ((), None),
    (M, "Store"): ((), None),
    (M, "WB"): ((EV.DirtyWB,), M),
    (M, "ST-WB"): ((EV.DirtyWB,), "X"),
    (M, "ST-TR"): ((EV.DataToTarget,), "X"),
    (M, "ST-TR-WB"): ((EV.DataToTarget, EV.DirtyWB), "X"),
    (O, "Load"): ((), None),
    (O, "Store"): ((EV.ReqWr,), None),
    (O, "Inv"): ((EV.InvAck,), I),
    (O, "STW"): ((EV.CohAck,), M),
    (O, "WB"): ((EV.DirtyWB,), O),
    (O, "TR"): ((EV.DataToTarget,), O),
    (O, "ST-WB"): ((EV.DirtyWB,), "X"),
    (O, "ST-TR"): ((EV.DataToTarget,), "X"),
    (F, "Load"): ((), None),
    (F, "Store"): ((EV.ReqWr,), None),
    (F, "Inv"): ((EV.InvAck,), I),
    (F, "STW"): ((EV.CohAck,), M),
    (F, "TR"): ((EV.DataToTarget,), F),
    (F, "ST-TR"): ((EV.DataToTarget,), "X"),
}

ALL_LCE_CELLS = [(s, k) for s in (I, S, E, M, O, F) for k in LCE_COLUMNS]
LCE_BLANKS = sorted(set(ALL_LCE_CELLS) - set(LCE_EXPECTED),
                    key=lambda c: (c[0].value, c[1]))

K = DirRequestKind
IV = InvalidateSet
G = RequesterGrant

# (dir state, request) ->
#   (invalidate set, (owner cmd, set-state, transfer-state) or None,
#    requester grant, grant state, next dir state)
DIR_EXPECTED = {
    (I, K.ReqRd): (IV.Nothing, None, G.DataFromMemory, E, E),
    (I, K.ReqRdNE): (IV.Nothing, None, G.DataFromMemory, S, S),
    (I, K.ReqWrFromI): (IV.Nothing, None, G.DataFromMemory, M, M),
    (S, K.ReqRd): (IV.Nothing, None, G.DataFromMemory, S, S),
    (S, K.ReqRdNE): (IV.Nothing, None, G.DataFromMemory, S, S),
    (S, K.ReqWrFromI): (IV.AllSharers, None, G.DataFromMemory, M, M),
    (S, K.ReqWrFromS): (IV.OtherSharers, None, G.UpgradeStW, M, M),
    (E, K.ReqRd): (IV.Nothing, ("ST-TR-WB", F, S), G.Nothing, S, F),
    (E, K.ReqRdNE): (IV.Nothing, ("ST-TR-WB", F, S), G.Nothing, S, F),
    (E, K.ReqWrFromI): (IV.Nothing, ("ST-TR", I, M), G.Nothing, M, M),
    (E, K.Replacement): (IV.Nothing, ("ST-WB", I, None), G.Nothing, None, I),
    (M, K.ReqRd): (IV.Nothing, ("ST-TR", O, S), G.Nothing, S, O),
    (M, K.ReqRdNE): (IV.Nothing, ("ST-TR", O, S), G.Nothing, S, O),
    (M, K.ReqWrFromI): (IV.Nothing, ("ST-TR", I, M), G.Nothing, M, M),
    (M, K.Replacement): (IV.Nothing, ("ST-WB", I, None), G.Nothing, None, I),
    (O, K.ReqRd): (IV.Nothing, ("TR", None, S), G.Nothing, S, O),
    (O, K.ReqRdNE): (IV.Nothing, ("TR", None, S), G.Nothing, S, O),
    (O, K.ReqWrFromI): (IV.AllSharers, ("ST-TR", I, M), G.Nothing, M, M),
    (O, K.ReqWrFromS): (IV.OtherSharersAndOwner, None, G.UpgradeStW, M, M),
    (O, K.ReqWrFromOF): (IV.AllSharers, None, G.UpgradeStW, M, M),
    (O, K.Replacement): (IV.Nothing, ("ST-WB", I, None), G.Nothing, None, I),
    (F, K.ReqRd): (IV.Nothing, ("TR", None, S), G.Nothing, S, F),
    (F, K.ReqRdNE): (IV.Nothing, ("TR", None, S), G.Nothing, S, F),
    (F, K.ReqWrFromI): (IV.AllSharers, ("ST-TR", I, M), G.Nothing, M, M),
    (F, K.ReqWrFromS): (IV.OtherSharersAndOwner, None, G.UpgradeStW, M, M),
    (F, K.ReqWrFromOF): (IV.AllSharers, None, G.UpgradeStW, M, M),
}

ALL_DIR_CELLS = [(s, k) for s in (I, S, E, M, O, F) for k in K]
DIR_BLANKS = sorted(set(ALL_DIR_CELLS) - set(DIR_EXPECTED),
                    key=lambda c: (c[0].value, c[1].value))


def _attached(state, kind):
    """The state a command of column `kind` carries to a cache in
    `state`, or None for a column whose command carries none."""
    if kind in ATTACHED_COLUMNS:
        return M if state is not M else S
    return None


class TestLceTable:
    @pytest.mark.parametrize("state,kind", sorted(
        LCE_EXPECTED, key=lambda c: (c[0].value, c[1])),
        ids=lambda v: getattr(v, "value", v))
    def test_filled_cell(self, state, kind):
        attached = _attached(state, kind)
        act = MOESIF.lce_event_action(state, kind, attached)
        sends, nxt = LCE_EXPECTED[(state, kind)]
        assert act.sends == sends
        if nxt == "X":
            assert act.next_state is attached
        else:
            assert act.next_state is nxt

    @pytest.mark.parametrize("state,kind", LCE_BLANKS,
                             ids=lambda v: getattr(v, "value", v))
    def test_blank_cell_is_impossible(self, state, kind):
        with pytest.raises(ImpossibleTransition):
            MOESIF.lce_event_action(state, kind, _attached(state, kind))

    def test_cell_counts(self):
        assert len(LCE_EXPECTED) == 33
        assert len(LCE_BLANKS) == 27

    def test_mesi_has_no_owner_rows(self):
        assert MESI.states == (I, S, E, M)
        act = MESI.lce_event_action(E, "ST-TR-WB", M)
        assert act.sends == (EV.DataToTarget, EV.NullWB)
        with pytest.raises(ImpossibleTransition):
            MESI.lce_event_action(O, "Load")


class TestDirTable:
    @pytest.mark.parametrize("state,kind", sorted(
        DIR_EXPECTED, key=lambda c: (c[0].value, c[1].value)),
        ids=lambda v: getattr(v, "value", v))
    def test_filled_cell(self, state, kind):
        plan = MOESIF.dir_request_plan(state, kind)
        inv, owner, grant, grant_state, next_dir = DIR_EXPECTED[(state, kind)]
        assert plan.invalidate_set is inv
        if owner is None:
            assert plan.owner_command is None
        else:
            cmd, set_st, tr_st = owner
            assert plan.owner_command.command.value == cmd
            assert plan.owner_command.set_owner_state is set_st
            assert plan.owner_command.transfer_state is tr_st
        assert plan.requester_grant is grant
        assert plan.grant_state is grant_state
        assert plan.next_dir_state is next_dir

    @pytest.mark.parametrize("state,kind", DIR_BLANKS,
                             ids=lambda v: getattr(v, "value", v))
    def test_blank_cell_is_impossible(self, state, kind):
        with pytest.raises(ImpossibleTransition):
            MOESIF.dir_request_plan(state, kind)

    def test_cell_counts(self):
        assert len(DIR_EXPECTED) == 26
        assert len(DIR_BLANKS) == 10
        assert len(ALL_DIR_CELLS) == 36

    @pytest.mark.parametrize("write,non_exclusive,state,kind", [
        (False, False, M, K.ReqRd),
        (False, True, I, K.ReqRdNE),
        (True, False, I, K.ReqWrFromI),
        (True, False, S, K.ReqWrFromS),
        (True, False, O, K.ReqWrFromOF),
        (True, False, F, K.ReqWrFromOF),
    ], ids=lambda v: getattr(v, "value", v))
    def test_request_kind(self, write, non_exclusive, state, kind):
        assert protocol.request_kind(write, non_exclusive, state) is kind

    @pytest.mark.parametrize("state", [E, M])
    def test_no_write_request_from_a_writable_state(self, state):
        with pytest.raises(ImpossibleTransition):
            protocol.request_kind(True, False, state)

    def test_mesi_read_of_owner_downgrades_to_shared(self):
        for st in (E, M):
            plan = MESI.dir_request_plan(st, K.ReqRd)
            assert plan.owner_command.command.value == "ST-TR-WB"
            assert plan.owner_command.set_owner_state is S
            assert plan.grant_state is S


def test_tables_hash_by_identity():
    """A table object can key a dict: two tables, and a copy equal in
    every field, are three keys."""
    hash(MESI)
    copy = dataclasses.replace(MESI)
    memo = {MESI: "mesi", MOESIF: "moesif", copy: "copy"}
    assert [memo[MESI], memo[MOESIF], memo[copy]] == ["mesi", "moesif", "copy"]
    assert copy != MESI


class TestPermissionsAndRegions:
    """Access permissions come from the Load and Store cells, which
    `_validate_tables` holds to the line-less and writable states."""

    @staticmethod
    def _with_lce_cells(cells):
        return dataclasses.replace(MOESIF, lce={**MOESIF.lce, **cells})

    @pytest.mark.parametrize("column", ["Load", "Store"])
    def test_rejects_a_hit_in_i(self, column):
        tables = self._with_lce_cells({("I", column): ((), None)})
        with pytest.raises(ValueError, match="hit with no line"):
            protocol._validate_tables(tables)

    def test_rejects_command_columns_other_than_the_command_kinds(self):
        renamed = {(letter, "TRANSFER" if col == "TR" else col): cell
                   for (letter, col), cell in MOESIF.lce.items()}
        with pytest.raises(ValueError, match="columns"):
            protocol._validate_tables(
                dataclasses.replace(MOESIF, lce=renamed))

    @pytest.mark.parametrize("cells", [
        {("O", "Store"): ((), M)},                # a store hit in O
        {("E", "Store"): ((EV.ReqWr,), None)},    # a store miss in E
    ], ids=["O-hit", "E-miss"])
    def test_rejects_store_hits_outside_the_writable_states(self, cells):
        with pytest.raises(ValueError, match="store hits"):
            protocol._validate_tables(self._with_lce_cells(cells))

    def test_classify(self):
        assert classify_request(0x8000_0000, False) is \
            AddressClass.CacheableCoherent
        assert classify_request(0x8000_0000, True) is \
            AddressClass.UncachedToCacheable
        assert classify_request(0x1000, True) is \
            AddressClass.UncachedToUncacheable
        assert classify_request(0x1000, False) is \
            AddressClass.UncachedToUncacheable
