"""Golden tests for the protocol tables.

The expected cells below are written out literally and independently of the
table-text parser, so a parsing or transcription bug cannot hide.
"""

import dataclasses

import pytest

from cohsim.protocol import (AddressClass, CoherenceState, DirRequestKind,
                             Emission, ImpossibleTransition, InvalidateSet,
                             LceEvent, LceEventKind, MESI, MOESIF,
                             RegionMap, RequesterGrant, classify_request,
                             state_permissions)

I, S, E, M, O, F = CoherenceState

L = LceEventKind
EV = Emission

# (state, event) -> (emissions, next state); next None = unchanged,
# "X" = taken from the command's attached state.
LCE_EXPECTED = {
    (I, L.Load): ((EV.ReqRd,), None),
    (I, L.Store): ((EV.ReqWr,), None),
    (I, L.Data): ((EV.CohAck,), "X"),
    (S, L.Load): ((), None),
    (S, L.Store): ((EV.ReqWr,), None),
    (S, L.Inv): ((EV.InvAck,), I),
    (S, L.StW): ((EV.CohAck,), M),
    (E, L.Load): ((), None),
    (E, L.Store): ((), M),
    (E, L.Wb): ((EV.NullWB,), E),
    (E, L.StWb): ((EV.NullWB,), "X"),
    (E, L.StTr): ((EV.DataToTarget,), "X"),
    (E, L.StTrWb): ((EV.DataToTarget, EV.NullWB), "X"),
    (M, L.Load): ((), None),
    (M, L.Store): ((), None),
    (M, L.Wb): ((EV.DirtyWB,), M),
    (M, L.StWb): ((EV.DirtyWB,), "X"),
    (M, L.StTr): ((EV.DataToTarget,), "X"),
    (M, L.StTrWb): ((EV.DataToTarget, EV.DirtyWB), "X"),
    (O, L.Load): ((), None),
    (O, L.Store): ((EV.ReqWr,), None),
    (O, L.Inv): ((EV.InvAck,), I),
    (O, L.StW): ((EV.CohAck,), M),
    (O, L.Wb): ((EV.DirtyWB,), O),
    (O, L.Tr): ((EV.DataToTarget,), O),
    (O, L.StWb): ((EV.DirtyWB,), "X"),
    (O, L.StTr): ((EV.DataToTarget,), "X"),
    (F, L.Load): ((), None),
    (F, L.Store): ((EV.ReqWr,), None),
    (F, L.Inv): ((EV.InvAck,), I),
    (F, L.StW): ((EV.CohAck,), M),
    (F, L.Tr): ((EV.DataToTarget,), F),
    (F, L.StTr): ((EV.DataToTarget,), "X"),
}

ALL_LCE_CELLS = [(s, k) for s in (I, S, E, M, O, F) for k in L]
LCE_BLANKS = sorted(set(ALL_LCE_CELLS) - set(LCE_EXPECTED),
                    key=lambda c: (c[0].value, c[1].value))

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


def _event(state, kind):
    if kind in (L.Data, L.StW, L.StWb, L.StTr, L.StTrWb):
        return LceEvent(kind, M if state is not M else S)
    return LceEvent(kind)


class TestLceTable:
    @pytest.mark.parametrize("state,kind", sorted(
        LCE_EXPECTED, key=lambda c: (c[0].value, c[1].value)),
        ids=lambda v: getattr(v, "value", v))
    def test_filled_cell(self, state, kind):
        ev = _event(state, kind)
        act = MOESIF.lce_event_action(state, ev)
        sends, nxt = LCE_EXPECTED[(state, kind)]
        assert act.sends == sends
        if nxt == "X":
            assert act.next_state is ev.attached_state
        else:
            assert act.next_state is nxt

    @pytest.mark.parametrize("state,kind", LCE_BLANKS,
                             ids=lambda v: getattr(v, "value", v))
    def test_blank_cell_is_impossible(self, state, kind):
        with pytest.raises(ImpossibleTransition):
            MOESIF.lce_event_action(state, _event(state, kind))

    def test_cell_counts(self):
        assert len(LCE_EXPECTED) == 33
        assert len(LCE_BLANKS) == 27

    def test_mesi_has_no_owner_rows(self):
        assert MESI.states == (I, S, E, M)
        act = MESI.lce_event_action(E, _event(E, L.StTrWb))
        assert act.sends == (EV.DataToTarget, EV.NullWB)
        with pytest.raises(ImpossibleTransition):
            MESI.lce_event_action(O, _event(O, L.Load))


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
    def test_permissions(self):
        assert state_permissions(I) == {"read": False, "write": False}
        assert state_permissions(S)["read"] and not state_permissions(S)["write"]
        for st in (E, M):
            assert state_permissions(st) == {"read": True, "write": True}
        for st in (O, F):
            assert state_permissions(st) == {"read": True, "write": False}

    def test_classify(self):
        assert classify_request(0x8000_0000, False) is \
            AddressClass.CacheableCoherent
        assert classify_request(0x8000_0000, True) is \
            AddressClass.UncachedToCacheable
        assert classify_request(0x1000, True) is \
            AddressClass.UncachedToUncacheable
        assert classify_request(0x1000, False) is \
            AddressClass.UncachedToUncacheable

    def test_custom_region_map(self):
        rm = RegionMap(cacheable=((0x0, 0x1000),))
        assert classify_request(0x800, False, rm) is \
            AddressClass.CacheableCoherent
        assert classify_request(0x1000, False, rm) is \
            AddressClass.UncachedToUncacheable
