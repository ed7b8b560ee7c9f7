"""Explicit-state model checker for the coherence protocol tables.

The model abstracts the system to a single memory block: each cache holds
(state, is-latest-data, outstanding-op), the directory holds its recorded
per-cache states plus one in-flight transaction, and the networks are
multisets with nondeterministic removal.  Data is abstracted to a single
"is latest" bit per copy: a store makes the writer's copy latest and every
other copy stale, and the checked data-value invariant is that no cache
ever holds a valid stale copy.

All transition behavior is derived from the protocol tables at expansion
time — the checker has no hand-written per-cell rules — so a table bug is
a checker counterexample and vice versa.  Seeded mutations deliberately
bend one rule each to demonstrate the checker catches real bugs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .protocol import (CommandKind, CoherenceState, DirRequestKind, Emission,
                       ImpossibleTransition, InvalidateSet, LceEvent,
                       LceEventKind, PROTOCOLS, RequesterGrant)

I, S, E, M, O, F = CoherenceState

_NUM = {s: n for n, s in enumerate(CoherenceState)}
_STATE = list(CoherenceState)
OWNER_NUMS = frozenset(_NUM[s] for s in (E, M, O, F))
VALID_NUMS = frozenset(_NUM[s] for s in (S, E, M, O, F))
WRITABLE_NUMS = frozenset(_NUM[s] for s in (E, M))

# Outstanding-operation codes per cache.
IDLE, RD, RD_NE, WR, REPL = range(5)
_REQ_NAMES = {RD: "read", RD_NE: "read-ne", WR: "write", REPL: "replace"}

# Directory-to-cache command codes reuse CommandKind by enumeration index.
_CK_NUM = {k: n for n, k in enumerate(CommandKind)}
_CK = list(CommandKind)
_CK_EVENT = {CommandKind.Inv: LceEventKind.Inv, CommandKind.StW: LceEventKind.StW,
             CommandKind.Wb: LceEventKind.Wb, CommandKind.StWb: LceEventKind.StWb,
             CommandKind.Tr: LceEventKind.Tr, CommandKind.StTr: LceEventKind.StTr,
             CommandKind.StTrWb: LceEventKind.StTrWb,
             CommandKind.Data: LceEventKind.Data}

MUTATIONS = ("drop-invalidations", "grant-e-with-sharers",
             "skip-writeback", "wrong-transfer-state")


class ModelError(Exception):
    """The model reached a configuration the tables declare impossible."""


@dataclass(frozen=True)
class CheckConfig:
    protocol: str = "mesi"
    caches: int = 2
    mutation: Optional[str] = None
    include_ne: bool = True
    include_repl: bool = True
    max_states: Optional[int] = None
    max_depth: Optional[int] = None


@dataclass
class CheckResult:
    verified: bool
    exhaustive: bool
    states: int
    depth: int
    violation: Optional[str] = None
    trace: list = field(default_factory=list)

    def summary(self) -> str:
        if self.verified:
            word = "Verified" if self.exhaustive else "No violation (bounded)"
            return (f"{word}: {self.states} states, depth {self.depth}")
        lines = [f"VIOLATION at depth {self.depth} "
                 f"({self.states} states explored): {self.violation}"]
        lines += [f"  {i}. {step}" for i, step in enumerate(self.trace, 1)]
        return "\n".join(lines)


# State layout (all plain ints/tuples, fully hashable):
#   caches:  ((state, latest, pend), ...) per cache
#   dir_rec: (state, ...) per cache as recorded by the directory
#   mem_latest: 0/1
#   txn: () or (requester, acks_left, wb_left, grant_code, grant_state,
#               need_cohack, deferred_cmd)
#   grant_code: 0 none, 1 data-from-mem, 2 STW.  deferred_cmd is an
#   owner command held back until every InvAck is collected, matching
#   the engines' invalidate-then-transfer ordering.
#   msgs: sorted tuple of message tuples


def initial_state(caches: int):
    return (tuple((0, 0, IDLE) for _ in range(caches)),
            tuple(0 for _ in range(caches)), 1, (), ())


def _with_msg(msgs, *add, remove=None):
    pool = list(msgs)
    if remove is not None:
        pool.remove(remove)
    pool.extend(add)
    return tuple(sorted(pool))


def _stale_others(caches, mem_latest, msgs, writer):
    """A committed store makes every other copy stale."""
    new_caches = tuple(c if i == writer else (c[0], 0, c[2])
                       for i, c in enumerate(caches))
    new_msgs = tuple(sorted(m[:-1] + (0,) if m[0] in ("fill", "wb") else m
                            for m in msgs))
    return new_caches, 0, new_msgs


def check_invariants(state) -> Optional[str]:
    caches, dir_rec, mem_latest, txn, msgs = state
    valid = [i for i, c in enumerate(caches) if c[0] in VALID_NUMS]
    writers = [i for i in valid if caches[i][0] in WRITABLE_NUMS]
    owners = [i for i in valid if caches[i][0] in OWNER_NUMS]
    if writers and len(valid) > 1:
        return ("SWMR: cache %d writable (%s) while %s also valid"
                % (writers[0], _STATE[caches[writers[0]][0]].value,
                   [(i, _STATE[caches[i][0]].value) for i in valid]))
    if len(owners) > 1:
        return ("single-owner: %s"
                % [(i, _STATE[caches[i][0]].value) for i in owners])
    for i in valid:
        if not caches[i][1]:
            return (f"data-value: cache {i} holds stale data in "
                    f"{_STATE[caches[i][0]].value}")
    return None


class Model:
    def __init__(self, cfg: CheckConfig):
        if cfg.mutation is not None and cfg.mutation not in MUTATIONS:
            raise ValueError(f"unknown mutation {cfg.mutation!r}; "
                             f"choose from {MUTATIONS}")
        self.cfg = cfg
        self.tables = PROTOCOLS[cfg.protocol]
        self.n = cfg.caches

    # -- table consultation (single source of truth) -------------------------

    def _lce_action(self, st_num: int, kind: LceEventKind, attached=None):
        return self.tables.lce_event_action(
            _STATE[st_num], LceEvent(kind, attached))

    # -- successor generation -------------------------------------------------

    def successors(self, state):
        """Yield (label, next_state) for every enabled transition."""
        caches, dir_rec, mem_latest, txn, msgs = state
        mut = self.cfg.mutation

        # Cache-initiated operations.
        for i, (st, latest, pend) in enumerate(caches):
            if pend != IDLE:
                continue
            if st in WRITABLE_NUMS:
                # Store hit; E upgrades silently to M.
                nc = list(caches)
                nc[i] = (_NUM[M], 1, IDLE)
                c2, m2, g2 = _stale_others(tuple(nc), mem_latest, msgs, i)
                yield (f"cache {i}: store hit in {_STATE[st].value}",
                       (c2, dir_rec, m2, txn, g2))
            else:
                # Store miss or upgrade request.
                act = self._lce_action(st, LceEventKind.Store)
                if act.is_miss:
                    nc = list(caches)
                    nc[i] = (st, latest, WR)
                    yield (f"cache {i}: write request from {_STATE[st].value}",
                           (tuple(nc), dir_rec, mem_latest, txn,
                            _with_msg(msgs, ("req", i, WR))))
            if st == 0:
                kinds = (RD, RD_NE) if self.cfg.include_ne else (RD,)
                for kind in kinds:
                    nc = list(caches)
                    nc[i] = (st, latest, kind)
                    yield (f"cache {i}: {_REQ_NAMES[kind]} request",
                           (tuple(nc), dir_rec, mem_latest, txn,
                            _with_msg(msgs, ("req", i, kind))))
            if self.cfg.include_repl and _STATE[st] in (E, M, O):
                nc = list(caches)
                nc[i] = (st, latest, REPL)
                yield (f"cache {i}: evict {_STATE[st].value} block",
                       (tuple(nc), dir_rec, mem_latest, txn,
                        _with_msg(msgs, ("req", i, REPL))))

        # Message deliveries (nondeterministic multiset removal).
        for msg in set(msgs):
            if msg[0] == "req":
                if txn == ():
                    yield from self._start_txn(state, msg)
            elif msg[0] == "invack":
                r, acks, wb, grant, gst, coh, cmd = txn
                yield (f"directory: collect InvAck from cache {msg[1]}",
                       self._txn_progress(state, (r, acks - 1, wb, grant,
                                                  gst, coh, cmd), remove=msg))
            elif msg[0] == "wb":
                _, src, dirty, lat = msg
                r, acks, wb, grant, gst, coh, cmd = txn
                new_mem = lat if dirty else mem_latest
                yield (f"directory: consume "
                       f"{'dirty' if dirty else 'null'} writeback from "
                       f"cache {src}",
                       self._txn_progress(
                           (caches, dir_rec, new_mem, txn, msgs),
                           (r, acks, 0, grant, gst, coh, cmd), remove=msg))
            elif msg[0] == "cohack":
                r, acks, wb, grant, gst, coh, cmd = txn
                yield ("directory: transaction done (CohAck)",
                       self._txn_progress(state, (r, acks, wb, grant,
                                                  gst, 0, cmd), remove=msg))
            elif msg[0] in ("inv", "cmd"):
                yield from self._deliver_cmd(state, msg)
            elif msg[0] in ("fill", "stw"):
                yield from self._deliver_grant(state, msg)
            else:
                raise AssertionError(msg)

    # -- directory ------------------------------------------------------------

    def _dir_view(self, dir_rec):
        owner = next((j for j in range(self.n) if dir_rec[j] in OWNER_NUMS),
                     None)
        sharers = [j for j in range(self.n) if _STATE[dir_rec[j]] is S]
        dir_state = (_STATE[dir_rec[owner]] if owner is not None
                     else S if sharers else I)
        return owner, sharers, dir_state

    def _start_txn(self, state, msg):
        caches, dir_rec, mem_latest, txn, msgs = state
        _, i, pend = msg
        mut = self.cfg.mutation
        owner, sharers, dir_state = self._dir_view(dir_rec)
        if pend == REPL and _STATE[dir_rec[i]] not in (E, M, O):
            # The would-be victim lost its copy (or only held it shared)
            # before the replacement was processed: nothing to write back.
            nc = list(caches)
            st, lat, _ = caches[i]
            nc[i] = (st, lat, IDLE)
            yield (f"directory: drop stale replacement from cache {i}",
                   (tuple(nc), dir_rec, mem_latest, txn,
                    _with_msg(msgs, remove=msg)))
            return
        if pend == RD:
            kind = DirRequestKind.ReqRd
        elif pend == RD_NE:
            kind = DirRequestKind.ReqRdNE
        elif pend == REPL:
            kind = DirRequestKind.Replacement
        elif _STATE[dir_rec[i]] is I:
            kind = DirRequestKind.ReqWrFromI
        elif _STATE[dir_rec[i]] is S:
            kind = DirRequestKind.ReqWrFromS
        else:
            kind = DirRequestKind.ReqWrFromOF
        try:
            plan = self.tables.dir_request_plan(dir_state, kind)
        except ImpossibleTransition as exc:
            raise ModelError(f"directory hit a blank cell: {exc}") from exc

        grant_state = plan.grant_state
        invalidate = plan.invalidate_set
        if mut == "grant-e-with-sharers" and kind is DirRequestKind.ReqRd \
                and dir_state is S:
            grant_state, invalidate = E, InvalidateSet.Nothing

        if invalidate is InvalidateSet.Nothing or mut == "drop-invalidations":
            targets = []
        elif invalidate is InvalidateSet.OtherSharersAndOwner:
            targets = [t for t in sharers if t != i]
            if owner is not None and owner != i:
                targets.append(owner)
        else:   # AllSharers, OtherSharers: every sharer but the requester
            targets = [t for t in sharers if t != i]

        new_rec = list(dir_rec)
        adds = [("inv", t) for t in targets]
        for t in targets:
            new_rec[t] = 0
        wb = 0
        deferred = ()
        if plan.owner_command is not None:
            d = plan.owner_command
            tr_st = d.transfer_state
            if mut == "wrong-transfer-state" and tr_st is S:
                tr_st = M
            deferred = ("cmd", owner, _CK_NUM[d.command],
                        -1 if d.set_owner_state is None
                        else _NUM[d.set_owner_state],
                        -1 if tr_st is None else _NUM[tr_st], i)
            if d.set_owner_state is not None:
                new_rec[owner] = _NUM[d.set_owner_state]
            wb = int(d.command in (CommandKind.Wb, CommandKind.StWb,
                                   CommandKind.StTrWb))
        grant = {RequesterGrant.DataFromMemory: 1,
                 RequesterGrant.UpgradeStW: 2,
                 RequesterGrant.Nothing: 0}[plan.requester_grant]
        if mut == "grant-e-with-sharers" and grant_state is E \
                and kind is DirRequestKind.ReqRd and dir_state is S:
            grant = 1
        need_cohack = int(pend != REPL)
        if pend == REPL:
            new_rec[i] = 0
        else:
            new_rec[i] = _NUM[grant_state]
        new_txn = (i, len(targets), wb, grant,
                   -1 if grant_state is None else _NUM[grant_state],
                   need_cohack, deferred)
        nxt = self._txn_progress(
            (caches, tuple(new_rec), mem_latest, txn,
             _with_msg(msgs, *adds, remove=msg)), new_txn)
        yield (f"directory: accept {_REQ_NAMES[pend]} from cache {i} "
               f"(dir state {dir_state.value})", nxt)

    def _txn_progress(self, state, new_txn, remove=None):
        """Install an updated transaction record, firing the deferred
        grant or closing the transaction once collection is complete."""
        caches, dir_rec, mem_latest, _, msgs = state
        if remove is not None:
            msgs = _with_msg(msgs, remove=remove)
        r, acks, wb, grant, gst, coh, cmd = new_txn
        assert acks >= 0 and wb >= 0
        if acks == 0 and cmd:
            msgs = _with_msg(msgs, cmd)
            cmd = ()
        if acks == 0 and wb == 0 and not cmd and grant:
            if grant == 1:
                msgs = _with_msg(msgs, ("fill", r, gst, mem_latest))
            else:
                msgs = _with_msg(msgs, ("stw", r, gst))
            grant = 0
        if acks == 0 and wb == 0 and grant == 0 and coh == 0 and not cmd:
            return (caches, dir_rec, mem_latest, (), msgs)
        return (caches, dir_rec, mem_latest,
                (r, acks, wb, grant, gst, coh, cmd), msgs)

    # -- cache message handling ------------------------------------------------

    def _deliver_cmd(self, state, msg):
        caches, dir_rec, mem_latest, txn, msgs = state
        if msg[0] == "inv":
            i, ck, set_st, tr_st, target = msg[1], _CK_NUM[CommandKind.Inv], -1, -1, -1
        else:
            _, i, ck, set_st, tr_st, target = msg
        st, latest, pend = caches[i]
        kind = _CK_EVENT[_CK[ck]]
        attached = _STATE[set_st] if set_st >= 0 else None
        try:
            act = self._lce_action(st, kind, attached)
        except (ImpossibleTransition, ValueError) as exc:
            raise ModelError(
                f"cache {i} in {_STATE[st].value} got {kind.value}: {exc}"
            ) from exc
        adds = []
        mut = self.cfg.mutation
        for em in act.sends:
            if em is Emission.InvAck:
                adds.append(("invack", i))
            elif em is Emission.NullWB:
                adds.append(("wb", i, 0, 0))
            elif em is Emission.DirtyWB:
                if mut == "skip-writeback":
                    adds.append(("wb", i, 0, 0))
                else:
                    adds.append(("wb", i, 1, latest))
            elif em is Emission.DataToTarget:
                adds.append(("fill", target, tr_st, latest))
            else:
                raise AssertionError(em)
        nxt_st = st if act.next_state is None else _NUM[act.next_state]
        if pend == REPL and kind is LceEventKind.StWb:
            pend = IDLE   # the eviction's writeback completes it
        nc = list(caches)
        nc[i] = (nxt_st, latest, pend)
        yield (f"cache {i}: {kind.value} -> "
               f"{_STATE[nxt_st].value}",
               (tuple(nc), dir_rec, mem_latest, txn,
                _with_msg(msgs, *adds, remove=msg)))

    def _deliver_grant(self, state, msg):
        caches, dir_rec, mem_latest, txn, msgs = state
        if msg[0] == "fill":
            _, i, gst, lat = msg
        else:
            _, i, gst = msg
            lat = caches[i][1]
        st, latest, pend = caches[i]
        nc = list(caches)
        write = pend == WR
        nc[i] = (gst, 1 if write else lat, IDLE)
        new_msgs = _with_msg(msgs, ("cohack", i), remove=msg)
        nstate = (tuple(nc), dir_rec, mem_latest, txn, new_msgs)
        if write:
            c2, m2, g2 = _stale_others(nstate[0], mem_latest, new_msgs, i)
            nstate = (c2, dir_rec, m2, txn, g2)
        verb = "install fill" if msg[0] == "fill" else "upgrade (STW)"
        yield (f"cache {i}: {verb} -> {_STATE[gst].value}", nstate)


def check(cfg: CheckConfig) -> CheckResult:
    """Breadth-first exploration; deterministic, first counterexample."""
    model = Model(cfg)
    init = initial_state(cfg.caches)
    parents = {init: None}
    frontier = deque([(init, 0)])
    states = 1
    depth = 0
    capped = False

    def trace_to(state):
        steps = []
        cur = parents[state]
        while cur is not None:
            prev, lab = cur
            steps.append(lab)
            cur = parents[prev]
        return list(reversed(steps))

    bad = check_invariants(init)
    if bad:
        return CheckResult(False, False, states, 0, bad, [])
    while frontier:
        state, d = frontier.popleft()
        depth = max(depth, d)
        if cfg.max_depth is not None and d >= cfg.max_depth:
            capped = True
            continue
        try:
            succs = sorted(model.successors(state),
                           key=lambda t: (t[0], t[1]))
        except ModelError as exc:
            return CheckResult(False, False, states, d,
                               f"impossible transition: {exc}",
                               trace_to(state))
        for label, nxt in succs:
            if nxt in parents:
                continue
            parents[nxt] = (state, label)
            states += 1
            bad = check_invariants(nxt)
            if bad:
                return CheckResult(False, False, states, d + 1, bad,
                                   trace_to(nxt))
            if cfg.max_states is not None and states >= cfg.max_states:
                capped = True
                frontier.clear()
                break
            frontier.append((nxt, d + 1))
    return CheckResult(True, not capped, states, depth)
