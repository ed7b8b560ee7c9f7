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

import gc
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
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
#   msgs: sorted tuple of message tuples (a multiset)
#
# `check` stores each reached state once, as the key of `parents`, whose
# value is the state it was first reached from (None for the initial
# state) and nothing else.  The caches, dir_rec, txn and msgs tuples of
# every stored state are interned in one pool per search, so states that
# agree in a part share one object.  Transition labels are not stored:
# a counterexample's labels are re-derived by expanding each state on its
# path again.

_LETTER = [s.value for s in CoherenceState]
_EMO_NUMS = frozenset(_NUM[s] for s in (E, M, O))
_M_NUM = _NUM[M]


def initial_state(caches: int):
    return (tuple((0, 0, IDLE) for _ in range(caches)),
            tuple(0 for _ in range(caches)), 1, (), ())


def _with(msgs, adds):
    """The sorted message tuple `msgs` with the messages `adds` added."""
    if not adds:
        return msgs
    if len(adds) == 1:
        k = bisect_right(msgs, adds[0])
        return msgs[:k] + adds + msgs[k:]
    return tuple(sorted(msgs + adds))


def _put(caches, i, entry):
    """`caches` with cache i's entry replaced."""
    new = list(caches)
    new[i] = entry
    return tuple(new)


def _stale_others(caches, msgs, writer):
    """A committed store by `writer` makes every other cached copy and
    every data message stale (the caller makes memory stale)."""
    new_caches = tuple(c if i == writer or not c[1] else (c[0], 0, c[2])
                       for i, c in enumerate(caches))
    if any(m[-1] and m[0] in ("fill", "wb") for m in msgs):
        msgs = tuple(sorted(m[:-1] + (0,) if m[0] in ("fill", "wb") else m
                            for m in msgs))
    return new_caches, msgs


@lru_cache(maxsize=None)
def _grant_msg(grant, r, gst, mem_latest):
    """The requester's grant as a 1-tuple of messages; one object per
    value, so the many stored states holding a grant share it."""
    return (("fill", r, gst, mem_latest) if grant == 1 else ("stw", r, gst),)


def _txn_progress(caches, dir_rec, mem_latest, msgs,
                  r, acks, wb, grant, gst, coh, cmd):
    """The state with transaction (r, acks, ..., cmd) installed, firing the
    deferred owner command and the grant, or closing the transaction, once
    collection is complete."""
    if acks < 0 or wb < 0:
        raise ModelError(f"cache {r} got more responses than it awaited")
    if acks == 0:
        if cmd:
            msgs = _with(msgs, (cmd,))
            cmd = ()
        if wb == 0:
            if grant:
                msgs = _with(msgs, _grant_msg(grant, r, gst, mem_latest))
                grant = 0
            if coh == 0:
                return (caches, dir_rec, mem_latest, (), msgs)
    return (caches, dir_rec, mem_latest, (r, acks, wb, grant, gst, coh, cmd),
            msgs)


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
    #
    # Each rule below is derived from the tables the first time a search
    # meets its inputs and kept on this model, keyed by plain tuples, so a
    # successor costs no table lookup.

    @cached_property
    def _local_rules(self) -> list:
        """Per cache: entry -> `_local_rule`."""
        return [{} for _ in range(self.n)]

    @cached_property
    def _dir_rules(self) -> dict:
        """(dir_rec, request message) -> `_dir_rule`."""
        return {}

    @cached_property
    def _cmd_rules(self) -> dict:
        """(cache entry, command message) -> `_cmd_rule`."""
        return {}

    def _local_rule(self, i, entry):
        """The operations cache i can start in `entry`: ((new entry,
        request sent as a 1-tuple or None for a store hit, label text),
        ...)."""
        st, latest, pend = entry
        if pend != IDLE:
            return ()
        ops = []
        if st in WRITABLE_NUMS:
            # Store hit; E upgrades silently to M.
            ops.append(((_M_NUM, 1, IDLE), None,
                        f"store hit in {_LETTER[st]}"))
        elif self.tables.lce_event_action(
                _STATE[st], LceEvent(LceEventKind.Store)).is_miss:
            # Store miss or upgrade request.
            ops.append(((st, latest, WR), (("req", i, WR),),
                        f"write request from {_LETTER[st]}"))
        if st == 0:
            for kind in ((RD, RD_NE) if self.cfg.include_ne else (RD,)):
                ops.append(((st, latest, kind), (("req", i, kind),),
                            f"{_REQ_NAMES[kind]} request"))
        elif st in _EMO_NUMS and self.cfg.include_repl:
            ops.append(((st, latest, REPL), (("req", i, REPL),),
                        f"evict {_LETTER[st]} block"))
        return tuple(ops)

    def _dir_view(self, dir_rec):
        owner = next((j for j in range(self.n) if dir_rec[j] in OWNER_NUMS),
                     None)
        sharers = [j for j in range(self.n) if _STATE[dir_rec[j]] is S]
        dir_state = (_STATE[dir_rec[owner]] if owner is not None
                     else S if sharers else I)
        return owner, sharers, dir_state

    def _dir_rule(self, dir_rec, msg):
        """The directory's acceptance of request `msg`: (new dir_rec,
        messages sent, new txn, dir state letter)."""
        _, i, pend = msg
        mut = self.cfg.mutation
        owner, sharers, dir_state = self._dir_view(dir_rec)
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
        adds = tuple(sorted(("inv", t) for t in targets))
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
        return tuple(new_rec), adds, new_txn, dir_state.value

    def _cmd_rule(self, entry, msg):
        """Cache `msg[1]` in `entry` handling command `msg`: (cache index,
        new entry, messages sent, label text)."""
        if msg[0] == "inv":
            i, ck, set_st, tr_st, target = msg[1], _CK_NUM[CommandKind.Inv], -1, -1, -1
        else:
            _, i, ck, set_st, tr_st, target = msg
        st, latest, pend = entry
        kind = _CK_EVENT[_CK[ck]]
        attached = _STATE[set_st] if set_st >= 0 else None
        try:
            act = self.tables.lce_event_action(_STATE[st],
                                               LceEvent(kind, attached))
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
        return (i, (nxt_st, latest, pend), tuple(sorted(adds)),
                f"{kind.value} -> {_LETTER[nxt_st]}")

    # -- successor generation -------------------------------------------------

    def successors(self, state) -> list:
        """Every state one enabled transition leads to, one entry per
        transition, in a fixed order."""
        return self._expand(state, None)

    def labelled_successors(self, state) -> list:
        """[(label, next state)] in the order `successors` gives them."""
        labels = []
        succs = self._expand(state, labels)
        return list(zip(labels, succs))

    def _expand(self, state, labels):
        """The successors of `state`; with a `labels` list, also append
        each transition's label to it."""
        caches, dir_rec, mem_latest, txn, msgs = state
        dir_rules = self._dir_rules
        cmd_rules = self._cmd_rules
        out = []

        # Cache-initiated operations.
        local_rules = self._local_rules
        for i, entry in enumerate(caches):
            ops = local_rules[i].get(entry)
            if ops is None:
                ops = local_rules[i][entry] = self._local_rule(i, entry)
            for new_entry, req, text in ops:
                nc = _put(caches, i, new_entry)
                if req is None:
                    nc, ms = _stale_others(nc, msgs, i)
                    out.append((nc, dir_rec, 0, txn, ms))
                else:
                    out.append((nc, dir_rec, mem_latest, txn,
                                _with(msgs, req)))
                if labels is not None:
                    labels.append(f"cache {i}: {text}")

        # Message deliveries (nondeterministic multiset removal), each
        # distinct message once, in the tuple's sorted order.
        prev = None
        for k, msg in enumerate(msgs):
            if msg == prev:
                continue
            prev = msg
            tag = msg[0]
            if tag == "req":
                if txn:
                    continue
                rest = msgs[:k] + msgs[k + 1:]
                i, pend = msg[1], msg[2]
                if pend == REPL and dir_rec[i] not in _EMO_NUMS:
                    # The would-be victim lost its copy (or only held it
                    # shared) before the replacement was processed: nothing
                    # to write back.
                    st, lat, _ = caches[i]
                    out.append((_put(caches, i, (st, lat, IDLE)), dir_rec,
                                mem_latest, txn, rest))
                    if labels is not None:
                        labels.append(
                            f"directory: drop stale replacement from cache {i}")
                    continue
                key = (dir_rec, msg)
                rule = dir_rules.get(key)
                if rule is None:
                    rule = dir_rules[key] = self._dir_rule(dir_rec, msg)
                new_rec, adds, new_txn, letter = rule
                out.append(_txn_progress(caches, new_rec, mem_latest,
                                         _with(rest, adds), *new_txn))
                if labels is not None:
                    labels.append(f"directory: accept {_REQ_NAMES[pend]} "
                                  f"from cache {i} (dir state {letter})")
            elif tag == "invack":
                r, acks, wb, grant, gst, coh, cmd = txn
                out.append(_txn_progress(caches, dir_rec, mem_latest,
                                         msgs[:k] + msgs[k + 1:],
                                         r, acks - 1, wb, grant, gst, coh,
                                         cmd))
                if labels is not None:
                    labels.append(
                        f"directory: collect InvAck from cache {msg[1]}")
            elif tag == "wb":
                _, src, dirty, lat = msg
                r, acks, wb, grant, gst, coh, cmd = txn
                out.append(_txn_progress(caches, dir_rec,
                                         lat if dirty else mem_latest,
                                         msgs[:k] + msgs[k + 1:],
                                         r, acks, 0, grant, gst, coh, cmd))
                if labels is not None:
                    labels.append(f"directory: consume "
                                  f"{'dirty' if dirty else 'null'} writeback "
                                  f"from cache {src}")
            elif tag == "cohack":
                r, acks, wb, grant, gst, coh, cmd = txn
                out.append(_txn_progress(caches, dir_rec, mem_latest,
                                         msgs[:k] + msgs[k + 1:],
                                         r, acks, wb, grant, gst, 0, cmd))
                if labels is not None:
                    labels.append("directory: transaction done (CohAck)")
            elif tag == "inv" or tag == "cmd":
                key = (caches[msg[1]], msg)
                rule = cmd_rules.get(key)
                if rule is None:
                    rule = cmd_rules[key] = self._cmd_rule(*key)
                i, entry, adds, text = rule
                out.append((_put(caches, i, entry), dir_rec, mem_latest, txn,
                            _with(msgs[:k] + msgs[k + 1:], adds)))
                if labels is not None:
                    labels.append(f"cache {i}: {text}")
            elif tag == "fill" or tag == "stw":
                i, gst = msg[1], msg[2]
                st, latest, pend = caches[i]
                write = pend == WR
                lat = 1 if write else msg[3] if tag == "fill" else latest
                nc = _put(caches, i, (gst, lat, IDLE))
                ms = _with(msgs[:k] + msgs[k + 1:], (("cohack", i),))
                if write:
                    nc, ms = _stale_others(nc, ms, i)
                    out.append((nc, dir_rec, 0, txn, ms))
                else:
                    out.append((nc, dir_rec, mem_latest, txn, ms))
                if labels is not None:
                    verb = "install fill" if tag == "fill" else "upgrade (STW)"
                    labels.append(f"cache {i}: {verb} -> {_LETTER[gst]}")
            else:
                raise AssertionError(msg)
        return out


def _trace(model: Model, parents: dict, state) -> list:
    """The labels of the transitions from the initial state to `state`
    along `parents`: each is the first transition, in expansion order,
    from the predecessor to the next state on the path."""
    path = [state]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path.reverse()
    return [next(label for label, s in model.labelled_successors(prev)
                 if s == nxt)
            for prev, nxt in zip(path, path[1:])]


def check(cfg: CheckConfig) -> CheckResult:
    """Breadth-first exploration; deterministic, first counterexample."""
    model = Model(cfg)
    # The search makes no reference cycles, so the cyclic garbage collector
    # would only rescan the ever-growing set of stored states (about 5% of
    # the time of an exhaustive 4-cache search).
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _search(model, cfg)
    finally:
        if collecting:
            gc.enable()


def _search(model: Model, cfg: CheckConfig) -> CheckResult:
    successors = model.successors
    init = initial_state(cfg.caches)
    bad = check_invariants(init)
    if bad:
        return CheckResult(False, False, 1, 0, bad, [])
    parents = {init: None}
    # Interned caches tuples, all of which satisfy the invariants (those
    # read only the caches), and interned other parts of stored states.
    checked = {init[0]: init[0]}
    intern = {}.setdefault
    level = [init]
    depth = 0
    while True:
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            return CheckResult(True, False, len(parents), depth)
        next_level = []
        for state in level:
            try:
                succs = successors(state)
            except ModelError as exc:
                return CheckResult(False, False, len(parents), depth,
                                   f"impossible transition: {exc}",
                                   _trace(model, parents, state))
            for nxt in succs:
                if nxt in parents:
                    continue
                caches, dir_rec, mem_latest, txn, msgs = nxt
                if caches is not state[0]:
                    canon = checked.get(caches)
                    if canon is None:
                        bad = check_invariants(nxt)
                        if bad:
                            parents[nxt] = state
                            return CheckResult(False, False, len(parents),
                                               depth + 1, bad,
                                               _trace(model, parents, nxt))
                        canon = checked[caches] = caches
                    caches = canon
                if dir_rec is not state[1]:
                    dir_rec = intern(dir_rec, dir_rec)
                if txn is not state[3]:
                    txn = intern(txn, txn)
                if msgs is not state[4]:
                    msgs = intern(msgs, msgs)
                nxt = (caches, dir_rec, mem_latest, txn, msgs)
                parents[nxt] = state
                if cfg.max_states is not None \
                        and len(parents) >= cfg.max_states:
                    return CheckResult(True, False, len(parents), depth)
                next_level.append(nxt)
        if not next_level:
            return CheckResult(True, True, len(parents), depth)
        level = next_level
        depth += 1
