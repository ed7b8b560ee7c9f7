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
a checker counterexample and vice versa.  A cache's own operations come
from its Load and Store cells and the directory's Replacement column, a
request's directory column from `protocol.request_kind`, and a command's
effect from its cache-controller cell.  Seeded mutations deliberately
bend one rule each to demonstrate the checker catches real bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .protocol import (LOAD, STORE, CommandKind, CoherenceState,
                       DirRequestKind, Emission, ImpossibleTransition,
                       InvalidateSet, PROTOCOLS, RequesterGrant, request_kind)

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

MUTATIONS = ("drop-invalidations", "grant-e-with-sharers",
             "skip-writeback", "wrong-transfer-state")


class ModelError(Exception):
    """The model reached a configuration the tables declare impossible."""


@dataclass(frozen=True)
class CheckConfig:
    protocol: str = "mesi"
    caches: int = 2
    mutation: Optional[str] = None
    max_states: Optional[int] = None
    max_depth: Optional[int] = None

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of "
                             f"{', '.join(PROTOCOLS)}, got {self.protocol!r}")
        if self.mutation is not None and self.mutation not in MUTATIONS:
            raise ValueError(f"mutation must be one of "
                             f"{', '.join(MUTATIONS)}, got {self.mutation!r}")
        if not 0 <= self.caches < 1 << _N_BITS:
            raise ValueError(f"caches must be from 0 to "
                             f"{(1 << _N_BITS) - 1}, got {self.caches}")
        if self.max_states is not None and self.max_states < 1:
            raise ValueError(f"max_states must be at least 1, "
                             f"got {self.max_states}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"max_depth must not be negative, "
                             f"got {self.max_depth}")


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


# State layout.  A state is one int of fixed bit fields, from bit 0 up:
#   the number of caches n                     _N_BITS
#   per cache, an entry: coherence state (3 bits), is-latest (1),
#     outstanding op (3)                       _ENTRY_BITS each
#   per cache, the state the directory records _REC_BITS each
#   mem_latest                                 1 bit
#   the open transaction: 0 for none, else the number its Model interned
#     the tuple (requester, acks_left, wb_left, grant_code, grant_state,
#     need_cohack, deferred_cmd) under        _TXN_BITS
#   per message, the number of copies in flight  _COUNT_BITS each
# grant_code: 0 none, 1 data-from-mem, 2 STW.  deferred_cmd is an owner
# command held back until every InvAck is collected, matching the engines'
# invalidate-then-transfer ordering.  Messages are tuples such as
# ("req", cache, op); a Model numbers each the first time it meets it, so
# message k's count sits _COUNT_BITS * k bits above the transaction, and a
# state means something only to the Model that built it.  The cache count
# in the low bits lets `check_invariants` read a state alone.
#
# A transition is compiled once per Model, from the table-derived rules,
# into an int added to the state, plus the message fields it sends to and
# the writer whose store stales every other copy (see `_compile`).  The
# compiled transitions are memoised on plain ints: a cache's own operations
# on (cache, entry); a message's delivery, per message, on the requester's
# entry, the records and mem_latest (a request), on the transaction and
# mem_latest (a response to the directory) or on the receiving cache's
# entry (anything else).
#
# `check` stores each reached state once, as the key of `parents`, whose
# value is the state it was first reached from (None for the initial
# state), and evaluates the invariants once per distinct caches field.
# Transition labels are not stored: a counterexample's labels are
# re-derived by expanding each state on its path again.

_N_BITS = 8
_ENTRY_BITS = 7
_ENTRY_MASK = (1 << _ENTRY_BITS) - 1
_LATEST = 1 << 3             # the is-latest bit within an entry
_PEND_SHIFT = 4              # the outstanding op within an entry
_REC_BITS = 3
_TXN_BITS = 16
_COUNT_BITS = 2
_COUNT_MAX = (1 << _COUNT_BITS) - 1

_LETTER = [s.value for s in CoherenceState]

# How a message's delivery is keyed (see `Model._expand`).
_REQUEST, _RESPONSE, _TO_CACHE = range(3)
_KIND = {"req": _REQUEST, "invack": _RESPONSE, "wb": _RESPONSE,
         "cohack": _RESPONSE, "inv": _TO_CACHE, "cmd": _TO_CACHE,
         "fill": _TO_CACHE, "stw": _TO_CACHE}


def _entry(st, latest, pend):
    return st | latest << 3 | pend << _PEND_SHIFT


def _entry_fields(entry):
    return entry & 7, entry >> 3 & 1, entry >> _PEND_SHIFT


def _caches_bits(n):
    """The number of low bits that hold n and the n cache entries."""
    return _N_BITS + _ENTRY_BITS * n


def initial_state(caches: int) -> int:
    """Every cache idle in I with no data, every record I, memory
    latest, no transaction and no message.  `CheckConfig` bounds the
    cache count to what the count field holds."""
    return caches | 1 << (_caches_bits(caches) + _REC_BITS * caches)


def check_invariants(state) -> Optional[str]:
    n = state & (1 << _N_BITS) - 1
    caches = state >> _N_BITS & (1 << _ENTRY_BITS * n) - 1
    entries = [caches >> _ENTRY_BITS * i & _ENTRY_MASK for i in range(n)]
    states = [e & 7 for e in entries]
    valid = [i for i, st in enumerate(states) if st in VALID_NUMS]
    writers = [i for i in valid if states[i] in WRITABLE_NUMS]
    owners = [i for i in valid if states[i] in OWNER_NUMS]
    if writers and len(valid) > 1:
        return ("SWMR: cache %d writable (%s) while %s also valid"
                % (writers[0], _LETTER[states[writers[0]]],
                   [(i, _LETTER[states[i]]) for i in valid]))
    if len(owners) > 1:
        return ("single-owner: %s"
                % [(i, _LETTER[states[i]]) for i in owners])
    for i in valid:
        if not entries[i] & _LATEST:
            return (f"data-value: cache {i} holds stale data in "
                    f"{_LETTER[states[i]]}")
    return None


class Model:
    def __init__(self, cfg: CheckConfig):
        self.cfg = cfg
        self.tables = PROTOCOLS[cfg.protocol]
        self.n = cfg.caches

    # -- layout, message and transaction numbering ---------------------------
    #
    # Built the first time a search needs them, so that constructing a
    # Model costs no more than its configuration.

    @cached_property
    def _layout(self) -> tuple:
        """(per cache: (cache << _ENTRY_BITS, entry shift), shift of the
        records, shift of mem_latest, shift of message 0)."""
        n = self.n
        rec = _caches_bits(n)
        mem = rec + _REC_BITS * n
        return (tuple((i << _ENTRY_BITS, _N_BITS + _ENTRY_BITS * i)
                      for i in range(n)),
                rec, mem, mem + 1 + _TXN_BITS)

    @cached_property
    def _messages(self) -> list:
        """Message number -> (delivery kind, cache it names, message,
        {context: compiled delivery}, number of its stale copy or -1)."""
        return []

    @cached_property
    def _message_numbers(self) -> dict:
        return {}

    @cached_property
    def _latest_data(self) -> int:
        """The count fields of the numbered data messages that carry the
        latest data, which a store stales."""
        return 0

    @cached_property
    def _txns(self) -> list:
        """Transaction number -> transaction tuple; 0 is no transaction."""
        return [None]

    @cached_property
    def _txn_numbers(self) -> dict:
        return {}

    @cached_property
    def _local_ops(self) -> dict:
        """cache << _ENTRY_BITS | entry -> the cache's compiled own
        operations."""
        return {}

    @cached_property
    def _stale_masks(self) -> list:
        """Per writer: the state bits a store by it keeps (everything but
        mem_latest and the other caches' is-latest bits)."""
        slots, _, mem, _ = self._layout
        latest = [_LATEST << shift for _, shift in slots]
        return [~(sum(latest) - latest[w] + (1 << mem))
                for w in range(self.n)]

    def _number(self, msg) -> int:
        """The number of message `msg`, given on first sight."""
        num = self._message_numbers.get(msg)
        if num is None:
            num = self._message_numbers[msg] = len(self._messages)
            self._messages.append((_KIND[msg[0]], msg[1], msg, {}, -1))
            if msg[0] in ("fill", "wb") and msg[-1]:
                self._latest_data |= _COUNT_MAX << self._shift(num)
                self._messages[num] = self._messages[num][:4] + (
                    self._number(msg[:-1] + (0,)),)
        return num

    def _shift(self, num) -> int:
        return self._layout[3] + _COUNT_BITS * num

    def _txn_number(self, txn) -> int:
        num = self._txn_numbers.get(txn)
        if num is None:
            num = len(self._txns)
            if num >> _TXN_BITS:
                raise ModelError(f"more than {num - 1} distinct transactions")
            self._txn_numbers[txn] = num
            self._txns.append(txn)
        return num

    def _overflow(self, full) -> ModelError:
        """The error for adding a message to the count field `full`."""
        num = (full.bit_length() - _COUNT_BITS - self._layout[3]) \
            // _COUNT_BITS
        return ModelError(f"more than {_COUNT_MAX} copies of "
                          f"{self._messages[num][2]} in flight")

    # -- table consultation (single source of truth) -------------------------

    def _local_rule(self, i, entry):
        """The operations cache i can start in `entry`: ((new entry,
        request sent as a 1-tuple or None for a store hit, label text),
        ...)."""
        st, latest, pend = entry
        if pend != IDLE:
            return ()
        tables, state = self.tables, _STATE[st]
        store = tables.lce_event_action(state, STORE)
        if store.is_miss:
            # Store miss or upgrade request.
            ops = [((st, latest, WR), (("req", i, WR),),
                    f"write request from {_LETTER[st]}")]
        else:
            # Store hit, with the cell's silent state change (E to M).
            nxt = st if store.next_state is None else _NUM[store.next_state]
            ops = [((nxt, 1, IDLE), None, f"store hit in {_LETTER[st]}")]
        if tables.lce_event_action(state, LOAD).is_miss:
            for kind in (RD, RD_NE):
                ops.append(((st, latest, kind), (("req", i, kind),),
                            f"{_REQ_NAMES[kind]} request"))
        if state in tables.replacement_states:
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
        try:
            kind = (DirRequestKind.Replacement if pend == REPL
                    else request_kind(pend == WR, pend == RD_NE,
                                      _STATE[dir_rec[i]]))
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
        kind = _CK[ck]
        attached = _STATE[set_st] if set_st >= 0 else None
        try:
            act = self.tables.lce_event_action(_STATE[st], kind._value_,
                                               attached)
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
        if pend == REPL and kind is CommandKind.StWb:
            pend = IDLE   # the eviction's writeback completes it
        return (i, (nxt_st, latest, pend), tuple(adds),
                f"{kind.value} -> {_LETTER[nxt_st]}")

    def _txn_progress(self, txn, mem_latest):
        """Transaction `txn` after an event: (its number, or 0 once it
        closes; the messages it sends).  Once collection is complete it
        fires the deferred owner command and then the grant."""
        r, acks, wb, grant, gst, coh, cmd = txn
        if acks < 0 or wb < 0:
            raise ModelError(f"cache {r} got more responses than it awaited")
        adds = ()
        if acks == 0:
            if cmd:
                adds = (cmd,)
                cmd = ()
            if wb == 0:
                if grant:
                    adds += (("fill", r, gst, mem_latest) if grant == 1
                             else ("stw", r, gst),)
                    grant = 0
                if coh == 0:
                    return 0, adds
        return self._txn_number((r, acks, wb, grant, gst, coh, cmd)), adds

    # -- compiled transitions -------------------------------------------------

    def _compile(self, delta, removed, adds, writer, label):
        """A transition as (int to add to the state, ((count field, limit),
        ...), writer or -1, label): the state gains `delta`, one copy of
        message number `removed` (none if -1) is taken and every message
        in `adds` is sent.  Sending to a field whose value exceeds its
        limit would overflow it.  A writer's store then stales every
        other copy (`_stale`)."""
        counts = {}
        for msg in adds:
            shift = self._shift(self._number(msg))
            counts[shift] = counts.get(shift, 0) + 1
        if removed >= 0:
            shift = self._shift(removed)
            counts[shift] = counts.get(shift, 0) - 1
        checks = []
        for shift, count in counts.items():
            delta += count << shift
            if count > 0:
                checks.append((_COUNT_MAX << shift,
                               (_COUNT_MAX - count) << shift))
        return delta, tuple(checks), writer, label

    def _compile_local(self, i, entry):
        shift = self._layout[0][i][1]
        return tuple(
            self._compile((_entry(*new_entry) - entry) << shift, -1,
                          req or (), i if req is None else -1,
                          f"cache {i}: {text}")
            for new_entry, req, text in self._local_rule(
                i, _entry_fields(entry)))

    def _compile_delivery(self, num, context):
        """The delivery of message `num` in `context` (see the layout
        comment)."""
        slots, rec, mem, _ = self._layout
        _, i, msg, _, _ = self._messages[num]
        tag = msg[0]
        if tag == "req":
            entry = context & _ENTRY_MASK
            records = context >> _ENTRY_BITS
            dir_rec = tuple(records >> (_REC_BITS * j) & 7
                            for j in range(self.n))
            pend = msg[2]
            if (pend == REPL and _STATE[dir_rec[i]]
                    not in self.tables.replacement_states):
                # The would-be victim lost its copy (or only held it
                # shared) before the replacement was processed: nothing
                # to write back.
                st, latest, _ = _entry_fields(entry)
                return self._compile(
                    (_entry(st, latest, IDLE) - entry) << slots[i][1], num,
                    (), -1,
                    f"directory: drop stale replacement from cache {i}")
            new_rec, adds, new_txn, letter = self._dir_rule(dir_rec, msg)
            txn, sent = self._txn_progress(new_txn, records >> (_REC_BITS
                                                                * self.n))
            delta = sum((r - d) << (rec + _REC_BITS * j)
                        for j, (r, d) in enumerate(zip(new_rec, dir_rec)))
            return self._compile(
                delta + (txn << (mem + 1)), num, adds + sent, -1,
                f"directory: accept {_REQ_NAMES[pend]} from cache {i} "
                f"(dir state {letter})")
        if tag in ("invack", "wb", "cohack"):
            txn, mem_latest = context >> 1, context & 1
            if not txn:
                raise ModelError(f"directory got {msg} with no transaction "
                                 "open")
            r, acks, wb, grant, gst, coh, cmd = self._txns[txn]
            if tag == "invack":
                acks -= 1
                label = f"directory: collect InvAck from cache {i}"
            elif tag == "wb":
                _, _, dirty, latest = msg
                if dirty:
                    mem_latest = latest
                wb = 0
                label = (f"directory: consume "
                         f"{'dirty' if dirty else 'null'} writeback "
                         f"from cache {i}")
            else:
                coh = 0
                label = "directory: transaction done (CohAck)"
            txn, sent = self._txn_progress(
                (r, acks, wb, grant, gst, coh, cmd), mem_latest)
            return self._compile(((txn << 1 | mem_latest) - context) << mem,
                                 num, sent, -1, label)
        shift = slots[i][1]
        if tag in ("inv", "cmd"):
            i, new_entry, adds, text = self._cmd_rule(
                _entry_fields(context), msg)
            return self._compile((_entry(*new_entry) - context) << shift,
                                 num, adds, -1, f"cache {i}: {text}")
        # A grant: "fill" or "stw".
        gst = msg[2]
        _, latest, pend = _entry_fields(context)
        write = pend == WR
        latest = 1 if write else msg[3] if tag == "fill" else latest
        verb = "install fill" if tag == "fill" else "upgrade (STW)"
        return self._compile((_entry(gst, latest, IDLE) - context) << shift,
                             num, (("cohack", i),), i if write else -1,
                             f"cache {i}: {verb} -> {_LETTER[gst]}")

    def _stale(self, state, writer):
        """A committed store by `writer` makes every other cached copy,
        memory and every data message stale."""
        state &= self._stale_masks[writer]
        data = state & self._latest_data
        if data:
            messages = self._messages
            num = -1
            data >>= self._layout[3]
            while data:
                skip = ((data & -data).bit_length() - 1) // _COUNT_BITS + 1
                data >>= skip * _COUNT_BITS
                num += skip
                shift = self._shift(num)
                count = state >> shift & _COUNT_MAX
                to = self._shift(messages[num][4])
                if (state >> to & _COUNT_MAX) + count > _COUNT_MAX:
                    raise self._overflow(_COUNT_MAX << to)
                state += (count << to) - (count << shift)
        return state

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
        """The successors of `state`: each cache's own operations, cache by
        cache, then the delivery of each distinct in-flight message, by
        message number.  With a `labels` list, also append each
        transition's label to it."""
        slots, rec, mem, base = self._layout
        caches = state & (1 << rec) - 1
        rules = []
        local_ops = self._local_ops
        for key, shift in slots:
            key |= caches >> shift & _ENTRY_MASK
            ops = local_ops.get(key)
            if ops is None:
                ops = local_ops[key] = self._compile_local(
                    key >> _ENTRY_BITS, key & _ENTRY_MASK)
            rules += ops

        # Message deliveries (nondeterministic multiset removal), each
        # memoised on its context as the layout comment describes.
        msgs = state >> base
        if msgs:
            messages = self._messages
            txn_mem = state >> mem & (1 << 1 + _TXN_BITS) - 1
            num = -1
            while msgs:
                # Skip to the next non-zero count field.
                skip = ((msgs & -msgs).bit_length() - 1) // _COUNT_BITS + 1
                msgs >>= skip * _COUNT_BITS
                num += skip
                kind, i, _, memo, _ = messages[num]
                if kind == _REQUEST:
                    if txn_mem > 1:
                        continue   # the directory serves one at a time
                    context = ((state >> rec & (1 << mem + 1 - rec) - 1)
                               << _ENTRY_BITS
                               | caches >> slots[i][1] & _ENTRY_MASK)
                elif kind == _RESPONSE:
                    context = txn_mem
                else:
                    context = caches >> slots[i][1] & _ENTRY_MASK
                rule = memo.get(context)
                if rule is None:
                    rule = memo[context] = self._compile_delivery(num,
                                                                  context)
                rules.append(rule)

        out = []
        for delta, checks, writer, label in rules:
            for full, limit in checks:
                if state & full > limit:
                    raise self._overflow(full)
            if writer < 0:
                out.append(state + delta)
            else:
                out.append(self._stale(state + delta, writer))
            if labels is not None:
                labels.append(label)
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
    return _search(Model(cfg), cfg)


def _search(model: Model, cfg: CheckConfig) -> CheckResult:
    successors = model.successors
    init = initial_state(cfg.caches)
    bad = check_invariants(init)
    if bad:
        return CheckResult(False, False, 1, 0, bad, [])
    parents = {init: None}
    # The cap is tested after each store, so a cap of one state stops here.
    if cfg.max_states == 1:
        return CheckResult(True, False, 1, 0)
    # The caches fields that satisfy the invariants (which read only them).
    caches_mask = (1 << _caches_bits(cfg.caches)) - 1
    checked = {init & caches_mask}
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
            own = state & caches_mask
            for nxt in succs:
                if nxt in parents:
                    continue
                caches = nxt & caches_mask
                if caches != own and caches not in checked:
                    bad = check_invariants(nxt)
                    if bad:
                        parents[nxt] = state
                        return CheckResult(False, False, len(parents),
                                           depth + 1, bad,
                                           _trace(model, parents, nxt))
                    checked.add(caches)
                parents[nxt] = state
                if cfg.max_states is not None \
                        and len(parents) >= cfg.max_states:
                    return CheckResult(True, False, len(parents), depth)
                next_level.append(nxt)
        if not next_level:
            return CheckResult(True, True, len(parents), depth)
        level = next_level
        depth += 1
