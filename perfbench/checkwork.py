"""Model-checker workload: check-mc.

One run checks, with nothing but the checker: the seeded mutations (each
must give a counterexample within `MAX_CE_DEPTH`) and the bounded 8-cache
MESI search under a fixed state cap (must find no violation), once each;
then the exhaustive 4-cache MOESIF search (must verify exhaustively),
repeated for the run's measured time.  The inputs are fixed configurations; the
seed does not change them.
"""

from __future__ import annotations

import statistics
import time

from cohsim import checker
from cohsim.checker import MUTATIONS, CheckConfig, Model, check

from hosttime import Speed, clock, peak_rss_mib
from spans import Patch, Spans

EXHAUSTIVE = CheckConfig(protocol="moesif", caches=4)
BOUNDED = CheckConfig(protocol="mesi", caches=8, max_states=200_000)
MUTANTS = tuple(CheckConfig(protocol=p, caches=3, mutation=m)
                for p in ("mesi", "moesif") for m in MUTATIONS)
MAX_CE_DEPTH = 12
LAYER_NAMES = frozenset((
    "checker.successors_s", "checker.successors_generated",
    "checker.invariants_s", "checker.store_s", "checker.states",
    "checker.dup_ratio", "check.verify_s", "check.bounded_depth",
    "tracing.overhead_ratio"))
SETUPS_PER_VERDICT = 3
SETUP_BATCH = 200   # Model constructions are microseconds; time a batch


def setup_times(repeats: int) -> list:
    """Host times to construct the run's Models (every config once)."""
    configs = (EXHAUSTIVE, BOUNDED) + MUTANTS
    times = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(SETUP_BATCH):
            for cfg in configs:
                Model(cfg)
        times.append((clock() - t0) / SETUP_BATCH)
    return times


def timed_check(cfg: CheckConfig):
    t0 = clock()
    result = check(cfg)
    return result, clock() - t0


def verdict_error(cfg: CheckConfig, result) -> str:
    """Why `result` is the wrong verdict for `cfg`, or ""."""
    label = f"{cfg.protocol} caches={cfg.caches} mutation={cfg.mutation}"
    if cfg.mutation is not None:
        if result.verified or not result.trace:
            return f"{label}: seeded bug not caught"
        if result.depth > MAX_CE_DEPTH:
            return f"{label}: counterexample at depth {result.depth}"
        return ""
    if not result.verified:
        return f"{label}: {result.violation}"
    if cfg.max_states is None and not result.exhaustive:
        return f"{label}: not exhaustive"
    return ""


def fixed_verdicts():
    """The mutation and bounded checks: (lines, one `verdict_error` per
    verdict, bounded result)."""
    lines, errors = [], []
    for cfg in MUTANTS:
        result, dt = timed_check(cfg)
        errors.append(verdict_error(cfg, result))
        lines.append(f"verdict {cfg.protocol} caches={cfg.caches} "
                     f"mutation={cfg.mutation}: counterexample at depth "
                     f"{result.depth} ({result.states} states, "
                     f"{dt:.3f} s host)")
    bounded, dt = timed_check(BOUNDED)
    errors.append(verdict_error(BOUNDED, bounded))
    lines.append(f"verdict {BOUNDED.protocol} caches={BOUNDED.caches} "
                 f"cap={BOUNDED.max_states}: {bounded.summary()} "
                 f"({dt:.3f} s host)")
    lines.append(f"metric check.bounded_depth {bounded.depth} BFS depth "
                 f"(exact, under a {BOUNDED.max_states}-state cap)")
    return lines, errors, bounded


def summarize(lines, verdicts, exhaustive, verify_s):
    """Fold the exhaustive results [(result, seconds)] into the report.
    `verdicts` holds one `verdict_error` per verdict so far.  Returns
    (lines, correct, attempted, failed, first exhaustive result)."""
    verdicts = verdicts + [verdict_error(EXHAUSTIVE, r) for r, _ in exhaustive]
    failed = [e for e in verdicts if e]
    errors = list(failed)
    states = {r.states for r, _ in exhaustive}
    if len(states) != 1:
        errors.append(f"exhaustive state count differs between runs: "
                      f"{sorted(states)}")
    result, _ = exhaustive[0]
    lines.append(f"verdict {EXHAUSTIVE.protocol} caches={EXHAUSTIVE.caches}: "
                 f"{result.summary()}")
    lines.append(f"metric check.verify_s {verify_s:.6g} s (host, median "
                 "over untraced exhaustive verdicts)")
    lines += [f"error {e}" for e in errors]
    lines.append(f"metric failed_ratio {len(failed) / len(verdicts):.6g} "
                 f"failed/attempted ({len(failed)}/{len(verdicts)} verdicts)")
    return lines, not errors, len(verdicts), len(failed), result


def measure(seconds: float):
    """Untraced run: returns (lines, correct, attempted, failed, metrics)."""
    setups = setup_times(SETUPS_PER_VERDICT)
    lines, verdicts, _ = fixed_verdicts()
    speed = Speed()
    t0 = time.perf_counter()
    exhaustive, factors = [], []
    while not exhaustive or time.perf_counter() - t0 < seconds:
        # Set-ups are spread over the run, so that they and the verdicts
        # sample the same stretch of a shared machine's speed.
        setups += setup_times(SETUPS_PER_VERDICT)
        exhaustive.append(timed_check(EXHAUSTIVE))
        factors.append(speed.factor())
        if len(exhaustive) == 1:
            rss = peak_rss_mib()   # after a fixed amount of work
    verify_s = statistics.median(dt * f
                                 for (_, dt), f in zip(exhaustive, factors))
    lines, correct, attempted, failed, result = summarize(
        lines, verdicts, exhaustive, verify_s)
    raw = statistics.median(dt for _, dt in exhaustive)
    lines.append(
        f"unscaled verify_s {raw:.6g} s, setup_s "
        f"{statistics.median(setups):.6g} s (CPU time); machine "
        f"speed factor {speed.median_factor():.4f} (median of "
        f"{len(speed.samples)} reference runs)")
    metrics = {"run_s": verify_s,
               "event_us": 1e6 * verify_s / result.states,
               "sim_events": result.states,
               "setup_s": statistics.median(setups) * speed.median_factor(),
               "peak_rss_mib": rss}
    return lines, correct, attempted, failed, metrics


def trace_run():
    """Traced run: one untraced and one traced exhaustive verdict, plus the
    fixed verdicts.  Returns (lines, correct, attempted, failed, per-layer
    metrics)."""
    lines, verdicts, bounded = fixed_verdicts()
    speed = Speed()
    plain = timed_check(EXHAUSTIVE)
    plain_s = plain[1] * speed.factor()
    spans = Spans()
    generated = spans.counts

    def successors(self, state):
        succ = list(real_successors(self, state))
        generated["successors"] += len(succ)
        return succ

    real_successors = Model.successors
    traced_check = spans.wrap("checker.check", check)
    with Patch(Model, successors=spans.wrap("checker.successors",
                                            successors)), \
            Patch(checker, check_invariants=spans.wrap(
                "checker.invariants", checker.check_invariants)):
        t0 = clock()
        traced = (traced_check(EXHAUSTIVE), clock() - t0)
    traced_s = traced[1] * speed.factor()
    totals = spans.totals()
    # summarize() also checks that the traced run explored the same states.
    lines, correct, attempted, failed, result = summarize(
        lines, verdicts, [plain, traced], plain[1])
    overhead = traced_s / plain_s - 1
    lines.append(f"tracing overhead {overhead:.4f} (traced {traced_s:.3f} s "
                 f"vs untraced {plain_s:.3f} s host, scaled, one exhaustive "
                 "verdict)")
    out = {"checker.successors_s": totals["checker.successors"][1],
           "checker.successors_generated": generated["successors"],
           "checker.invariants_s": totals["checker.invariants"][1],
           "checker.store_s": totals["checker.check"][2],
           "checker.states": result.states,
           "checker.dup_ratio": 1 - result.states / generated["successors"],
           "check.verify_s": plain[1],
           "check.bounded_depth": bounded.depth,
           "tracing.overhead_ratio": overhead}
    return lines, correct, attempted, failed, out
