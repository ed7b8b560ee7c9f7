"""Simulator workloads: equiv-8c and evict-2c.

One unit is one ``harness.compare_engines`` call on a generated trace: the
`fsm` run, the `ucode` run (each with the default monitors) and the
final-state comparison.  A run generates `TRACES` traces from its seed and
cycles through them, so every trace is simulated at least once and the
reported host times are medians over units.

Simulated time (cycles of the modelled hardware) comes from the run
reports and is exact; host time is CPU time (see `hosttime`).
Both are labelled as such in the output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import statistics
import time
from dataclasses import dataclass

from cohsim import harness
from cohsim.harness import compare_engines, random_workload
from cohsim.messages import NetKind
from cohsim.protocol import CoherenceState
from cohsim.system import System, SystemConfig
from cohsim.ucode import asm

from hosttime import Speed, clock, peak_rss_mib
from spans import Patch, Spans

ENGINES = ("fsm", "ucode")
DIRTY = (CoherenceState.M, CoherenceState.O)

# name -> (system geometry, random_workload arguments)
WORKLOADS = {
    # Criterion 5's shape: the 64-block footprint fits in 16 sets x 8 ways,
    # so after the cold start nothing is evicted; with 8 caches the
    # network's per-endpoint channel scan and the monitors' snapshot
    # copies dominate.
    "equiv-8c": (SystemConfig(cores=8, sets=16),
                 dict(lces=8, footprint_blocks=64)),
    # 256 blocks touched per cache against 32 lines per cache: replacements,
    # dirty writebacks and memory refills dominate, over few channels.
    "evict-2c": (SystemConfig(cores=2, sets=16, assoc=2),
                 dict(lces=2, footprint_blocks=256, write_ratio=0.5)),
}
OPS = 1500          # trace operations per generated trace
TRACES = 4          # distinct traces per run
SETUP_REPEATS = 9     # set-ups timed in a traced run
SETUPS_PER_UNIT = 2   # set-ups timed per unit in an untraced run

# Per-engine layer metrics: name -> (span name, field of `totals`).
SPAN_METRICS = {
    "harness.run_trace.self_s": ("harness.run_trace", 2),
    "harness.monitor.check_s": ("harness.monitor.check", 1),
    "harness.monitor.check_calls": ("harness.monitor.check", 0),
    "system.step.self_s": ("system.step", 2),
    "system.step.calls": ("system.step", 0),
    "system.submit_s": ("system.submit", 1),
    "network.deliver_s": ("network.deliver", 1),
    "network.deliver_calls": ("network.deliver", 0),
    "network.send_s": ("network.send", 1),
    "lce.access_s": ("lce.access", 1),
    "lce.access_calls": ("lce.access", 0),
    "lce.handle_command_s": ("lce.handle_command", 1),
    "lce.handle_command_calls": ("lce.handle_command", 0),
    "lce.handle_fill_net_s": ("lce.handle_fill_net", 1),
    "lce.handle_fill_net_calls": ("lce.handle_fill_net", 0),
    "cce.tick_s": ("cce.tick", 1),
    "cce.accept_s": ("cce.accept", 1),
    "directory.read_way_group_s": ("directory.read_way_group", 1),
    "directory.read_way_group_calls": ("directory.read_way_group", 0),
    "directory.write_state_s": ("directory.write_state", 1),
    "directory.write_state_calls": ("directory.write_state", 0),
    "memory.tick_s": ("memory.tick", 1),
}
# Per-engine layer metrics read or derived after the run.
OTHER_METRICS = ("ops_per_s", "cycles_per_s", "sim_cycles",
                 "system.step_ratio", "network.deliver_useful_ratio",
                 "network.messages", "network.beats", "memory.commands",
                 "cce.busy_cycles", "cce.wait_cycles", "cce.stall_cycles",
                 "cce.idle_cycles", "cce.transactions")
LAYER_NAMES = frozenset(
    [f"{e}.{n}" for e in ENGINES for n in (*SPAN_METRICS, *OTHER_METRICS)]
    + ["ucode.engine.mispredicts", "ucode.asm.assemble_s",
       "tracing.overhead_ratio"])


@dataclass
class EngineRun:
    sim_cycles: int
    completed: int
    host_s: float
    digest: str
    stats: dict       # cce.* counters summed over the system's engines
    mispredicts: int  # ucode only


@dataclass
class Unit:
    trace: int
    run_s: float
    runs: dict            # engine -> EngineRun
    failure: str          # why compare_engines or a monitor failed, or ""
    errors: list          # broken correctness checks of either engine


def trace_seeds(seed: int, n: int = TRACES) -> list:
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(n)]


def generate(seed: int, gen: dict) -> list:
    return [random_workload(seed=s, ops=OPS, **gen) for s in trace_seeds(seed)]


def setup_once(seed: int, workload: str):
    """Trace generation, then a `System` for each engine (the ucode one
    assembles its microcode).  Returns (seconds, traces)."""
    cfg, gen = WORKLOADS[workload]
    t0 = clock()
    traces = generate(seed, gen)
    for engine in ENGINES:
        System(dataclasses.replace(cfg, engine=engine))
    return clock() - t0, traces


def final_images(system: System):
    """Final memory, cache and canonical directory images, key-sorted: the
    images `compare_engines` compares, from the same harness helpers."""
    return (sorted(harness._memory_image(system).items()),
            [sorted(lce.snapshot().items()) for lce in system.lces],
            sorted(harness._dir_image(system).items()))


def digest(system: System) -> str:
    return hashlib.sha256(repr(final_images(system)).encode()).hexdigest()[:16]


def line_states(system: System):
    """{(lce, set, way): (tag, state)} of the valid cache lines, and the
    same for the canonical directory image."""
    caches = {(i, s, w): (tag, state)
              for i, lce in enumerate(system.lces)
              for (s, w), (tag, state, _) in lce.snapshot().items()}
    directory = {k[1:]: v for k, v in harness._dir_image(system).items()}
    return caches, directory


def value_image(system: System):
    """{block: latest bytes}: memory, overridden by a dirty owner's copy.
    Also returns the consistency errors of this engine's final state:
    a valid copy holding other data than the latest, or a directory that
    disagrees with the caches it tracks."""
    errors = []
    sets = system.cfg.sets
    holders = {}
    for i, lce in enumerate(system.lces):
        for (s, _), (tag, state, data) in lce.snapshot().items():
            holders.setdefault(tag * sets + s, []).append((i, state, data))
    cache_lines, dir_lines = line_states(system)
    if dir_lines != cache_lines:
        bad = sorted(k for k in dir_lines.keys() | cache_lines.keys()
                     if dir_lines.get(k) != cache_lines.get(k))
        errors.append(f"directory disagrees with caches at {bad[:5]}")
    zero = bytes(system.cfg.block_bytes)
    image = {blk: bytes(b) for blk, b in system.store.blocks.items()}
    for blk, copies in holders.items():
        dirty = [data for _, state, data in copies if state in DIRTY]
        latest = dirty[0] if dirty else image.get(blk, zero)
        stale = [(i, state.value) for i, state, data in copies
                 if data != latest]
        if stale:
            errors.append(f"block {blk:#x}: stale valid copies {stale}")
        image[blk] = latest
    return {k: v for k, v in image.items() if v != zero}, errors


def cce_stats(system: System) -> dict:
    cces = system.cces
    out = {f"cce.{k}": sum(getattr(c.stats, k) for c in cces)
           for k in ("busy_cycles", "wait_cycles", "stall_cycles",
                     "idle_cycles")}
    out["cce.transactions"] = sum(len(c.stats.transactions) for c in cces)
    return out


def instrument(spans: Spans, system: System):
    """Install span wrappers on one System's instance methods."""
    e = system.cfg.engine
    counts = spans.counts
    wrap = spans.wrap_method
    wrap(system, "step", f"{e}.system.step")
    wrap(system, "submit", f"{e}.system.submit")

    def delivered(args, result):
        counts[f"{e}.network.deliver_useful"] += bool(result)

    def sent(args, result):
        msg = args[0]
        counts[f"{e}.network.messages"] += 1
        counts[f"{e}.network.beats"] += msg.beats
        counts[f"{e}.memory.commands"] += msg.net is NetKind.MemCmd

    wrap(system.net, "deliver", f"{e}.network.deliver", delivered)
    wrap(system.net, "send", f"{e}.network.send", sent)
    for lce in system.lces:
        for method in ("access", "handle_command", "handle_fill_net"):
            wrap(lce, method, f"{e}.lce.{method}")
    for cce in system.cces:
        wrap(cce, "tick", f"{e}.cce.tick")
        wrap(cce, "accept", f"{e}.cce.accept")
        for method in ("read_way_group", "write_state"):
            wrap(cce.directory, method, f"{e}.directory.{method}")
    wrap(system.mem, "tick", f"{e}.memory.tick")


def run_unit(index: int, ops, cfg: SystemConfig, spans: Spans = None) -> Unit:
    """One compare_engines call, capturing each engine's System, report and
    run_trace host time; with `spans`, every layer is traced."""
    real_system, real_run_trace = harness.System, harness.run_trace
    captured = {}

    def make_system(c):
        system = real_system(c)
        if spans is not None:
            instrument(spans, system)
        return system

    def timed_run_trace(system, trace, monitors=(), **kw):
        e = system.cfg.engine
        run = real_run_trace
        if spans is not None:
            for m in monitors:
                spans.wrap_method(m, "check", f"{e}.harness.monitor.check")
            run = spans.wrap(f"{e}.harness.run_trace", real_run_trace)
        t0 = clock()
        rep = run(system, trace, monitors=monitors, **kw)
        captured[e] = (system, rep, clock() - t0)
        return rep

    with Patch(harness, System=make_system, run_trace=timed_run_trace):
        t0 = clock()
        report = compare_engines(ops, cfg)
        run_s = clock() - t0

    runs, errors, images = {}, [], {}
    for e, (system, rep, host_s) in captured.items():
        runs[e] = EngineRun(rep.cycles, rep.completed, host_s, digest(system),
                            cce_stats(system),
                            sum(getattr(c, "mispredicts", 0)
                                for c in system.cces))
        images[e], errs = value_image(system)
        errors += [f"{e}: {err}" for err in errs]
        if rep.completed != len(ops):
            errors.append(f"{e}: {rep.completed} of {len(ops)} ops completed")
    if images["fsm"] != images["ucode"]:
        errors.append("engines end with different memory values")
    if report.violations:
        errors.append(f"monitor violations: {report.violations[:3]}")
    failure = ""
    if not report.equivalent or report.violations:
        grant, other = classify(captured["fsm"][0], captured["ucode"][0])
        failure = (f"compare_engines: {len(report.differences)} differences "
                   f"listed, {len(report.violations)} monitor violations; "
                   f"{grant} cache/directory lines E under fsm but S under "
                   f"ucode (ROADMAP item 1), {other} other differing lines")
    return Unit(index, run_s, runs, failure, errors)


def classify(fsm: System, ucode: System):
    """Count differing cache lines and directory entries between the two
    engines: (E under fsm and S under ucode with the same tag, others)."""
    grant = other = 0
    for a, b in zip(line_states(fsm), line_states(ucode)):
        for k in a.keys() | b.keys():
            x, y = a.get(k), b.get(k)
            if x == y:
                continue
            if (x and y and x[0] == y[0] and x[1] is CoherenceState.E
                    and y[1] is CoherenceState.S):
                grant += 1
            else:
                other += 1
    return grant, other


def measure(seed: int, workload: str, seconds: float):
    """Untraced run: returns (lines, correct, attempted, failed, metrics)."""
    cfg, _ = WORKLOADS[workload]
    setup_once(seed, workload)   # warm imports and lazy set-up
    setups, units, factors = [], [], []
    speed = Speed()
    t0 = time.perf_counter()
    while True:
        # Set-ups are spread over the run, so that they and the units
        # sample the same stretch of a shared machine's speed.
        for _ in range(SETUPS_PER_UNIT):
            dt, traces = setup_once(seed, workload)
            setups.append(dt)
        i = len(units) % len(traces)
        units.append(run_unit(i, traces[i], cfg))
        factors.append(speed.factor())
        if len(units) == len(traces):
            # Read after a fixed amount of work: one unit per trace.  Later
            # units only add heap fragmentation around the kept records.
            rss = peak_rss_mib()
        if (len(units) >= len(traces)
                and time.perf_counter() - t0 >= seconds):
            break
    lines, correct, attempted, failed, first = check_units(units, traces)
    def event_us(u):
        return (1e6 * sum(r.host_s for r in u.runs.values())
                / sum(r.sim_cycles for r in u.runs.values()))

    metrics = {
        "run_s": statistics.median(u.run_s * f
                                   for u, f in zip(units, factors)),
        "event_us": statistics.median(event_us(u) * f
                                      for u, f in zip(units, factors)),
        "sim_events": sum(sum(c for c, _ in ident.values())
                          for ident in first.values()),
        "setup_s": statistics.median(setups) * speed.median_factor(),
        "peak_rss_mib": rss,
    }
    lines.append(
        f"unscaled run_s {statistics.median(u.run_s for u in units):.6g} s, "
        f"event_us {statistics.median(event_us(u) for u in units):.6g} us, "
        f"setup_s {statistics.median(setups):.6g} s (CPU time); machine "
        f"speed factor {speed.median_factor():.4f} (median of "
        f"{len(speed.samples)} reference runs)")
    for e in ENGINES:
        runs = [(u.runs[e], f) for u, f in zip(units, factors)]
        ops = statistics.median(r.completed / r.host_s / f for r, f in runs)
        cps = statistics.median(r.sim_cycles / r.host_s / f for r, f in runs)
        lines += [
            f"metric {e}.ops_per_s {ops:.6g} ops/s (host, scaled, monitors "
            "on, median of units)",
            f"metric {e}.cycles_per_s {cps:.6g} simulated-cycles/host-s "
            "(scaled, median of units)",
            f"metric {e}.sim_cycles "
            f"{sum(first[t][e][0] for t in first)} "
            f"simulated cycles (exact, sum over {len(first)} traces)"]
    return lines, correct, attempted, failed, metrics


def check_units(units, traces):
    """Identity, failure and error lines for a run's units.  Every repeat of
    a trace must reproduce its first run's cycles and digests.  Returns
    (lines, correct, attempted, failed, {trace: {engine: (cycles,
    digest)}})."""
    lines, errors = [], []
    first = {}
    for u in units:
        errors += [f"trace {u.trace}: {e}" for e in u.errors]
        ident = {e: (r.sim_cycles, r.digest) for e, r in u.runs.items()}
        if u.trace not in first:
            first[u.trace] = ident
            for e, (cyc, dig) in ident.items():
                lines.append(f"identity trace={u.trace} "
                             f"ops={len(traces[u.trace])} engine={e} "
                             f"sim_cycles={cyc} digest={dig}")
            if u.failure:
                lines.append(f"failed trace={u.trace}: {u.failure}")
        elif ident != first[u.trace]:
            errors.append(f"trace {u.trace}: repeat gave {ident}, "
                          f"first run gave {first[u.trace]}")
    failed = sum(bool(u.failure) for u in units)
    lines.append(f"metric failed_ratio {failed / len(units):.6g} "
                 f"failed/attempted ({failed}/{len(units)} compare units)")
    lines += [f"error {e}" for e in errors]
    return lines, not errors, len(units), failed, first


def trace_run(seed: int, workload: str):
    """Traced run: one untraced and one traced unit on the first trace, plus
    a traced set-up.  Returns (lines, correct, attempted, failed,
    per-layer metrics)."""
    cfg, _ = WORKLOADS[workload]
    setup_once(seed, workload)
    spans = Spans()
    with Patch(asm, assemble_words=spans.wrap("ucode.asm.assemble",
                                              asm.assemble_words)):
        for _ in range(SETUP_REPEATS):
            _, traces = setup_once(seed, workload)
    speed = Speed()
    plain = run_unit(0, traces[0], cfg)
    plain_s = plain.run_s * speed.factor()
    traced = run_unit(0, traces[0], cfg, spans)
    traced_s = traced.run_s * speed.factor()
    lines, correct, attempted, failed, _ = check_units([plain, traced],
                                                       traces)
    totals = spans.totals()
    counts = spans.counts
    out = {"ucode.asm.assemble_s":
           totals["ucode.asm.assemble"][1] / SETUP_REPEATS,
           "tracing.overhead_ratio": traced_s / plain_s - 1}
    for e in ENGINES:
        run = plain.runs[e]
        for name, (span, col) in SPAN_METRICS.items():
            out[f"{e}.{name}"] = totals.get(f"{e}.{span}", (0, 0.0, 0.0))[col]
        deliver_calls = out[f"{e}.network.deliver_calls"]
        out[f"{e}.network.deliver_useful_ratio"] = (
            counts[f"{e}.network.deliver_useful"] / deliver_calls)
        for name in ("network.messages", "network.beats", "memory.commands"):
            out[f"{e}.{name}"] = counts[f"{e}.{name}"]
        out[f"{e}.system.step_ratio"] = (out[f"{e}.system.step.calls"]
                                         / run.sim_cycles)
        for name, value in run.stats.items():
            out[f"{e}.{name}"] = value
        out[f"{e}.ops_per_s"] = run.completed / run.host_s
        out[f"{e}.cycles_per_s"] = run.sim_cycles / run.host_s
        out[f"{e}.sim_cycles"] = run.sim_cycles
    out["ucode.engine.mispredicts"] = plain.runs["ucode"].mispredicts
    lines.append(f"tracing overhead {out['tracing.overhead_ratio']:.4f} "
                 f"(traced {traced_s:.3f} s vs untraced {plain_s:.3f} s "
                 "host, scaled, one compare unit)")
    return lines, correct, attempted, failed, out
