"""Command-line front end.

Exit codes: 0 success, 1 a violation/mismatch/diagnostic was found,
2 usage or config-file error (argparse's convention).

Config files are flat ``key = value`` text with ``#`` comments; keys are
the SystemConfig fields (cores, sets, assoc, block_bytes, beat_bytes,
engine, protocol, ucode_program, num_cces, mem_latency, net_latency).
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .checker import MUTATIONS, CheckConfig, check
from .occupancy import check_cores
from .system import System, SystemConfig


def _config_error(msg: str) -> SystemExit:
    """Print a one-line config error; the caller raises the result."""
    print(f"cohsim: error: {msg}", file=sys.stderr)
    return SystemExit(2)


def load_config(path: str, **overrides) -> SystemConfig:
    fields = SystemConfig.__dataclass_fields__
    kwargs = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or key not in fields:
                raise _config_error(
                    f"{path}:{line_no}: bad config line {raw!r}")
            if isinstance(fields[key].default, int):
                try:
                    value = int(value, 0)
                except ValueError:
                    raise _config_error(f"{path}:{line_no}: {key} needs an "
                                        f"integer, got {value!r}") from None
            kwargs[key] = value
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return SystemConfig(**kwargs)
    except ValueError as exc:
        raise _config_error(f"{path}: {exc}") from None


def _cmd_simulate(args) -> int:
    cfg = (load_config(args.config, engine=args.engine,
                       ucode_program=args.ucode)
           if args.config else
           SystemConfig(engine=args.engine or "fsm", ucode_program=args.ucode))
    with open(args.trace) as fh:
        ops = harness.parse_trace(fh.read())
    system = System(cfg)
    monitors = harness.default_monitors()
    report = harness.run_trace(system, ops, monitors=monitors)
    print(f"engine: {cfg.engine}")
    print(f"operations: {len(ops)} (loads {report.loads}, "
          f"stores {report.stores})")
    print(f"cycles: {report.cycles}")
    print(f"monitor violations: {len(report.violations)}")
    for v in report.violations[:20]:
        print(f"  {v}")
    if args.report:
        with open(args.report, "w") as fh:
            fh.write("engine,operations,loads,stores,cycles,violations\n")
            fh.write(f"{cfg.engine},{len(ops)},{report.loads},"
                     f"{report.stores},{report.cycles},"
                     f"{len(report.violations)}\n")
    return 1 if report.violations else 0


def _cmd_assemble(args) -> int:
    from .ucode import asm
    with open(args.source) as fh:
        source = fh.read()
    try:
        program = asm.assemble(source)
    except asm.AsmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    words = [asm.isa.encode(i) for i in program]
    if args.listing:
        print(asm.disassemble(words))
    with open(args.output, "wb") as fh:
        fh.write(asm.to_binary(words))
    print(f"{len(program)} instructions -> {args.output}")
    return 0


def _cmd_disasm(args) -> int:
    from .ucode import asm
    with open(args.binary, "rb") as fh:
        words = asm.from_binary(fh.read())
    print(asm.disassemble(words))
    return 0


def _cmd_check(args) -> int:
    try:
        cfg = CheckConfig(protocol=args.protocol, caches=args.caches,
                          mutation=args.mutation, max_states=args.max_states,
                          max_depth=args.max_depth)
    except ValueError as exc:
        raise _config_error(str(exc)) from None
    result = check(cfg)
    print(result.summary())
    return 0 if result.verified else 1


def _cmd_occupancy(args) -> int:
    if args.sweep:
        cores = (2, 4, 8, 16)
    else:
        try:
            check_cores(args.cores)
        except ValueError as exc:
            raise _config_error(str(exc)) from None
        cores = (args.cores,)
    csv_text = harness.occupancy_csv(args.engine, cores_list=cores)
    out = open(args.output, "w") if args.output else sys.stdout
    out.write(csv_text)
    if args.output:
        out.close()
    mismatches = csv_text.count(",false")
    if mismatches:
        print(f"{mismatches} occupancy mismatches", file=sys.stderr)
    return 1 if mismatches else 0


def _cmd_compare(args) -> int:
    cfg = load_config(args.config) if args.config else SystemConfig()
    with open(args.trace) as fh:
        ops = harness.parse_trace(fh.read())
    report = harness.compare_engines(ops, cfg)
    print(report.summary())
    return 0 if report.equivalent and not report.violations else 1


def _cmd_overhead(args) -> int:
    try:
        pct = harness.overhead_calc(args.scheme, args.caches,
                                    tag_bits=args.tag_bits,
                                    state_bits=args.state_bits,
                                    block_bits=args.block_bits)
    except ValueError as exc:
        raise _config_error(str(exc)) from None
    print(f"{pct:.2f}%")
    return 0


def _cmd_tracegen(args) -> int:
    if args.lces < 1:
        raise _config_error(f"lces must be at least 1, got {args.lces}")
    ops = harness.random_workload(
        seed=args.seed, lces=args.lces, ops=args.ops,
        footprint_blocks=args.footprint, write_ratio=args.write_ratio,
        sharing_degree=args.sharing)
    text = harness.format_trace(ops)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cohsim",
        description="Cycle-accounted directory coherence simulator, "
                    "microcode toolchain, and protocol model checker.")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("simulate", help="run a trace with monitors")
    s.add_argument("--config", help="key = value config file")
    s.add_argument("--trace", required=True)
    s.add_argument("--engine", choices=("fsm", "ucode"))
    s.add_argument("--ucode", help="microcode source path override")
    s.add_argument("--report", help="write a CSV stats report")
    s.set_defaults(fn=_cmd_simulate)

    s = sub.add_parser("assemble", help="assemble microcode source")
    s.add_argument("source")
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--listing", action="store_true",
                   help="print a disassembly listing")
    s.set_defaults(fn=_cmd_assemble)

    s = sub.add_parser("disasm", help="disassemble a microcode binary")
    s.add_argument("binary")
    s.set_defaults(fn=_cmd_disasm)

    s = sub.add_parser("check", help="model-check the protocol")
    s.add_argument("--protocol", choices=("mesi", "moesif"), default="mesi")
    s.add_argument("--caches", type=int, default=2)
    s.add_argument("--mutation", choices=MUTATIONS,
                   help="seeded bug to inject")
    s.add_argument("--max-states", type=int)
    s.add_argument("--max-depth", type=int)
    s.set_defaults(fn=_cmd_check)

    s = sub.add_parser("occupancy", help="measured-vs-model occupancy CSV")
    s.add_argument("--engine", choices=("fsm", "ucode"), required=True)
    s.add_argument("--cores", type=int, default=8)
    s.add_argument("--sweep", action="store_true",
                   help="sweep cores over 2,4,8,16")
    s.add_argument("-o", "--output")
    s.set_defaults(fn=_cmd_occupancy)

    s = sub.add_parser("compare", help="FSM-vs-ucode equivalence on a trace")
    s.add_argument("--config")
    s.add_argument("--trace", required=True)
    s.set_defaults(fn=_cmd_compare)

    s = sub.add_parser("overhead", help="directory storage overhead")
    s.add_argument("--scheme", required=True,
                   help="dup | complete | coarse:<bits>")
    s.add_argument("--caches", type=int, required=True)
    s.add_argument("--tag-bits", type=int, default=28)
    s.add_argument("--state-bits", type=int, default=3)
    s.add_argument("--block-bits", type=int, default=512)
    s.set_defaults(fn=_cmd_overhead)

    s = sub.add_parser("tracegen", help="generate a random trace")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--ops", type=int, default=1000)
    s.add_argument("--lces", type=int, default=2)
    s.add_argument("--footprint", type=int, default=64)
    s.add_argument("--write-ratio", type=float, default=0.4)
    s.add_argument("--sharing", type=float, default=0.5)
    s.add_argument("-o", "--output")
    s.set_defaults(fn=_cmd_tracegen)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
