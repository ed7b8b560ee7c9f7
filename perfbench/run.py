"""Run one cohsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload equiv-8c --seed 1 --seconds 20

Run from a checkout of the repository; the program is imported from its
``src/`` directory.  Workloads: ``equiv-8c`` and ``evict-2c`` (simulator,
both engines through ``harness.compare_engines``) and ``check-mc`` (model
checker).  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  Metric names and units are the ones listed in BENCHMARK.json at
the repository root (see perfbench/README.md for what each means).

Every line but the last is for people: the run record, a bit-identity
record per engine run, verdicts, and each metric by name with its unit.
The last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("equiv-8c", "evict-2c", "check-mc")


def src_digest() -> str:
    """sha256 over the program's source files, to identify the code measured
    where no git metadata is available."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cohsim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".ucs"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "cpus": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "commit": git_commit(), "src_sha256": src_digest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "cohsim" / "__init__.py").is_file():
        print(f"perfbench: no cohsim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import checkwork
    import simwork

    if args.workload == "check-mc":
        lines, correct, attempted, failed, values = (
            checkwork.trace_run() if args.trace
            else checkwork.measure(args.seconds))
    elif args.trace:
        lines, correct, attempted, failed, values = simwork.trace_run(
            args.seed, args.workload)
    else:
        lines, correct, attempted, failed, values = simwork.measure(
            args.seed, args.workload, args.seconds)
    if args.trace:
        wanted = spec["per_layer"]
        own = (checkwork.LAYER_NAMES if args.workload == "check-mc"
               else simwork.LAYER_NAMES)
        ok = (set(values) == own and {m["name"] for m in wanted}
              == checkwork.LAYER_NAMES | simwork.LAYER_NAMES)
    else:
        wanted = spec["end_to_end"]
        ok = set(values) == {m["name"] for m in wanted}
    if not ok:
        print(f"perfbench: the metrics measured ({sorted(values)}) do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print("record " + json.dumps(run_record(args)))
    metrics = {}
    for m in wanted:
        # A layer this workload never calls reports zero time and counts.
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{'layer' if args.trace else 'metric'} {m['name']} {value} "
              f"{m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
