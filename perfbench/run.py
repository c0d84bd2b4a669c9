"""Benchmark of the hinddi pipeline: set-up, training, pair screening, memory.

Run from the root of a checkout:

    python3 perfbench/run.py                      # every workload, in turn
    python3 perfbench/run.py --workload paper-513 --seed 3
    python3 perfbench/run.py --workload planted-50 --trace 1

Each workload runs in a fresh process with BLAS pinned to one thread. With
`--trace 0` the last line of standard output is a JSON object holding the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced pass, checked against an untraced pass of the same work. The exit
code is 1 when an output check fails and 2 when the program cannot be
imported. Generated inputs and span files go under `.perfbench_work/`.

Workload and metric names and units are read from BENCHMARK.json. An
untraced run repeats its timed cycles until it has measured for
`--seconds` (default: BENCHMARK.json's `run_seconds`); a traced run does a
fixed amount of work.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="how long an untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process; exit 1 if any check fails."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def run_one(args) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        import hinddi  # noqa: F401
    except ImportError as err:
        print(f"error: cannot import hinddi from {ROOT / 'src'}: {err}",
              file=sys.stderr)
        return 2
    from perfbench.bench import environment, run
    from perfbench.spans import PER_LAYER
    from perfbench.workloads import WORKLOADS

    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    values, checks, samples = run(WORKLOADS[args.workload], args.seed,
                                  bool(args.trace), WORK_DIR, args.seconds)
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "samples": samples}))
    for name in units:
        moves = f"  moves {PER_LAYER[name]}" if args.trace else ""
        print(f"{name:32s} {values[name]:>16.6g} {units[name]}{moves}")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 1 if checks.failures else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    # Before numpy is first imported, so BLAS starts with one thread.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
