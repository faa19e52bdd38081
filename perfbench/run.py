"""Run one megmc benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics declared in BENCHMARK.json,
--trace 1 its per-layer metrics; layers.json says which end-to-end
metric each layer should move. Earlier output lines give the
environment, every metric with its unit and any failed check; the last
line is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only when every check passed.

--workload all runs every workload, untraced and then traced.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from megbench import env  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in DECLARED["workloads"]]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="megmc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a process of its own
    so that peak_rss_mb stays per workload; fails if any run fails."""
    failed = []
    for name in WORKLOAD_NAMES:
        for trace in ("0", "1"):
            print(f"== workload {name} trace {trace}", flush=True)
            proc = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds",
                                   str(args.seconds), "--trace", trace])
            if proc.returncode != 0:
                failed.append(f"{name} trace {trace}")
    print("all workloads passed" if not failed else f"FAILED: {', '.join(failed)}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    env.fix_blas_threads()
    env.import_package(ROOT)

    from megbench.harness import measure
    from megbench.workloads import HELD_OUT_SEED, WORKLOADS, master_seed

    metric_list = DECLARED["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in metric_list}
    reference = json.loads((HERE / "reference.json").read_text())
    seed = master_seed(args.seed)
    record = env.environment(ROOT)
    record.update(workload=args.workload, seed=args.seed, master_seed=seed,
                  held_out_seed=HELD_OUT_SEED, trace=args.trace)
    print("environment", json.dumps(record, sort_keys=True), flush=True)

    result = measure(WORKLOADS[args.workload], seed, args.seconds, bool(args.trace),
                     reference[args.workload][str(seed)], ROOT)
    mismatch = set(units) ^ set(result.metrics)
    if mismatch:
        result.problems.append(f"metrics differ from their declaration: {sorted(mismatch)}")

    print(f"passes {result.passes}")
    for name, value in result.metrics.items():
        print(f"metric {name} = {value!r} {units.get(name, '?')}")
    if not args.trace:
        print(f"metric fail_ratio = {result.failed / max(result.attempted, 1)!r} ratio")
    for problem in result.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items() if name in units},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
