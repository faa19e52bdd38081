"""Record the outputs the benchmark's correctness checks compare against.

Run from the repository root:

    python3 perfbench/record_reference.py

For every master seed of the pool it runs one untraced pass of each
workload and writes each operation's outputs (cell error rates, d_hat,
label-flip counts) to perfbench/reference.json, replacing the file.
Re-record only for a change that is meant to alter these outputs, and
report the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from megbench import env  # noqa: E402

env.fix_blas_threads()
env.import_package(ROOT)

from megbench.capture import Capture  # noqa: E402
from megbench.rebind import Rebinder  # noqa: E402
from megbench.workloads import SEED_POOL, WORKLOADS  # noqa: E402

REFERENCE = HERE / "reference.json"
RECORDED = {"cell": ("error",), "run": ("error",), "build": ("d_hat", "noise_flips")}


def main() -> int:
    reference = {"environment": env.environment(ROOT)}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp, \
            Rebinder() as rebinder:
        capture = Capture()
        capture.install(rebinder)
        for seed in range(SEED_POOL):
            for name, workload in WORKLOADS.items():
                result = workload.run_pass(seed, Path(tmp), capture)
                bad = [f"{op.key}: {op.problems}" for op in result.ops if op.failed]
                if bad:
                    print(f"seed {seed} {name} failed:", *bad, sep="\n  ", file=sys.stderr)
                    return 1
                reference.setdefault(name, {})[str(seed)] = {
                    op.key: {k: op.values[k] for k in RECORDED[op.kind]}
                    for op in result.ops if op.kind in RECORDED
                }
                print(f"seed {seed} {name}: recorded", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
