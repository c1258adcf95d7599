"""Record the outputs the benchmark checks against.

Run from the repository root, on a commit whose outputs are known good:

    python3 perfbench/record.py

It rewrites ``perfbench/references.json`` for run seeds 0-9: one output per
seed for ``verify-default`` and ``hill-climb``, and the first
``SWEEP_OPERATIONS`` operations of each seed for ``sweep-wide``. Runs with
other seeds, and later operations, are checked by invariants only.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(10)
SWEEP_OPERATIONS = 16


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS
    work = os.path.join(ROOT, ".perfbench")
    os.makedirs(work, exist_ok=True)
    references = {}
    for name, cls in WORKLOADS.items():
        recorded = references[name] = {}
        for seed in SEEDS:
            workload = cls(seed, work)
            operations = SWEEP_OPERATIONS if name == "sweep-wide" else 1
            for index in range(operations):
                outcome = workload.run_once(index)
                if outcome.failed or outcome.problems:
                    print(f"{name} seed {outcome.key}: {outcome.problems}",
                          file=sys.stderr)
                    return 1
                recorded[str(outcome.key)] = outcome.digest
            print(f"{name} seed {seed}: recorded", flush=True)
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
