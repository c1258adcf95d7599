"""Self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that

* every workload completes at minimal length (``--seconds 1``), traced and
  untraced, with correct outputs, and prints exactly the metrics that
  ``BENCHMARK.json`` names, each with its unit;
* a deliberately wrong reference output makes the run report failures;
* in a directory that holds only ``BENCHMARK.json`` and the benchmark's own
  files, the benchmark exits nonzero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")


def bench(args: list, cwd: str = ROOT) -> tuple[int, dict | None]:
    """Run the benchmark; return its exit code and its last line parsed."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    done = subprocess.run([sys.executable] + command[1:] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        result = None
    return done.returncode, result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            code, result = bench(["--workload", workload, "--seed", "0",
                                  "--seconds", "1", "--trace", str(trace)])
            expect(code == 0 and result is not None, f"{what}: exits 0 with a result")
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{what}: outputs correct")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == expected[trace], f"{what}: every metric with its unit")
            expect(all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()),
                   f"{what}: every value a number")

    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=WORK) as tmp:
        with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
            references = json.load(fh)
        references["hill-climb"]["0"]["witness"] = "0" * 64
        wrong = os.path.join(tmp, "wrong-references.json")
        with open(wrong, "w", encoding="utf-8") as fh:
            json.dump(references, fh)
        code, result = bench(["--workload", "hill-climb", "--seed", "0",
                              "--seconds", "1", "--trace", "0",
                              "--references", wrong])
        expect(code == 0 and result is not None and result["failed"] > 0
               and not result["correct"],
               "a wrong reference output counts as a failure")

        bare = os.path.join(tmp, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, result = bench(["--workload", "hill-climb", "--seed", "0",
                              "--seconds", "1", "--trace", "0"], cwd=bare)
        expect(code != 0 and result is None,
               "without the sources it exits nonzero and prints no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
