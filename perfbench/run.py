"""Benchmark for districtvote: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload verify-default --seed 0 --seconds 35 --trace 0

The workload's operation (one ``verify-bounds`` call, one ``sweep`` or one
``hill_climb``; see ``workloads.py``) runs again and again, one at a time in
this process, until the next one would overrun ``--seconds``. Every output is
checked. With ``--trace 0`` the run reports the end-to-end metrics: the
median operation's ``wall_s``, evaluations per second over all operations,
the median set-up time (``setup_s``) and the peak resident memory.
With ``--trace 1`` each operation runs once untraced and once traced
(``spans.py``), and the run reports the per-layer metrics.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``. Lines before it hold the environment and the
outputs by library seed.
Span records of a traced run go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCES = os.path.join(HERE, "references.json")
WORKLOAD_NAMES = ("verify-default", "sweep-wide", "hill-climb")
#: Set-ups timed in fresh processes, besides the one of this process.
SETUP_PROBES = 6


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", default=REFERENCES,
                        help="JSON file of expected outputs by workload and seed")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print its seconds and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def set_up(name: str, seed: int):
    """Import districtvote, build the workload's inputs, warm up once."""
    start = time.perf_counter()
    from workloads import WORKLOADS
    workload = WORKLOADS[name](seed, WORK)
    workload.warm_up()
    return workload, time.perf_counter() - start


def probe_set_up(args) -> float:
    """Seconds of one set-up in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def run_one(workload, index: int):
    """One operation; an exception counts as failing all it attempted."""
    from workloads import Outcome
    began = time.perf_counter()
    try:
        return workload.run_once(index)
    except Exception:
        traceback.print_exc()
        return Outcome(workload.key(index), time.perf_counter() - began, 0,
                       workload.attempted, workload.attempted, {}, ["raised"])


def measure(workload, seconds: float, recorder=None) -> tuple[list, list]:
    """Run operations 0, 1, ... until the next would overrun ``seconds``.

    With a recorder, every operation runs twice in a row, untraced and then
    traced, so tracing overhead is measured on the same inputs at nearly the
    same time. Returns the untraced and the traced outcomes.
    """
    untraced, traced, rounds = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        index = len(untraced)
        untraced.append(run_one(workload, index))
        if recorder is not None:
            recorder.install()
            try:
                traced.append(run_one(workload, index))
            finally:
                recorder.uninstall()
        rounds.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            return untraced, traced


def check(outcomes: list, references: dict) -> None:
    """Outputs of equal keys must agree, and equal the reference if recorded."""
    first = {}
    for outcome in outcomes:
        wrong = []
        if first.setdefault(outcome.key, outcome.digest) != outcome.digest:
            wrong.append(f"seed {outcome.key}: output differs between operations")
        expected = references.get(str(outcome.key))
        if expected is not None and outcome.digest != expected:
            wrong.append(f"seed {outcome.key}: output {outcome.digest} differs "
                         f"from the reference {expected}")
        if wrong:
            outcome.problems.extend(wrong)
            outcome.failed = outcome.attempted


def load_references(path: str, workload: str) -> dict:
    """Recorded outputs of one workload, by library seed."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def environment(load_average) -> dict:
    import numpy
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "load_average_start": list(load_average),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package's source files, for checkouts without git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "districtvote")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    load_average = os.getloadavg()
    if not os.path.isfile(os.path.join(SRC, "districtvote", "__init__.py")):
        print(f"error: no districtvote sources under {SRC}", file=sys.stderr)
        return 2
    # one process, no extra threads: keep numpy's BLAS single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)

    if args.setup_only:
        print(repr(set_up(args.workload, args.seed)[1]))
        return 0

    workload, own_setup = set_up(args.workload, args.seed)
    import districtvote
    if os.path.dirname(os.path.abspath(districtvote.__file__)) != \
            os.path.join(SRC, "districtvote"):
        print(f"error: imported districtvote from {districtvote.__file__}",
              file=sys.stderr)
        return 2
    setup_times = [own_setup] + [probe_set_up(args) for _ in range(SETUP_PROBES)]
    references = load_references(args.references, args.workload)
    print(json.dumps({"environment": environment(load_average)}), flush=True)

    if args.trace:
        import spans
        recorder = spans.Recorder()
        untraced, traced = measure(workload, args.seconds, recorder)
        outcomes = untraced + traced
        check(outcomes, references)
        overhead = (statistics.median(o.seconds for o in traced)
                    / statistics.median(o.seconds for o in untraced) - 1.0)
        metrics = recorder.metrics(len(traced), overhead)
        span_file = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")
        recorder.write_spans(span_file)
        print(json.dumps({"spans": os.path.relpath(span_file, ROOT),
                          "count": len(recorder.spans)}))
    else:
        outcomes, _ = measure(workload, args.seconds)
        check(outcomes, references)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": metric(statistics.median(o.seconds for o in outcomes), "s"),
            "evals_per_s": metric(sum(o.evaluated for o in outcomes)
                                  / sum(o.seconds for o in outcomes), "1/s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(peak_kib / 1024.0, "MB"),
        }

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = sorted({p for o in outcomes for p in o.problems})
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"operations": len(outcomes), "problems": problems,
                      "outputs": {o.key: o.digest for o in outcomes}}))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
