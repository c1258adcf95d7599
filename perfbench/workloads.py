"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed, calls districtvote
only through a public entry point (``cli.main``, ``sweep``, ``hill_climb``),
and checks what came back. ``run_once`` times the call alone; reading and
checking the outputs happens after the clock stops.

Operation ``index`` of a run calls the library with seed ``key(index)``.
``verify-default`` and ``hill-climb`` repeat one call, whose cost hardly
depends on the seed; ``sweep-wide`` draws instances whose sizes vary, so each
of its operations takes a seed of its own and a run averages over more of
them. Operations with equal keys must give identical outputs, and an output
must equal the reference recorded for its key when there is one.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import districtvote
from districtvote import cli

#: Trials per cell of one ``verify-bounds`` call.
VERIFY_TRIALS = 200
#: Rows of the default experiment: 31 sweep cells and 28 certify rows.
VERIFY_ROWS = 59
#: Trials of one ``sweep-wide`` call, and the stride between the seeds of
#: two runs (more than the operations one run makes).
SWEEP_TRIALS = 1000
SWEEP_SEEDS_PER_RUN = 1000
#: Steps of one ``hill-climb`` call, and the library's default patience.
CLIMB_STEPS = 5000
CLIMB_PATIENCE = 250


@dataclass
class Outcome:
    """One timed operation: its cost, its outputs and what failed."""

    key: int
    seconds: float
    evaluated: int
    attempted: int
    failed: int
    digest: dict
    problems: list = field(default_factory=list)


class VerifyDefault:
    """``districtvote verify-bounds`` on the default experiment."""

    name = "verify-default"
    attempted = VERIFY_ROWS

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.argv = ["verify-bounds", "--seed", str(seed),
                     "--trials", str(VERIFY_TRIALS)]
        # one cheap cell plus one family, so the warm-up touches every
        # stage of verify-bounds without paying the full default experiment
        self.warm_config = os.path.join(work_dir, "warm-up.json")
        with open(self.warm_config, "w", encoding="utf-8") as fh:
            json.dump({"mechanisms": ["compose:plurality-matching,plurality-matching"],
                       "objectives": ["avg.max"],
                       "generator": {"seed": seed, "trials": 2},
                       "families": ["cardinal-line"]}, fh)

    def _call(self, argv: list) -> tuple[int, float, bytes]:
        out = tempfile.mkdtemp(prefix="verify-", dir=self.work_dir)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(argv + ["--out", out])
                seconds = time.perf_counter() - start
            with open(os.path.join(out, "bounds.csv"), "rb") as fh:
                text = fh.read()
        finally:
            shutil.rmtree(out)
        return code, seconds, text

    def warm_up(self) -> None:
        self._call(["verify-bounds", "--config", self.warm_config])

    def key(self, index: int) -> int:
        return self.seed

    def run_once(self, index: int) -> Outcome:
        code, seconds, text = self._call(self.argv)
        rows = list(csv.DictReader(io.StringIO(text.decode())))
        digest = {"exit_code": code,
                  "bounds_csv_sha256": hashlib.sha256(text).hexdigest()}
        problems = []
        failed = sum(row["within_bound"] != "true" for row in rows)
        if failed:
            problems.append(f"{failed} rows not within_bound")
        if len(rows) != VERIFY_ROWS or code != (1 if failed else 0):
            problems.append(f"exit code {code} with {len(rows)} rows, "
                            f"expected {VERIFY_ROWS}")
            failed = VERIFY_ROWS
        evaluated = sum(int(row["trials"]) for row in rows)
        return Outcome(self.seed, seconds, evaluated, VERIFY_ROWS, failed, digest,
                       problems)


class SweepWide:
    """One plurality-matching ``sweep`` over larger euclidean electorates."""

    name = "sweep-wide"
    attempted = 1

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.objective = districtvote.parse_objective("avg.max")
        self.mechanism = districtvote.parse_mechanism(
            "compose:plurality-matching,plurality-matching", self.objective)
        self.generator = districtvote.GeneratorSpec(
            kind="euclidean", dim=2, n_range=(16, 64), m_range=(4, 12),
            k_range=(2, 8))
        self.bound = districtvote.claimed_bound(self.mechanism, self.objective,
                                                line=False)

    def warm_up(self) -> None:
        districtvote.sweep(self.mechanism, self.objective, self.generator,
                           trials=8, seed=self.seed)

    def key(self, index: int) -> int:
        return self.seed * SWEEP_SEEDS_PER_RUN + index

    def run_once(self, index: int) -> Outcome:
        key = self.key(index)
        start = time.perf_counter()
        result = districtvote.sweep(self.mechanism, self.objective, self.generator,
                                    trials=SWEEP_TRIALS, seed=key)
        seconds = time.perf_counter() - start
        digest = {"max_ratio": repr(result.max_ratio),
                  "witness": result.witness.content_key()}
        problems = []
        if result.evaluated != SWEEP_TRIALS:
            problems.append(f"evaluated {result.evaluated}, expected {SWEEP_TRIALS}")
        if not 1.0 <= result.max_ratio <= self.bound + cli.BOUND_TOL:
            problems.append(f"max_ratio {result.max_ratio!r} outside [1, {self.bound}]")
        return Outcome(key, seconds, result.evaluated, 1, int(bool(problems)),
                       digest, problems)


class HillClimb:
    """One ``hill_climb`` of lambda-ARL with lambda = 1 + sqrt(2) on a line."""

    name = "hill-climb"
    attempted = 1

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.objective = districtvote.parse_objective("max.max")
        self.mechanism = districtvote.parse_mechanism("arl:2.414213562373095",
                                                      self.objective)
        self.init = _line_instance(np.random.default_rng([seed, 12]), n=12, m=5, k=3)
        self.initial_ratio = districtvote.evaluate(self.mechanism, self.init,
                                                   self.objective).ratio
        self.bound = districtvote.claimed_bound(self.mechanism, self.objective)

    def warm_up(self) -> None:
        districtvote.hill_climb(self.mechanism, self.objective, self.init,
                                steps=50, seed=self.seed)

    def key(self, index: int) -> int:
        return self.seed

    def run_once(self, index: int) -> Outcome:
        start = time.perf_counter()
        result = districtvote.hill_climb(self.mechanism, self.objective, self.init,
                                         steps=CLIMB_STEPS, seed=self.seed,
                                         patience=CLIMB_PATIENCE)
        seconds = time.perf_counter() - start
        digest = {"max_ratio": repr(result.max_ratio),
                  "evaluated": result.evaluated,
                  "witness": result.witness.content_key()}
        problems = []
        least = CLIMB_STEPS + 1
        most = least + CLIMB_STEPS // CLIMB_PATIENCE
        if not least <= result.evaluated <= most:
            problems.append(f"evaluated {result.evaluated}, expected {least}..{most}")
        if result.max_ratio < self.initial_ratio:
            problems.append(f"climbed ratio {result.max_ratio!r} below the "
                            f"initial {self.initial_ratio!r}")
        if result.max_ratio > self.bound + cli.BOUND_TOL:
            problems.append(f"max_ratio {result.max_ratio!r} above the claimed "
                            f"bound {self.bound!r}")
        return Outcome(self.seed, seconds, result.evaluated, 1, int(bool(problems)),
                       digest, problems)


def _line_instance(rng: np.random.Generator, n: int, m: int, k: int):
    """Uniform line positions on [0, 1], k consecutive districts cut at random."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    blocks = np.split(rng.uniform(0.0, 1.0, n), cuts)
    return districtvote.build_line_instance([b.tolist() for b in blocks],
                                            rng.uniform(0.0, 1.0, m).tolist())


WORKLOADS = {w.name: w for w in (VerifyDefault, SweepWide, HillClimb)}
