"""Distortion measurement: single evaluations, random sweeps, local search.

The distortion of a mechanism on an instance is the ratio between the
composed cost of the alternative it elects and the composed cost of the best
alternative. Ratios are at least 1; when the optimum costs exactly 0 and the
winner does not, the ratio is reported as infinite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GeneratorError, NotLineMetric
# the public builders stay bound here for perfbench/spans.py, which wraps them
from .instances import (
    LINE,
    Instance,
    _consecutive_districts,
    _line_instance_from_ids,
    _trusted_instance,
    build_euclidean_instance,
    build_line_instance,
    instance_from_json,
    instance_to_json,
)
from .mechanisms import Mechanism, MechanismTrace, run
from .objectives import ComposedObjective, cost_vector


@dataclass(frozen=True)
class EvaluationReport:
    """One mechanism run scored against the instance optimum."""

    trace: MechanismTrace
    winner: int
    winner_cost: float
    optimal_alternative: int
    optimal_cost: float
    ratio: float
    infinite: bool
    alternative_costs: tuple[float, ...]


def evaluate(mechanism: Mechanism, instance: Instance,
             objective: ComposedObjective) -> EvaluationReport:
    """Run the mechanism and report its distortion ratio on this instance."""
    trace = run(mechanism, instance)
    costs = cost_vector(instance, objective)
    winner = trace.winner
    winner_cost = float(costs[winner])
    optimal = int(np.argmin(costs))
    optimal_cost = float(costs[optimal])
    if optimal_cost == 0.0:
        infinite = winner_cost > 0.0
        ratio = math.inf if infinite else 1.0
    else:
        infinite = False
        ratio = winner_cost / optimal_cost
    return EvaluationReport(
        trace=trace,
        winner=winner,
        winner_cost=winner_cost,
        optimal_alternative=optimal,
        optimal_cost=optimal_cost,
        ratio=ratio,
        infinite=infinite,
        alternative_costs=tuple(costs.tolist()),
    )


def report_to_json(report: EvaluationReport) -> dict:
    """JSON-ready dict; an infinite ratio is encoded as null plus the flag."""
    return {
        "representatives": list(report.trace.representatives),
        "winner": report.winner,
        "winner_cost": report.winner_cost,
        "optimal_alternative": report.optimal_alternative,
        "optimal_cost": report.optimal_cost,
        "ratio": None if report.infinite else report.ratio,
        "infinite": report.infinite,
        "alternative_costs": list(report.alternative_costs),
        "over_step_candidates": list(report.trace.per_step_candidates[-1]),
    }


# ---------------------------------------------------------------------------
# random instance generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSpec:
    """Random-instance distribution for sweeps.

    The default draws line instances with agent and alternative positions
    uniform on [low, high], n agents, m alternatives, and k districts formed
    by splitting the agents into k consecutive blocks at random cut points.
    ``kind`` may be ``line``, ``euclidean`` (with ``dim``), or ``fixed``
    (always yields ``instance``, useful for pinning a sweep to one input).
    """

    kind: str = "line"
    n_range: tuple[int, int] = (2, 16)
    m_range: tuple[int, int] = (2, 6)
    k_range: tuple[int, int] = (1, 4)
    low: float = 0.0
    high: float = 1.0
    dim: int = 2
    instance: Instance | None = None

    def validate(self) -> None:
        if self.kind not in ("line", "euclidean", "fixed"):
            raise GeneratorError(f"unknown generator kind {self.kind!r}")
        if self.kind == "fixed":
            if self.instance is None:
                raise GeneratorError("fixed generator needs an instance")
            return
        for name, (lo, hi), least in (("n", self.n_range, 1),
                                      ("m", self.m_range, 1),
                                      ("k", self.k_range, 1)):
            if lo > hi or lo < least:
                raise GeneratorError(f"bad {name}_range ({lo}, {hi})")
        if not all(math.isfinite(v) for v in (self.low, self.high,
                                              self.high - self.low)):
            raise GeneratorError("generator low, high and high - low must be finite")
        if not (self.low < self.high):
            raise GeneratorError("generator needs low < high")
        if self.kind == "euclidean":
            if self.dim < 1:
                raise GeneratorError("euclidean generator needs dim >= 1")
            # a box diagonal whose square overflows makes every distance inf;
            # int / int, so a dim beyond float range cannot overflow the quotient
            if self.high - self.low > math.sqrt(int(sys.float_info.max) / self.dim):
                raise GeneratorError("euclidean generator box is too wide: "
                                     "distances across it overflow")

    @property
    def is_line(self) -> bool:
        """Whether every instance drawn lies on a line metric."""
        if self.kind == "fixed":
            return self.instance is not None and self.instance.is_line
        return self.kind == LINE


def random_instance(rng: np.random.Generator, spec: GeneratorSpec) -> Instance:
    """Draw one instance from the generator distribution."""
    if spec.kind == "fixed":
        return spec.instance
    n = int(rng.integers(spec.n_range[0], spec.n_range[1] + 1))
    m = int(rng.integers(spec.m_range[0], spec.m_range[1] + 1))
    k_hi = min(spec.k_range[1], n)
    k_lo = min(spec.k_range[0], k_hi)
    k = int(rng.integers(k_lo, k_hi + 1))
    if k == 1:
        sizes = [n]
    else:
        cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
        sizes = np.diff(np.concatenate([[0], cuts, [n]])).tolist()
    # a validated spec's box is finite, so are the distances across it, and
    # its districts are consecutive, so the instance needs no checks
    shape = (n,) if spec.kind == LINE else (n, spec.dim)
    agents = rng.uniform(spec.low, spec.high, shape)
    alts = rng.uniform(spec.low, spec.high, (m,) + shape[1:])
    return _trusted_instance(spec.kind, agents, _consecutive_districts(sizes), alts)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, trial])))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """Worst case found by a sweep, with the instance that achieved it."""

    max_ratio: float
    witness: Instance
    evaluated: int
    seed: int

    @property
    def infinite(self) -> bool:
        return math.isinf(self.max_ratio)


def sweep_result_to_json(result: SweepResult) -> dict:
    return {
        "max_ratio": None if result.infinite else result.max_ratio,
        "infinite": result.infinite,
        "evaluated": result.evaluated,
        "seed": result.seed,
        "witness": instance_to_json(result.witness),
    }


def sweep_result_from_json(data: dict) -> SweepResult:
    ratio = math.inf if data.get("infinite") else float(data["max_ratio"])
    return SweepResult(
        max_ratio=ratio,
        witness=instance_from_json(data["witness"]),
        evaluated=int(data["evaluated"]),
        seed=int(data["seed"]),
    )


def sweep_cells(cells: Sequence[tuple[Mechanism, ComposedObjective]],
                generator: GeneratorSpec | None = None, trials: int = 1000,
                seed: int = 0) -> list[SweepResult]:
    """Sweep several (mechanism, objective) cells over the same random trials.

    Trial i draws one instance from a generator seeded by the pair (seed, i)
    and every cell evaluates that instance, so each cell's result equals a
    sweep of that cell alone, while the draw, the build and everything the
    instance caches (district aggregates per inner objective, ordinal
    representatives per in-rule, profile, line axis) are paid once per trial.
    Each cell keeps its first worst instance in trial order.
    """
    spec = generator if generator is not None else GeneratorSpec()
    spec.validate()
    if trials < 1:
        raise GeneratorError("a sweep needs at least one trial")
    if seed < 0:
        raise GeneratorError("seeds must be nonnegative")
    if not cells:
        return []
    worst_ratios = [-math.inf] * len(cells)
    witnesses: list[Instance | None] = [None] * len(cells)
    for i in range(trials):
        instance = random_instance(_trial_rng(seed, i), spec)
        for c, (mechanism, objective) in enumerate(cells):
            ratio = evaluate(mechanism, instance, objective).ratio
            if ratio > worst_ratios[c]:
                worst_ratios[c] = ratio
                witnesses[c] = instance
    return [SweepResult(ratio, witness, trials, seed)
            for ratio, witness in zip(worst_ratios, witnesses)]


def sweep(mechanism: Mechanism, objective: ComposedObjective,
          generator: GeneratorSpec | None = None, trials: int = 1000,
          seed: int = 0) -> SweepResult:
    """Evaluate the mechanism on ``trials`` random instances; keep the worst.

    Trial i uses a generator seeded by the pair (seed, i), so results are
    reproducible and insensitive to the order in which cells run.
    """
    return sweep_cells([(mechanism, objective)], generator, trials, seed)[0]


# ---------------------------------------------------------------------------
# adversarial local search
# ---------------------------------------------------------------------------

def hill_climb(mechanism: Mechanism, objective: ComposedObjective,
               init: Instance, steps: int = 2000, step_size: float = 0.05,
               seed: int = 0, patience: int = 250) -> SweepResult:
    """Perturb line positions to push the distortion ratio up.

    One coordinate (agent or alternative) moves per step by a normal
    perturbation; moves that raise the ratio are kept. After ``patience``
    consecutive rejections the search restarts from the best point with a
    larger kick to escape the plateau. The district structure never changes.
    """
    if not init.is_line:
        raise NotLineMetric("hill climbing perturbs line positions")
    if steps < 0:
        raise GeneratorError("steps must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))

    def build(agent_pos: np.ndarray, alt_pos: np.ndarray) -> Instance:
        # init's districts are canonical; only a perturbation can go bad
        if not (np.isfinite(agent_pos).all() and np.isfinite(alt_pos).all()):
            raise ValueError("coordinates and distances must be finite")
        return _trusted_instance(LINE, agent_pos, init.districts, alt_pos)

    def ratio_of(inst: Instance) -> float:
        return evaluate(mechanism, inst, objective).ratio

    cur = best = init
    cur_ratio = best_ratio = ratio_of(init)
    evaluated = 1
    stale = 0
    n, m = init.num_agents, init.num_alternatives

    for _ in range(steps):
        agents = cur.agent_positions.copy()
        alts = cur.alternative_positions.copy()
        j = int(rng.integers(n + m))
        delta = float(rng.normal(0.0, step_size))
        if j < n:
            agents[j] += delta
        else:
            alts[j - n] += delta
        candidate = build(agents, alts)
        r = ratio_of(candidate)
        evaluated += 1
        if r > cur_ratio:
            cur, cur_ratio = candidate, r
            stale = 0
            if r > best_ratio:
                best, best_ratio = candidate, r
        else:
            stale += 1
            if stale >= patience:
                agents = best.agent_positions + rng.normal(0.0, step_size * 10, n)
                alts = best.alternative_positions + rng.normal(0.0, step_size * 10, m)
                cur = build(agents, alts)
                cur_ratio = ratio_of(cur)
                evaluated += 1
                stale = 0
                if cur_ratio > best_ratio:
                    best, best_ratio = cur, cur_ratio
    return SweepResult(best_ratio, best, evaluated, seed)
