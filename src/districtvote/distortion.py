"""Distortion measurement: single evaluations, random sweeps, local search.

The distortion of a mechanism on an instance is the ratio between the
composed cost of the alternative it elects and the composed cost of the best
alternative. Ratios are at least 1; when the optimum costs exactly 0 and the
winner does not, the ratio is reported as infinite.
"""

from __future__ import annotations

import functools
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
from .mechanisms import (
    REPRESENTATIVES_ONLY,
    ArbitraryOverRule,
    LeftmostRepRule,
    Mechanism,
    MechanismTrace,
    ThresholdSelectRule,
    check_metric,
    run,
)
from .objectives import CUSTOM_KIND, ComposedObjective, cost_vector
from .rules import (
    CARDINAL,
    DictatorRule,
    MedianLineRule,
    OptimalRule,
    dictator_tops,
    lower_median,
)


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
# block evaluation
# ---------------------------------------------------------------------------

#: Padded entries (districts x district size x alternatives) that the largest
#: array of one block of trials holds at most.
_BLOCK_ENTRIES = 1 << 17

#: Rules whose decisions a block makes with array expressions, per step.
_BLOCK_IN_RULES = (OptimalRule, ThresholdSelectRule, DictatorRule, MedianLineRule)
_BLOCK_OVER_RULES = (OptimalRule, ThresholdSelectRule, ArbitraryOverRule,
                     LeftmostRepRule, MedianLineRule)


def _block_trials(spec: GeneratorSpec) -> int:
    """Trials per block, so that blocks of the largest draws fit the budget."""
    if spec.kind == "fixed":
        inst = spec.instance
        n, m, k = inst.num_agents, inst.num_alternatives, inst.num_districts
    else:
        n, m = spec.n_range[1], spec.m_range[1]
        k = min(spec.k_range[1], n)
    return max(1, _BLOCK_ENTRIES // (k * n * m))


def _batched(mechanism: Mechanism, objective: ComposedObjective) -> bool:
    """Whether a block decides the cell with array expressions: it knows both
    rules, and no aggregator the cell uses is custom."""
    # built-in types only: the block hands ``pick`` rows padded with +inf
    # values and -inf positions, and a duck-typed rule may elect a pad (one
    # electing the largest value would), so such rules run per instance
    rules = (mechanism.in_rule, mechanism.over_rule)
    inners = [objective.inner, objective.outer] + [
        rule.inner for rule in rules if rule.info == CARDINAL]
    return (type(rules[0]) in _BLOCK_IN_RULES and type(rules[1]) in _BLOCK_OVER_RULES
            and all(inner.kind != CUSTOM_KIND for inner in inners))


def _ratios(winner_costs: np.ndarray, optimal_costs: np.ndarray) -> np.ndarray:
    """``evaluate``'s ratio for arrays of costs: over a zero optimum, inf
    unless the winner costs 0 too."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = winner_costs / optimal_costs
    return np.where(optimal_costs == 0.0,
                    np.where(winner_costs > 0.0, math.inf, 1.0), ratios)


def _block_ratios(cells, instances: list[Instance]) -> np.ndarray:
    """The (cells, trials) distortion ratios of one block of instances."""
    try:
        block = None
        rows = []
        for mechanism, objective in cells:
            if _batched(mechanism, objective):
                block = block or _Block(instances)
                rows.append(block.ratios(mechanism, objective))
            else:
                rows.append([evaluate(mechanism, instance, objective).ratio
                             for instance in instances])
        return np.array(rows, dtype=np.float64)
    except Exception:
        # trial-major, so the first error in (trial, cell) order surfaces
        return np.array([[evaluate(mechanism, instance, objective).ratio
                          for mechanism, objective in cells]
                         for instance in instances], dtype=np.float64).T


class _Block:
    """Drawn instances stacked for evaluation with array expressions.

    Alternatives pad to the block's largest m and district members to its
    largest district. Pads are exact zeros inside every sum and maximum;
    only after aggregation does an alternative a rule may not choose get
    value +inf and position -inf (``_offer``). Per-district arrays
    list every trial's districts in trial order; per-trial arrays pad the
    districts to the block's largest k.
    """

    def __init__(self, instances: list[Instance]):
        self.size = len(instances)
        self.k = np.array([inst.num_districts for inst in instances])
        m = [inst.num_alternatives for inst in instances]
        n = self.agents = [inst.num_agents for inst in instances]
        width = max(m)
        self.real = np.arange(width) < np.array(m)[:, None]
        self.agent_alt = np.zeros((sum(n) + 1, width))   # the last row pads
        self.alt_alt = np.zeros((self.size, width, width))
        members, start = [], 0
        for b, inst in enumerate(instances):
            self.agent_alt[start:start + n[b], :m[b]] = inst.agent_alt
            self.alt_alt[b, :m[b], :m[b]] = inst.alt_alt
            members += [[start + a for a in d] for d in inst.districts]
            start += n[b]
        self.sizes = np.array([len(d) for d in members])
        self.members = np.full((len(members), self.sizes.max()), start)
        for d, ids in enumerate(members):
            self.members[d, :len(ids)] = ids
        self.trial = np.repeat(np.arange(self.size), self.k)
        self.slot = np.arange(len(members)) - np.repeat(np.cumsum(self.k) - self.k,
                                                        self.k)
        self.positions = None
        if all(inst.is_line for inst in instances):
            self.positions = np.full(self.real.shape, -math.inf)
            for b, inst in enumerate(instances):
                self.positions[b, :m[b]] = inst.alternative_points
        self._cache: dict = {}

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def by_trial(self, per_district: np.ndarray) -> np.ndarray:
        """(districts, ...) rows regrouped as (trials, k, ...), zero-padded."""
        out = np.zeros((self.size, int(self.k.max()))
                       + per_district.shape[1:], per_district.dtype)
        out[self.trial, self.slot] = per_district
        return out

    @functools.cached_property
    def tops(self) -> np.ndarray:
        """Every agent's top alternative, the first of its stable ranking;
        the pad row's is 0."""
        real = self.real[np.repeat(np.arange(self.size), self.agents)]
        tops = np.where(real, self.agent_alt[:-1], math.inf).argmin(axis=-1)
        return np.append(tops, 0)

    @functools.cached_property
    def order(self) -> np.ndarray:
        """Each trial's alternatives left to right, ties by id, pads first."""
        return np.argsort(self.positions, axis=-1, kind="stable")

    @functools.cached_property
    def ranks(self) -> np.ndarray:
        """Each alternative's place in its trial's ``order``."""
        ranks = np.empty_like(self.order)
        np.put_along_axis(ranks, self.order, np.arange(self.order.shape[1]), axis=-1)
        return ranks

    def _offer(self, rule, values: np.ndarray, offered: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
        """A cardinal rule's pick among the ``offered`` alternatives of the
        given trials; the others can be neither least nor rightmost."""
        positions = (None if self.positions is None
                     else np.where(offered, self.positions[rows], -math.inf))
        return rule.pick(np.where(offered, values, math.inf), positions)

    def aggregates(self, inner) -> np.ndarray:
        """(districts, m) inner aggregates, zero at padded alternatives."""
        return self._cached(("aggregates", inner), lambda: inner.aggregate(
            self.agent_alt[self.members], self.sizes[:, None]))

    def costs(self, objective: ComposedObjective) -> np.ndarray:
        """(trials, m) composed costs, +inf at padded alternatives."""
        def compute():
            costs = objective.outer.aggregate(
                self.by_trial(self.aggregates(objective.inner)), self.k[:, None])
            return np.where(self.real, costs, math.inf)
        return self._cached(("costs", objective), compute)

    def representatives(self, rule) -> np.ndarray:
        """The in-step: one representative per district."""
        def compute():
            if rule.info == CARDINAL:
                return self._offer(rule, self.aggregates(rule.inner),
                                   self.real[self.trial], self.trial)
            peaks = self.tops[self.members]
            if type(rule) is DictatorRule:
                return dictator_tops(peaks, self.sizes, rule.dictator_index)
            seated = np.arange(peaks.shape[1]) < self.sizes[:, None]
            ranks = np.where(seated, self.ranks[self.trial[:, None], peaks],
                             self.real.shape[1])
            return self.order[self.trial, lower_median(ranks, self.sizes)]
        return self._cached(("representatives", rule), compute)

    def winners(self, mechanism: Mechanism) -> np.ndarray:
        """The over step on every trial with more than one district."""
        reps = self.by_trial(self.representatives(mechanism.in_rule))
        winners = reps[:, 0].copy()
        rows = np.flatnonzero(self.k > 1)
        if rows.size == 0:
            return winners
        reps, k = reps[rows], self.k[rows]
        seated = np.arange(reps.shape[1]) < k[:, None]
        over, width = mechanism.over_rule, self.real.shape[1]
        if over.info == CARDINAL:
            block = np.where(seated[..., None], self.alt_alt[rows[:, None], reps], 0.0)
            values = over.inner.aggregate(block, k[:, None])
            offered = self.real[rows]
            if mechanism.selection_mode == REPRESENTATIVES_ONLY:
                offered = offered & ((reps[..., None] == np.arange(width))
                                     & seated[..., None]).any(axis=1)
            winners[rows] = self._offer(over, values, offered, rows)
        elif type(over) is ArbitraryOverRule:
            winners[rows] = over.pick(reps, k)
        else:
            ranks = np.where(seated, self.ranks[rows[:, None], reps], width)
            rank = (over.pick(ranks) if type(over) is LeftmostRepRule
                    else lower_median(ranks, k))
            winners[rows] = self.order[rows, rank]
        return winners

    def ratios(self, mechanism: Mechanism, objective: ComposedObjective) -> np.ndarray:
        """Every trial's distortion ratio for one cell."""
        check_metric(mechanism, self.positions is not None)
        costs = self.costs(objective)
        winners = self.winners(mechanism)
        return _ratios(costs[np.arange(self.size), winners],
                       costs.min(axis=-1))


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
    """JSON-ready dict; an infinite or NaN ratio is null, and the flag says
    which."""
    return {
        "max_ratio": result.max_ratio if math.isfinite(result.max_ratio) else None,
        "infinite": result.infinite,
        "evaluated": result.evaluated,
        "seed": result.seed,
        "witness": instance_to_json(result.witness),
    }


def sweep_result_from_json(data: dict) -> SweepResult:
    if data.get("infinite"):
        ratio = math.inf
    else:
        ratio = math.nan if data["max_ratio"] is None else float(data["max_ratio"])
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
    sweep of that cell alone. Trials are drawn in blocks (``_block_trials``)
    and each cell is evaluated on a whole block at once: the block stacks
    the drawn instances' distances, and the district aggregates, cost
    vectors and optima, and the decisions of the built-in cardinal rules
    and of dictator, arbitrary, leftmost and median, become array
    expressions over it. Plurality matching, duck-typed rules and custom
    aggregators run per instance through ``evaluate``, sharing what each
    instance caches. A block in which any cell raises is replayed trial by
    trial, so the error that comes first in (trial, cell) order surfaces.
    Each cell keeps its first worst instance in trial order, and its
    witness is that drawn instance; a cell whose every ratio is NaN reports
    ratio NaN with trial 0's instance.
    """
    spec = generator if generator is not None else GeneratorSpec()
    spec.validate()
    if trials < 1:
        raise GeneratorError("a sweep needs at least one trial")
    if seed < 0:
        raise GeneratorError("seeds must be nonnegative")
    if not cells:
        return []
    worst_ratios = [math.nan] * len(cells)
    witnesses: list[Instance | None] = [None] * len(cells)
    size = _block_trials(spec)
    for start in range(0, trials, size):
        instances = [random_instance(_trial_rng(seed, i), spec)
                     for i in range(start, min(start + size, trials))]
        for c, ratios in enumerate(_block_ratios(cells, instances)):
            # a NaN ratio never becomes the worst: trial 0 is the witness,
            # with ratio NaN, until a comparable ratio takes its place
            j = int(np.argmax(np.where(np.isnan(ratios), -math.inf, ratios)))
            ratio = float(ratios[j])
            if witnesses[c] is None or not (math.isnan(ratio)
                                            or ratio <= worst_ratios[c]):
                worst_ratios[c] = ratio
                witnesses[c] = instances[j]
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
    if patience < 1:
        raise GeneratorError("patience must be at least 1")
    # NaN fails ``step_size >= 0``
    if not (step_size >= 0 and math.isfinite(step_size)):
        raise ValueError(f"step_size {step_size} must be finite and nonnegative")
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
        agents = cur.agent_points.copy()
        alts = cur.alternative_points.copy()
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
                agents = best.agent_points + rng.normal(0.0, step_size * 10, n)
                alts = best.alternative_points + rng.normal(0.0, step_size * 10, m)
                cur = build(agents, alts)
                cur_ratio = ratio_of(cur)
                evaluated += 1
                stale = 0
                if cur_ratio > best_ratio:
                    best, best_ratio = cur, cur_ratio
    return SweepResult(best_ratio, best, evaluated, seed)
