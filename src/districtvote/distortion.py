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
    _distances,
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
from .rules import CARDINAL, DictatorRule, Electorate, MedianLineRule, OptimalRule


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


def _stack(instances: list[Instance]) -> _Block:
    """A block of a sweep's drawn instances.

    Alternatives pad to the largest m and district members to the largest
    district; each instance's agent rows follow the previous instance's.
    """
    m = np.array([inst.num_alternatives for inst in instances])
    n = [inst.num_agents for inst in instances]
    width = int(m.max())
    agent_alt = np.zeros((sum(n) + 1, width))   # the last row pads
    alt_alt = np.zeros((len(instances), width, width))
    members, start = [], 0
    for b, inst in enumerate(instances):
        agent_alt[start:start + n[b], :m[b]] = inst.agent_alt
        alt_alt[b, :m[b], :m[b]] = inst.alt_alt
        members += [[start + a for a in d] for d in inst.districts]
        start += n[b]
    padded = np.full((len(members), max(map(len, members))), start)
    for d, ids in enumerate(members):
        padded[d, :len(ids)] = ids
    positions = None
    if all(inst.is_line for inst in instances):
        positions = np.full(alt_alt.shape[:2], -math.inf)
        for b, inst in enumerate(instances):
            positions[b, :m[b]] = inst.alternative_points
    return _Block(agent_alt, alt_alt, m,
                  np.array([inst.num_districts for inst in instances]), padded,
                  positions)


def _block_ratios(cells, instances: list[Instance]) -> np.ndarray:
    """The (cells, trials) distortion ratios of one block of instances."""
    try:
        block = None
        rows = []
        for mechanism, objective in cells:
            if _batched(mechanism, objective):
                block = block or _stack(instances)
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
    """Instances stacked for evaluation with array expressions.

    Alternatives pad to the block's largest m and district members to its
    largest district. Pads are exact zeros inside every sum and maximum;
    only after aggregation does an alternative a rule may not choose get
    value +inf and position -inf (``_offer``). Per-district arrays
    list every trial's districts in trial order; per-trial arrays pad the
    districts to the block's largest k.
    """

    def __init__(self, agent_alt: np.ndarray, alt_alt: np.ndarray, m: np.ndarray,
                 k: np.ndarray, members: np.ndarray, positions: np.ndarray | None):
        """``agent_alt`` holds every trial's agent rows in trial order, then
        one zero row; ``alt_alt`` is (trials, width, width); ``m`` and ``k``
        count each trial's alternatives and districts; ``members`` lists each
        district's agent rows, padded with the zero row; ``positions`` holds
        the alternatives' line coordinates, -inf at pads, or is None off the
        line."""
        self.size = len(k)
        self.k = k
        self.real = np.arange(alt_alt.shape[-1]) < m[:, None]
        self.agent_alt = agent_alt
        self.alt_alt = alt_alt
        self.members = members
        self.sizes = (members < len(agent_alt) - 1).sum(axis=1)
        self.trial = np.repeat(np.arange(self.size), k)
        self.slot = np.arange(len(members)) - np.repeat(np.cumsum(k) - k, k)
        self.positions = positions
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
        # a trial's agent rows are the members of its districts
        real = self.real[np.repeat(self.trial, self.sizes)]
        tops = np.where(real, self.agent_alt[:-1], math.inf).argmin(axis=-1)
        return np.append(tops, 0)

    @functools.cached_property
    def order(self) -> np.ndarray:
        """Each trial's alternatives left to right, ties by id, pads first."""
        return np.argsort(self.positions, axis=-1, kind="stable")

    def _electorate(self, peaks: np.ndarray, counts: np.ndarray,
                    rows: np.ndarray) -> Electorate:
        """Rows of ``peaks`` over the alternatives of the given trials."""
        return Electorate(peaks, counts,
                          None if self.positions is None else self.order[rows])

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
            return rule.pick(self._electorate(self.tops[self.members],
                                              self.sizes, self.trial))
        return self._cached(("representatives", rule), compute)

    def winners(self, mechanism: Mechanism) -> np.ndarray:
        """The over step on every trial with more than one district."""
        reps = self.by_trial(self.representatives(mechanism.in_rule))
        winners = reps[:, 0].copy()
        rows = np.flatnonzero(self.k > 1)
        if rows.size == 0:
            return winners
        reps, k = reps[rows], self.k[rows]
        over = mechanism.over_rule
        if over.info != CARDINAL:
            winners[rows] = over.pick(self._electorate(reps, k, rows))
            return winners
        seated = np.arange(reps.shape[1]) < k[:, None]
        block = np.where(seated[..., None], self.alt_alt[rows[:, None], reps], 0.0)
        values = over.inner.aggregate(block, k[:, None])
        offered = self.real[rows]
        if mechanism.selection_mode == REPRESENTATIVES_ONLY:
            offered = offered & ((reps[..., None] == np.arange(self.real.shape[1]))
                                 & seated[..., None]).any(axis=1)
        winners[rows] = self._offer(over, values, offered, rows)
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

#: Moves in a climb's first speculative block. A block that accepts no move
#: doubles the next one, up to the block budget; an accepted move resets it.
#: A block's fixed cost is that of dozens of moves, so a move evaluated in
#: vain after an accepted one costs little.
_CLIMB_BLOCK = 16


def hill_climb(mechanism: Mechanism, objective: ComposedObjective,
               init: Instance, steps: int = 2000, step_size: float = 0.05,
               seed: int = 0, patience: int = 250) -> SweepResult:
    """Perturb line positions to push the distortion ratio up.

    One coordinate (agent or alternative) moves per step by a normal
    perturbation; moves that raise the ratio are kept. After ``patience``
    consecutive rejections the search restarts from the best point with a
    larger kick to escape the plateau. The district structure never changes.
    ``step_size`` must be nonnegative, with the restart kick's scale,
    ``step_size * 10``, finite. A move or restart whose coordinates or
    distances are not finite raises ValueError.

    Moves are evaluated in speculative blocks. From the current point the
    next few moves are drawn as if each were to be rejected, stacked, and
    evaluated as one ``_Block``; the first that raises the ratio is taken.
    The draws never depend on the current point, so the moves drawn after an
    accepted one are applied to the new point in turn, and no block runs
    past a restart or the last step: the generator is called in the same
    order, and the climb returns the same result, as when each move is
    evaluated alone. A block starts at ``_CLIMB_BLOCK`` moves and doubles
    after each block that accepts none. Cells a block cannot decide
    (``_batched``) evaluate one move at a time, each through ``evaluate``.
    """
    if not init.is_line:
        raise NotLineMetric("hill climbing perturbs line positions")
    if steps < 0:
        raise GeneratorError("steps must be nonnegative")
    if patience < 1:
        raise GeneratorError("patience must be at least 1")
    if seed < 0:
        raise GeneratorError("seeds must be nonnegative")
    # NaN fails ``step_size >= 0``; a restart kicks by ``step_size * 10``
    if not (step_size >= 0 and math.isfinite(step_size * 10)):
        raise ValueError(f"step_size {step_size} must be nonnegative, "
                         "with step_size * 10 finite")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    n, m = init.num_agents, init.num_alternatives
    nonfinite = "coordinates and distances must be finite"

    def build(points: np.ndarray) -> Instance:
        # init's districts are canonical; only a perturbation can go bad, and
        # a coordinate that is not finite makes some distance not finite
        with np.errstate(over="ignore", invalid="ignore"):
            inst = _trusted_instance(LINE, points[:n], init.districts, points[n:])
        if not (np.isfinite(inst.agent_alt).all() and np.isfinite(inst.alt_alt).all()):
            raise ValueError(nonfinite)
        return inst

    def ratio_of(inst: Instance) -> float:
        return evaluate(mechanism, inst, objective).ratio

    if _batched(mechanism, objective):
        most = _block_trials(GeneratorSpec(kind="fixed", instance=init))
        members = _stack([init]).members   # padded with row n

        def ratios(moves: np.ndarray) -> np.ndarray:
            """The ratios of the moves before the first whose distances are
            not finite."""
            with np.errstate(over="ignore", invalid="ignore"):
                agent_alt = _distances(LINE, moves[:, :n], moves[:, n:])
                alt_alt = _distances(LINE, moves[:, n:], moves[:, n:])
            finite = (np.isfinite(agent_alt).all(axis=(1, 2))
                      & np.isfinite(alt_alt).all(axis=(1, 2)))
            b = int(np.logical_and.accumulate(finite).sum())
            if b == 0:
                return np.empty(0)
            rows = np.concatenate([agent_alt[:b].reshape(b * n, m), np.zeros((1, m))])
            stacked = np.where(members < n, members + n * np.arange(b)[:, None, None],
                               b * n)
            block = _Block(rows, alt_alt[:b], np.full(b, m),
                           np.full(b, init.num_districts),
                           stacked.reshape(-1, members.shape[1]), moves[:b, n:])
            return block.ratios(mechanism, objective)
    else:
        most = 1

        def ratios(moves: np.ndarray) -> list[float]:
            return [ratio_of(build(moves[0]))]

    points = np.concatenate([init.agent_points, init.alternative_points])
    cur_ratio = best_ratio = ratio_of(init)
    best = init
    evaluated = 1
    stale = taken = 0
    size = min(_CLIMB_BLOCK, most)
    queued: list[tuple[int, float]] = []   # moves drawn, not yet evaluated
    while taken < steps:
        take = min(size, patience - stale, steps - taken)
        while len(queued) < take:
            queued.append((int(rng.integers(n + m)), float(rng.normal(0.0, step_size))))
        moves = np.repeat(points[None], take, axis=0)
        j, delta = zip(*queued[:take])
        with np.errstate(over="ignore"):
            moves[np.arange(take), j] += delta
        r = ratios(moves)
        better = np.flatnonzero(np.greater(r, cur_ratio))
        if not better.size and len(r) < take:
            raise ValueError(nonfinite)
        used = int(better[0]) + 1 if better.size else take
        del queued[:used]
        taken += used
        evaluated += used
        if better.size:
            points = moves[used - 1].copy()
            cur_ratio = float(r[used - 1])
            stale = 0
            size = min(_CLIMB_BLOCK, most)
            if cur_ratio > best_ratio:
                best, best_ratio = build(points), cur_ratio
            continue
        stale += take
        size = min(2 * size, most)
        if stale == patience:
            with np.errstate(over="ignore"):
                agents = best.agent_points + rng.normal(0.0, step_size * 10, n)
                alts = best.alternative_points + rng.normal(0.0, step_size * 10, m)
            points = np.concatenate([agents, alts])
            cur = build(points)
            cur_ratio = ratio_of(cur)
            evaluated += 1
            stale = 0
            if cur_ratio > best_ratio:
                best, best_ratio = cur, cur_ratio
    return SweepResult(best_ratio, best, evaluated, seed)
