"""Composed cost objectives and aggregator property checks.

A composed objective scores an alternative in two stages: an inner
aggregator g turns each district's distance vector into one number, and an
outer aggregator F (average or maximum) combines the k district numbers.
Both stages are ``InnerObjective`` aggregators of a distance vector; the
shared ``AVG`` and ``MAX`` objects serve as either. The four canonical
combinations are spelled ``avg.avg``, ``avg.max``, ``max.max`` and
``max.avg`` (outer first), and ``max.pmean:<p>`` composes the built-in power
mean of exponent p >= 1 inside a maximum.

Custom inner aggregators participate if they behave like a cost: the
property checks in this module probe monotonicity, subadditivity (with
scaling), consistency on constant vectors, and single-peakedness of the
induced cost along a line.

Every cost here reads the instance's district aggregates
(:func:`district_aggregates`), computed once per instance and inner
objective, so ``cost``, ``inner_cost`` and ``cost_vector`` agree bit for bit
and objectives sharing an inner objective share that work.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import IndexOutOfRange, NotLineMetric
from .instances import Instance
from .tolerances import EXACT_TOL, USER_TOL

MONOTONE = "monotone"
SUBADDITIVE = "subadditive"
CONSISTENT = "consistent"
SINGLE_PEAKED = "single_peaked"
ALL_PROPERTIES = frozenset({MONOTONE, SUBADDITIVE, CONSISTENT, SINGLE_PEAKED})

AVG_KIND = "avg"
MAX_KIND = "max"
PMEAN_KIND = "pmean"
CUSTOM_KIND = "custom"

#: Below this a mean of powers has lost bits to underflow.
_SMALLEST_NORMAL = np.finfo(np.float64).tiny


def _power_means(stack: np.ndarray, p: float, counts) -> np.ndarray:
    """((1/n) sum v_i^p)^(1/p) of the vectors along axis -2 of ``stack``,
    each of ``counts`` entries followed by zero pads.

    A vector whose powers overflow, or underflow below the normal range,
    is divided by its largest entry before the power and multiplied by it
    after, so the result is finite and keeps its precision at any scale.
    """
    with np.errstate(over="ignore", under="ignore", divide="ignore",
                     invalid="ignore"):
        means = (stack ** p).sum(axis=-2) / counts
        direct = means ** (1.0 / p)
        kept = np.isfinite(means) & (means >= _SMALLEST_NORMAL)
        if np.all(kept):
            return direct
        top = stack.max(axis=-2)
        scaled = top * (((stack / top[..., None, :]) ** p).sum(axis=-2)
                        / counts) ** (1.0 / p)
        return np.where(kept | (top == 0), direct, scaled)


def _means(stack: np.ndarray, counts) -> np.ndarray:
    """The mean along axis -2 of ``stack``, of ``counts`` entries each.

    A vector of finite entries whose sum overflows takes the power mean of
    exponent 1 instead, which scales by the largest entry, so finite
    distances keep a finite mean.
    """
    try:
        with np.errstate(over="raise"):
            return stack.sum(axis=-2) / counts
    except FloatingPointError:
        pass
    with np.errstate(over="ignore"):
        means = stack.sum(axis=-2) / counts
    overflowed = ~np.isfinite(means) & np.isfinite(stack).all(axis=-2)
    return np.where(overflowed, _power_means(stack, 1.0, counts), means)


@dataclass(frozen=True)
class InnerObjective:
    """Aggregates a distance vector into one number.

    It aggregates one district's agents in the in-step and the districts
    (or the pseudo-voters at the representatives) in the over step.
    ``kind`` is ``avg``, ``max``, ``pmean`` (the power mean of exponent
    ``p`` >= 1) or ``custom``. Custom aggregators supply ``fn`` (vector ->
    float) and may declare the cost-like properties they satisfy.
    """

    kind: str
    name: str = ""
    fn: Callable[[np.ndarray], float] | None = field(default=None, compare=False)
    declared_properties: frozenset = frozenset()
    p: float | None = None

    def __post_init__(self):
        # built-in kinds are trusted unchecked, so a misspelt kind must not pass
        if self.kind not in (AVG_KIND, MAX_KIND, PMEAN_KIND, CUSTOM_KIND):
            raise ValueError(f"unknown aggregator kind {self.kind!r}")
        if self.kind == CUSTOM_KIND and self.fn is None:
            raise ValueError("a custom aggregator needs a function fn")
        if self.kind != PMEAN_KIND:
            return
        if self.p is None:
            raise ValueError("power mean needs an exponent p")
        if not math.isfinite(self.p):
            raise ValueError("power mean exponent must be finite")
        if self.p < 1:
            raise ValueError("power mean exponent must be >= 1")

    def value(self, v: np.ndarray) -> float:
        return float(self.over_columns(np.asarray(v, dtype=np.float64)[:, None])[0])

    def over_columns(self, mat: np.ndarray) -> np.ndarray:
        """Apply the aggregator to every column of a (voters x candidates) block."""
        mat = np.asarray(mat, dtype=np.float64)
        if self.kind == CUSTOM_KIND:
            return np.array([float(self.fn(mat[:, c])) for c in range(mat.shape[1])])
        return self.aggregate(mat, mat.shape[-2])

    def aggregate(self, stack: np.ndarray, counts) -> np.ndarray:
        """A built-in aggregator along axis -2 of ``stack``.

        Each vector along that axis holds ``counts`` entries, then zero pads,
        which leave every sum, and the maximum of nonnegative entries such as
        distances, unchanged; so a block of electorates of different sizes
        aggregates in one call, and ``over_columns`` is the block of one.
        """
        if self.kind == AVG_KIND:
            return _means(stack, counts)
        if self.kind == MAX_KIND:
            return stack.max(axis=-2)
        return _power_means(stack, self.p, counts)

    @property
    def spec(self) -> str:
        if self.name:
            return self.name
        return f"pmean:{self.p:g}" if self.kind == PMEAN_KIND else self.kind


@dataclass(frozen=True)
class ComposedObjective:
    """Outer aggregator over districts of an inner aggregator over agents."""

    outer: InnerObjective
    inner: InnerObjective

    @property
    def spec(self) -> str:
        return f"{self.outer.spec}.{self.inner.spec}"


AVG = InnerObjective(kind=AVG_KIND, name="avg",
                     declared_properties=ALL_PROPERTIES)
MAX = InnerObjective(kind=MAX_KIND, name="max",
                     declared_properties=ALL_PROPERTIES)

AVG_AVG = ComposedObjective(AVG, AVG)
AVG_MAX = ComposedObjective(AVG, MAX)
MAX_MAX = ComposedObjective(MAX, MAX)
MAX_AVG = ComposedObjective(MAX, AVG)


def power_mean(p: float) -> InnerObjective:
    """The power mean ((1/n) sum v_i^p)^(1/p); p >= 1 keeps it cost-like.

    Each exponent gets one object (2 and 2.0 included), so objectives
    sharing it share the instance's cached district aggregates.
    """
    return _power_mean(float(p))


@functools.cache
def _power_mean(p: float) -> InnerObjective:
    return InnerObjective(kind=PMEAN_KIND, name=f"pmean:{p:g}", p=p,
                          declared_properties=ALL_PROPERTIES)


# ---------------------------------------------------------------------------
# cost evaluation
# ---------------------------------------------------------------------------

def district_aggregates(instance: Instance, inner: InnerObjective) -> np.ndarray:
    """Read-only (k, m) matrix: row d is ``inner`` over district d's
    distances to each alternative.

    Computed once per instance and inner objective through
    ``Instance._derived``, keyed by the objective's identity:
    ``InnerObjective`` equality ignores ``fn``, so two custom inners can
    compare equal and still differ. The entry holds the objective, so its id
    stays unique while the instance lives.
    """
    def compute():
        values = np.empty((instance.num_districts, instance.num_alternatives))
        for d, members in enumerate(instance.district_arrays()):
            values[d] = inner.over_columns(instance.agent_alt[members])
        values.flags.writeable = False
        return inner, values
    return instance._derived(("district_aggregates", id(inner)), compute)[1]


def inner_cost(instance: Instance, district: int, inner: InnerObjective,
               alternative: int) -> float:
    """Inner aggregate of one district's distances to one alternative."""
    if not (0 <= district < instance.num_districts):
        raise IndexOutOfRange(f"district {district} out of range")
    if not (0 <= alternative < instance.num_alternatives):
        raise IndexOutOfRange(f"alternative {alternative} out of range")
    return float(district_aggregates(instance, inner)[district, alternative])


def cost(instance: Instance, objective: ComposedObjective, alternative: int) -> float:
    """Composed cost of one alternative; equal to its ``cost_vector`` entry."""
    if not (0 <= alternative < instance.num_alternatives):
        raise IndexOutOfRange(f"alternative {alternative} out of range")
    return float(cost_vector(instance, objective)[alternative])


def cost_vector(instance: Instance, objective: ComposedObjective) -> np.ndarray:
    """Composed cost of every alternative at once."""
    return objective.outer.over_columns(district_aggregates(instance, objective.inner))


def optimal_alternative(instance: Instance,
                        objective: ComposedObjective) -> tuple[int, float]:
    """Exhaustive minimizer of the composed cost; ties go to the lowest id."""
    costs = cost_vector(instance, objective)
    best = int(np.argmin(costs))
    return best, float(costs[best])


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropertyCheckResult:
    """Outcome of one randomized property check."""

    property_name: str
    passed: bool
    samples: int
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.passed


DEFAULT_SAMPLES = 10_000


def _check_rng(seed: int | Sequence[int]) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _floats(values: np.ndarray) -> tuple[float, ...]:
    return tuple(float(x) for x in values)


#: Samples drawn and evaluated together; bounds the memory a check holds.
_BLOCK = 1024

#: Longest vector a check samples; each sample's length is uniform on 1.._DIMS.
_DIMS = 8


def _blocks(samples: int):
    """Sizes of the successive blocks that make up ``samples`` draws."""
    for start in range(0, samples, _BLOCK):
        yield min(_BLOCK, samples - start)


def _row_values(g: InnerObjective, mat: np.ndarray,
                lengths: np.ndarray) -> np.ndarray:
    """g of the first ``lengths[i]`` entries of each row i of ``mat``.

    Rows of one length go through ``over_columns`` together.
    """
    out = np.empty(mat.shape[0])
    for length in np.unique(lengths):
        rows = lengths == length
        out[rows] = g.over_columns(mat[rows, :length].T)
    return out


def check_monotone(g: InnerObjective, samples: int = DEFAULT_SAMPLES,
                   seed: int | Sequence[int] = 0) -> PropertyCheckResult:
    """g(v) <= g(u) whenever v <= u coordinatewise (sampled)."""
    rng = _check_rng(seed)
    for block in _blocks(samples):
        lengths = rng.integers(1, _DIMS + 1, block)
        v = rng.uniform(0.0, 10.0, (block, _DIMS))
        u = v + rng.uniform(0.0, 5.0, (block, _DIMS))
        bad = np.flatnonzero(_row_values(g, v, lengths)
                             > _row_values(g, u, lengths) + EXACT_TOL)
        if bad.size:
            i = bad[0]
            n = lengths[i]
            return PropertyCheckResult(MONOTONE, False, samples,
                                       (_floats(v[i, :n]), _floats(u[i, :n])))
    return PropertyCheckResult(MONOTONE, True, samples)


def check_subadditive(g: InnerObjective, samples: int = DEFAULT_SAMPLES,
                      seed: int | Sequence[int] = 0) -> PropertyCheckResult:
    """g(v + u) <= g(v) + g(u), and g(c v) <= c g(v) for sampled c >= 1."""
    rng = _check_rng(seed)
    for block in _blocks(samples):
        lengths = rng.integers(1, _DIMS + 1, block)
        v = rng.uniform(0.0, 10.0, (block, _DIMS))
        u = rng.uniform(0.0, 10.0, (block, _DIMS))
        c = rng.uniform(1.0, 5.0, block)
        gv = _row_values(g, v, lengths)
        additive = (_row_values(g, v + u, lengths)
                    > gv + _row_values(g, u, lengths) + EXACT_TOL)
        scaling = _row_values(g, c[:, None] * v, lengths) > c * gv + EXACT_TOL
        bad = np.flatnonzero(additive | scaling)
        if bad.size:
            i = bad[0]
            n = lengths[i]
            witness = ((_floats(v[i, :n]), _floats(u[i, :n])) if additive[i]
                       else (float(c[i]), _floats(v[i, :n])))
            return PropertyCheckResult(SUBADDITIVE, False, samples, witness)
    return PropertyCheckResult(SUBADDITIVE, True, samples)


def check_consistent(g: InnerObjective, samples: int = DEFAULT_SAMPLES,
                     seed: int | Sequence[int] = 0) -> PropertyCheckResult:
    """g of a constant vector (c, ..., c) equals c."""
    rng = _check_rng(seed)
    for block in _blocks(samples):
        lengths = rng.integers(1, _DIMS + 1, block)
        c = rng.uniform(0.0, 10.0, block)
        got = _row_values(g, np.repeat(c[:, None], _DIMS, axis=1), lengths)
        bad = np.flatnonzero(np.abs(got - c) > EXACT_TOL)
        if bad.size:
            i = bad[0]
            return PropertyCheckResult(CONSISTENT, False, samples,
                                       (float(c[i]), int(lengths[i]), float(got[i])))
    return PropertyCheckResult(CONSISTENT, True, samples)


#: Grid resolution for the single-peakedness scan, as a fraction of the span.
_PEAK_GRID_STEP = 1e-3


def check_single_peaked(g: InnerObjective, instance: Instance,
                        district: int) -> PropertyCheckResult:
    """Scan the induced cost x -> g(distances from x to the district's agents)
    along the line; it must fall then rise (plateaus allowed).

    The scan grid is the instance's coordinate span at step 1e-3 of the span,
    augmented with every agent and alternative position. The witness of a
    failure is a triple of positions exhibiting a local rise before the
    global minimum (or fall after it).
    """
    if not instance.is_line:
        raise NotLineMetric("single-peakedness is defined along a line metric")
    if not (0 <= district < instance.num_districts):
        raise IndexOutOfRange(f"district {district} out of range")
    members = instance.district_arrays()[district]
    agent_pos = instance.agent_points[members]
    all_points = np.concatenate([instance.agent_points,
                                 instance.alternative_points])
    lo, hi = float(all_points.min()), float(all_points.max())
    span = hi - lo
    if span > 0:
        grid = np.arange(lo, hi, span * _PEAK_GRID_STEP)
    else:
        grid = np.array([lo])
    grid = np.unique(np.concatenate([grid, all_points]))
    values = g.over_columns(np.abs(grid[None, :] - agent_pos[:, None]))
    imin = int(np.argmin(values))
    # left of the minimum: non-increasing; right of it: non-decreasing, each
    # step up to USER_TOL times the larger magnitude of the two values
    slack = USER_TOL * np.maximum(np.abs(values[1:]), np.abs(values[:-1]))
    rises = values[1:imin + 1] > values[:imin] + slack[:imin]
    falls = values[imin + 1:] < values[imin:-1] - slack[imin:]
    bad = np.concatenate([np.flatnonzero(rises), imin + np.flatnonzero(falls)])
    if bad.size:
        i = bad[0]
        return PropertyCheckResult(SINGLE_PEAKED, False, grid.size,
                                   (float(grid[i]), float(grid[i + 1]),
                                    float(grid[imin])))
    return PropertyCheckResult(SINGLE_PEAKED, True, grid.size)


def run_property_checks(g: InnerObjective, samples: int = DEFAULT_SAMPLES,
                        seed: int = 0) -> list[PropertyCheckResult]:
    """The three vector-space checks, in a fixed order.

    Check k draws from its own stream, ``SeedSequence([seed, k])``, so the
    three properties are probed on independent vectors.
    """
    checks = (check_monotone, check_subadditive, check_consistent)
    return [check(g, samples=samples, seed=[seed, k])
            for k, check in enumerate(checks)]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_PMEAN_RE = re.compile(r"^pmean:([0-9]+(?:\.[0-9]+)?)$")


def parse_inner(spec: str) -> InnerObjective:
    """Parse an inner aggregator name: ``avg``, ``max`` or ``pmean:<p>``."""
    if spec == "avg":
        return AVG
    if spec == "max":
        return MAX
    match = _PMEAN_RE.match(spec)
    if match:
        return power_mean(float(match.group(1)))
    raise ValueError(f"unknown inner aggregator {spec!r}")


def parse_objective(spec: str) -> ComposedObjective:
    """Parse ``<outer>.<inner>``, e.g. ``avg.max`` or ``max.pmean:2``."""
    outer_name, sep, inner_name = spec.partition(".")
    if not sep or outer_name not in (AVG_KIND, MAX_KIND):
        raise ValueError(f"objective spec {spec!r} must look like 'avg.max'")
    return ComposedObjective(parse_inner(outer_name), parse_inner(inner_name))
