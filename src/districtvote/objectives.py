"""Composed cost objectives and aggregator property checks.

A composed objective scores an alternative in two stages: an inner
aggregator g turns each district's distance vector into one number, and an
outer aggregator F (average or maximum) combines the k district numbers.
The four canonical combinations are spelled ``avg.avg``, ``avg.max``,
``max.max`` and ``max.avg`` (outer first), and ``max.pmean:<p>`` composes a
power mean of exponent p >= 1 inside a maximum.

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
CUSTOM_KIND = "custom"


@dataclass(frozen=True)
class InnerObjective:
    """Aggregates one district's distance vector into one number.

    ``kind`` is ``avg``, ``max`` or ``custom``. Custom aggregators supply
    ``fn`` (vector -> float), may declare the cost-like properties they
    satisfy, and may supply ``columns_fn`` (matrix -> per-column values) to
    speed up batch evaluation. ``columns_fn`` must compute the same function
    as ``fn`` on every column: mechanisms, every cost and the property
    checks all evaluate through ``over_columns``.
    """

    kind: str
    name: str = ""
    fn: Callable[[np.ndarray], float] | None = field(default=None, compare=False)
    columns_fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)
    declared_properties: frozenset = frozenset()

    def value(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=np.float64)
        if self.kind == AVG_KIND:
            return float(v.mean())
        if self.kind == MAX_KIND:
            return float(v.max())
        return float(self.fn(v))

    def over_columns(self, mat: np.ndarray) -> np.ndarray:
        """Apply the aggregator to every column of a (voters x candidates) block."""
        mat = np.asarray(mat, dtype=np.float64)
        if self.kind == AVG_KIND:
            return mat.mean(axis=0)
        if self.kind == MAX_KIND:
            return mat.max(axis=0)
        if self.columns_fn is not None:
            return np.asarray(self.columns_fn(mat), dtype=np.float64)
        return np.array([float(self.fn(mat[:, c])) for c in range(mat.shape[1])])

    @property
    def spec(self) -> str:
        return self.name or self.kind


@dataclass(frozen=True)
class OuterObjective:
    """Combines per-district numbers; only average and maximum exist."""

    kind: str

    def over_rows(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat, dtype=np.float64)
        return mat.mean(axis=0) if self.kind == AVG_KIND else mat.max(axis=0)

    @property
    def spec(self) -> str:
        return self.kind


@dataclass(frozen=True)
class ComposedObjective:
    """Outer aggregator over districts of an inner aggregator over agents."""

    outer: OuterObjective
    inner: InnerObjective

    @property
    def spec(self) -> str:
        return f"{self.outer.spec}.{self.inner.spec}"


AVG = InnerObjective(kind=AVG_KIND, name="avg",
                     declared_properties=ALL_PROPERTIES)
MAX = InnerObjective(kind=MAX_KIND, name="max",
                     declared_properties=ALL_PROPERTIES)
OUTER_AVG = OuterObjective(kind=AVG_KIND)
OUTER_MAX = OuterObjective(kind=MAX_KIND)

AVG_AVG = ComposedObjective(OUTER_AVG, AVG)
AVG_MAX = ComposedObjective(OUTER_AVG, MAX)
MAX_MAX = ComposedObjective(OUTER_MAX, MAX)
MAX_AVG = ComposedObjective(OUTER_MAX, AVG)


#: The power means built so far, one object per exponent.
_POWER_MEANS: dict[float, InnerObjective] = {}


def power_mean(p: float) -> InnerObjective:
    """The power mean ((1/n) sum v_i^p)^(1/p); p >= 1 keeps it cost-like.

    Each exponent gets one object, so :func:`is_power_mean` can tell a
    built-in power mean from a custom inner that only shares its name.
    """
    p = float(p)
    if p < 1:
        raise ValueError("power mean exponent must be >= 1")
    if p in _POWER_MEANS:
        return _POWER_MEANS[p]

    def fn(v: np.ndarray) -> float:
        v = np.asarray(v, dtype=np.float64)
        return float(np.mean(v ** p) ** (1.0 / p))

    def columns_fn(mat: np.ndarray) -> np.ndarray:
        return np.mean(mat ** p, axis=0) ** (1.0 / p)

    label = f"pmean:{p:g}"
    inner = InnerObjective(kind=CUSTOM_KIND, name=label, fn=fn,
                           columns_fn=columns_fn,
                           declared_properties=ALL_PROPERTIES)
    _POWER_MEANS[p] = inner
    return inner


def is_power_mean(inner: InnerObjective) -> bool:
    """Whether ``inner`` is an object that :func:`power_mean` built."""
    return any(inner is g for g in _POWER_MEANS.values())


# ---------------------------------------------------------------------------
# cost evaluation
# ---------------------------------------------------------------------------

def district_aggregates(instance: Instance, inner: InnerObjective) -> np.ndarray:
    """Read-only (k, m) matrix: row d is ``inner`` over district d's
    distances to each alternative.

    Computed once per instance and inner objective and kept in the
    instance's cache, keyed by the objective's identity: ``InnerObjective``
    equality ignores ``fn``, so two custom inners can compare equal and
    still differ. The entry holds the objective, so its id stays unique
    while the instance lives.
    """
    cache = instance._cache.setdefault("district_aggregates", {})
    entry = cache.get(id(inner))
    if entry is None:
        values = np.empty((instance.num_districts, instance.num_alternatives))
        for d, members in enumerate(instance.district_arrays()):
            values[d] = inner.over_columns(instance.agent_alt[members])
        values.flags.writeable = False
        entry = cache[id(inner)] = (inner, values)
    return entry[1]


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
    return objective.outer.over_rows(district_aggregates(instance, objective.inner))


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
                   dims: int = 8,
                   seed: int | Sequence[int] = 0) -> PropertyCheckResult:
    """g(v) <= g(u) whenever v <= u coordinatewise (sampled)."""
    rng = _check_rng(seed)
    for block in _blocks(samples):
        lengths = rng.integers(1, dims + 1, block)
        v = rng.uniform(0.0, 10.0, (block, dims))
        u = v + rng.uniform(0.0, 5.0, (block, dims))
        bad = np.flatnonzero(_row_values(g, v, lengths)
                             > _row_values(g, u, lengths) + EXACT_TOL)
        if bad.size:
            i = bad[0]
            n = lengths[i]
            return PropertyCheckResult(MONOTONE, False, samples,
                                       (_floats(v[i, :n]), _floats(u[i, :n])))
    return PropertyCheckResult(MONOTONE, True, samples)


def check_subadditive(g: InnerObjective, samples: int = DEFAULT_SAMPLES,
                      dims: int = 8,
                      seed: int | Sequence[int] = 0) -> PropertyCheckResult:
    """g(v + u) <= g(v) + g(u), and g(c v) <= c g(v) for sampled c >= 1."""
    rng = _check_rng(seed)
    for block in _blocks(samples):
        lengths = rng.integers(1, dims + 1, block)
        v = rng.uniform(0.0, 10.0, (block, dims))
        u = rng.uniform(0.0, 10.0, (block, dims))
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
                     dims: int = 8,
                     seed: int | Sequence[int] = 0) -> PropertyCheckResult:
    """g of a constant vector (c, ..., c) equals c."""
    rng = _check_rng(seed)
    for block in _blocks(samples):
        lengths = rng.integers(1, dims + 1, block)
        c = rng.uniform(0.0, 10.0, block)
        got = _row_values(g, np.repeat(c[:, None], dims, axis=1), lengths)
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
    agent_pos = instance.agent_positions[members]
    all_points = np.concatenate([instance.agent_positions,
                                 instance.alternative_positions])
    lo, hi = float(all_points.min()), float(all_points.max())
    span = hi - lo
    if span > 0:
        grid = np.arange(lo, hi, span * _PEAK_GRID_STEP)
    else:
        grid = np.array([lo])
    grid = np.unique(np.concatenate([grid, all_points]))
    values = g.over_columns(np.abs(grid[None, :] - agent_pos[:, None]))
    imin = int(np.argmin(values))
    # left of the minimum: non-increasing; right of it: non-decreasing
    rises = values[1:imin + 1] > values[:imin] + USER_TOL
    falls = values[imin + 1:] < values[imin:-1] - USER_TOL
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
    outer = OUTER_AVG if outer_name == AVG_KIND else OUTER_MAX
    return ComposedObjective(outer, parse_inner(inner_name))
