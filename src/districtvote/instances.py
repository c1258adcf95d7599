"""Metric instances of district-based elections.

An instance bundles agents, alternatives, a partition of the agents into
districts, and a metric over agents-plus-alternatives. Three metric kinds
are supported:

* ``line``       -- every point has a coordinate on the real line,
* ``euclidean``  -- points live in R^dim for some dim >= 1,
* ``explicit``   -- a full symmetric distance matrix over the n + m points
                    (agents first, then alternatives).

Instances are immutable once built; the distance blocks the rest of the
package needs (agent-to-alternative and alternative-to-alternative) are
precomputed and frozen. Ordinal preference profiles are derived from the
metric with a canonical tie-break: an agent ranks alternatives by distance,
and equidistant alternatives by ascending alternative id.

Everything derived from an instance is computed once and kept in the
instance's own cache, which lives and dies with it: the ordinal profile,
the line axis, the district id arrays, the alternatives' rankings and the
content key here; the (k, m) district aggregates of each inner objective
(``objectives.district_aggregates``, keyed by the objective's identity) and
each ordinal in-rule's representatives (``mechanisms.run``, keyed by the
rule). Every mechanism and objective evaluated on one instance shares them.

The public builders check everything they are given. Instances the package
generates itself (random draws, hill-climbing rebuilds) go through
``_trusted_instance``, which skips the checks and copies.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AsymmetricMatrix,
    EmptyDistrict,
    InvalidPartition,
    NegativeDistance,
    NoAlternatives,
    NonzeroDiagonal,
    SchemaError,
    TriangleViolation,
    UnknownField,
)
from .tolerances import TRIANGLE_TOL

LINE = "line"
EUCLIDEAN = "euclidean"
EXPLICIT = "explicit"


def _freeze(values, dtype=np.float64, ndim=None) -> np.ndarray:
    """Copy ``values`` into a read-only array."""
    arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    if arr.dtype == np.float64 and arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("coordinates and distances must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Metric:
    """Distance structure over the instance's n + m points.

    Exactly one representation is populated per kind:

    * line:      agent_points (n,), alternative_points (m,)
    * euclidean: agent_points (n, dim), alternative_points (m, dim)
    * explicit:  matrix (n+m, n+m), agents indexed first
    """

    kind: str
    agent_points: np.ndarray | None = None
    alternative_points: np.ndarray | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int | None:
        if self.kind == LINE:
            return 1
        if self.kind == EUCLIDEAN:
            return int(self.alternative_points.shape[1])
        return None


@dataclass(frozen=True, eq=False)
class OrdinalProfile:
    """Rankings derived from a metric, one row per voter.

    ``rankings[i]`` lists alternative ids from most to least preferred by
    voter ``i``. ``line_axis`` is the left-to-right order of alternative ids
    on the line (present only for line instances); ordinal rules that exploit
    line structure receive it through the profile, never raw distances.
    ``agent_ids`` records which original agents the rows belong to, in row
    order, so restricted profiles stay traceable.
    """

    rankings: np.ndarray
    line_axis: tuple[int, ...] | None = None
    agent_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        rk = np.array(self.rankings, dtype=np.int64)
        rk.flags.writeable = False
        object.__setattr__(self, "rankings", rk)

    @property
    def num_voters(self) -> int:
        return int(self.rankings.shape[0])

    @property
    def num_candidates(self) -> int:
        return int(self.rankings.shape[1])

    @property
    def tops(self) -> np.ndarray:
        """Most-preferred alternative of each voter, in row order."""
        return self.rankings[:, 0]

    def candidates(self) -> np.ndarray:
        """The candidate ids appearing in this profile, ascending."""
        return np.sort(self.rankings[0])

    def restrict(self, voters: Iterable[int]) -> "OrdinalProfile":
        """Profile containing only the given voters (rows sorted by agent id)."""
        ids = self.agent_ids or tuple(range(self.num_voters))
        pos_of = {agent: row for row, agent in enumerate(ids)}
        kept = sorted(voters)
        rows = [pos_of[v] for v in kept]
        return OrdinalProfile(self.rankings[rows], self.line_axis, tuple(kept))


@dataclass(frozen=True, eq=False)
class Instance:
    """An election instance: agents, alternatives, districts, metric.

    ``agent_alt[i, j]`` is the distance from agent i to alternative j;
    ``alt_alt`` the alternative-to-alternative block. Both are read-only.
    """

    num_agents: int
    num_alternatives: int
    districts: tuple[tuple[int, ...], ...]
    metric: Metric
    agent_alt: np.ndarray = field(repr=False)
    alt_alt: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})

    # -- convenience views -------------------------------------------------

    @property
    def num_districts(self) -> int:
        return len(self.districts)

    @property
    def is_line(self) -> bool:
        return self.metric.kind == LINE

    @property
    def agent_positions(self) -> np.ndarray | None:
        """Line coordinates of agents by id (line instances only)."""
        return self.metric.agent_points if self.is_line else None

    @property
    def alternative_positions(self) -> np.ndarray | None:
        """Line coordinates of alternatives by id (line instances only)."""
        return self.metric.alternative_points if self.is_line else None

    def district_arrays(self) -> tuple[np.ndarray, ...]:
        """Districts as integer arrays (cached)."""
        cache = self._cache
        if "district_arrays" not in cache:
            cache["district_arrays"] = tuple(
                np.array(d, dtype=np.int64) for d in self.districts
            )
        return cache["district_arrays"]

    def line_axis(self) -> tuple[int, ...] | None:
        """Alternative ids ordered left-to-right (ties by id); None off-line."""
        if not self.is_line:
            return None
        cache = self._cache
        if "line_axis" not in cache:
            pos = self.alternative_positions
            order = np.lexsort((np.arange(self.num_alternatives), pos))
            cache["line_axis"] = tuple(int(a) for a in order)
        return cache["line_axis"]

    def alternative_rankings(self) -> np.ndarray:
        """Row r = ranking of all alternatives by distance from alternative r.

        Used to give over-step pseudo-agents (located at alternatives) their
        ordinal preferences; ties broken by ascending alternative id.
        """
        cache = self._cache
        if "alt_rankings" not in cache:
            rk = np.argsort(self.alt_alt, axis=1, kind="stable")
            rk.flags.writeable = False
            cache["alt_rankings"] = rk
        return cache["alt_rankings"]

    def profile(self) -> OrdinalProfile:
        """The derived ordinal profile of all agents (cached)."""
        cache = self._cache
        if "profile" not in cache:
            cache["profile"] = ordinal_profile(self)
        return cache["profile"]

    def content_key(self) -> str:
        """Stable hash of the instance's serialized content."""
        cache = self._cache
        if "content_key" not in cache:
            payload = json.dumps(instance_to_json(self), sort_keys=True)
            cache["content_key"] = hashlib.sha256(payload.encode()).hexdigest()
        return cache["content_key"]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _validate_districts(districts: Sequence[Sequence[int]], num_agents: int):
    if not districts:
        raise InvalidPartition("an instance needs at least one district")
    seen: set[int] = set()
    for d, members in enumerate(districts):
        if len(members) == 0:
            raise EmptyDistrict(f"district {d} has no agents")
        for a in members:
            if not (0 <= int(a) < num_agents):
                raise InvalidPartition(f"agent id {a} out of range in district {d}")
            if int(a) in seen:
                raise InvalidPartition(f"agent id {a} appears in two districts")
            seen.add(int(a))
    if len(seen) != num_agents:
        missing = sorted(set(range(num_agents)) - seen)
        raise InvalidPartition(f"agents {missing[:5]} belong to no district")


def _canonical_districts(districts) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(int(a) for a in d)) for d in districts)


def _consecutive_ids(sizes: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Districts of consecutive agent ids with the given sizes."""
    districts, start = [], 0
    for s in sizes:
        districts.append(tuple(range(start, start + s)))
        start += s
    return tuple(districts)


def _assemble(metric: Metric, agent_alt: np.ndarray, alt_alt: np.ndarray,
              districts: tuple[tuple[int, ...], ...]) -> Instance:
    agent_alt.flags.writeable = False
    alt_alt.flags.writeable = False
    num_agents, num_alternatives = agent_alt.shape
    return Instance(
        num_agents=num_agents,
        num_alternatives=num_alternatives,
        districts=districts,
        metric=metric,
        agent_alt=agent_alt,
        alt_alt=alt_alt,
    )


def _make_instance(metric: Metric, agent_alt: np.ndarray, alt_alt: np.ndarray,
                   districts) -> Instance:
    _validate_districts(districts, agent_alt.shape[0])
    return _assemble(metric, agent_alt, alt_alt, _canonical_districts(districts))


def _line_parts(agent_pos: np.ndarray, alt_pos: np.ndarray):
    """The metric and the two distance blocks of line positions."""
    metric = Metric(kind=LINE, agent_points=agent_pos, alternative_points=alt_pos)
    return (metric, np.abs(agent_pos[:, None] - alt_pos[None, :]),
            np.abs(alt_pos[:, None] - alt_pos[None, :]))


def _euclidean_parts(agent_xy: np.ndarray, alt_xy: np.ndarray):
    """The metric and the two distance blocks of euclidean coordinates."""
    metric = Metric(kind=EUCLIDEAN, agent_points=agent_xy, alternative_points=alt_xy)
    return (metric,
            np.linalg.norm(agent_xy[:, None, :] - alt_xy[None, :, :], axis=2),
            np.linalg.norm(alt_xy[:, None, :] - alt_xy[None, :, :], axis=2))


def _trusted_instance(kind: str, agent_points: np.ndarray,
                      districts: tuple[tuple[int, ...], ...],
                      alternative_points: np.ndarray) -> Instance:
    """A line or euclidean instance assembled without checks or copies.

    Only for instances the package generates itself. The caller vouches
    that the points are finite float64 arrays (shape (n,) on a line,
    (n, dim) in euclidean space) and that ``districts`` is already canonical:
    sorted id tuples partitioning the agents. The point arrays become
    read-only here, so the caller must not write to them afterwards.
    """
    agent_points.flags.writeable = False
    alternative_points.flags.writeable = False
    parts = _line_parts if kind == LINE else _euclidean_parts
    return _assemble(*parts(agent_points, alternative_points), districts)


def _line_instance_from_ids(agent_positions: np.ndarray, districts,
                            alternative_positions: np.ndarray) -> Instance:
    agent_pos = _freeze(agent_positions, ndim=1)
    alt_pos = _freeze(alternative_positions, ndim=1)
    if alt_pos.size == 0:
        raise NoAlternatives("an instance needs at least one alternative")
    return _make_instance(*_line_parts(agent_pos, alt_pos), districts)


def _consecutive_districts(blocks: Sequence[Sequence]) -> tuple[tuple[int, ...], ...]:
    """Districts of consecutive agent ids, one per non-empty block."""
    if not blocks:
        raise EmptyDistrict("an instance needs at least one district")
    for d, block in enumerate(blocks):
        if len(block) == 0:
            raise EmptyDistrict(f"district {d} has no agents")
    return _consecutive_ids([len(block) for block in blocks])


def build_line_instance(agent_positions_by_district: Sequence[Sequence[float]],
                        alternative_positions: Sequence[float]) -> Instance:
    """Build a line instance; agents get consecutive ids district by district.

    ``agent_positions_by_district[d]`` lists the coordinates of district d's
    agents; the first district holds agents 0..len-1, the next continues the
    numbering, and so on. Alternative j sits at ``alternative_positions[j]``.
    """
    if len(alternative_positions) == 0:
        raise NoAlternatives("an instance needs at least one alternative")
    districts = _consecutive_districts(agent_positions_by_district)
    flat = [float(p) for block in agent_positions_by_district for p in block]
    return _line_instance_from_ids(np.array(flat), districts,
                                   np.array([float(p) for p in alternative_positions]))


def _euclidean_instance_from_ids(agent_coords: np.ndarray, districts,
                                 alternative_coords: np.ndarray) -> Instance:
    agent_xy = _freeze(agent_coords, ndim=2)
    alt_xy = _freeze(alternative_coords, ndim=2)
    if alt_xy.shape[0] == 0:
        raise NoAlternatives("an instance needs at least one alternative")
    if alt_xy.shape[1] < 1:
        raise ValueError("euclidean coordinates need dimension >= 1")
    if agent_xy.shape[1] != alt_xy.shape[1]:
        raise ValueError("agent and alternative coordinate dimensions differ")
    return _make_instance(*_euclidean_parts(agent_xy, alt_xy), districts)


def build_euclidean_instance(agent_coords_by_district: Sequence[Sequence[Sequence[float]]],
                             alternative_coords: Sequence[Sequence[float]]) -> Instance:
    """Euclidean counterpart of :func:`build_line_instance`."""
    if len(alternative_coords) == 0:
        raise NoAlternatives("an instance needs at least one alternative")
    districts = _consecutive_districts(agent_coords_by_district)
    flat = [xy for block in agent_coords_by_district for xy in block]
    return _euclidean_instance_from_ids(np.array(flat, dtype=np.float64), districts,
                                        np.array(alternative_coords, dtype=np.float64))


def _validate_distance_matrix(mat: np.ndarray):
    size = mat.shape[0]
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("distance matrix must be square")
    neg = np.argwhere(mat < 0)
    if neg.size:
        i, j = (int(v) for v in neg[0])
        raise NegativeDistance(f"d({i},{j}) = {mat[i, j]} is negative")
    asym = np.argwhere(np.abs(mat - mat.T) > TRIANGLE_TOL)
    if asym.size:
        i, j = (int(v) for v in asym[0])
        raise AsymmetricMatrix(f"d({i},{j}) != d({j},{i})")
    bad_diag = np.argwhere(np.abs(np.diag(mat)) > TRIANGLE_TOL)
    if bad_diag.size:
        i = int(bad_diag[0][0])
        raise NonzeroDiagonal(f"d({i},{i}) = {mat[i, i]} is nonzero")
    # shortest two-hop path per pair; anything longer violates the triangle
    best = np.full_like(mat, np.inf)
    for x in range(size):
        np.minimum(best, mat[:, x:x + 1] + mat[x:x + 1, :], out=best)
    viol = np.argwhere(mat > best + TRIANGLE_TOL)
    if viol.size:
        i, j = (int(v) for v in viol[0])
        through = mat[i, :] + mat[:, j]
        x = int(np.argmin(through))
        raise TriangleViolation(i, j, x, float(mat[i, j] - through[x]))


def _explicit_instance_from_ids(mat: np.ndarray, districts, num_agents: int,
                                num_alternatives: int) -> Instance:
    metric = Metric(kind=EXPLICIT, matrix=mat)
    agent_alt = mat[:num_agents, num_agents:].copy()
    alt_alt = mat[num_agents:, num_agents:].copy()
    return _make_instance(metric, agent_alt, alt_alt, districts)


def build_explicit_instance(distances: Sequence[Sequence[float]],
                            district_sizes: Sequence[int],
                            num_alternatives: int) -> Instance:
    """Build an instance from a full (n+m) x (n+m) distance matrix.

    Point order is agents first (grouped into districts of the given sizes,
    consecutive ids), then alternatives. The matrix must be symmetric and
    nonnegative with zero diagonal and satisfy the triangle inequality up to
    a slack of 1e-9.
    """
    if num_alternatives < 1:
        raise NoAlternatives("an instance needs at least one alternative")
    sizes = [int(s) for s in district_sizes]
    if not sizes:
        raise EmptyDistrict("an instance needs at least one district")
    if any(s <= 0 for s in sizes):
        raise EmptyDistrict("every district needs at least one agent")
    mat = _freeze(distances, ndim=2)
    num_agents = sum(sizes)
    if mat.shape[0] != num_agents + num_alternatives:
        raise ValueError(
            f"matrix side {mat.shape[0]} != agents {num_agents} + "
            f"alternatives {num_alternatives}"
        )
    _validate_distance_matrix(mat)
    return _explicit_instance_from_ids(mat, _consecutive_ids(sizes), num_agents,
                                       num_alternatives)


# ---------------------------------------------------------------------------
# ordinal profiles
# ---------------------------------------------------------------------------

def ordinal_profile(instance: Instance) -> OrdinalProfile:
    """Derive the rankings every ordinal rule sees.

    Each agent orders alternatives by increasing distance; exact distance
    ties break toward the lower alternative id (stable argsort), making the
    profile a deterministic function of the instance.
    """
    rankings = np.argsort(instance.agent_alt, axis=1, kind="stable")
    return OrdinalProfile(rankings, instance.line_axis(),
                          tuple(range(instance.num_agents)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_TOP_KEYS = {"metric", "districts", "alternatives"}
_METRIC_KEYS = {
    LINE: {"type", "agent_positions", "alternative_positions"},
    EUCLIDEAN: {"type", "agent_coords", "alternative_coords"},
    EXPLICIT: {"type", "distances"},
}


def instance_to_json(instance: Instance) -> dict:
    """Serialize to the canonical JSON-ready dict."""
    districts = [list(d) for d in instance.districts]
    kind = instance.metric.kind
    if kind == LINE:
        pos = instance.agent_positions
        metric = {
            "type": LINE,
            "agent_positions": [[float(pos[a]) for a in d] for d in instance.districts],
            "alternative_positions": [float(p) for p in instance.alternative_positions],
        }
    elif kind == EUCLIDEAN:
        xy = instance.metric.agent_points
        metric = {
            "type": EUCLIDEAN,
            "agent_coords": [[[float(c) for c in xy[a]] for a in d]
                             for d in instance.districts],
            "alternative_coords": [[float(c) for c in row]
                                   for row in instance.metric.alternative_points],
        }
    else:
        metric = {
            "type": EXPLICIT,
            "distances": [[float(v) for v in row] for row in instance.metric.matrix],
        }
    return {"metric": metric, "districts": districts,
            "alternatives": instance.num_alternatives}


def _require_keys(data: dict, allowed: set[str], where: str):
    unknown = set(data) - allowed
    if unknown:
        raise UnknownField(f"unknown field(s) {sorted(unknown)} in {where}")


def _as_districts(raw) -> list[list[int]]:
    if not isinstance(raw, list) or not all(isinstance(d, list) for d in raw):
        raise SchemaError("'districts' must be a list of lists of agent ids")
    out = []
    for d in raw:
        members = []
        for a in d:
            if not isinstance(a, int) or isinstance(a, bool):
                raise SchemaError(f"agent id {a!r} is not an integer")
            members.append(a)
        out.append(members)
    return out


#: For each point metric: (agents key, alternatives key, what an agent block holds).
_POINT_KEYS = {
    LINE: ("agent_positions", "alternative_positions", "position"),
    EUCLIDEAN: ("agent_coords", "alternative_coords", "coordinate"),
}


def _place_blocks(blocks, districts: list[list[int]], num_agents: int,
                  dim: int | None, noun: str) -> np.ndarray:
    """Agent points by id from blocks aligned with ``districts``.

    ``dim`` is None for line positions, else the coordinate dimension.
    """
    points = np.zeros(num_agents if dim is None else (num_agents, dim))
    seen = np.zeros(num_agents, dtype=bool)
    for d, (members, block) in enumerate(zip(districts, blocks)):
        if len(members) != len(block):
            raise SchemaError(f"district {d} and its {noun} block differ in length")
        for a, p in zip(members, block):
            if not (0 <= a < num_agents):
                raise InvalidPartition(f"agent id {a} out of range")
            if seen[a]:
                raise InvalidPartition(f"agent id {a} appears twice")
            if dim is not None and len(p) != dim:
                raise SchemaError("inconsistent coordinate dimensions")
            seen[a] = True
            points[a] = float(p) if dim is None else [float(c) for c in p]
    return points


def instance_from_json(data: dict) -> Instance:
    """Parse the canonical JSON dict; rejects unknown fields."""
    if not isinstance(data, dict):
        raise SchemaError("instance document must be a JSON object")
    _require_keys(data, _TOP_KEYS, "instance")
    for key in ("metric", "districts"):
        if key not in data:
            raise SchemaError(f"missing required field '{key}'")
    metric = data["metric"]
    if not isinstance(metric, dict) or "type" not in metric:
        raise SchemaError("'metric' must be an object with a 'type'")
    kind = metric["type"]
    if kind not in _METRIC_KEYS:
        raise SchemaError(f"unknown metric type {kind!r}")
    _require_keys(metric, _METRIC_KEYS[kind], f"metric of type {kind!r}")
    districts = _as_districts(data["districts"])
    num_agents = sum(len(d) for d in districts)

    alternatives = data.get("alternatives")
    alt_count: int | None = None
    alt_positions_from_count: list[float] | None = None
    if isinstance(alternatives, bool):
        raise SchemaError("'alternatives' must be a count or a position list")
    if isinstance(alternatives, int):
        alt_count = alternatives
    elif isinstance(alternatives, list):
        if kind != LINE:
            raise SchemaError("'alternatives' may be a position list only for line metrics")
        alt_positions_from_count = [float(p) for p in alternatives]
        alt_count = len(alt_positions_from_count)
    elif alternatives is not None:
        raise SchemaError("'alternatives' must be a count or a position list")

    if kind == EXPLICIT:
        if "distances" not in metric:
            raise SchemaError("explicit metric needs 'distances'")
        if alt_count is None:
            raise SchemaError("explicit metric needs an 'alternatives' count")
        mat = _freeze(metric["distances"], ndim=2)
        if mat.shape[0] != num_agents + alt_count:
            raise SchemaError(
                f"matrix side {mat.shape[0]} != agents {num_agents} + alternatives {alt_count}"
            )
        if alt_count < 1:
            raise NoAlternatives("an instance needs at least one alternative")
        _validate_distance_matrix(mat)
        return _explicit_instance_from_ids(mat, districts, num_agents, alt_count)

    agents_key, alts_key, noun = _POINT_KEYS[kind]
    required = (agents_key,) if kind == LINE else (agents_key, alts_key)
    if any(key not in metric for key in required):
        raise SchemaError(f"{kind} metric needs "
                          + " and ".join(f"'{key}'" for key in required))
    blocks = metric[agents_key]
    if len(blocks) != len(districts):
        raise SchemaError(f"'{agents_key}' must align with 'districts'")
    if kind == LINE:
        alt_points = metric.get(alts_key, alt_positions_from_count)
        if alt_points is None:
            raise SchemaError("line metric needs alternative positions")
        if alt_positions_from_count is not None and \
                list(map(float, alt_points)) != alt_positions_from_count:
            raise SchemaError("'alternatives' list disagrees with metric positions")
        dim, described = None, "metric positions"
    else:
        alt_points = np.array(metric[alts_key], dtype=np.float64)
        if alt_points.ndim != 2:
            raise SchemaError("'alternative_coords' must be a list of coordinate lists")
        dim, described = alt_points.shape[1], "coordinates"
    if alt_count is not None and alt_count != len(alt_points):
        raise SchemaError(f"'alternatives' count disagrees with {described}")
    points = _place_blocks(blocks, districts, num_agents, dim, noun)
    build = _line_instance_from_ids if kind == LINE else _euclidean_instance_from_ids
    return build(points, districts, np.array(alt_points, dtype=np.float64))


def save_instance(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json(instance), fh, indent=2)
        fh.write("\n")


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    return instance_from_json(data)
