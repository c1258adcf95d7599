"""Metric instances of district-based elections.

An instance bundles agents, alternatives, a partition of the agents into
districts, and a metric over agents-plus-alternatives. Three metric kinds
are supported:

* ``line``       -- every point has a coordinate on the real line,
* ``euclidean``  -- points live in R^dim for some dim >= 1,
* ``explicit``   -- a full symmetric distance matrix over the n + m points
                    (agents first, then alternatives).

An ``Instance`` names its kind and holds its own points (line and euclidean)
or its matrix (explicit), next to the distance blocks the rest of the package
reads: agent-to-alternative and alternative-to-alternative. Every array it
holds is read-only. Ordinal preference profiles are derived from the
distances with a canonical tie-break: an agent ranks alternatives by
distance, and equidistant alternatives by ascending alternative id.

Everything derived from an instance is computed once and kept in the
instance's own cache, which lives and dies with it. ``Instance._derived`` is
the cache's one door, and every derivation goes through it: the ordinal
profile, the line axis, the district id arrays, the alternatives' rankings
and the content key here; the (k, m) district aggregates of each inner
objective (``objectives.district_aggregates``, keyed by the objective's
identity) and each ordinal in-rule's representatives
(``mechanisms._representatives``, keyed by the rule). Every mechanism and
objective evaluated on one instance shares them.

Every line and euclidean instance is assembled by ``_trusted_instance``, the
one place their distances are computed. The public builders and the JSON
reader check everything they are given first, through ``_points_instance``;
instances the package generates itself (random draws, hill-climbing
rebuilds) reach ``_trusted_instance`` directly, without checks or copies.
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
class OrdinalProfile:
    """Rankings derived from a metric, one row per voter.

    ``rankings[i]`` lists alternative ids from most to least preferred by
    voter ``i``. ``line_axis`` is the left-to-right order of alternative ids
    on the line (present only for line instances); ordinal rules that exploit
    line structure receive it through the profile, never raw distances.
    """

    rankings: np.ndarray
    line_axis: tuple[int, ...] | None = None

    def __post_init__(self):
        rk = np.array(self.rankings, dtype=np.int64)
        rk.flags.writeable = False
        object.__setattr__(self, "rankings", rk)

    @property
    def num_voters(self) -> int:
        return int(self.rankings.shape[0])

    @property
    def tops(self) -> np.ndarray:
        """Most-preferred alternative of each voter, in row order."""
        return self.rankings[:, 0]

    def candidates(self) -> np.ndarray:
        """The candidate ids appearing in this profile, ascending."""
        return np.sort(self.rankings[0])

    def restrict(self, voters: Iterable[int]) -> "OrdinalProfile":
        """Profile of the given rows, in ascending order.

        Row i of the instance's profile is agent i, so a district's profile
        is the slice at its members.
        """
        return OrdinalProfile(self.rankings[sorted(voters)], self.line_axis)


@dataclass(frozen=True, eq=False)
class Instance:
    """An election instance: agents, alternatives, districts, one metric.

    ``kind`` names the metric. A line or euclidean instance holds its points:
    ``agent_points`` (n,) or (n, dim) and ``alternative_points`` (m,) or
    (m, dim). An explicit instance holds ``matrix``, the (n+m, n+m) distances
    with agents indexed first. ``agent_alt[i, j]`` is the distance from agent
    i to alternative j; ``alt_alt`` the alternative-to-alternative block.
    Every array the instance holds is read-only.
    """

    kind: str
    districts: tuple[tuple[int, ...], ...]
    agent_alt: np.ndarray = field(repr=False)
    alt_alt: np.ndarray = field(repr=False)
    agent_points: np.ndarray | None = None
    alternative_points: np.ndarray | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for arr in (self.agent_alt, self.alt_alt, self.agent_points,
                    self.alternative_points, self.matrix):
            if arr is not None:
                arr.flags.writeable = False
        object.__setattr__(self, "_cache", {})

    # -- convenience views -------------------------------------------------

    @property
    def num_agents(self) -> int:
        return self.agent_alt.shape[0]

    @property
    def num_alternatives(self) -> int:
        return self.agent_alt.shape[1]

    @property
    def num_districts(self) -> int:
        return len(self.districts)

    @property
    def is_line(self) -> bool:
        return self.kind == LINE

    def _derived(self, key, compute):
        """``compute()``, computed on the first call with ``key`` and kept in
        the instance's cache; every later call with ``key`` returns it."""
        cache = self._cache
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    def district_arrays(self) -> tuple[np.ndarray, ...]:
        """Districts as integer arrays (cached)."""
        return self._derived("district_arrays", lambda: tuple(
            np.array(d, dtype=np.int64) for d in self.districts))

    def line_axis(self) -> tuple[int, ...] | None:
        """Alternative ids ordered left-to-right (ties by id); None off-line."""
        if not self.is_line:
            return None
        return self._derived("line_axis", lambda: tuple(
            np.argsort(self.alternative_points, kind="stable").tolist()))

    def alternative_rankings(self) -> np.ndarray:
        """Row r = ranking of all alternatives by distance from alternative r.

        Used to give over-step pseudo-agents (located at alternatives) their
        ordinal preferences; ties broken by ascending alternative id.
        """
        def compute():
            rk = np.argsort(self.alt_alt, axis=1, kind="stable")
            rk.flags.writeable = False
            return rk
        return self._derived("alt_rankings", compute)

    def profile(self) -> OrdinalProfile:
        """The derived ordinal profile of all agents (cached)."""
        return self._derived("profile", lambda: ordinal_profile(self))

    def content_key(self) -> str:
        """Stable hash of the instance's serialized content."""
        return self._derived("content_key", lambda: hashlib.sha256(
            json.dumps(instance_to_json(self), sort_keys=True).encode()).hexdigest())


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


def _canonical_districts(districts) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(int(a) for a in d)) for d in districts)


def _consecutive_districts(sizes: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Districts of consecutive agent ids with the given sizes, none empty."""
    if not sizes:
        raise EmptyDistrict("an instance needs at least one district")
    districts, start = [], 0
    for d, s in enumerate(sizes):
        if s <= 0:
            raise EmptyDistrict(f"district {d} has no agents")
        districts.append(tuple(range(start, start + s)))
        start += s
    return tuple(districts)


def _trusted_instance(kind: str, agent_points: np.ndarray,
                      districts: tuple[tuple[int, ...], ...],
                      alternative_points: np.ndarray) -> Instance:
    """A line or euclidean instance assembled without checks or copies.

    The only place line and euclidean distances are computed. The caller
    vouches that the points are finite float64 arrays (shape (n,) on a line,
    (n, dim) in euclidean space) and that ``districts`` is already canonical:
    sorted id tuples partitioning the agents. The point arrays become
    read-only here, so the caller must not write to them afterwards.
    """
    def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        diff = a[:, None] - b[None, :]
        return np.abs(diff) if kind == LINE else np.linalg.norm(diff, axis=2)

    return Instance(kind, districts, distances(agent_points, alternative_points),
                    distances(alternative_points, alternative_points),
                    agent_points, alternative_points)


def _points_instance(kind: str, agent_points, districts,
                     alternative_points) -> Instance:
    """Check points whose ``districts`` partition the agents, then assemble them.

    Finite points can lie too far apart for a float distance, so that is checked.
    """
    if len(alternative_points) == 0:
        raise NoAlternatives("an instance needs at least one alternative")
    ndim = 1 if kind == LINE else 2
    agents = _freeze(agent_points, ndim=ndim)
    alts = _freeze(alternative_points, ndim=ndim)
    if kind == EUCLIDEAN:
        if alts.shape[1] < 1:
            raise ValueError("euclidean coordinates need dimension >= 1")
        if agents.shape[1] != alts.shape[1]:
            raise ValueError("agent and alternative coordinate dimensions differ")
    with np.errstate(over="ignore"):
        instance = _trusted_instance(kind, agents, _canonical_districts(districts),
                                     alts)
    if not (np.isfinite(instance.agent_alt).all()
            and np.isfinite(instance.alt_alt).all()):
        raise ValueError("distances between the points overflow")
    return instance


# perfbench/spans.py wraps this name (as bound in ``distortion``) to time
# builds, so it stays until the tracer wraps ``_trusted_instance`` instead.
def _line_instance_from_ids(agent_positions, districts,
                            alternative_positions) -> Instance:
    return _points_instance(LINE, agent_positions, districts, alternative_positions)


def build_line_instance(agent_positions_by_district: Sequence[Sequence[float]],
                        alternative_positions: Sequence[float]) -> Instance:
    """Build a line instance; agents get consecutive ids district by district.

    ``agent_positions_by_district[d]`` lists the coordinates of district d's
    agents; the first district holds agents 0..len-1, the next continues the
    numbering, and so on. Alternative j sits at ``alternative_positions[j]``.
    """
    districts = _consecutive_districts([len(b) for b in agent_positions_by_district])
    flat = [float(p) for block in agent_positions_by_district for p in block]
    return _points_instance(LINE, flat, districts,
                            [float(p) for p in alternative_positions])


def build_euclidean_instance(agent_coords_by_district: Sequence[Sequence[Sequence[float]]],
                             alternative_coords: Sequence[Sequence[float]]) -> Instance:
    """Euclidean counterpart of :func:`build_line_instance`."""
    districts = _consecutive_districts([len(b) for b in agent_coords_by_district])
    flat = [xy for block in agent_coords_by_district for xy in block]
    return _points_instance(EUCLIDEAN, flat, districts, alternative_coords)


def _validate_distance_matrix(mat: np.ndarray):
    size = mat.shape[0]
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("distance matrix must be square")
    neg = np.argwhere(mat < 0)
    if neg.size:
        i, j = (int(v) for v in neg[0])
        raise NegativeDistance(f"d({i},{j}) = {mat[i, j]} is negative")
    # each slack is relative to the entries it compares (d(i,i) to i's nearest
    # other point), so rounding is forgiven at any scale and one far point
    # loosens no check on near ones
    asym = np.argwhere(np.abs(mat - mat.T) > TRIANGLE_TOL * np.maximum(mat, mat.T))
    if asym.size:
        i, j = (int(v) for v in asym[0])
        raise AsymmetricMatrix(f"d({i},{j}) != d({j},{i})")
    nearest = np.where(np.eye(size, dtype=bool), np.inf, mat).min(axis=1)
    bad_diag = np.argwhere(np.diag(mat) > TRIANGLE_TOL * nearest)
    if bad_diag.size:
        i = int(bad_diag[0][0])
        raise NonzeroDiagonal(f"d({i},{i}) = {mat[i, i]} is nonzero")
    # shortest two-hop path per pair; anything longer violates the triangle.
    # A sum that overflows to inf still exceeds every entry.
    with np.errstate(over="ignore"):
        best = np.full_like(mat, np.inf)
        for x in range(size):
            np.minimum(best, mat[:, x:x + 1] + mat[x:x + 1, :], out=best)
        viol = np.argwhere(mat > best + TRIANGLE_TOL * mat)
        if viol.size:
            i, j = (int(v) for v in viol[0])
            through = mat[i, :] + mat[:, j]
            x = int(np.argmin(through))
            raise TriangleViolation(i, j, x, float(mat[i, j] - through[x]))


def _explicit_instance_from_ids(mat: np.ndarray, districts,
                                num_agents: int) -> Instance:
    return Instance(EXPLICIT, _canonical_districts(districts),
                    mat[:num_agents, num_agents:].copy(),
                    mat[num_agents:, num_agents:].copy(), matrix=mat)


def build_explicit_instance(distances: Sequence[Sequence[float]],
                            district_sizes: Sequence[int],
                            num_alternatives: int) -> Instance:
    """Build an instance from a full (n+m) x (n+m) distance matrix.

    Point order is agents first (grouped into districts of the given sizes,
    consecutive ids), then alternatives. The matrix must be symmetric and
    nonnegative with zero diagonal and satisfy the triangle inequality, each
    up to a slack of ``TRIANGLE_TOL`` relative to the entries compared.
    """
    if num_alternatives < 1:
        raise NoAlternatives("an instance needs at least one alternative")
    sizes = [int(s) for s in district_sizes]
    districts = _consecutive_districts(sizes)
    mat = _freeze(distances, ndim=2)
    num_agents = sum(sizes)
    if mat.shape[0] != num_agents + num_alternatives:
        raise ValueError(
            f"matrix side {mat.shape[0]} != agents {num_agents} + "
            f"alternatives {num_alternatives}"
        )
    _validate_distance_matrix(mat)
    return _explicit_instance_from_ids(mat, districts, num_agents)


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
    return OrdinalProfile(rankings, instance.line_axis())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_TOP_KEYS = {"metric", "districts", "alternatives"}
_METRIC_KEYS = {
    LINE: {"type", "agent_positions", "alternative_positions"},
    EUCLIDEAN: {"type", "agent_coords", "alternative_coords"},
    EXPLICIT: {"type", "distances"},
}


#: For each point metric: (agents key, alternatives key).
_POINT_KEYS = {
    LINE: ("agent_positions", "alternative_positions"),
    EUCLIDEAN: ("agent_coords", "alternative_coords"),
}


def instance_to_json(instance: Instance) -> dict:
    """Serialize to the canonical JSON-ready dict."""
    kind = instance.kind
    if kind == EXPLICIT:
        metric = {"type": EXPLICIT, "distances": instance.matrix.tolist()}
    else:
        agents_key, alts_key = _POINT_KEYS[kind]
        pts = instance.agent_points
        metric = {
            "type": kind,
            agents_key: [pts[list(d)].tolist() for d in instance.districts],
            alts_key: instance.alternative_points.tolist(),
        }
    return {"metric": metric, "districts": [list(d) for d in instance.districts],
            "alternatives": instance.num_alternatives}


def _require_keys(data: dict, allowed: set[str], where: str):
    unknown = set(data) - allowed
    if unknown:
        raise UnknownField(f"unknown field(s) {sorted(unknown)} in {where}")


def _nested(value, depth: int, field: str, integers: bool = False):
    """``value``, once it is known to be exactly ``depth`` levels of lists
    around JSON numbers: integers if ``integers`` is set, never booleans.

    Anything else raises SchemaError.
    """
    items = [value]
    for _ in range(depth):
        if not all(isinstance(v, list) for v in items):
            raise SchemaError(f"'{field}' must nest lists {depth} deep")
        items = [x for v in items for x in v]
    kinds = int if integers else (int, float)
    if not all(isinstance(x, kinds) and not isinstance(x, bool) for x in items):
        raise SchemaError(f"'{field}' must hold only "
                          + ("integer ids" if integers else "numbers"))
    return value


def _floats(value, depth: int, field: str, districts=None) -> np.ndarray:
    """A numeric field as one float array.

    With ``districts``, ``value`` holds one block of agent points per
    district, and the blocks are joined in district order.
    """
    value = _nested(value, depth, field)
    if districts is not None:
        if [len(block) for block in value] != [len(d) for d in districts]:
            raise SchemaError(f"'{field}' must align with 'districts'")
        value = [point for block in value for point in block]
    try:
        return np.array(value, dtype=np.float64)
    except (OverflowError, ValueError):
        raise SchemaError(f"'{field}' is ragged or holds a number beyond "
                          "float range") from None


def instance_from_json(data: dict) -> Instance:
    """Parse the canonical JSON dict; rejects unknown fields and wrong types."""
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
    if not isinstance(kind, str) or kind not in _METRIC_KEYS:
        raise SchemaError(f"unknown metric type {kind!r}")
    _require_keys(metric, _METRIC_KEYS[kind], f"metric of type {kind!r}")
    districts = _nested(data["districts"], 2, "districts", integers=True)
    num_agents = sum(len(d) for d in districts)
    _validate_districts(districts, num_agents)

    alternatives = data.get("alternatives")
    listed = None
    if isinstance(alternatives, list) and kind == LINE:
        listed = _floats(alternatives, 1, "alternatives")
        alternatives = len(listed)
    elif alternatives is not None and (not isinstance(alternatives, int)
                                       or isinstance(alternatives, bool)):
        raise SchemaError("'alternatives' must be a count or, for line "
                          "metrics, a position list")

    if kind == EXPLICIT:
        if "distances" not in metric:
            raise SchemaError("explicit metric needs 'distances'")
        if alternatives is None:
            raise SchemaError("explicit metric needs an 'alternatives' count")
        mat = _freeze(_floats(metric["distances"], 2, "distances"), ndim=2)
        if mat.shape[0] != num_agents + alternatives:
            raise SchemaError(f"matrix side {mat.shape[0]} != agents {num_agents} "
                              f"+ alternatives {alternatives}")
        if alternatives < 1:
            raise NoAlternatives("an instance needs at least one alternative")
        _validate_distance_matrix(mat)
        return _explicit_instance_from_ids(mat, districts, num_agents)

    agents_key, alts_key = _POINT_KEYS[kind]
    if agents_key not in metric:
        raise SchemaError(f"{kind} metric needs '{agents_key}'")
    depth = 1 if kind == LINE else 2
    alt_points = listed
    if alts_key in metric:
        alt_points = _floats(metric[alts_key], depth, alts_key)
        if listed is not None and not np.array_equal(alt_points, listed):
            raise SchemaError("'alternatives' list disagrees with metric positions")
    if alt_points is None:
        raise SchemaError(f"{kind} metric needs '{alts_key}'")
    if alternatives is not None and alternatives != len(alt_points):
        raise SchemaError(f"'alternatives' count disagrees with '{alts_key}'")
    flat = _floats(metric[agents_key], depth + 1, agents_key, districts)
    points = np.empty_like(flat)
    points[[a for d in districts for a in d]] = flat
    return _points_instance(kind, points, districts, alt_points)


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
