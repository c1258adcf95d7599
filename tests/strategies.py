"""Shared hypothesis strategies for generating small instances."""

from __future__ import annotations

import hypothesis.strategies as st

import districtvote as dv

positions = st.floats(min_value=-50.0, max_value=50.0,
                      allow_nan=False, allow_infinity=False)


def _partition(flat: list[float], cuts: list[int]) -> list[list[float]]:
    """Split a position list into contiguous nonempty groups at sorted cuts."""
    bounds = sorted(set(c % (len(flat) - 1) + 1 for c in cuts)) if cuts else []
    groups, prev = [], 0
    for b in bounds:
        groups.append(flat[prev:b])
        prev = b
    groups.append(flat[prev:])
    return [g for g in groups if g]


@st.composite
def line_instances(draw, max_agents: int = 10, max_alternatives: int = 5,
                   max_districts: int = 4, distinct_alternatives: bool = False):
    """A random line instance with 1..max_districts nonempty districts."""
    n = draw(st.integers(1, max_agents))
    m = draw(st.integers(1, max_alternatives))
    agent_pos = draw(st.lists(positions, min_size=n, max_size=n))
    if distinct_alternatives:
        # well separated (gap >= 1e-3) so float rounding cannot make two
        # same-side alternatives exactly equidistant from an agent
        ticks = draw(st.lists(st.integers(-50_000, 50_000), min_size=m,
                              max_size=m, unique=True))
        alt_pos = [t * 1e-3 for t in ticks]
    else:
        alt_pos = draw(st.lists(positions, min_size=m, max_size=m))
    k = draw(st.integers(1, min(max_districts, n)))
    cuts = draw(st.lists(st.integers(0, 10_000), min_size=k - 1,
                         max_size=k - 1)) if n > 1 else []
    groups = _partition(agent_pos, cuts)
    return dv.build_line_instance(groups, alt_pos)


@st.composite
def euclidean_instances(draw, max_agents: int = 8, max_alternatives: int = 4,
                        max_districts: int = 3, dim: int = 2):
    n = draw(st.integers(1, max_agents))
    m = draw(st.integers(1, max_alternatives))
    point = st.lists(positions, min_size=dim, max_size=dim)
    agent_coords = draw(st.lists(point, min_size=n, max_size=n))
    alt_coords = draw(st.lists(point, min_size=m, max_size=m))
    k = draw(st.integers(1, min(max_districts, n)))
    cuts = draw(st.lists(st.integers(0, 10_000), min_size=k - 1,
                         max_size=k - 1)) if n > 1 else []
    groups = _partition(agent_coords, cuts)
    return dv.build_euclidean_instance(groups, alt_coords)


@st.composite
def ranking_profiles(draw, max_voters: int = 7, max_candidates: int = 5):
    """A profile of full rankings (one permutation row per voter).

    Rows are drawn from a pool of 1..n permutations, so profiles with few
    distinct rankings, and hence few distinct tops, come up often.
    """
    n = draw(st.integers(1, max_voters))
    m = draw(st.integers(1, max_candidates))
    pool = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=n))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return dv.OrdinalProfile([list(r) for r in rows])
