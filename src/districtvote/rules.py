"""Single-winner voting rules used inside and across districts.

Two information models exist. Cardinal rules see a distance block
(voters x candidates); one that aggregates with a fixed inner objective
also offers ``choose(values, candidates, positions)``, its decision on the
per-candidate aggregates alone, so a mechanism can hand it an instance's
cached district aggregates instead of a block. Ordinal rules see only an
:class:`OrdinalProfile` restricted to their electorate -- rankings plus, on
line metrics, the left-to-right order of alternatives -- and never raw
distances; the call signatures enforce this.

All four rules here are unanimous: when every voter ranks the same
alternative first, that alternative wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .errors import (
    EmptyVoterSet,
    IndexOutOfRange,
    InternalNoWinner,
    MissingAxis,
)
from .instances import Instance, OrdinalProfile
from .objectives import InnerObjective

CARDINAL = "cardinal"
ORDINAL = "ordinal"


# ---------------------------------------------------------------------------
# functional rule cores
# ---------------------------------------------------------------------------

def optimal_rule(instance: Instance, voters: Iterable[int],
                 inner: InnerObjective) -> int:
    """Alternative minimizing the inner aggregate over the given voters.

    Ties break toward the lowest alternative id. This is the cardinal
    benchmark rule: its approximation factor for its own aggregator is 1.
    """
    ids = sorted(int(v) for v in voters)
    if not ids:
        raise EmptyVoterSet("optimal rule needs at least one voter")
    for v in ids:
        if not (0 <= v < instance.num_agents):
            raise IndexOutOfRange(f"voter {v} out of range")
    values = inner.over_columns(instance.agent_alt[np.array(ids)])
    return OptimalRule(inner).choose(values, np.arange(instance.num_alternatives),
                                     None)


def median_line_rule(profile: OrdinalProfile,
                     voter_peaks: Sequence[int] | None = None) -> int:
    """Lower median of the voters' peaks along the line axis.

    Each voter contributes one peak (by default their top-ranked
    alternative); peaks are sorted left to right and the ceil(v/2)-th one
    (1-indexed) wins. Among alternatives, this choice minimizes the total
    distance to the peak multiset.
    """
    if profile.line_axis is None:
        raise MissingAxis("median rule needs the line ordering of alternatives")
    peaks = [int(p) for p in (voter_peaks if voter_peaks is not None
                              else profile.tops)]
    if not peaks:
        raise EmptyVoterSet("median rule needs at least one peak")
    axis_rank = {alt: r for r, alt in enumerate(profile.line_axis)}
    try:
        keys = sorted(axis_rank[p] for p in peaks)
    except KeyError as exc:
        raise IndexOutOfRange(f"peak {exc.args[0]} is not on the line axis") from exc
    lower_median_rank = keys[(len(keys) - 1) // 2]
    return int(profile.line_axis[lower_median_rank])


def dictator_rule(profile: OrdinalProfile, dictator_index: int = 0) -> int:
    """Top choice of one fixed voter (default: the lowest agent id)."""
    if profile.num_voters == 0:
        raise EmptyVoterSet("dictator rule needs at least one voter")
    if not (0 <= dictator_index < profile.num_voters):
        raise IndexOutOfRange(
            f"dictator index {dictator_index} out of range for "
            f"{profile.num_voters} voters"
        )
    return int(profile.rankings[dictator_index, 0])


def plurality_matching_rule(profile: OrdinalProfile) -> int:
    """Lowest-id alternative admitting a voter-to-top-slot perfect matching.

    Every voter j opens one slot labeled with j's top choice. Alternative a
    wins if the voters can be matched one-to-one onto the slots so that each
    voter i takes a slot labeled t only when i weakly prefers a to t (a
    appears no later than t in i's ranking). Scanning ids in ascending order
    makes the rule deterministic. A winner always exists by the existence
    theorem of Gkatzelis, Halpern and Shah (FOCS 2020), which Plurality Veto
    (Kizilkaya and Kempe, IJCAI 2022) also proves constructively, so
    exhausting all candidates indicates a bug.
    """
    if profile.num_voters == 0:
        raise EmptyVoterSet("plurality matching needs at least one voter")
    rows = profile.rankings.tolist()
    capacity: dict[int, int] = {}
    for row in rows:
        capacity[row[0]] = capacity.get(row[0], 0) + 1

    def try_place(i: int, seen: set[int]) -> bool:
        # augmenting path from voter i through the capacitated top classes
        for t in accept[i]:
            if t in seen:
                continue
            seen.add(t)
            if len(owners[t]) < capacity[t]:
                owners[t].append(i)
                return True
            for slot, j in enumerate(owners[t]):
                if try_place(j, seen):
                    owners[t][slot] = i
                    return True
        return False

    for a in sorted(rows[0]):
        # voter i accepts the open classes it ranks no higher than a
        accept = [[t for t in row[row.index(a):] if t in capacity]
                  for row in rows]
        if not all(accept):
            continue
        owners: dict[int, list[int]] = {t: [] for t in capacity}
        if all(try_place(i, set()) for i in range(len(rows))):
            return a
    raise InternalNoWinner("no alternative admitted a perfect matching")


# ---------------------------------------------------------------------------
# rule objects (used to assemble mechanisms)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimalRule:
    """Cardinal rule: minimize a fixed inner aggregator over the electorate."""

    inner: InnerObjective
    name: ClassVar[str] = "optimal"
    info: ClassVar[str] = CARDINAL
    unanimous: ClassVar[bool] = True
    line_only: ClassVar[bool] = False

    def choose(self, values: np.ndarray, candidates: np.ndarray,
               positions: np.ndarray | None) -> int:
        """The candidate of least inner aggregate ``values``; ties: lowest index."""
        return int(candidates[int(np.argmin(values))])

    def select_cardinal(self, dist: np.ndarray, candidates: np.ndarray,
                        positions: np.ndarray | None) -> int:
        if dist.shape[0] == 0:
            raise EmptyVoterSet("optimal rule needs at least one voter")
        return self.choose(self.inner.over_columns(dist), candidates, positions)


@dataclass(frozen=True)
class MedianLineRule:
    """Ordinal line rule: lower median of voter peaks."""

    name: ClassVar[str] = "median"
    info: ClassVar[str] = ORDINAL
    unanimous: ClassVar[bool] = True
    line_only: ClassVar[bool] = True

    def select_ordinal(self, profile: OrdinalProfile,
                       peaks: Sequence[int] | None = None) -> int:
        return median_line_rule(profile, peaks)


@dataclass(frozen=True)
class PluralityMatchingRule:
    """Ordinal rule with constant-factor guarantees for both avg and max."""

    name: ClassVar[str] = "plurality-matching"
    info: ClassVar[str] = ORDINAL
    unanimous: ClassVar[bool] = True
    line_only: ClassVar[bool] = False

    def select_ordinal(self, profile: OrdinalProfile,
                       peaks: Sequence[int] | None = None) -> int:
        return plurality_matching_rule(profile)


@dataclass(frozen=True)
class DictatorRule:
    """Ordinal rule returning one fixed voter's top choice."""

    dictator_index: int = 0
    info: ClassVar[str] = ORDINAL
    unanimous: ClassVar[bool] = True
    line_only: ClassVar[bool] = False

    @property
    def name(self) -> str:
        return ("dictator" if self.dictator_index == 0
                else f"dictator:{self.dictator_index}")

    def select_ordinal(self, profile: OrdinalProfile,
                       peaks: Sequence[int] | None = None) -> int:
        return dictator_rule(profile, self.dictator_index)


def parse_direct_rule(token: str) -> object:
    """Parse an ordinal in-rule token: median / plurality-matching / dictator[:i]."""
    if token == "median":
        return MedianLineRule()
    if token == "plurality-matching":
        return PluralityMatchingRule()
    if token == "dictator":
        return DictatorRule(0)
    if token.startswith("dictator:"):
        return DictatorRule(int(token.split(":", 1)[1]))
    raise ValueError(f"unknown rule {token!r}")
