"""Single-winner voting rules used inside and across districts.

Two information models exist, and a rule of either decides through one
array core, ``pick``, that returns one decision per row along the last
axis. A cardinal rule has an ``inner`` objective, and
``pick(values, positions)`` returns the index of the column it elects. A
column holds ``inner`` over the electorate's distances to one candidate,
and ``positions`` holds the candidates' line coordinates, or ``None`` off
the line. In the in-step ``values`` is an instance's (districts, m) cached
district aggregates; in the over step it is one row over the candidates,
the aggregates of the pseudo-voters' distances. An ordinal rule never sees
distances: ``pick(electorate)`` reads an :class:`Electorate` -- the voters'
peaks, on a line the left-to-right order of alternatives, and for a single
row its rankings -- and returns the alternative it elects.

A per-instance run calls ``pick`` on one instance (a cardinal in-step
decides all its districts at once; every other step is one row), and
``sweep_cells`` hands it a whole block of trials.

All four rules here are unanimous: when every voter ranks the same
alternative first, that alternative wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptyVoterSet,
    IndexOutOfRange,
    InternalNoWinner,
    MissingAxis,
)
from .instances import OrdinalProfile
from .objectives import InnerObjective

CARDINAL = "cardinal"
ORDINAL = "ordinal"


class Electorate(NamedTuple):
    """Rows of voters along the last axis, as an ordinal rule sees them.

    ``peaks`` (..., width) holds one alternative id per voter: the agents'
    top choices in the in-step, the representatives in the over step.
    Entries past a row's count in ``counts`` (...) are pads. On a line,
    ``axis`` (..., m) lists each row's alternative ids left to right; off it
    ``axis`` is None. For a single row, ``profile()`` returns its
    :class:`OrdinalProfile`. Only plurality matching calls it, so the over
    step builds its pseudo-voters' rankings for that rule alone. A named
    tuple, because the per-instance run builds one per district.
    """

    peaks: np.ndarray
    counts: np.ndarray
    axis: np.ndarray | Sequence[int] | None = None
    profile: Callable[[], OrdinalProfile] | None = None

    @classmethod
    def of(cls, profile: OrdinalProfile,
           peaks: Sequence[int] | None = None) -> "Electorate":
        """One row: the profile's voters, each peaked at their top choice
        unless ``peaks`` gives one peak per voter."""
        peaks = profile.tops if peaks is None else np.asarray(peaks, dtype=np.int64)
        return cls(peaks, np.asarray(len(peaks)), profile.line_axis, lambda: profile)

    def ranks(self, rule: str) -> np.ndarray:
        """Each peak's place on its row's axis; pads rank after every real
        alternative. ``rule`` names the rule in the MissingAxis message."""
        if self.axis is None:
            raise MissingAxis(f"{rule} needs the line ordering of alternatives")
        axis = np.asarray(self.axis)
        hits = self.peaks[..., :, None] == axis[..., None, :]
        pads = np.arange(self.peaks.shape[-1]) >= self.counts[..., None]
        lost = ~(pads | hits.any(axis=-1))
        if lost.any():
            raise IndexOutOfRange(f"peak {self.peaks[lost][0]} is not on the line axis")
        return np.where(pads, axis.shape[-1], hits.argmax(axis=-1))

    def on_axis(self, ranks: np.ndarray) -> np.ndarray:
        """The alternative at each row's place ``ranks`` on the axis."""
        return _along(np.asarray(self.axis), ranks)


def _along(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Entry ``index`` of each row of ``values`` along the last axis."""
    return values[np.indices(index.shape, sparse=True) + (index,)]


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

    @staticmethod
    def pick(values: np.ndarray, positions: np.ndarray | None) -> np.ndarray:
        """Index of the least inner aggregate along the last axis of
        ``values``; ties go to the lowest index."""
        return values.argmin(axis=-1)


@dataclass(frozen=True)
class MedianLineRule:
    """Ordinal line rule: lower median of voter peaks."""

    name: ClassVar[str] = "median"
    info: ClassVar[str] = ORDINAL
    unanimous: ClassVar[bool] = True
    line_only: ClassVar[bool] = True

    @staticmethod
    def pick(electorate: Electorate) -> np.ndarray:
        """The peak at the lower median of each row's peaks along the axis,
        the ceil(v/2)-th of v from the left. Among alternatives, it
        minimizes the total distance to the peaks."""
        ranks = electorate.ranks("median rule")
        if not electorate.counts.all():
            raise EmptyVoterSet("median rule needs at least one peak")
        middle = (electorate.counts - 1) // 2
        return electorate.on_axis(_along(np.sort(ranks, axis=-1), middle))


@dataclass(frozen=True)
class PluralityMatchingRule:
    """Ordinal rule with constant-factor guarantees for both avg and max."""

    name: ClassVar[str] = "plurality-matching"
    info: ClassVar[str] = ORDINAL
    unanimous: ClassVar[bool] = True
    line_only: ClassVar[bool] = False

    @staticmethod
    def pick(electorate: Electorate) -> int:
        """The matching winner of the electorate's one row of rankings."""
        return plurality_matching_rule(electorate.profile())


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

    def pick(self, electorate: Electorate) -> np.ndarray:
        """Peak ``dictator_index`` of each row."""
        index, counts = self.dictator_index, electorate.counts
        if index < 0 or (counts <= index).any():
            if not counts.all():
                raise EmptyVoterSet("dictator rule needs at least one voter")
            raise IndexOutOfRange(f"dictator index {index} out of range for "
                                  f"{counts.min()} voters")
        return electorate.peaks[..., index]


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
