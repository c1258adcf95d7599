"""Two-step district mechanisms.

A mechanism runs an in-district rule once per district to pick that
district's representative, then an over-districts rule on one pseudo-voter
per district, located at the representative, to pick the winner. With a
single district the two steps collapse: the representative is the winner.

The over step can offer the full alternative set (the default) or only the
representatives themselves. Ordinal rules receive derived rankings only;
cardinal rules receive distance blocks. Factories are provided for the
named mechanisms: plain composition, composition through an arbitrary over
step, dictator-then-median on a line, and the threshold-acceptance line
mechanism (pick the rightmost acceptable alternative per district, then the
leftmost representative).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .errors import (
    EmptyVoterSet,
    IndexOutOfRange,
    LambdaBelowOne,
    MissingAxis,
    NotLineMetric,
    PropertyCheckFailed,
)
from .instances import Instance, OrdinalProfile, build_line_instance
from .objectives import (
    AVG,
    AVG_KIND,
    CONSISTENT,
    CUSTOM_KIND,
    ComposedObjective,
    InnerObjective,
    MAX_KIND,
    MONOTONE,
    SUBADDITIVE,
    check_single_peaked,
    parse_inner,
    run_property_checks,
)
from .rules import (
    CARDINAL,
    DictatorRule,
    MedianLineRule,
    OptimalRule,
    ORDINAL,
    PluralityMatchingRule,
    parse_direct_rule,
)
from .tolerances import ACCEPT_SLACK

ALL_ALTERNATIVES = "all-alternatives"
REPRESENTATIVES_ONLY = "representatives-only"


def _acceptable(values: np.ndarray, lam: float) -> np.ndarray:
    """Indices of the values within a factor ``lam`` of the smallest."""
    return np.flatnonzero(values <= lam * values.min() * (1 + ACCEPT_SLACK))


# ---------------------------------------------------------------------------
# over-step-only rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArbitraryOverRule:
    """Returns one district's representative verbatim.

    The canonical choice is the representative of the lowest-indexed
    district (``index=0``). A seed switches to a deterministic but
    input-dependent pick, useful for stress-testing claims that must hold
    for every arbitrary choice.
    """

    index: int = 0
    seed: int | None = None
    info: ClassVar[str] = ORDINAL
    unanimous: ClassVar[bool] = True
    line_only: ClassVar[bool] = False

    @property
    def name(self) -> str:
        if self.seed is not None:
            return f"arbitrary~{self.seed}"
        return "arbitrary" if self.index == 0 else f"arbitrary:{self.index}"

    def select_ordinal(self, profile: OrdinalProfile,
                       peaks: Sequence[int] | None = None) -> int:
        if not peaks:
            raise EmptyVoterSet("arbitrary over rule needs representatives")
        if self.seed is None:
            if not (0 <= self.index < len(peaks)):
                raise IndexOutOfRange(
                    f"district index {self.index} out of range for {len(peaks)} districts"
                )
            return int(peaks[self.index])
        digest = hashlib.sha256()
        digest.update(str(self.seed).encode())
        digest.update(repr(tuple(int(p) for p in peaks)).encode())
        digest.update(profile.rankings.tobytes())
        pick = int.from_bytes(digest.digest()[:8], "big") % len(peaks)
        return int(peaks[pick])

    def claimed_in(self, inner) -> float | None:
        return None

    def claimed_over(self, outer) -> float | None:
        return None


@dataclass(frozen=True)
class LeftmostRepRule:
    """Returns the leftmost representative on the line (ties: lower id)."""

    info: ClassVar[str] = ORDINAL
    unanimous: ClassVar[bool] = True
    line_only: ClassVar[bool] = True

    @property
    def name(self) -> str:
        return "leftmost"

    def select_ordinal(self, profile: OrdinalProfile,
                       peaks: Sequence[int] | None = None) -> int:
        if not peaks:
            raise EmptyVoterSet("leftmost rule needs representatives")
        if profile.line_axis is None:
            raise MissingAxis("leftmost rule needs the line ordering")
        axis_rank = {alt: r for r, alt in enumerate(profile.line_axis)}
        return int(min({int(p) for p in peaks}, key=axis_rank.__getitem__))

    def claimed_in(self, inner) -> float | None:
        return None

    def claimed_over(self, outer) -> float | None:
        return None


@dataclass(frozen=True)
class ThresholdSelectRule:
    """Cardinal in-rule: rightmost alternative within a factor ``lam`` of the
    district's optimal inner cost (ties toward the lower id).

    Deliberately not unanimous -- accepting near-optimal alternatives and
    always walking right is what caps the worst case over districts.
    """

    lam: float
    inner: InnerObjective
    info: ClassVar[str] = CARDINAL
    unanimous: ClassVar[bool] = False
    line_only: ClassVar[bool] = True

    @property
    def name(self) -> str:
        return f"threshold:{self.lam:g},{self.inner.spec}"

    def select_cardinal(self, dist: np.ndarray, candidates: np.ndarray,
                        positions: np.ndarray | None) -> int:
        if dist.shape[0] == 0:
            raise EmptyVoterSet("threshold rule needs at least one voter")
        if positions is None:
            raise NotLineMetric("threshold rule needs line positions")
        values = self.inner.over_columns(dist)
        acceptable = _acceptable(values, self.lam)
        pos = positions[acceptable]
        rightmost = acceptable[np.flatnonzero(pos == pos.max())[0]]
        return int(candidates[rightmost])

    def claimed_in(self, inner) -> float | None:
        return None

    def claimed_over(self, outer) -> float | None:
        return None


# ---------------------------------------------------------------------------
# mechanism object and runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MechanismTrace:
    """What a run did: one representative per district, the winner, and the
    candidate set offered at each step (in step, then over step)."""

    representatives: tuple[int, ...]
    winner: int
    per_step_candidates: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Mechanism:
    """An in-district rule composed with an over-districts rule."""

    in_rule: object
    over_rule: object
    selection_mode: str = ALL_ALTERNATIVES
    label: str | None = None

    @property
    def info(self) -> str:
        """Information the mechanism needs: ordinal only if both rules are."""
        if self.in_rule.info == CARDINAL or self.over_rule.info == CARDINAL:
            return CARDINAL
        return ORDINAL

    @property
    def unanimous(self) -> bool:
        return bool(self.in_rule.unanimous and self.over_rule.unanimous)

    @property
    def line_only(self) -> bool:
        return bool(self.in_rule.line_only or self.over_rule.line_only)

    @property
    def spec(self) -> str:
        if self.label is not None:
            return self.label
        suffix = ",reps-only" if self.selection_mode == REPRESENTATIVES_ONLY else ""
        return f"compose:{self.in_rule.name},{self.over_rule.name}{suffix}"


def compose(in_rule, over_rule,
            selection_mode: str = ALL_ALTERNATIVES) -> Mechanism:
    """Assemble a two-step mechanism from two rules."""
    if selection_mode not in (ALL_ALTERNATIVES, REPRESENTATIVES_ONLY):
        raise ValueError(f"unknown selection mode {selection_mode!r}")
    return Mechanism(in_rule, over_rule, selection_mode)


def _select_in(rule, instance: Instance, members: np.ndarray,
               profile: OrdinalProfile | None) -> int:
    if rule.info == CARDINAL:
        return rule.select_cardinal(
            instance.agent_alt[members],
            np.arange(instance.num_alternatives),
            instance.alternative_positions,
        )
    return rule.select_ordinal(profile.restrict(members.tolist()))


def _pseudo_profile(instance: Instance, reps: Sequence[int],
                    candidates: np.ndarray) -> OrdinalProfile:
    """Rankings of pseudo-voters standing at the representatives."""
    rows = instance.alternative_rankings()[np.array(reps, dtype=np.int64)]
    if candidates.size != instance.num_alternatives:
        mask = np.isin(rows, candidates)
        rows = rows[mask].reshape(len(reps), candidates.size)
    axis = instance.line_axis()
    if axis is not None and candidates.size != instance.num_alternatives:
        keep = set(int(c) for c in candidates)
        axis = tuple(a for a in axis if a in keep)
    return OrdinalProfile(rows, axis, None)


def run(mechanism: Mechanism, instance: Instance) -> MechanismTrace:
    """Execute the mechanism; deterministic for identical inputs."""
    if mechanism.line_only and not instance.is_line:
        raise NotLineMetric(
            f"mechanism {mechanism.spec!r} runs only on line instances"
        )
    needs_profile = (mechanism.in_rule.info == ORDINAL
                     or mechanism.over_rule.info == ORDINAL)
    profile = instance.profile() if needs_profile else None

    reps = tuple(
        _select_in(mechanism.in_rule, instance, members, profile)
        for members in instance.district_arrays()
    )
    all_alts = tuple(range(instance.num_alternatives))

    if len(reps) == 1:
        return MechanismTrace(reps, reps[0], (all_alts, (reps[0],)))

    if mechanism.selection_mode == REPRESENTATIVES_ONLY:
        candidates = np.array(sorted(set(reps)), dtype=np.int64)
    else:
        candidates = np.arange(instance.num_alternatives)

    over = mechanism.over_rule
    if over.info == CARDINAL:
        dist = instance.alt_alt[np.array(reps, dtype=np.int64)][:, candidates]
        positions = (instance.alternative_positions[candidates]
                     if instance.is_line else None)
        winner = over.select_cardinal(dist, candidates, positions)
    else:
        pseudo = _pseudo_profile(instance, reps, candidates)
        winner = over.select_ordinal(pseudo, reps)

    return MechanismTrace(reps, int(winner),
                          (all_alts, tuple(int(c) for c in candidates)))


# ---------------------------------------------------------------------------
# named mechanism factories
# ---------------------------------------------------------------------------

def arbitrary_over(in_rule, index: int = 0, seed: int | None = None) -> Mechanism:
    """Compose an in-rule with an over step that just hands the win to one
    district's representative (canonically the lowest-indexed district)."""
    return Mechanism(in_rule, ArbitraryOverRule(index=index, seed=seed),
                     ALL_ALTERNATIVES)


def arbitrary_median() -> Mechanism:
    """Dictator (lowest agent id) per district, median over representatives.

    Line instances only; the over step needs the axis.
    """
    return Mechanism(DictatorRule(0), MedianLineRule(), ALL_ALTERNATIVES,
                     label="arbitrary-median")


def arbitrary_dictator() -> Mechanism:
    """Dictator per district, then the first district's representative wins."""
    return Mechanism(DictatorRule(0), ArbitraryOverRule(0), ALL_ALTERNATIVES,
                     label="arbitrary-dictator")


def lambda_acceptable_set(instance: Instance, district: int,
                          inner: InnerObjective, lam: float) -> tuple[int, ...]:
    """Alternatives whose inner cost for the district is within a factor
    ``lam`` of the district optimum (ascending ids; relative slack 1e-12)."""
    if lam < 1:
        raise LambdaBelowOne(f"threshold {lam} must be >= 1")
    if not (0 <= district < instance.num_districts):
        raise IndexOutOfRange(f"district {district} out of range")
    members = instance.district_arrays()[district]
    values = inner.over_columns(instance.agent_alt[members])
    return tuple(int(a) for a in _acceptable(values, lam))


#: Fixed line configurations used to probe single-peakedness of custom inners.
_PEAK_PROBES = (
    ([[0.0, 0.3, 0.9, 1.0]], [0.0, 0.5, 1.0]),
    ([[0.0, 10.0]], [0.0, 5.0, 10.0]),
    ([[2.0, 3.0, 7.0]], [1.0, 4.0, 8.0]),
)


def _validate_arl_inner(inner: InnerObjective) -> None:
    if inner.kind != CUSTOM_KIND:
        return
    for result in run_property_checks(inner):
        if not result.passed:
            raise PropertyCheckFailed(result.property_name, result.witness)
    for agents, alts in _PEAK_PROBES:
        probe = build_line_instance(agents, alts)
        result = check_single_peaked(inner, probe, 0)
        if not result.passed:
            raise PropertyCheckFailed(result.property_name, result.witness)


def lambda_arl(lam: float, inner: InnerObjective = AVG) -> Mechanism:
    """Threshold-acceptance line mechanism.

    Each district's representative is the rightmost alternative whose inner
    cost is within a factor ``lam`` of that district's optimum; the leftmost
    representative wins. Custom inner aggregators are property-checked at
    construction and rejected with PropertyCheckFailed if unfit.
    """
    if lam < 1:
        raise LambdaBelowOne(f"threshold {lam} must be >= 1")
    _validate_arl_inner(inner)
    label = f"arl:{lam:g},{inner.spec}"
    return Mechanism(ThresholdSelectRule(float(lam), inner), LeftmostRepRule(),
                     ALL_ALTERNATIVES, label=label)


# ---------------------------------------------------------------------------
# parsing and claimed bounds
# ---------------------------------------------------------------------------

def _parse_in_rule(token: str, objective: ComposedObjective | None):
    if token == "optimal":
        if objective is None:
            raise ValueError("'optimal' in-rule needs an objective for its aggregator")
        return OptimalRule(objective.inner)
    return parse_direct_rule(token)


def _parse_over_rule(token: str, objective: ComposedObjective | None):
    if token == "optimal":
        if objective is None:
            raise ValueError("'optimal' over-rule needs an objective for its aggregator")
        outer_as_inner = InnerObjective(kind=objective.outer.kind,
                                        name=objective.outer.kind)
        return OptimalRule(outer_as_inner)
    if token == "arbitrary":
        return ArbitraryOverRule(0)
    if token.startswith("arbitrary:"):
        return ArbitraryOverRule(int(token.split(":", 1)[1]))
    if token == "leftmost":
        return LeftmostRepRule()
    return parse_direct_rule(token)


def parse_mechanism(spec: str,
                    objective: ComposedObjective | None = None) -> Mechanism:
    """Parse a mechanism spec string.

    Forms: ``compose:<in>,<over>[,reps-only]``, ``arl:<lambda>[,<inner>]``,
    ``arbitrary-median``, ``arbitrary-dictator``. The ``optimal`` rule and
    the default threshold inner bind to the objective's aggregators, so specs
    using them need the objective for context.
    """
    spec = spec.strip()
    if spec == "arbitrary-median":
        return arbitrary_median()
    if spec == "arbitrary-dictator":
        return arbitrary_dictator()
    if spec.startswith("arl:"):
        parts = spec[len("arl:"):].split(",")
        if not parts or not parts[0]:
            raise ValueError(f"bad threshold mechanism spec {spec!r}")
        lam = float(parts[0])
        if len(parts) == 1:
            if objective is None:
                raise ValueError("threshold spec without inner needs an objective")
            inner = objective.inner
        elif len(parts) == 2:
            inner = parse_inner(parts[1])
        else:
            raise ValueError(f"bad threshold mechanism spec {spec!r}")
        return lambda_arl(lam, inner)
    if spec.startswith("compose:"):
        parts = spec[len("compose:"):].split(",")
        mode = ALL_ALTERNATIVES
        if parts and parts[-1] == "reps-only":
            mode = REPRESENTATIVES_ONLY
            parts = parts[:-1]
        if len(parts) != 2:
            raise ValueError(f"bad compose spec {spec!r}")
        return compose(_parse_in_rule(parts[0], objective),
                       _parse_over_rule(parts[1], objective), mode)
    raise ValueError(f"unknown mechanism spec {spec!r}")


def _composable_inner(inner: InnerObjective) -> bool:
    """Whether the additive composition guarantee covers this aggregator."""
    if inner.kind in (AVG_KIND, MAX_KIND):
        return True
    required = {MONOTONE, SUBADDITIVE, CONSISTENT}
    return required.issubset(set(inner.declared_properties))


def claimed_bound(mechanism: Mechanism, objective: ComposedObjective,
                  line: bool = True) -> float | None:
    """Worst-case distortion this package claims for the pair, if any.

    ``line`` says whether instances are drawn from a line metric (the
    default sweep generator); a few claims hold only there.
    """
    in_rule, over_rule = mechanism.in_rule, mechanism.over_rule
    outer_kind = objective.outer.kind

    if mechanism.line_only and not line:
        return None

    if isinstance(in_rule, ThresholdSelectRule):
        if outer_kind == MAX_KIND and objective.inner.spec == in_rule.inner.spec:
            return max(2.0 + 1.0 / in_rule.lam, in_rule.lam)
        return None

    if isinstance(in_rule, DictatorRule) and isinstance(over_rule, MedianLineRule):
        if outer_kind == AVG_KIND and objective.inner.kind == MAX_KIND:
            return 5.0
        return None

    if isinstance(over_rule, ArbitraryOverRule):
        if (line and isinstance(in_rule, DictatorRule)
                and outer_kind == MAX_KIND and objective.inner.kind == MAX_KIND):
            return 3.0
        alpha = in_rule.claimed_in(objective.inner)
        if alpha is not None and outer_kind == MAX_KIND:
            return 2.0 + alpha
        return None

    alpha = in_rule.claimed_in(objective.inner)
    if alpha is None:
        return None
    if mechanism.selection_mode == REPRESENTATIVES_ONLY:
        # the representative-restricted guarantee is only claimed for the
        # two built-in inner aggregators
        if objective.inner.kind not in (AVG_KIND, MAX_KIND):
            return None
        gamma = over_rule.claimed_over(objective.outer)
        if gamma is None:
            return None
        return alpha + 2.0 * gamma + 2.0 * alpha * gamma
    if not _composable_inner(objective.inner):
        return None
    beta = over_rule.claimed_over(objective.outer)
    if beta is None:
        return None
    return alpha + beta + alpha * beta
