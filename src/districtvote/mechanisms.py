"""Two-step district mechanisms.

A mechanism runs an in-district rule once per district to pick that
district's representative, then an over-districts rule on one pseudo-voter
per district, located at the representative, to pick the winner. With a
single district the two steps collapse: the representative is the winner.

The over step can offer the full alternative set (the default) or only the
representatives themselves. Every rule decides through its ``pick`` core
(see ``rules``). A cardinal rule's ``pick`` receives its inner objective's
value per candidate: in the in-step all districts at once, as the
(districts, m) rows of the instance's cached district aggregates; in the
over step one row, the aggregates of the pseudo-voters' distances. An
ordinal rule's ``pick`` receives an ``Electorate`` of one row: a
district's agents with their derived rankings, or the pseudo-voters with
the representatives as peaks. The in-step's work is kept in the instance's
cache, so mechanisms sharing an in-rule or its inner objective share it.
Factories are provided for the named mechanisms: plain composition,
composition through an arbitrary over step, dictator-then-median on a
line, and the threshold-acceptance line mechanism (pick the rightmost
acceptable alternative per district, then the leftmost representative).
``claimed_bound`` reads every bound this package claims from one table
(``IN_FACTORS``, ``OVER_FACTORS``, ``MECHANISM_BOUNDS``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .errors import (
    EmptyVoterSet,
    IndexOutOfRange,
    LambdaBelowOne,
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
    district_aggregates,
    parse_inner,
    run_property_checks,
)
from .rules import (
    CARDINAL,
    DictatorRule,
    Electorate,
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
    """Mask of the values within a factor ``lam`` of the smallest along the
    last axis."""
    # the bound overflows to +inf only when every finite value lies below it
    with np.errstate(over="ignore"):
        bound = lam * values.min(axis=-1, keepdims=True) * (1 + ACCEPT_SLACK)
    return values <= bound


# ---------------------------------------------------------------------------
# over-step-only rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArbitraryOverRule:
    """Returns one district's representative verbatim.

    The canonical choice is the representative of the lowest-indexed
    district (``index=0``).
    """

    index: int = 0
    info: ClassVar[str] = ORDINAL
    unanimous: ClassVar[bool] = True
    line_only: ClassVar[bool] = False

    @property
    def name(self) -> str:
        return "arbitrary" if self.index == 0 else f"arbitrary:{self.index}"

    def pick(self, electorate: Electorate) -> np.ndarray:
        """Peak ``index`` of each row: that district's representative."""
        index, counts = self.index, electorate.counts
        if index < 0 or (counts <= index).any():
            if not counts.all():
                raise EmptyVoterSet("arbitrary over rule needs representatives")
            raise IndexOutOfRange(f"district index {index} out of range "
                                  f"for {counts.min()} districts")
        return electorate.peaks[..., index]


@dataclass(frozen=True)
class LeftmostRepRule:
    """Returns the leftmost representative on the line (ties: lower id)."""

    name: ClassVar[str] = "leftmost"
    info: ClassVar[str] = ORDINAL
    unanimous: ClassVar[bool] = True
    line_only: ClassVar[bool] = True

    @staticmethod
    def pick(electorate: Electorate) -> np.ndarray:
        """The peak of least place on each row's axis."""
        if not electorate.counts.all():
            raise EmptyVoterSet("leftmost rule needs representatives")
        return electorate.on_axis(electorate.ranks("leftmost rule").min(axis=-1))


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

    def pick(self, values: np.ndarray, positions: np.ndarray | None) -> np.ndarray:
        """Index of the rightmost candidate whose inner aggregate is
        acceptable, along the last axis of ``values`` and ``positions``."""
        if positions is None:
            raise NotLineMetric("threshold rule needs line positions")
        # argmax keeps the first, lowest-index, of equally right positions
        pos = np.where(_acceptable(values, self.lam), positions, -np.inf)
        return pos.argmax(axis=-1)


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


def _select_in(rule, members: Sequence[int], profile: OrdinalProfile) -> int:
    """One district's representative under an ordinal rule, from its rankings."""
    return int(rule.pick(Electorate.of(profile.restrict(members))))


def _representatives(rule, instance: Instance) -> tuple[int, ...]:
    """The in-step: one representative per district.

    A cardinal rule's ``pick`` decides every row of the instance's cached
    district aggregates of its inner objective at once. An ordinal rule's
    representatives are cached on the instance through ``Instance._derived``,
    keyed by the rule (ordinal rules are hashable values, and equal rules
    pick alike), so every mechanism with that in-rule runs it once per
    instance.
    """
    if rule.info == CARDINAL:
        values = district_aggregates(instance, rule.inner)
        positions = instance.alternative_points if instance.is_line else None
        return tuple(rule.pick(values, positions).tolist())

    def compute():
        profile = instance.profile()
        return tuple(_select_in(rule, members, profile)
                     for members in instance.districts)
    return instance._derived(("representatives", rule), compute)


def _pseudo_profile(instance: Instance, reps: np.ndarray,
                    candidates: np.ndarray) -> OrdinalProfile:
    """Rankings of the candidates by pseudo-voters standing at the
    representatives."""
    rows = instance.alternative_rankings()[reps]
    if candidates.size != instance.num_alternatives:
        rows = rows[np.isin(rows, candidates)].reshape(len(reps), candidates.size)
    return OrdinalProfile(rows)


def check_metric(mechanism: Mechanism, line: bool) -> None:
    """Raise NotLineMetric if the mechanism runs only on line metrics and
    ``line`` says the metric is not one."""
    if mechanism.line_only and not line:
        raise NotLineMetric(
            f"mechanism {mechanism.spec!r} runs only on line instances"
        )


def run(mechanism: Mechanism, instance: Instance) -> MechanismTrace:
    """Execute the mechanism; deterministic for identical inputs."""
    check_metric(mechanism, instance.is_line)
    reps = _representatives(mechanism.in_rule, instance)
    all_alts = tuple(range(instance.num_alternatives))

    if len(reps) == 1:
        return MechanismTrace(reps, reps[0], (all_alts, (reps[0],)))

    if mechanism.selection_mode == REPRESENTATIVES_ONLY:
        candidates = np.array(sorted(set(reps)), dtype=np.int64)
    else:
        candidates = np.arange(instance.num_alternatives)

    over, peaks = mechanism.over_rule, np.array(reps, dtype=np.int64)
    if over.info == CARDINAL:
        block = instance.alt_alt[peaks][:, candidates]
        positions = (instance.alternative_points[candidates]
                     if instance.is_line else None)
        winner = candidates[over.pick(over.inner.over_columns(block), positions)]
    else:
        # the representatives are candidates, so the whole axis orders them
        winner = over.pick(Electorate(
            peaks, np.asarray(len(reps)), instance.line_axis(),
            lambda: _pseudo_profile(instance, peaks, candidates)))

    return MechanismTrace(reps, int(winner),
                          (all_alts, tuple(candidates.tolist())))


# ---------------------------------------------------------------------------
# named mechanism factories
# ---------------------------------------------------------------------------

def arbitrary_over(in_rule, index: int = 0) -> Mechanism:
    """Compose an in-rule with an over step that just hands the win to one
    district's representative (canonically the lowest-indexed district)."""
    return Mechanism(in_rule, ArbitraryOverRule(index), ALL_ALTERNATIVES)


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


def _check_lambda(lam: float) -> None:
    # NaN fails ``lam >= 1``; an infinite lambda times a zero optimum is NaN
    if not (lam >= 1 and math.isfinite(lam)):
        raise LambdaBelowOne(f"threshold {lam} must be a finite number >= 1")


def lambda_acceptable_set(instance: Instance, district: int,
                          inner: InnerObjective, lam: float) -> tuple[int, ...]:
    """Alternatives whose inner cost for the district is within a factor
    ``lam`` of the district optimum (ascending ids; relative slack 1e-12)."""
    _check_lambda(lam)
    if not (0 <= district < instance.num_districts):
        raise IndexOutOfRange(f"district {district} out of range")
    values = district_aggregates(instance, inner)[district]
    return tuple(np.flatnonzero(_acceptable(values, lam)).tolist())


#: Fixed line configurations used to probe single-peakedness of custom inners.
_PEAK_PROBES = (
    ([[0.0, 0.3, 0.9, 1.0]], [0.0, 0.5, 1.0]),
    ([[0.0, 10.0]], [0.0, 5.0, 10.0]),
    ([[2.0, 3.0, 7.0]], [1.0, 4.0, 8.0]),
)


def _validate_arl_inner(inner: InnerObjective) -> None:
    """Reject a custom inner that is not cost-like enough for the threshold.

    The built-in kinds (``avg``, ``max``, ``pmean``) are trusted unchecked:
    for p >= 1 Minkowski's inequality makes the power mean subadditive, it
    is monotone and consistent, and its cost along a line is convex, hence
    single-peaked; a ``pmean`` object with p < 1 cannot be built. Trust goes
    by kind, so a custom inner that only borrows a built-in name is checked.
    """
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
    _check_lambda(lam)
    _validate_arl_inner(inner)
    label = f"arl:{lam:g},{inner.spec}"
    return Mechanism(ThresholdSelectRule(float(lam), inner), LeftmostRepRule(),
                     ALL_ALTERNATIVES, label=label)


# ---------------------------------------------------------------------------
# parsing
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
        return OptimalRule(objective.outer)
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


# ---------------------------------------------------------------------------
# the claim table
# ---------------------------------------------------------------------------

#: Table key meaning "the aggregator the rule itself minimizes".
SAME = "same"

#: In-step factors alpha: the representative's inner cost is at most alpha
#: times the district's best. Keyed by (rule type, inner kind or SAME).
IN_FACTORS = {
    (OptimalRule, SAME): 1.0,               # exact: it minimizes that aggregator
    (PluralityMatchingRule, AVG_KIND): 3.0,  # metric distortion 3 (GHS 2020)
    (PluralityMatchingRule, MAX_KIND): 3.0,  # the rule's factor for the max cost
    (DictatorRule, MAX_KIND): 3.0,           # d(j, top_i) <= d(j, x) + 2 d(i, x)
}

#: Over-step factors beta (gamma when the winner must be a representative):
#: the same guarantee for pseudo-voters standing at the representatives.
#: Keyed by (rule type, outer kind or SAME).
OVER_FACTORS = {
    (OptimalRule, SAME): 1.0,               # exact over the pseudo-voters
    (MedianLineRule, AVG_KIND): 1.0,         # the median peak minimizes total distance
    (PluralityMatchingRule, AVG_KIND): 2.0,  # voters at their top sharpen 3 to 2
    (PluralityMatchingRule, MAX_KIND): 2.0,  # the same, for the max cost
}


def _in_factor(rule, inner: InnerObjective) -> float | None:
    own = getattr(rule, "inner", None)
    same = own is not None and own.spec == inner.spec
    return IN_FACTORS.get((type(rule), SAME if same else inner.kind))


def _over_factor(rule, outer) -> float | None:
    own = getattr(rule, "inner", None)
    same = own is not None and own.kind == outer.kind
    return OVER_FACTORS.get((type(rule), SAME if same else outer.kind))


def _threshold_leftmost(in_rule, objective, line):
    if (objective.outer.kind == MAX_KIND
            and objective.inner.spec == in_rule.inner.spec):
        return max(2.0 + 1.0 / in_rule.lam, in_rule.lam)
    return None


def _dictator_median(in_rule, objective, line):
    if (objective.outer.kind, objective.inner.kind) == (AVG_KIND, MAX_KIND):
        return 5.0
    return None


def _arbitrary(in_rule, objective, line):
    alpha = _in_factor(in_rule, objective.inner)
    if alpha is None or objective.outer.kind != MAX_KIND:
        return None
    return 2.0 + alpha


def _dictator_arbitrary(in_rule, objective, line):
    if line and (objective.outer.kind, objective.inner.kind) == (MAX_KIND, MAX_KIND):
        return 3.0
    return _arbitrary(in_rule, objective, line)


#: Whole-mechanism bounds that replace the composition formulas, keyed by
#: (in-rule type, over-rule type); ``object`` stands for any in-rule.
MECHANISM_BOUNDS = {
    # lambda-ARL: max(2 + 1/lambda, lambda) for max outer and the rule's inner
    (ThresholdSelectRule, LeftmostRepRule): _threshold_leftmost,
    # arbitrary-median: 5 for avg.max, however the representatives are picked
    (DictatorRule, MedianLineRule): _dictator_median,
    # arbitrary-dictator: 3 for max.max on a line, else 2 + alpha as below
    (DictatorRule, ArbitraryOverRule): _dictator_arbitrary,
    # a fixed district's representative: 2 + alpha for max outer
    (object, ArbitraryOverRule): _arbitrary,
}


def _composable_inner(inner: InnerObjective) -> bool:
    """Whether the additive composition guarantee covers this aggregator."""
    if inner.kind != CUSTOM_KIND:
        return True
    required = {MONOTONE, SUBADDITIVE, CONSISTENT}
    return required.issubset(set(inner.declared_properties))


def claimed_bound(mechanism: Mechanism, objective: ComposedObjective,
                  line: bool = True) -> float | None:
    """Worst-case distortion this package claims for the pair, if any.

    ``line`` says whether instances are drawn from a line metric (the
    default sweep generator); a few claims hold only there. A row of
    ``MECHANISM_BOUNDS`` decides alone; otherwise the in-step factor alpha
    and the over-step factor compose as alpha + beta + alpha*beta, or as
    alpha + 2*gamma + 2*alpha*gamma when the winner must be a representative.
    """
    in_rule, over_rule = mechanism.in_rule, mechanism.over_rule
    if mechanism.line_only and not line:
        return None
    whole = (MECHANISM_BOUNDS.get((type(in_rule), type(over_rule)))
             or MECHANISM_BOUNDS.get((object, type(over_rule))))
    if whole is not None:
        return whole(in_rule, objective, line)

    alpha = _in_factor(in_rule, objective.inner)
    if alpha is None:
        return None
    if mechanism.selection_mode == REPRESENTATIVES_ONLY:
        # the representative-restricted guarantee is only claimed for the
        # two built-in inner aggregators
        if objective.inner.kind not in (AVG_KIND, MAX_KIND):
            return None
        gamma = _over_factor(over_rule, objective.outer)
        if gamma is None:
            return None
        return alpha + 2.0 * gamma + 2.0 * alpha * gamma
    if not _composable_inner(objective.inner):
        return None
    beta = _over_factor(over_rule, objective.outer)
    if beta is None:
        return None
    return alpha + beta + alpha * beta
