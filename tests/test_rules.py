"""In-district and over-districts rules against hand values and oracles."""

import numpy as np
import networkx as nx
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import districtvote as dv

from .strategies import line_instances, ranking_profiles

EXACT = 1e-12


# ---------------------------------------------------------------------------
# independent slot-matching oracle (networkx maximum matching, slots expanded)
# ---------------------------------------------------------------------------

def admits_matching(rankings, a: int) -> bool:
    """Whether every voter can occupy a distinct top-choice slot it accepts.

    Slot t is replicated once per voter whose favorite is t; voter i accepts
    the slots it ranks no higher than a.
    """
    rankings = np.asarray(rankings)
    n, m = rankings.shape
    rank_of = np.empty_like(rankings)
    for i in range(n):
        rank_of[i, rankings[i]] = np.arange(m)
    capacity = np.bincount(rankings[:, 0], minlength=m)
    graph = nx.Graph()
    voters = [("v", i) for i in range(n)]
    graph.add_nodes_from(voters)
    for t in range(m):
        for c in range(capacity[t]):
            graph.add_node(("s", t, c))
    for i in range(n):
        for t in range(m):
            if capacity[t] > 0 and rank_of[i, a] <= rank_of[i, t]:
                for c in range(capacity[t]):
                    graph.add_edge(("v", i), ("s", t, c))
    matching = nx.bipartite.maximum_matching(graph, top_nodes=voters)
    return sum(1 for node in matching if node[0] == "v") == n


def matching_winner_oracle(rankings) -> int:
    """Brute-force reimplementation of the matching-based winner.

    Candidates scan in ascending id order; the first admitting a matching wins.
    """
    for a in range(np.shape(rankings)[1]):
        if admits_matching(rankings, a):
            return a
    raise AssertionError("no alternative admits a saturating matching")


def plurality_veto_winner(rankings) -> int:
    """Plurality Veto (Kizilkaya and Kempe, IJCAI 2022).

    Each alternative starts with its plurality score. Voters in row order
    veto (decrement) their least-preferred alternative whose score is still
    positive; the alternative vetoed last wins.
    """
    rankings = np.asarray(rankings)
    score = np.bincount(rankings[:, 0], minlength=rankings.shape[1])
    for row in rankings:
        vetoed = next(int(t) for t in row[::-1] if score[t] > 0)
        score[vetoed] -= 1
    return vetoed


# rows drawn up to the sizes a euclidean sweep hands the rule (dozens of
# voters, up to 12 classes), next to the small default profiles
PROFILES = st.one_of(ranking_profiles(),
                     ranking_profiles(max_voters=40, max_candidates=12))


def test_matching_rule_three_voter_example():
    # v0: 0 > 1 > 2, v1: 1 > 0 > 2, v2: 1 > 2 > 0.
    # Candidate 0 fails: v1 and v2 both need the single slot of alternative 0.
    # Candidate 1 succeeds: v0 -> slot(1), v1 -> slot(1), v2 -> slot(0).
    profile = dv.OrdinalProfile([[0, 1, 2], [1, 0, 2], [1, 2, 0]])
    assert dv.plurality_matching_rule(profile) == 1
    assert matching_winner_oracle(profile.rankings) == 1


def test_matching_rule_single_voter():
    profile = dv.OrdinalProfile([[2, 0, 1]])
    assert dv.plurality_matching_rule(profile) == 2


def test_matching_rule_unanimous():
    profile = dv.OrdinalProfile([[1, 0], [1, 0], [1, 0]])
    assert dv.plurality_matching_rule(profile) == 1


def test_matching_rule_needs_augmenting_path():
    # five voters, three alternatives; the greedy (non-augmenting)
    # assignment for candidate 0 gets stuck but a reshuffle succeeds
    rows = [
        [0, 1, 2],
        [1, 0, 2],
        [1, 2, 0],
        [2, 1, 0],
        [2, 0, 1],
    ]
    profile = dv.OrdinalProfile(rows)
    assert (dv.plurality_matching_rule(profile)
            == matching_winner_oracle(rows))


def test_matching_rule_empty_profile():
    with pytest.raises(dv.EmptyVoterSet):
        dv.plurality_matching_rule(dv.OrdinalProfile(np.empty((0, 2),
                                                              dtype=int)))


@settings(max_examples=300, deadline=None)
@given(PROFILES)
def test_matching_rule_agrees_with_oracle(profile):
    assert (dv.plurality_matching_rule(profile)
            == matching_winner_oracle(profile.rankings))


@settings(max_examples=300, deadline=None)
@given(PROFILES)
def test_matching_rule_bounded_by_plurality_veto(profile):
    # the PV winner always admits a matching, so the lowest-id scan stops
    # at or before it
    veto = plurality_veto_winner(profile.rankings)
    assert admits_matching(profile.rankings, veto)
    assert dv.plurality_matching_rule(profile) <= veto


@settings(max_examples=120, deadline=None)
@given(line_instances(max_agents=8, max_alternatives=5, max_districts=1))
def test_matching_rule_on_metric_profiles(inst):
    profile = inst.profile()
    assert (dv.plurality_matching_rule(profile)
            == matching_winner_oracle(profile.rankings))


def test_matching_rule_nonlocal_candidate_ids():
    # candidate ids need not be 0..m-1: over-step profiles offer a subset
    profile = dv.OrdinalProfile(np.array([[7, 3], [3, 7], [7, 3]]))
    assert dv.plurality_matching_rule(profile) == 7
    profile = dv.OrdinalProfile(np.array([[5], [5]]))
    assert dv.plurality_matching_rule(profile) == 5


# ---------------------------------------------------------------------------
# median on the line
# ---------------------------------------------------------------------------

def _line_profile(alt_positions, peaks):
    """A profile whose voters' tops are exactly ``peaks`` (alternative ids)."""
    inst = dv.build_line_instance(
        [[alt_positions[p] for p in peaks]], alt_positions)
    return inst.profile()


def _median(profile, peaks=None):
    return dv.MedianLineRule.pick(dv.Electorate.of(profile, peaks))


def test_median_lower_of_odd_peaks():
    profile = _line_profile([0.0, 1.0, 3.0], [0, 0, 2])
    assert _median(profile) == 0


def test_median_lower_of_even_peaks():
    profile = _line_profile([0.0, 1.0, 3.0], [0, 2])
    assert _median(profile) == 0
    profile = _line_profile([0.0, 1.0, 3.0], [2, 2, 0, 0])
    assert _median(profile) == 0


def test_median_uses_axis_not_ids():
    # id 0 sits right of id 1 on the axis
    profile = _line_profile([3.0, 1.0], [0, 1, 1])
    assert _median(profile) == 1


def test_median_explicit_peaks_override(worked):
    profile = worked.profile()
    assert _median(profile, [1, 1, 0]) == 1


@settings(max_examples=120, deadline=None)
@given(line_instances(max_agents=9, max_alternatives=5))
def test_median_minimizes_total_peak_distance(inst):
    profile = inst.profile()
    winner = _median(profile)
    alt_pos = inst.alternative_points
    peak_pos = alt_pos[profile.tops]
    totals = np.abs(peak_pos[:, None] - alt_pos[None, :]).sum(axis=0)
    assert totals[winner] <= totals.min() + 1e-9


def test_picks_decide_each_row_of_a_block():
    # two rows over an axis each; pads past a row's count never decide
    electorate = dv.Electorate(np.array([[2, 0, 1], [1, 0, 0]]), np.array([3, 1]),
                               np.array([[1, 2, 0], [0, 1, 2]]))
    assert dv.MedianLineRule.pick(electorate).tolist() == [2, 1]
    assert dv.LeftmostRepRule.pick(electorate).tolist() == [1, 1]
    assert dv.DictatorRule(0).pick(electorate).tolist() == [2, 1]
    assert dv.ArbitraryOverRule(0).pick(electorate).tolist() == [2, 1]


# ---------------------------------------------------------------------------
# dictator
# ---------------------------------------------------------------------------

def test_dictator_returns_top(worked):
    electorate = dv.Electorate.of(worked.profile())
    assert dv.DictatorRule().pick(electorate) == 0
    assert dv.DictatorRule(2).pick(electorate) == 1


# ---------------------------------------------------------------------------
# errors raised from the picks
# ---------------------------------------------------------------------------

#: (rule, profile, peaks, error, message); "worked" is the worked instance's
#: profile, "no axis" an off-line profile and "no voters" an empty one.
PICK_ERRORS = [
    pytest.param(dv.MedianLineRule(), "no axis", None, dv.MissingAxis,
                 "median rule needs the line ordering of alternatives",
                 id="median-missing-axis"),
    pytest.param(dv.LeftmostRepRule(), "no axis", [0], dv.MissingAxis,
                 "leftmost rule needs the line ordering of alternatives",
                 id="leftmost-missing-axis"),
    pytest.param(dv.MedianLineRule(), "worked", [0, 5], dv.IndexOutOfRange,
                 "peak 5 is not on the line axis", id="median-off-axis"),
    pytest.param(dv.LeftmostRepRule(), "worked", [0, 5], dv.IndexOutOfRange,
                 "peak 5 is not on the line axis", id="leftmost-off-axis"),
    pytest.param(dv.MedianLineRule(), "worked", [], dv.EmptyVoterSet,
                 "median rule needs at least one peak", id="median-empty"),
    pytest.param(dv.LeftmostRepRule(), "worked", [], dv.EmptyVoterSet,
                 "leftmost rule needs representatives", id="leftmost-empty"),
    pytest.param(dv.DictatorRule(), "no voters", None, dv.EmptyVoterSet,
                 "dictator rule needs at least one voter", id="dictator-empty"),
    pytest.param(dv.DictatorRule(3), "worked", None, dv.IndexOutOfRange,
                 "dictator index 3 out of range for 3 voters",
                 id="dictator-index-past-end"),
    pytest.param(dv.DictatorRule(-1), "worked", None, dv.IndexOutOfRange,
                 "dictator index -1 out of range for 3 voters",
                 id="dictator-index-negative"),
    pytest.param(dv.ArbitraryOverRule(), "worked", [], dv.EmptyVoterSet,
                 "arbitrary over rule needs representatives", id="arbitrary-empty"),
    pytest.param(dv.ArbitraryOverRule(2), "worked", [0, 1], dv.IndexOutOfRange,
                 "district index 2 out of range for 2 districts",
                 id="arbitrary-index-past-end"),
    pytest.param(dv.PluralityMatchingRule(), "no voters", None, dv.EmptyVoterSet,
                 "plurality matching needs at least one voter",
                 id="plurality-matching-empty"),
]


@pytest.mark.parametrize("rule, profile, peaks, error, message", PICK_ERRORS)
def test_pick_errors(worked, rule, profile, peaks, error, message):
    profile = {"worked": worked.profile(),
               "no axis": dv.OrdinalProfile([[0, 1]]),
               "no voters": dv.OrdinalProfile(np.empty((0, 2), dtype=int))}[profile]
    with pytest.raises(error) as raised:
        rule.pick(dv.Electorate.of(profile, peaks))
    assert str(raised.value) == message


# ---------------------------------------------------------------------------
# the exact-minimizer rule
# ---------------------------------------------------------------------------

def _optimal(instance, inner):
    """The optimal rule's pick for each district of the instance."""
    return dv.OptimalRule(inner).pick(dv.district_aggregates(instance, inner),
                                      None).tolist()


def test_optimal_rule_worked(worked):
    assert _optimal(worked, dv.MAX)[0] == 0
    assert _optimal(worked, dv.AVG) == [0, 1]


def test_optimal_rule_tie_to_lowest_id():
    inst = dv.build_line_instance([[1.0]], [0.5, 1.5])
    assert _optimal(inst, dv.AVG) == [0]


@settings(max_examples=100, deadline=None)
@given(line_instances(max_districts=1))
def test_optimal_rule_matches_exhaustive_optimum(inst):
    for inner_spec in ("avg", "max"):
        inner = dv.parse_inner(inner_spec)
        objective = dv.parse_objective(f"avg.{inner_spec}")
        assert _optimal(inst, inner) == [dv.optimal_alternative(inst, objective)[0]]


# ---------------------------------------------------------------------------
# rule metadata
# ---------------------------------------------------------------------------

def test_rule_metadata():
    opt = dv.OptimalRule(dv.AVG)
    assert opt.info == dv.CARDINAL and opt.unanimous and not opt.line_only
    assert opt.name == "optimal"

    med = dv.MedianLineRule()
    assert med.info == dv.ORDINAL and med.unanimous and med.line_only
    assert med.name == "median"

    pm = dv.PluralityMatchingRule()
    assert pm.info == dv.ORDINAL and pm.unanimous and not pm.line_only
    assert pm.name == "plurality-matching"

    dic = dv.DictatorRule()
    assert dic.info == dv.ORDINAL and dic.unanimous and not dic.line_only
    assert dic.name == "dictator"
    assert dv.DictatorRule(2).name == "dictator:2"


def test_claimed_factors():
    from districtvote.mechanisms import IN_FACTORS, OVER_FACTORS, SAME
    assert IN_FACTORS == {
        (dv.OptimalRule, SAME): 1.0,
        (dv.PluralityMatchingRule, "avg"): 3.0,
        (dv.PluralityMatchingRule, "max"): 3.0,
        (dv.DictatorRule, "max"): 3.0,
    }
    assert OVER_FACTORS == {
        (dv.OptimalRule, SAME): 1.0,
        (dv.MedianLineRule, "avg"): 1.0,
        (dv.PluralityMatchingRule, "avg"): 2.0,
        (dv.PluralityMatchingRule, "max"): 2.0,
    }
