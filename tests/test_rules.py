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


def test_median_lower_of_odd_peaks():
    profile = _line_profile([0.0, 1.0, 3.0], [0, 0, 2])
    assert dv.median_line_rule(profile) == 0


def test_median_lower_of_even_peaks():
    profile = _line_profile([0.0, 1.0, 3.0], [0, 2])
    assert dv.median_line_rule(profile) == 0
    profile = _line_profile([0.0, 1.0, 3.0], [2, 2, 0, 0])
    assert dv.median_line_rule(profile) == 0


def test_median_uses_axis_not_ids():
    # id 0 sits right of id 1 on the axis
    profile = _line_profile([3.0, 1.0], [0, 1, 1])
    assert dv.median_line_rule(profile) == 1


def test_median_explicit_peaks_override(worked):
    profile = worked.profile()
    assert dv.median_line_rule(profile, [1, 1, 0]) == 1


def test_median_requires_axis():
    profile = dv.OrdinalProfile([[0, 1]])
    with pytest.raises(dv.MissingAxis):
        dv.median_line_rule(profile)


def test_median_rejects_off_axis_peak(worked):
    with pytest.raises(dv.IndexOutOfRange):
        dv.median_line_rule(worked.profile(), [0, 5])


def test_leftmost_rejects_off_axis_peak(worked):
    with pytest.raises(dv.IndexOutOfRange):
        dv.LeftmostRepRule().select_ordinal(worked.profile(), [0, 5])


def test_median_empty():
    profile = _line_profile([0.0, 1.0], [0])
    with pytest.raises(dv.EmptyVoterSet):
        dv.median_line_rule(profile, [])


@settings(max_examples=120, deadline=None)
@given(line_instances(max_agents=9, max_alternatives=5))
def test_median_minimizes_total_peak_distance(inst):
    profile = inst.profile()
    winner = dv.median_line_rule(profile)
    alt_pos = inst.alternative_points
    peak_pos = alt_pos[profile.tops]
    totals = np.abs(peak_pos[:, None] - alt_pos[None, :]).sum(axis=0)
    assert totals[winner] <= totals.min() + 1e-9


# ---------------------------------------------------------------------------
# dictator
# ---------------------------------------------------------------------------

def test_dictator_returns_top(worked):
    profile = worked.profile()
    assert dv.dictator_rule(profile) == 0
    assert dv.dictator_rule(profile, 2) == 1


def test_dictator_bad_index(worked):
    with pytest.raises(dv.IndexOutOfRange):
        dv.dictator_rule(worked.profile(), 3)
    with pytest.raises(dv.IndexOutOfRange):
        dv.dictator_rule(worked.profile(), -1)


def test_dictator_empty():
    with pytest.raises(dv.EmptyVoterSet):
        dv.dictator_rule(dv.OrdinalProfile(np.empty((0, 2), dtype=int)))


# ---------------------------------------------------------------------------
# the exact-minimizer rule
# ---------------------------------------------------------------------------

def test_optimal_rule_worked(worked):
    assert dv.optimal_rule(worked, [0, 1], dv.MAX) == 0
    assert dv.optimal_rule(worked, [0, 1], dv.AVG) == 0
    assert dv.optimal_rule(worked, [2], dv.AVG) == 1


def test_optimal_rule_tie_to_lowest_id():
    inst = dv.build_line_instance([[1.0]], [0.5, 1.5])
    assert dv.optimal_rule(inst, [0], dv.AVG) == 0


def test_optimal_rule_empty(worked):
    with pytest.raises(dv.EmptyVoterSet):
        dv.optimal_rule(worked, [], dv.AVG)


def test_optimal_rule_bad_voter(worked):
    with pytest.raises(dv.IndexOutOfRange):
        dv.optimal_rule(worked, [5], dv.AVG)


@settings(max_examples=100, deadline=None)
@given(line_instances(max_districts=1))
def test_optimal_rule_matches_exhaustive_optimum(inst):
    for inner_spec in ("avg", "max"):
        inner = dv.parse_inner(inner_spec)
        pick = dv.optimal_rule(inst, range(inst.num_agents), inner)
        objective = dv.parse_objective(f"avg.{inner_spec}")
        assert pick == dv.optimal_alternative(inst, objective)[0]


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
