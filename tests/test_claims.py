"""Claimed bounds: the claim table, and ``claimed_bound`` on a recorded grid.

``data/claimed_bounds.json`` holds ``claimed_bound`` for every cell of
:func:`grid`, recorded from the implementation that kept the claims in
per-rule methods. The table must reproduce it exactly.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import districtvote as dv
from districtvote.objectives import ALL_PROPERTIES

RECORD = Path(__file__).with_name("data") / "claimed_bounds.json"

IN_TOKENS = ("optimal", "plurality-matching", "median", "dictator", "dictator:1")
OVER_TOKENS = ("optimal", "plurality-matching", "median", "dictator",
               "arbitrary", "arbitrary:1", "leftmost")
OTHER_SPECS = ("arbitrary-median", "arbitrary-dictator", "arl:1", "arl:2",
               "arl:2.414213562373095", "arl:4", "arl:2,avg", "arl:2,max",
               "arl:2,pmean:2")
OBJECTIVES = tuple(f"{outer}.{inner}" for outer in ("avg", "max")
                   for inner in ("avg", "max", "pmean:1", "pmean:2", "pmean:3"))


def grid():
    """(mechanism spec, objective spec, line, claimed bound) for every cell."""
    specs = [f"compose:{a},{b}{mode}" for a in IN_TOKENS for b in OVER_TOKENS
             for mode in ("", ",reps-only")]
    rows = []
    for spec in specs + list(OTHER_SPECS):
        for obj_spec in OBJECTIVES:
            objective = dv.parse_objective(obj_spec)
            mechanism = dv.parse_mechanism(spec, objective)
            for line in (True, False):
                rows.append([spec, obj_spec, line,
                             dv.claimed_bound(mechanism, objective, line=line)])
    return rows


def test_claimed_bound_matches_recorded_grid():
    recorded = json.loads(RECORD.read_text())
    assert len(recorded) == 1580
    assert grid() == recorded


OVER_RULES_BUT_LEFTMOST = (
    dv.DictatorRule(), dv.OptimalRule(dv.MAX), dv.OptimalRule(dv.AVG),
    dv.PluralityMatchingRule(), dv.MedianLineRule(), dv.ArbitraryOverRule(),
    dv.ArbitraryOverRule(1),
)


@pytest.mark.parametrize("over_rule", OVER_RULES_BUT_LEFTMOST,
                         ids=lambda rule: rule.name)
def test_threshold_claim_needs_leftmost_over(over_rule):
    for obj_spec in ("max.max", "max.avg", "avg.max", "avg.avg"):
        objective = dv.parse_objective(obj_spec)
        for mode in (dv.ALL_ALTERNATIVES, dv.REPRESENTATIVES_ONLY):
            mechanism = dv.compose(dv.ThresholdSelectRule(2.0, objective.inner),
                                   over_rule, mode)
            assert dv.claimed_bound(mechanism, objective) is None


def test_threshold_then_dictator_breaks_the_leftmost_bound():
    # why the claim needs the leftmost over step
    mechanism = dv.compose(dv.ThresholdSelectRule(2.0, dv.MAX), dv.DictatorRule())
    result = dv.sweep(mechanism, dv.MAX_MAX, trials=3000, seed=0)
    assert result.max_ratio > 2.5 + 0.5


def test_optimal_rule_claims_only_its_own_aggregator():
    # reachable only from Python: an optimal rule bound to another aggregator
    avg_inside = dv.compose(dv.OptimalRule(dv.AVG), dv.OptimalRule(dv.MAX))
    assert dv.claimed_bound(avg_inside, dv.MAX_MAX) is None
    assert dv.claimed_bound(avg_inside, dv.MAX_AVG) == 3.0
    avg_over = dv.compose(dv.OptimalRule(dv.MAX), dv.OptimalRule(dv.AVG))
    assert dv.claimed_bound(avg_over, dv.MAX_MAX) is None
    assert dv.claimed_bound(avg_over, dv.AVG_MAX) == 3.0
    # the inner must match by name, not only by kind
    pmean3 = dv.ComposedObjective(dv.MAX_MAX.outer, dv.power_mean(3))
    other_pmean = dv.compose(dv.OptimalRule(dv.power_mean(2)), dv.OptimalRule(dv.MAX))
    assert dv.claimed_bound(other_pmean, pmean3) is None


def test_composition_needs_a_cost_like_inner():
    # a custom inner composes only when it declares the three properties
    bare = dv.InnerObjective(kind="custom", name="bare", fn=np.mean)
    declared = dv.InnerObjective(kind="custom", name="declared", fn=np.mean,
                                 declared_properties=ALL_PROPERTIES)
    for inner, expected in ((bare, None), (declared, 3.0)):
        objective = dv.ComposedObjective(dv.MAX_MAX.outer, inner)
        mechanism = dv.compose(dv.OptimalRule(inner), dv.OptimalRule(dv.MAX))
        assert dv.claimed_bound(mechanism, objective) == expected


def test_unknown_rules_claim_nothing():
    class Stub:
        name, info, unanimous, line_only = "stub", dv.ORDINAL, True, False

    for pair in ((Stub(), dv.OptimalRule(dv.MAX)), (dv.OptimalRule(dv.MAX), Stub())):
        assert dv.claimed_bound(dv.compose(*pair), dv.MAX_MAX) is None
