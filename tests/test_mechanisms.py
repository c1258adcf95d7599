"""Two-step mechanisms: composition, traces, thresholds, claimed bounds."""

import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings

import districtvote as dv
from districtvote import distortion, mechanisms
from districtvote.objectives import ALL_PROPERTIES

from .strategies import line_instances

EXACT = 1e-12
SQ2 = math.sqrt(2.0)

SHIPPED_SPECS = [
    "compose:optimal,optimal",
    "compose:optimal,optimal,reps-only",
    "compose:plurality-matching,plurality-matching",
    "compose:plurality-matching,arbitrary",
    "compose:plurality-matching,median",
    "arbitrary-median",
    "arbitrary-dictator",
    "arl:2",
]


def make(spec, objective="max.max"):
    return dv.parse_mechanism(spec, dv.parse_objective(objective))


# ---------------------------------------------------------------------------
# running and traces
# ---------------------------------------------------------------------------

def test_worked_run_optimal_optimal(worked):
    # district 0 picks alternative 0 (max 0.5 beats 1.8), district 1 picks
    # alternative 1; the over step sees distances (0, 1.3) and (1.3, 0),
    # a 0.65 average for both, and the tie goes to the lower id
    mech = make("compose:optimal,optimal", "avg.max")
    trace = dv.run(mech, worked)
    assert trace.representatives == (0, 1)
    assert trace.winner == 0
    assert trace.per_step_candidates == ((0, 1), (0, 1))


def _benchmark_spans():
    """The benchmark's tracer module, loaded from ``perfbench/spans.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_sees_every_ordinal_in_step():
    # the tracer patches these names by lookup; renaming one breaks traced runs
    inst = dv.build_line_instance([[0.0, 0.3], [0.5, 0.6], [0.9]], [0.1, 0.5, 0.8])
    recorder = _benchmark_spans().Recorder()
    recorder.install()
    try:
        for spec in ("compose:plurality-matching,plurality-matching",
                     "arbitrary-median"):
            objective = dv.parse_objective("avg.max")
            distortion.evaluate(dv.parse_mechanism(spec, objective), inst, objective)
    finally:
        recorder.uninstall()
    # the rules decide inside ``_select_in`` through ``pick``, which the
    # tracer does not patch; the matching core it does, 3 districts + 1
    calls = recorder.calls
    assert (calls["instances.restrict"], calls["mechanisms.select_in"],
            calls["rules.pm"]) == (6, 6, 4)


def test_single_district_collapse():
    inst = dv.build_line_instance([[0.0, 1.0, 4.0]], [0.5, 4.0])
    for spec in SHIPPED_SPECS:
        mech = make(spec)
        trace = dv.run(mech, inst)
        assert trace.winner == trace.representatives[0], spec
        assert trace.per_step_candidates[1] == (trace.winner,)


def test_winner_can_leave_representative_set():
    # reps are the endpoints but the middle alternative has the best
    # worst-case distance to them
    inst = dv.build_line_instance([[0.0], [4.0]], [0.0, 2.1, 4.0])
    mech = make("compose:optimal,optimal", "max.max")
    trace = dv.run(mech, inst)
    assert trace.representatives == (0, 2)
    assert trace.winner == 1

    restricted = make("compose:optimal,optimal,reps-only", "max.max")
    trace = dv.run(restricted, inst)
    assert trace.representatives == (0, 2)
    assert trace.winner == 0  # max distance ties at 4.0; lower id
    assert trace.per_step_candidates[1] == (0, 2)


@settings(max_examples=100, deadline=None)
@given(line_instances())
def test_reps_only_winner_is_a_representative(inst):
    mech = make("compose:optimal,optimal,reps-only", "avg.avg")
    trace = dv.run(mech, inst)
    assert trace.winner in trace.representatives


@settings(max_examples=60, deadline=None)
@given(line_instances())
def test_run_is_deterministic(inst):
    mech = make("compose:plurality-matching,plurality-matching", "avg.avg")
    assert dv.run(mech, inst) == dv.run(mech, inst)


def test_run_requires_line_for_line_only_mechanisms(euclid_small):
    with pytest.raises(dv.NotLineMetric):
        dv.run(make("arbitrary-median", "avg.max"), euclid_small)
    with pytest.raises(dv.NotLineMetric):
        dv.run(make("arl:2", "max.avg"), euclid_small)
    # matching-based composition has no line requirement
    trace = dv.run(make("compose:plurality-matching,plurality-matching"),
                   euclid_small)
    assert trace.winner in (0, 1)


# ---------------------------------------------------------------------------
# over-step rules
# ---------------------------------------------------------------------------

def test_arbitrary_over_hands_win_to_indexed_district(worked):
    trace = dv.run(dv.arbitrary_over(dv.OptimalRule(dv.MAX), index=0), worked)
    assert trace.winner == trace.representatives[0] == 0
    trace = dv.run(dv.arbitrary_over(dv.OptimalRule(dv.MAX), index=1), worked)
    assert trace.winner == trace.representatives[1] == 1


def test_arbitrary_dictator_trace(worked):
    # district dictators are agents 0 and 2 with tops 0 and 1; the over
    # step hands the win to district 0's representative
    trace = dv.run(make("arbitrary-dictator"), worked)
    assert trace.representatives == (0, 1)
    assert trace.winner == 0


def test_arbitrary_median_trace():
    # dictator tops at axis positions {a, a, b}: the median picks a
    inst = dv.build_line_instance([[0.0], [0.4], [5.0]], [0.0, 5.0])
    trace = dv.run(make("arbitrary-median", "avg.max"), inst)
    assert trace.representatives == (0, 0, 1)
    assert trace.winner == 0


def test_leftmost_rep_rule():
    inst = dv.build_line_instance([[0.0], [5.0]], [0.0, 5.0])
    mech = dv.compose(dv.OptimalRule(dv.AVG), dv.LeftmostRepRule())
    trace = dv.run(mech, inst)
    assert trace.representatives == (0, 1)
    assert trace.winner == 0


# ---------------------------------------------------------------------------
# threshold acceptance
# ---------------------------------------------------------------------------

def test_lambda_acceptable_set_hand_values():
    # district at 0 and 4; alternatives at 0, 5, 10 cost 2, 3, 8 on average
    inst = dv.build_line_instance([[0.0, 4.0]], [0.0, 5.0, 10.0])
    assert dv.lambda_acceptable_set(inst, 0, dv.AVG, 1.0) == (0,)
    assert dv.lambda_acceptable_set(inst, 0, dv.AVG, 1.5) == (0, 1)
    assert dv.lambda_acceptable_set(inst, 0, dv.AVG, 4.0) == (0, 1, 2)


def test_lambda_acceptable_set_boundary_slack():
    # agent at 2 - sqrt(2); alternatives at 0 and 2 cost 2-sqrt(2) and
    # sqrt(2); with threshold 1+sqrt(2) the second cost equals the
    # threshold exactly, up to floating point, and must be accepted
    inst = dv.build_line_instance([[2.0 - SQ2]], [0.0, 2.0])
    assert dv.lambda_acceptable_set(inst, 0, dv.AVG, 1.0 + SQ2) == (0, 1)


def test_lambda_acceptable_set_slack_is_relative():
    # the same geometry shrunk by 1e-12: the slack must not grow with it
    inst = dv.build_line_instance([[0.0, 4e-12]], [0.0, 5e-12, 10e-12])
    assert dv.lambda_acceptable_set(inst, 0, dv.AVG, 1.0) == (0,)
    assert dv.lambda_acceptable_set(inst, 0, dv.AVG, 1.5) == (0, 1)
    tiny = dv.build_line_instance([[2e-12 - SQ2 * 1e-12]], [0.0, 2e-12])
    assert dv.lambda_acceptable_set(tiny, 0, dv.AVG, 1.0 + SQ2) == (0, 1)


@pytest.mark.parametrize("spec,obj_spec", [
    ("arl:2.414213562373095", "max.max"),
    ("arl:4", "max.avg"),
    ("arl:1", "max.max"),
])
def test_threshold_bound_holds_at_tiny_scale(spec, obj_spec):
    # positions in [0, 1e-11]: an absolute acceptance slack swamped the
    # costs here and pushed arl:1+sqrt(2) on max.max to 5.16
    objective = dv.parse_objective(obj_spec)
    mech = dv.parse_mechanism(spec, objective)
    spec_gen = dv.GeneratorSpec(low=0.0, high=1e-11)
    result = dv.sweep(mech, objective, generator=spec_gen, trials=3000, seed=0)
    assert result.max_ratio <= dv.claimed_bound(mech, objective) + 1e-9


def test_threshold_bound_beyond_float_range_is_silent_and_accepts_all():
    # 2 * 1e308 overflows: the bound is +inf, and every finite cost lies below it
    inst = dv.build_line_instance([[0.0]], [1e308, 1.5e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert dv.lambda_acceptable_set(inst, 0, dv.MAX, 2.0) == (0, 1)
        assert dv.run(dv.parse_mechanism("arl:2,max"), inst).winner == 1
        result = dv.sweep(dv.parse_mechanism("arl:2,max"),
                          dv.parse_objective("max.max"),
                          dv.GeneratorSpec(high=1.5e308), trials=200)
    assert 1.0 <= result.max_ratio <= 2.5


def test_lambda_acceptable_set_errors(worked):
    with pytest.raises(dv.LambdaBelowOne):
        dv.lambda_acceptable_set(worked, 0, dv.AVG, 0.9)
    with pytest.raises(dv.IndexOutOfRange):
        dv.lambda_acceptable_set(worked, 7, dv.AVG, 2.0)


def test_threshold_mechanism_picks_rightmost_then_leftmost():
    # two districts; each accepts both alternatives at lambda 4, so both
    # representatives are the rightmost alternative
    inst = dv.build_line_instance([[0.9], [1.1]], [0.0, 2.0])
    trace = dv.run(dv.lambda_arl(4.0), inst)
    assert trace.representatives == (1, 1)
    assert trace.winner == 1


def test_threshold_boundary_flips_representative():
    # the boundary case: all agents prefer alternative 0 but the rightmost
    # acceptable alternative is 1
    inst = dv.build_line_instance([[2.0 - SQ2]], [0.0, 2.0])
    trace = dv.run(dv.lambda_arl(1.0 + SQ2), inst)
    assert inst.profile().tops.tolist() == [0]
    assert trace.representatives == (1,)
    assert trace.winner == 1


def test_threshold_lambda_one_collapses_to_optimum():
    inst = dv.build_line_instance([[0.0, 1.0], [6.0]], [0.4, 6.0])
    trace = dv.run(dv.lambda_arl(1.0), inst)
    assert trace.representatives == (0, 1)
    assert trace.winner == 0  # leftmost representative


def test_threshold_rightmost_ties_break_by_id():
    inst = dv.build_line_instance([[1.0]], [2.0, 2.0])
    trace = dv.run(dv.lambda_arl(2.0), inst)
    assert trace.winner == 0


def test_lambda_arl_rejects_bad_lambda():
    with pytest.raises(dv.LambdaBelowOne):
        dv.lambda_arl(0.5)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_non_finite_lambda_is_rejected(worked, lam):
    # with lambda inf, a district whose best cost is 0 has inf * 0 = NaN as
    # its acceptance threshold, so nothing would be acceptable
    message = f"threshold {lam} must be a finite number >= 1"
    with pytest.raises(dv.LambdaBelowOne, match=message):
        dv.lambda_arl(lam)
    with pytest.raises(dv.LambdaBelowOne, match=message):
        dv.lambda_acceptable_set(worked, 0, dv.AVG, lam)


def test_lambda_arl_not_unanimous_flag():
    assert dv.lambda_arl(2.0).unanimous is False
    for spec in SHIPPED_SPECS:
        if spec.startswith("arl"):
            continue
        assert make(spec).unanimous is True, spec


def test_lambda_arl_accepts_power_mean():
    mech = dv.lambda_arl(2.0, dv.power_mean(2))
    assert mech.spec == "arl:2,pmean:2"


def test_lambda_arl_rejects_nearest_agent_inner():
    # distance to the nearest agent is not subadditive, and the sampled
    # check catches that before the line probes even run; declaring the
    # properties does not bypass validation
    nearest = dv.InnerObjective(kind="custom", name="nearest",
                                fn=lambda v: float(np.min(v)),
                                declared_properties=("monotone",
                                                     "subadditive",
                                                     "consistent",
                                                     "single_peaked"))
    with pytest.raises(dv.PropertyCheckFailed) as exc:
        dv.lambda_arl(2.0, nearest)
    assert exc.value.property_name == "subadditive"


@pytest.mark.parametrize("declared", [frozenset(), ALL_PROPERTIES])
def test_lambda_arl_rejects_inner_named_like_power_mean(declared):
    # trust goes by kind: borrowing the name, even with every property
    # declared, earns nothing, and the impostor does not compare equal
    impostor = dv.InnerObjective(kind="custom", name="pmean:2",
                                 fn=lambda v: float(np.sum(v)) ** 2,
                                 declared_properties=declared)
    assert impostor != dv.power_mean(2)
    with pytest.raises(dv.PropertyCheckFailed) as exc:
        dv.lambda_arl(2.0, impostor)
    assert exc.value.property_name == "subadditive"


def test_lambda_arl_trusts_built_in_power_means(monkeypatch):
    def no_checks(*args, **kwargs):
        raise AssertionError("a built-in power mean was property-checked")

    monkeypatch.setattr(mechanisms, "run_property_checks", no_checks)
    monkeypatch.setattr(mechanisms, "check_single_peaked", no_checks)
    assert dv.parse_mechanism("arl:2,pmean:2").spec == "arl:2,pmean:2"
    objective = dv.parse_objective("max.pmean:3")
    assert dv.parse_mechanism("arl:1", objective).in_rule.inner is objective.inner
    assert dv.power_mean(2.5) is dv.power_mean(2.5)


def test_lambda_arl_probes_catch_sneaky_inner():
    # a spike at one exact coordinate value slips past the random sampled
    # checks but the deterministic line probes evaluate on a grid that
    # contains it, so the single-peakedness scan still rejects the function
    def spiky(v):
        base = float(np.mean(v))
        if abs(v[0] - 5.0) < 1e-9:
            return base + 3.0
        return base

    inner = dv.InnerObjective(kind="custom", name="spiky", fn=spiky)
    with pytest.raises(dv.PropertyCheckFailed) as exc:
        dv.lambda_arl(2.0, inner)
    assert exc.value.property_name == "single_peaked"


def test_lambda_arl_rejects_non_subadditive_inner():
    squared = dv.InnerObjective(kind="custom", name="squared-sum",
                                fn=lambda v: float(np.sum(v)) ** 2)
    with pytest.raises(dv.PropertyCheckFailed):
        dv.lambda_arl(2.0, squared)


# ---------------------------------------------------------------------------
# unanimity
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(line_instances(max_agents=8, max_alternatives=4, max_districts=3))
def test_unanimous_mechanisms_respect_unanimity(inst):
    profile = inst.profile()
    top = int(profile.tops[0])
    assume(np.all(profile.tops == top))
    for spec in SHIPPED_SPECS:
        if spec.startswith("arl"):
            continue
        trace = dv.run(make(spec), inst)
        assert trace.winner == top, spec


def test_unanimity_concrete():
    # every agent is nearest to alternative 1
    inst = dv.build_line_instance([[2.9, 3.1], [3.0]], [0.0, 3.0, 9.0])
    for spec in SHIPPED_SPECS:
        if spec.startswith("arl"):
            continue
        assert dv.run(make(spec), inst).winner == 1, spec


# ---------------------------------------------------------------------------
# parsing and spec strings
# ---------------------------------------------------------------------------

def test_parse_round_trips():
    objective = dv.parse_objective("max.max")
    for spec in SHIPPED_SPECS:
        mech = dv.parse_mechanism(spec, objective)
        expected = spec if not spec.startswith("arl") else "arl:2,max"
        assert mech.spec == expected


def test_parse_arl_binds_objective_inner():
    mech = dv.parse_mechanism("arl:2", dv.parse_objective("max.pmean:2"))
    assert mech.spec == "arl:2,pmean:2"
    mech = dv.parse_mechanism("arl:2,avg")
    assert mech.spec == "arl:2,avg"


def test_parse_optimal_binds_objective_aggregators():
    for spec in ("avg.max", "max.pmean:2"):
        objective = dv.parse_objective(spec)
        mech = dv.parse_mechanism("compose:optimal,optimal", objective)
        assert mech.in_rule.inner is objective.inner
        assert mech.over_rule.inner is objective.outer


def test_parse_errors():
    objective = dv.parse_objective("avg.avg")
    for bad in ("compose:bogus,optimal", "compose:optimal", "mystery",
                "arl:", "compose:optimal,optimal,extra,reps-only"):
        with pytest.raises(ValueError):
            dv.parse_mechanism(bad, objective)
    with pytest.raises(ValueError):
        dv.parse_mechanism("compose:optimal,optimal")  # needs objective
    with pytest.raises(ValueError):
        dv.parse_mechanism("arl:2")  # needs objective for the inner
    with pytest.raises(dv.LambdaBelowOne):
        dv.parse_mechanism("arl:0.5", objective)


def test_parse_arbitrary_index_and_dictator_index():
    objective = dv.parse_objective("max.max")
    mech = dv.parse_mechanism("compose:dictator:1,arbitrary:1", objective)
    assert mech.in_rule.dictator_index == 1
    assert mech.over_rule.index == 1


def test_compose_rejects_bad_mode():
    with pytest.raises(ValueError):
        dv.compose(dv.OptimalRule(dv.AVG), dv.OptimalRule(dv.AVG),
                   selection_mode="sideways")


# ---------------------------------------------------------------------------
# claimed bounds
# ---------------------------------------------------------------------------

BOUND_TABLE = [
    ("compose:optimal,optimal", "avg.avg", 3.0),
    ("compose:optimal,optimal", "avg.max", 3.0),
    ("compose:optimal,optimal", "max.max", 3.0),
    ("compose:optimal,optimal", "max.avg", 3.0),
    ("compose:optimal,optimal", "max.pmean:2", 3.0),
    ("compose:optimal,optimal,reps-only", "avg.avg", 5.0),
    ("compose:optimal,optimal,reps-only", "max.avg", 5.0),
    ("compose:optimal,optimal,reps-only", "max.pmean:2", None),
    ("compose:plurality-matching,plurality-matching", "avg.avg", 11.0),
    ("compose:plurality-matching,plurality-matching", "max.max", 11.0),
    ("compose:plurality-matching,plurality-matching", "max.pmean:2", None),
    ("compose:plurality-matching,arbitrary", "max.avg", 5.0),
    ("compose:plurality-matching,arbitrary", "max.max", 5.0),
    ("compose:plurality-matching,arbitrary", "avg.avg", None),
    ("compose:plurality-matching,median", "avg.avg", 7.0),
    ("compose:plurality-matching,median", "avg.max", 7.0),
    ("compose:plurality-matching,median", "max.max", None),
    ("arbitrary-median", "avg.max", 5.0),
    ("arbitrary-median", "avg.avg", None),
    ("arbitrary-dictator", "max.max", 3.0),
    ("arbitrary-dictator", "max.avg", None),
    ("arl:1", "max.max", 3.0),
    ("arl:2", "max.max", 2.5),
    ("arl:2", "max.avg", 2.5),
    ("arl:2", "avg.max", None),
    ("arl:4", "max.max", 4.0),
]


@pytest.mark.parametrize("mech_spec,obj_spec,expected", BOUND_TABLE)
def test_claimed_bound_table(mech_spec, obj_spec, expected):
    objective = dv.parse_objective(obj_spec)
    mech = dv.parse_mechanism(mech_spec, objective)
    assert dv.claimed_bound(mech, objective) == expected


def test_claimed_bound_arl_matches_formula():
    for lam in (1.0, 2.0, 1.0 + SQ2, 4.0):
        objective = dv.parse_objective("max.avg")
        mech = dv.lambda_arl(lam)
        expected = max(2.0 + 1.0 / lam, lam)
        assert dv.claimed_bound(mech, objective) == pytest.approx(
            expected, abs=EXACT)


def test_claimed_bound_off_line():
    obj = dv.parse_objective("max.max")
    # line-only mechanisms claim nothing off the line
    assert dv.claimed_bound(make("arl:2"), obj, line=False) is None
    assert dv.claimed_bound(
        make("arbitrary-median", "avg.max"),
        dv.parse_objective("avg.max"), line=False) is None
    # metric-free claims survive
    assert dv.claimed_bound(make("compose:optimal,optimal"), obj,
                            line=False) == 3.0
    assert dv.claimed_bound(
        make("compose:plurality-matching,arbitrary"), obj,
        line=False) == 5.0
    # the dictator-arbitrary 3 needs the line; off it only 2+3 remains
    assert dv.claimed_bound(make("arbitrary-dictator"), obj,
                            line=False) == 5.0


# ---------------------------------------------------------------------------
# the per-instance composition inequality
# ---------------------------------------------------------------------------

def measured_step_ratios(inst, trace, objective):
    """Actual in-step and over-step distortions realized on one instance."""
    alpha = 1.0
    for d in range(inst.num_districts):
        rep_cost = dv.inner_cost(inst, d, objective.inner,
                                 trace.representatives[d])
        best = min(dv.inner_cost(inst, d, objective.inner, a)
                   for a in range(inst.num_alternatives))
        if best == 0.0:
            if rep_cost > 0.0:
                return None
        else:
            alpha = max(alpha, rep_cost / best)
    reps = np.array(trace.representatives)
    distances = inst.alt_alt[reps]
    pseudo_costs = (distances.mean(axis=0) if objective.outer.kind == "avg"
                    else distances.max(axis=0))
    best = float(pseudo_costs.min())
    winner_cost = float(pseudo_costs[trace.winner])
    if best == 0.0:
        if winner_cost > 0.0:
            return None
        beta = 1.0
    else:
        beta = winner_cost / best
    return alpha, beta


@settings(max_examples=150, deadline=None)
@given(line_instances(max_agents=8, max_alternatives=5, max_districts=4))
def test_composition_inequality_per_instance(inst):
    assume(inst.num_districts >= 2)
    for obj_spec in ("avg.avg", "avg.max", "max.max", "max.avg"):
        objective = dv.parse_objective(obj_spec)
        mech = make("compose:plurality-matching,plurality-matching", obj_spec)
        trace = dv.run(mech, inst)
        steps = measured_step_ratios(inst, trace, objective)
        if steps is None:
            continue
        alpha, beta = steps
        report = dv.evaluate(mech, inst, objective)
        if report.infinite:
            continue
        assert report.ratio <= alpha + beta + alpha * beta + 1e-9
