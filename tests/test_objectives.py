"""Composed objectives, costs, the optimal alternative, and property checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import districtvote as dv
from districtvote import objectives
from districtvote.mechanisms import _PEAK_PROBES, _representatives
from districtvote.objectives import (
    AVG_AVG,
    AVG_MAX,
    EXACT_TOL,
    MAX_AVG,
    MAX_MAX,
    USER_TOL,
)

from .strategies import line_instances

EXACT = 1e-12

vectors = st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1,
                   max_size=10).map(np.array)


# ---------------------------------------------------------------------------
# hand-computed costs on the worked instance
# ---------------------------------------------------------------------------
# district 0 distances: alt0 (0.5, 0.5), alt1 (1.8, 0.8); district 1: 1.5, 0.2
#   avg.avg: alt0 (0.5+1.5)/2 = 1.0     alt1 (1.3+0.2)/2 = 0.75
#   avg.max: alt0 (0.5+1.5)/2 = 1.0     alt1 (1.8+0.2)/2 = 1.0
#   max.max: alt0 max(0.5,1.5) = 1.5    alt1 max(1.8,0.2) = 1.8
#   max.avg: alt0 max(0.5,1.5) = 1.5    alt1 max(1.3,0.2) = 1.3

CASES = [
    ("avg.avg", [1.0, 0.75], (1, 0.75)),
    ("avg.max", [1.0, 1.0], (0, 1.0)),
    ("max.max", [1.5, 1.8], (0, 1.5)),
    ("max.avg", [1.5, 1.3], (1, 1.3)),
]


@pytest.mark.parametrize("spec,costs,best", CASES)
def test_worked_cost_vectors(worked, spec, costs, best):
    objective = dv.parse_objective(spec)
    got = dv.cost_vector(worked, objective)
    assert np.allclose(got, costs, atol=EXACT)
    assert dv.optimal_alternative(worked, objective) == pytest.approx(best)


def test_worked_single_costs(worked):
    assert dv.cost(worked, AVG_AVG, 0) == pytest.approx(1.0, abs=EXACT)
    assert dv.cost(worked, MAX_AVG, 1) == pytest.approx(1.3, abs=EXACT)


def test_inner_cost(worked):
    assert dv.inner_cost(worked, 0, dv.AVG, 1) == pytest.approx(1.3, abs=EXACT)
    assert dv.inner_cost(worked, 0, dv.MAX, 1) == pytest.approx(1.8, abs=EXACT)
    assert dv.inner_cost(worked, 1, dv.AVG, 0) == pytest.approx(1.5, abs=EXACT)


def test_inner_cost_index_errors(worked):
    with pytest.raises(dv.IndexOutOfRange):
        dv.inner_cost(worked, 2, dv.AVG, 0)
    with pytest.raises(dv.IndexOutOfRange):
        dv.inner_cost(worked, 0, dv.AVG, 5)


def test_power_mean_on_worked_instance(worked):
    pm2 = dv.power_mean(2)
    # district 0, alternative 1: sqrt((1.8^2 + 0.8^2)/2) = sqrt(1.94)
    assert dv.inner_cost(worked, 0, pm2, 1) == pytest.approx(
        math.sqrt(1.94), abs=EXACT)
    objective = dv.parse_objective("avg.pmean:2")
    expected = (math.sqrt(1.94) + 0.2) / 2
    assert dv.cost(worked, objective, 1) == pytest.approx(expected, abs=EXACT)


def test_optimal_tie_breaks_to_lowest_id():
    inst = dv.build_line_instance([[1.0]], [0.5, 1.5])
    assert dv.optimal_alternative(inst, AVG_AVG) == (0, pytest.approx(0.5))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_objective_round_trip():
    for spec in ("avg.avg", "avg.max", "max.max", "max.avg", "max.pmean:2",
                 "avg.pmean:1.5"):
        assert dv.parse_objective(spec).spec == spec


def test_parse_objective_rejects_garbage():
    for bad in ("avg", "avg.", ".max", "mid.avg", "avg.mid", "avg.pmean:0.5",
                "avg.pmean:", "max avg"):
        with pytest.raises(ValueError):
            dv.parse_objective(bad)


def test_parse_objective_outer_is_the_shared_aggregator():
    assert dv.parse_objective("max.pmean:2").outer is dv.MAX
    assert dv.parse_objective("avg.max").outer is dv.AVG


def test_parse_inner():
    assert dv.parse_inner("avg") is dv.AVG
    assert dv.parse_inner("max") is dv.MAX
    assert dv.parse_inner("pmean:2").spec == "pmean:2"
    with pytest.raises(ValueError):
        dv.parse_inner("pmean:0.9")
    with pytest.raises(ValueError):
        dv.parse_inner("median")


def test_power_mean_rejects_p_below_one():
    with pytest.raises(ValueError):
        dv.power_mean(0.5)


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_power_mean_rejects_non_finite_p(p):
    with pytest.raises(ValueError, match="power mean exponent must be finite"):
        dv.power_mean(p)


@pytest.mark.parametrize("fields, message", [
    ({"kind": "pmean", "p": 0.5}, "power mean exponent must be >= 1"),
    ({"kind": "pmean", "p": math.nan}, "power mean exponent must be finite"),
    ({"kind": "pmean"}, "power mean needs an exponent p"),
    # a misspelt kind would otherwise be trusted like a built-in one
    ({"kind": "pmeans", "fn": np.mean}, "unknown aggregator kind 'pmeans'"),
    ({"kind": "custom", "name": "nofn"}, "a custom aggregator needs a function fn"),
])
def test_inner_objectives_built_directly_are_validated(fields, message):
    with pytest.raises(ValueError, match=message):
        dv.InnerObjective(**fields)


def _line_scaled(scale):
    agents, alternatives = [[0.0, 5.0], [9.0]], [1.0, 4.0, 8.0]
    return dv.build_line_instance([[scale * x for x in d] for d in agents],
                                  [scale * x for x in alternatives])


@pytest.mark.parametrize("spec, scale", [
    ("max.pmean:400", 1.0),     # distances above 1 overflow x ** 400
    ("max.pmean:1000", 1.0),
    ("max.pmean:2", 1e-200),    # x ** 2 underflows to 0
    ("max.pmean:2", 1e-160),    # x ** 2 underflows to a subnormal
])
def test_power_means_stay_finite_at_any_scale(spec, scale):
    objective = dv.parse_objective(spec)
    instance = _line_scaled(scale)
    costs = dv.cost_vector(instance, objective)
    assert np.all(np.isfinite(costs))
    aggregates = dv.district_aggregates(instance, objective.inner)
    for d, members in enumerate(instance.district_arrays()):
        block = instance.agent_alt[members]
        assert np.all(aggregates[d] >= block.mean(axis=0) * (1 - EXACT))
        assert np.all(aggregates[d] <= block.max(axis=0) * (1 + EXACT))
        values = [objective.inner.value(column) for column in block.T]
        np.testing.assert_allclose(values, aggregates[d], rtol=EXACT)
    np.testing.assert_allclose(
        costs, scale * dv.cost_vector(_line_scaled(1.0), objective), rtol=EXACT)
    for mechanism in ("compose:optimal,optimal", "arl:2"):
        ratio = dv.evaluate(dv.parse_mechanism(mechanism, objective), instance,
                            objective).ratio
        assert math.isfinite(ratio) and ratio >= 1.0


# ---------------------------------------------------------------------------
# aggregator algebra
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(vectors)
def test_power_mean_one_is_average(v):
    assert dv.power_mean(1).value(v) == pytest.approx(float(np.mean(v)),
                                                      rel=1e-9, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(vectors)
def test_power_mean_between_avg_and_max(v):
    pm = dv.power_mean(2).value(v)
    assert float(np.mean(v)) - 1e-9 <= pm <= float(np.max(v)) + 1e-9


@settings(max_examples=100, deadline=None)
@given(vectors, vectors)
def test_builtin_aggregators_subadditive(v, u):
    size = min(v.size, u.size)
    v, u = v[:size], u[:size]
    for g in (dv.AVG, dv.MAX, dv.power_mean(2), dv.power_mean(3)):
        assert g.value(v + u) <= g.value(v) + g.value(u) + 1e-9


@settings(max_examples=80, deadline=None)
@given(line_instances(max_districts=1))
def test_single_district_outer_equivalence(inst):
    # with one district the outer aggregator sees a single value
    for inner_spec in ("avg", "max"):
        a = dv.cost_vector(inst, dv.parse_objective(f"avg.{inner_spec}"))
        b = dv.cost_vector(inst, dv.parse_objective(f"max.{inner_spec}"))
        assert np.allclose(a, b, atol=EXACT)


def test_single_and_vector_costs_agree_exactly():
    # cost, inner_cost and the acceptable sets read the same district
    # aggregates as cost_vector, so they agree bit for bit
    specs = ("avg.avg", "avg.max", "max.max", "max.avg", "max.pmean:2",
             "avg.pmean:3")
    spec = dv.GeneratorSpec(n_range=(2, 16), k_range=(1, 4))
    for trial in range(300):
        inst = dv.random_instance(np.random.default_rng([8, trial]), spec)
        for name in specs:
            objective = dv.parse_objective(name)
            costs = dv.cost_vector(inst, objective)
            assert [dv.cost(inst, objective, j)
                    for j in range(inst.num_alternatives)] == costs.tolist()
            aggregates = dv.district_aggregates(inst, objective.inner)
            assert aggregates.shape == (inst.num_districts, inst.num_alternatives)
            assert not aggregates.flags.writeable
            for d, members in enumerate(inst.district_arrays()):
                row = objective.inner.over_columns(inst.agent_alt[members])
                assert aggregates[d].tolist() == row.tolist()
                assert [dv.inner_cost(inst, d, objective.inner, j)
                        for j in range(inst.num_alternatives)] == row.tolist()
                acceptable = np.flatnonzero(row <= 2.0 * row.min() * (1 + 1e-12))
                assert dv.lambda_acceptable_set(inst, d, objective.inner, 2.0) == \
                    tuple(acceptable.tolist())


def test_district_aggregates_are_cached_by_identity(worked):
    mean_twin = dv.InnerObjective(kind="custom", name="twin",
                                  fn=lambda v: float(np.mean(v)))
    max_twin = dv.InnerObjective(kind="custom", name="twin",
                                 fn=lambda v: float(np.max(v)))
    assert mean_twin == max_twin
    first = dv.district_aggregates(worked, mean_twin)
    assert dv.district_aggregates(worked, mean_twin) is first
    # the max twin gets its own entry, not the cached one of its equal
    assert np.allclose(first, [[0.5, 1.3], [1.5, 0.2]], rtol=0, atol=EXACT)
    assert np.allclose(dv.district_aggregates(worked, max_twin),
                       [[0.5, 1.8], [1.5, 0.2]], rtol=0, atol=EXACT)
    # an ordinal in-rule's representatives share the instance's cache
    reps = _representatives(dv.MedianLineRule(), worked)
    assert _representatives(dv.MedianLineRule(), worked) is reps


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

def test_builtin_aggregators_pass_vector_checks():
    for g in (dv.AVG, dv.MAX, dv.power_mean(1.5), dv.power_mean(2)):
        results = dv.run_property_checks(g, samples=2000, seed=5)
        assert all(r.passed for r in results), g.spec


def test_squared_sum_fails_subadditivity():
    bad = dv.InnerObjective(kind="custom", name="squared-sum",
                            fn=lambda v: float(np.sum(v)) ** 2)
    results = {r.property_name: r for r in
               dv.run_property_checks(bad, samples=2000, seed=5)}
    assert not results["subadditive"].passed
    assert results["subadditive"].witness is not None
    assert not results["consistent"].passed


def test_property_checks_draw_from_separate_streams(monkeypatch):
    # each check's generator must start its own stream, not replay one seed
    firsts = []
    real_rng = objectives._check_rng

    def recording_rng(seed):
        firsts.append(real_rng(seed).random())
        return real_rng(seed)

    monkeypatch.setattr(objectives, "_check_rng", recording_rng)
    for seed in (0, 5):
        firsts.clear()
        dv.run_property_checks(dv.AVG, samples=10, seed=seed)
        assert len(firsts) == 3
        assert len(set(firsts)) == 3, firsts


def test_nearest_agent_distance_is_not_single_peaked():
    # distance to the nearest of two far-apart agents dips at both of them
    probe = dv.build_line_instance([[0.0, 10.0]], [0.0, 5.0, 10.0])
    nearest = dv.InnerObjective(kind="custom", name="nearest",
                                fn=lambda v: float(np.min(v)))
    result = dv.check_single_peaked(nearest, probe, 0)
    assert not result.passed
    assert result.witness is not None
    lo, hi, mn = result.witness
    assert lo < hi


def test_max_is_single_peaked_on_probe():
    probe = dv.build_line_instance([[0.0, 10.0]], [0.0, 5.0, 10.0])
    for g in (dv.AVG, dv.MAX, dv.power_mean(2)):
        assert dv.check_single_peaked(g, probe, 0).passed


def _bumpy(v):
    # the mean with scale-free bumps: not single-peaked at any scale
    mean = float(np.mean(v))
    return mean * (1.0 + 0.3 * abs(math.sin(20.0 * mean / float(np.max(v)))))


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-3, 1.0, 1e3, 1e9, 1e12])
def test_single_peaked_check_is_scale_free(scale):
    probes = [dv.build_line_instance([[scale * p for p in agents[0]]],
                                     [scale * p for p in alts])
              for agents, alts in _PEAK_PROBES]
    for g in (dv.AVG, dv.MAX, dv.power_mean(3)):
        assert all(dv.check_single_peaked(g, probe, 0).passed for probe in probes)
    bumpy = _custom("bumpy", _bumpy)
    assert not all(dv.check_single_peaked(bumpy, probe, 0).passed
                   for probe in probes)


def test_single_peaked_requires_line(euclid_small):
    with pytest.raises(dv.NotLineMetric):
        dv.check_single_peaked(dv.AVG, euclid_small, 0)


def test_check_results_are_deterministic():
    one = dv.check_monotone(dv.AVG, samples=500, seed=11)
    two = dv.check_monotone(dv.AVG, samples=500, seed=11)
    assert one == two
    assert bool(one) is True


def test_witnesses_are_plain_floats():
    bad = dv.InnerObjective(kind="custom", name="shrinking",
                            fn=lambda v: -float(np.sum(v)))
    result = dv.check_monotone(bad, samples=500, seed=2)
    assert not result.passed
    v, u = result.witness
    assert all(type(x) is float for x in v)
    assert all(type(x) is float for x in u)


# ---------------------------------------------------------------------------
# batched checks against the per-sample reference
# ---------------------------------------------------------------------------
# The loops below are the checks as they were before sampling went in
# blocks: one draw and one g.value call at a time. They stay here as the
# independent oracle for the batched checks, which draw other vectors, so
# only the verdicts are compared, never the witnesses.

def reference_monotone(g, samples, dims=8, seed=0):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    for _ in range(samples):
        length = int(rng.integers(1, dims + 1))
        v = rng.uniform(0.0, 10.0, length)
        u = v + rng.uniform(0.0, 5.0, length)
        if g.value(v) > g.value(u) + EXACT_TOL:
            return False
    return True


def reference_subadditive(g, samples, dims=8, seed=0):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    for _ in range(samples):
        length = int(rng.integers(1, dims + 1))
        v = rng.uniform(0.0, 10.0, length)
        u = rng.uniform(0.0, 10.0, length)
        if g.value(v + u) > g.value(v) + g.value(u) + EXACT_TOL:
            return False
        c = float(rng.uniform(1.0, 5.0))
        if g.value(c * v) > c * g.value(v) + EXACT_TOL:
            return False
    return True


def reference_consistent(g, samples, dims=8, seed=0):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    for _ in range(samples):
        length = int(rng.integers(1, dims + 1))
        c = float(rng.uniform(0.0, 10.0))
        if abs(g.value(np.full(length, c)) - c) > EXACT_TOL:
            return False
    return True


def reference_single_peaked(g, instance, district):
    members = instance.district_arrays()[district]
    agent_pos = instance.agent_points[members]
    all_points = np.concatenate([instance.agent_points,
                                 instance.alternative_points])
    lo, hi = float(all_points.min()), float(all_points.max())
    grid = np.arange(lo, hi, (hi - lo) * 1e-3) if hi > lo else np.array([lo])
    grid = np.unique(np.concatenate([grid, all_points]))
    values = np.array([g.value(np.abs(x - agent_pos)) for x in grid])
    imin = int(np.argmin(values))
    for i in range(grid.size - 1):
        slack = USER_TOL * max(abs(values[i]), abs(values[i + 1]))
        if i < imin and values[i + 1] > values[i] + slack:
            return False
        if i >= imin and values[i + 1] < values[i] - slack:
            return False
    return True


def _custom(name, fn):
    return dv.InnerObjective(kind="custom", name=name, fn=fn)


#: (aggregator, vector-space properties it fails)
PANEL = [
    (dv.AVG, set()),
    (dv.MAX, set()),
    (dv.power_mean(1), set()),
    (dv.power_mean(1.5), set()),
    (dv.power_mean(2), set()),
    (dv.power_mean(3), set()),
    (_custom("squared-sum", lambda v: float(np.sum(v)) ** 2),
     {"subadditive", "consistent"}),
    (_custom("negated-sum", lambda v: -float(np.sum(v))),
     {"monotone", "consistent"}),
    (_custom("nearest", lambda v: float(np.min(v))), {"subadditive"}),
    (_custom("mean-plus", lambda v: float(np.mean(v)) + 0.1), {"consistent"}),
    # sums v + u stay within 20, scaled vectors c v do not: fails scaling only
    (_custom("jump-above-20",
             lambda v: float(np.max(v)) * (1.0 if np.max(v) <= 20 else 10.0)),
     {"subadditive"}),
]
PANEL_IDS = [g.spec for g, _ in PANEL]
REFERENCES = {
    "monotone": reference_monotone,
    "subadditive": reference_subadditive,
    "consistent": reference_consistent,
}


def assert_witness_violates(g, result):
    """Re-evaluate a failure witness one vector at a time."""
    if result.property_name == "monotone":
        v, u = (np.array(x) for x in result.witness)
        assert v.size == u.size and np.all(v <= u)
        assert g.value(v) > g.value(u) + EXACT_TOL
    elif result.property_name == "subadditive":
        if isinstance(result.witness[0], float):
            c, v = result.witness[0], np.array(result.witness[1])
            assert 1.0 <= c <= 5.0
            assert g.value(c * v) > c * g.value(v) + EXACT_TOL
        else:
            v, u = (np.array(x) for x in result.witness)
            assert v.size == u.size
            assert g.value(v + u) > g.value(v) + g.value(u) + EXACT_TOL
    else:
        c, length, got = result.witness
        assert type(length) is int and 1 <= length <= 8
        value = g.value(np.full(length, c))
        assert abs(value - c) > EXACT_TOL
        assert got == pytest.approx(value, rel=1e-12, abs=EXACT_TOL)


@pytest.mark.parametrize("g,fails", PANEL, ids=PANEL_IDS)
def test_batched_checks_agree_with_reference(g, fails):
    # 2,000 samples: one full block of 1,024 and one partial block
    for result in dv.run_property_checks(g, samples=2000, seed=5):
        name = result.property_name
        assert result.passed == REFERENCES[name](g, 2000, seed=5), name
        assert result.passed == (name not in fails), name
        assert result.samples == 2000
        if result.passed:
            assert result.witness is None
        else:
            assert_witness_violates(g, result)


@pytest.mark.parametrize("g", [g for g, _ in PANEL], ids=PANEL_IDS)
def test_batched_single_peaked_agrees_with_reference(g):
    for agents, alts in _PEAK_PROBES:
        probe = dv.build_line_instance(agents, alts)
        result = dv.check_single_peaked(g, probe, 0)
        assert result.passed == reference_single_peaked(g, probe, 0), agents
        if not result.passed:
            lo, hi, _ = result.witness
            values = [g.value(np.abs(x - np.array(agents[0]))) for x in (lo, hi)]
            assert abs(values[1] - values[0]) > USER_TOL * max(map(abs, values))


def test_witness_is_first_counterexample_in_draw_order():
    # rises by 100 on a narrow band of first coordinates, so a vector in the
    # band beats its coordinatewise-larger partner only now and then
    def fn(v):
        return float(np.max(v)) + 100.0 * (9.99 < v[0] < 9.997)

    g = _custom("banded-max", fn)
    samples, block, dims, seed = 4000, 1024, 8, 3
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    first = None
    for start in range(0, samples, block):
        size = min(block, samples - start)
        lengths = rng.integers(1, dims + 1, size)
        v = rng.uniform(0.0, 10.0, (size, dims))
        u = v + rng.uniform(0.0, 5.0, (size, dims))
        for i in range(size):
            n = lengths[i]
            if g.value(v[i, :n]) > g.value(u[i, :n]) + EXACT_TOL:
                first = (start + i, tuple(v[i, :n]), tuple(u[i, :n]))
                break
        if first is not None:
            break
    assert first is not None and first[0] >= block  # not in the first block
    result = dv.check_monotone(g, samples=samples, seed=seed)
    assert not result.passed
    assert result.witness == first[1:]


# ---------------------------------------------------------------------------
# over_columns computes the same function as value
# ---------------------------------------------------------------------------

matrices = st.integers(1, 8).flatmap(lambda rows: st.lists(
    st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=rows,
             max_size=rows),
    min_size=1, max_size=6)).map(lambda cols: np.array(cols).T)


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_over_columns_matches_value(mat):
    for g in (dv.AVG, dv.MAX, dv.power_mean(1), dv.power_mean(1.5),
              dv.power_mean(2), dv.power_mean(3)):
        by_column = [g.value(mat[:, c]) for c in range(mat.shape[1])]
        assert np.allclose(g.over_columns(mat), by_column, rtol=0,
                           atol=EXACT_TOL), g.spec
