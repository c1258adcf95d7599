"""Distortion evaluation, random sweeps, and local search."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import districtvote as dv
from districtvote import cli
from districtvote.tolerances import ACCEPT_SLACK

EXACT = 1e-12


def make(spec, objective):
    return dv.parse_mechanism(spec, dv.parse_objective(objective))


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_worked_instance(worked):
    # composed avg.avg costs are 1.0 and 0.75; the mechanism elects
    # alternative 0 on an over-step tie, so the ratio is 4/3
    objective = dv.parse_objective("avg.avg")
    report = dv.evaluate(make("compose:optimal,optimal", "avg.avg"),
                         worked, objective)
    assert report.winner == 0
    assert report.trace.representatives == (0, 1)
    assert report.optimal_alternative == 1
    assert report.optimal_cost == pytest.approx(0.75, abs=EXACT)
    assert report.winner_cost == pytest.approx(1.0, abs=EXACT)
    assert report.ratio == pytest.approx(4.0 / 3.0, abs=EXACT)
    assert not report.infinite
    assert report.alternative_costs == pytest.approx((1.0, 0.75), abs=EXACT)


def test_evaluate_optimal_pick_has_ratio_one(worked):
    report = dv.evaluate(make("compose:optimal,optimal", "avg.max"),
                         worked, dv.parse_objective("avg.max"))
    assert report.ratio == 1.0


class WorstCardinalRule:
    """Test stub: a rule that picks the alternative farthest from voters."""

    info = dv.CARDINAL
    inner = dv.AVG
    unanimous = False
    line_only = False
    name = "worst"

    def pick(self, values, positions):
        return values.argmax(axis=-1)


def test_evaluate_infinite_ratio_and_json():
    # the optimum costs exactly zero, the stub picks something that does not
    inst = dv.build_line_instance([[0.0, 0.0, 0.0]], [0.0, 1.0])
    mech = dv.Mechanism(WorstCardinalRule(), WorstCardinalRule())
    objective = dv.parse_objective("avg.avg")
    report = dv.evaluate(mech, inst, objective)
    assert report.winner == 1
    assert report.optimal_cost == 0.0
    assert report.winner_cost == 1.0
    assert report.infinite
    assert math.isinf(report.ratio)

    data = dv.report_to_json(report)
    assert data["ratio"] is None
    assert data["infinite"] is True
    assert data["winner"] == 1
    assert data["alternative_costs"] == [0.0, 1.0]


def test_evaluate_zero_optimum_zero_winner_is_ratio_one():
    inst = dv.build_line_instance([[0.0, 0.0]], [0.0, 9.0])
    report = dv.evaluate(make("compose:optimal,optimal", "max.max"),
                         inst, dv.parse_objective("max.max"))
    assert report.ratio == 1.0
    assert not report.infinite


# ---------------------------------------------------------------------------
# generator specs and random instances
# ---------------------------------------------------------------------------

def test_generator_spec_defaults_validate():
    dv.GeneratorSpec().validate()


@pytest.mark.parametrize("kwargs", [
    {"kind": "spherical"},
    {"kind": "fixed"},
    {"n_range": (5, 2)},
    {"n_range": (0, 4)},
    {"m_range": (3, 1)},
    {"k_range": (0, 2)},
    {"low": 1.0, "high": 1.0},
    {"low": 2.0, "high": 0.0},
    {"kind": "euclidean", "dim": 0},
    {"low": -math.inf},
    {"high": math.inf},
    {"low": math.nan},
    {"low": -1e308, "high": 1e308},
    # squared coordinate gaps overflow, so every distance would be inf
    {"kind": "euclidean", "high": 1e200},
    {"kind": "euclidean", "high": 1e155, "dim": 2},
])
def test_generator_spec_rejects(kwargs):
    with pytest.raises(dv.GeneratorError):
        dv.GeneratorSpec(**kwargs).validate()


def test_generator_spec_accepts_widest_finite_euclidean_box():
    spec = dv.GeneratorSpec(kind="euclidean", high=1e153)
    result = dv.sweep(make("compose:optimal,optimal", "avg.max"),
                      dv.parse_objective("avg.max"), spec, trials=5)
    assert 1.0 <= result.max_ratio < np.inf
    assert np.isfinite(result.witness.agent_alt).all()


def test_fixed_generator_returns_the_instance(worked):
    spec = dv.GeneratorSpec(kind="fixed", instance=worked)
    spec.validate()
    rng = np.random.default_rng(0)
    assert dv.random_instance(rng, spec) is worked


@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_random_instance_respects_spec(seed):
    rng = np.random.default_rng(seed)
    spec = dv.GeneratorSpec(n_range=(2, 9), m_range=(2, 5), k_range=(1, 4),
                            low=-3.0, high=7.0)
    inst = dv.random_instance(rng, spec)
    assert 2 <= inst.num_agents <= 9
    assert 2 <= inst.num_alternatives <= 5
    assert 1 <= inst.num_districts <= 4
    assert inst.num_districts <= inst.num_agents
    assert sorted(a for d in inst.districts for a in d) == list(
        range(inst.num_agents))
    assert np.all(inst.agent_points >= -3.0)
    assert np.all(inst.agent_points <= 7.0)
    assert np.all(inst.alternative_points >= -3.0)
    assert np.all(inst.alternative_points <= 7.0)


def test_random_instance_clamps_districts_to_agents():
    spec = dv.GeneratorSpec(n_range=(2, 2), k_range=(4, 4))
    for seed in range(20):
        inst = dv.random_instance(np.random.default_rng(seed), spec)
        assert inst.num_agents == 2
        assert inst.num_districts <= 2


def test_random_instance_euclidean_dim():
    spec = dv.GeneratorSpec(kind="euclidean", dim=3, n_range=(3, 3),
                            m_range=(2, 2), k_range=(2, 2))
    inst = dv.random_instance(np.random.default_rng(1), spec)
    assert not inst.is_line
    assert inst.agent_points.shape == (3, 3)
    assert inst.alternative_points.shape == (2, 3)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_is_deterministic():
    mech = make("compose:plurality-matching,plurality-matching", "avg.avg")
    objective = dv.parse_objective("avg.avg")
    a = dv.sweep(mech, objective, trials=60, seed=7)
    b = dv.sweep(mech, objective, trials=60, seed=7)
    assert a.max_ratio == b.max_ratio
    assert a.witness.content_key() == b.witness.content_key()
    assert a.evaluated == 60
    assert a.seed == 7


def test_sweep_prefix_monotone():
    # trial i depends only on (seed, i), so a longer sweep revisits the
    # shorter sweep's instances and can only find something worse
    mech = make("compose:plurality-matching,arbitrary", "max.max")
    objective = dv.parse_objective("max.max")
    short = dv.sweep(mech, objective, trials=50, seed=3)
    long = dv.sweep(mech, objective, trials=100, seed=3)
    assert long.max_ratio >= short.max_ratio


def test_sweep_seed_changes_draws():
    mech = make("compose:optimal,optimal", "avg.avg")
    objective = dv.parse_objective("avg.avg")
    a = dv.sweep(mech, objective, trials=40, seed=0)
    b = dv.sweep(mech, objective, trials=40, seed=1)
    assert a.witness.content_key() != b.witness.content_key()


def test_sweep_json_round_trip(worked):
    mech = make("compose:optimal,optimal", "max.avg")
    objective = dv.parse_objective("max.avg")
    result = dv.sweep(mech, objective, trials=25, seed=5)
    back = dv.sweep_result_from_json(dv.sweep_result_to_json(result))
    assert back.max_ratio == result.max_ratio
    assert back.evaluated == result.evaluated
    assert back.seed == result.seed
    assert back.witness.content_key() == result.witness.content_key()


def test_sweep_without_a_comparable_ratio_keeps_trial_zero():
    optimal_max = dv.compose(dv.OptimalRule(dv.MAX), dv.OptimalRule(dv.MAX))
    nanny = dv.InnerObjective(kind="custom", name="nanny",
                              fn=lambda v: float("nan"))
    # NaN on every district of odd size, so only some trials compare
    odd = dv.InnerObjective(kind="custom", name="odd", fn=lambda v: (
        float("nan") if len(v) % 2 else float(np.mean(v))))
    cells = [(optimal_max, dv.ComposedObjective(dv.MAX, inner))
             for inner in (nanny, odd)]
    spec = dv.GeneratorSpec()
    drawn = [dv.random_instance(_trial_rng(0, i), spec) for i in range(30)]
    nan_result, odd_result = dv.sweep_cells(cells, spec, trials=30, seed=0)

    assert math.isnan(nan_result.max_ratio)
    assert nan_result.witness.content_key() == drawn[0].content_key()
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    data = dv.sweep_result_to_json(nan_result)
    assert data["max_ratio"] is None and data["infinite"] is False
    back = dv.sweep_result_from_json(json.loads(json.dumps(data),
                                                parse_constant=refuse))
    assert math.isnan(back.max_ratio) and not back.infinite
    assert back.witness.content_key() == drawn[0].content_key()
    assert not back.max_ratio <= 1e300

    ratios = [dv.evaluate(optimal_max, inst, cells[1][1]).ratio for inst in drawn]
    assert math.isnan(ratios[0])
    comparable = [r for r in ratios if not math.isnan(r)]
    assert odd_result.max_ratio == max(comparable)
    first = next(i for i, r in enumerate(ratios) if r == max(comparable))
    assert odd_result.witness.content_key() == drawn[first].content_key()


def test_sweep_euclidean_generator():
    mech = make("compose:plurality-matching,plurality-matching", "avg.max")
    objective = dv.parse_objective("avg.max")
    spec = dv.GeneratorSpec(kind="euclidean", dim=2, n_range=(2, 6),
                            m_range=(2, 4), k_range=(1, 3))
    result = dv.sweep(mech, objective, generator=spec, trials=50, seed=2)
    assert result.max_ratio >= 1.0
    assert not result.witness.is_line


def test_sweep_respects_claimed_bound_smoke():
    objective = dv.parse_objective("avg.avg")
    mech = make("compose:optimal,optimal", "avg.avg")
    result = dv.sweep(mech, objective, trials=300, seed=11)
    assert result.max_ratio <= 3.0 + 1e-9


def test_sweep_rejects_bad_arguments():
    mech = make("compose:optimal,optimal", "avg.avg")
    objective = dv.parse_objective("avg.avg")
    with pytest.raises(dv.GeneratorError):
        dv.sweep(mech, objective, trials=0)
    with pytest.raises(dv.GeneratorError):
        dv.sweep(mech, objective, trials=10, seed=-1)


# ---------------------------------------------------------------------------
# sweep_cells against the per-cell loop
# ---------------------------------------------------------------------------

def _trial_rng(seed, trial):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, trial])))


def reference_ratios(mechanism, objective, draw, trials, seed):
    """Test-only oracle: per trial, a fresh instance, then evaluate."""
    return [dv.evaluate(mechanism, draw(_trial_rng(seed, i)), objective).ratio
            for i in range(trials)]


def reference_sweep(mechanism, objective, draw, trials, seed):
    """Test-only oracle: the worst of ``reference_ratios``.

    Returns the worst ratio, its first witness in trial order (drawn again),
    and how many trials reached that ratio.
    """
    worst_ratio, first, hits = -math.inf, None, 0
    for i, ratio in enumerate(reference_ratios(mechanism, objective, draw,
                                               trials, seed)):
        if ratio > worst_ratio:
            worst_ratio, first, hits = ratio, i, 1
        elif ratio == worst_ratio:
            hits += 1
    witness = None if first is None else draw(_trial_rng(seed, first))
    return worst_ratio, witness, hits


def _cells(panel):
    return [(make(m, o), dv.parse_objective(o)) for m, o in panel]


def _random_draw(spec):
    return lambda rng: dv.random_instance(rng, spec)


def _sweep_cells_per_instance_calls(cells, spec, trials, seed):
    """``sweep_cells``, and how often it fell back to ``evaluate``."""
    with mock.patch.object(dv.distortion, "evaluate",
                           wraps=dv.distortion.evaluate) as spy:
        results = dv.sweep_cells(cells, spec, trials=trials, seed=seed)
    return results, spy.call_count


def _check_against_reference(cells, draw, spec, trials, seed):
    results, calls = _sweep_cells_per_instance_calls(cells, spec, trials, seed)
    # only the cells a block cannot decide run per instance: nothing replays
    per_instance = sum(not dv.distortion._batched(m, o) for m, o in cells)
    assert calls == trials * per_instance
    assert len(results) == len(cells)
    hits = []
    for (mechanism, objective), result in zip(cells, results):
        ratio, witness, n_hits = reference_sweep(mechanism, objective, draw,
                                                 trials, seed)
        assert result.max_ratio == ratio, mechanism.spec
        assert result.evaluated == trials
        assert result.seed == seed
        assert result.witness.content_key() == witness.content_key(), (
            mechanism.spec, objective.spec)
        hits.append(n_hits)
    return results, hits


LINE_PANEL = (
    ("compose:optimal,optimal", "avg.avg"),
    ("compose:optimal,optimal,reps-only", "max.max"),
    ("compose:plurality-matching,plurality-matching", "avg.max"),
    ("compose:plurality-matching,median", "avg.avg"),
    ("arbitrary-median", "avg.max"),
    ("arbitrary-dictator", "max.max"),
    ("arl:2", "max.pmean:2"),
    ("arl:1", "max.avg"),
    ("compose:median,optimal", "avg.avg"),
    ("compose:median,leftmost", "max.max"),
)

EUCLIDEAN_PANEL = (
    ("compose:optimal,optimal", "max.avg"),
    ("compose:optimal,optimal,reps-only", "avg.max"),
    ("compose:plurality-matching,plurality-matching", "avg.max"),
    ("arbitrary-dictator", "max.max"),
)


#: The default verify-bounds cells: every default pair with a claimed bound.
VERIFY_PANEL = tuple(
    (m, o) for m in cli.DEFAULT_MECHANISMS for o in cli.DEFAULT_OBJECTIVES
    if dv.claimed_bound(make(m, o), dv.parse_objective(o)) is not None)


@pytest.mark.parametrize("spec, panel", [
    (dv.GeneratorSpec(), LINE_PANEL),
    (dv.GeneratorSpec(kind="euclidean", dim=2, n_range=(2, 8),
                      m_range=(2, 5), k_range=(1, 3)), EUCLIDEAN_PANEL),
    # up to 64 agents in 8 districts: blocks of a few trials each
    (dv.GeneratorSpec(kind="euclidean", dim=2, n_range=(2, 64),
                      m_range=(1, 12), k_range=(1, 8)), EUCLIDEAN_PANEL),
    (dv.GeneratorSpec(m_range=(1, 6)), VERIFY_PANEL),
    (dv.GeneratorSpec(k_range=(1, 1)), VERIFY_PANEL),
    # pmean:2's squares underflow, so its rescue path decides
    (dv.GeneratorSpec(high=1e-160), VERIFY_PANEL),
    # district sums overflow, so avg falls back to the scaled mean
    (dv.GeneratorSpec(high=1.5e308), VERIFY_PANEL),
], ids=["line", "euclidean", "euclidean-wide", "m-from-1", "k-is-1",
        "tiny-box", "huge-box"])
def test_sweep_cells_matches_per_cell_loop(spec, panel):
    _check_against_reference(_cells(panel), _random_draw(spec), spec,
                             trials=120, seed=4)


def test_sweep_cells_fixed_generator(worked):
    spec = dv.GeneratorSpec(kind="fixed", instance=worked)
    cells = [(make(m, o), dv.parse_objective(o)) for m, o in LINE_PANEL]
    results, hits = _check_against_reference(
        cells, lambda rng: worked, spec, trials=5, seed=0)
    assert all(r.witness is worked for r in results)
    assert hits == [5] * len(cells)


def test_sweep_cells_first_equal_worst_wins():
    # one district: the optimal rule always elects the optimum, so every
    # trial reaches ratio 1 and trial 0 must stay the witness, across blocks
    spec = dv.GeneratorSpec(k_range=(1, 1))
    cells = [(make(m, o), dv.parse_objective(o)) for m, o in (
        ("compose:optimal,optimal", "avg.avg"),
        ("compose:optimal,optimal", "max.max"),
        ("compose:plurality-matching,plurality-matching", "avg.max"),
    )]
    first = dv.random_instance(_trial_rng(2, 0), spec)
    for trials in (40, 2 * dv.distortion._block_trials(spec) + 3):
        results, hits = _check_against_reference(
            cells, lambda rng: dv.random_instance(rng, spec), spec,
            trials=trials, seed=2)
        for result, n_hits in zip(results[:2], hits[:2]):
            assert result.max_ratio == 1.0
            assert n_hits == trials
            assert result.witness.content_key() == first.content_key()


def test_sweep_cells_zero_cost_optima(monkeypatch):
    # a drawn set where some optima cost exactly 0: the stub's ratio is
    # infinite on those, and ties among them keep the first one drawn
    pool = [
        dv.build_line_instance([[0.3, 0.7], [0.9]], [0.0, 1.0, 0.5]),
        dv.build_line_instance([[0.0, 0.0, 0.0]], [0.0, 1.0]),
        dv.build_line_instance([[2.0], [2.0]], [2.0, 5.0, 3.0]),
        dv.build_line_instance([[0.1, 0.4]], [0.2, 0.8]),
    ]

    def draw(rng):
        return pool[int(rng.integers(len(pool)))]

    monkeypatch.setattr(dv.distortion, "random_instance",
                        lambda rng, spec: draw(rng))
    worst = dv.Mechanism(WorstCardinalRule(), WorstCardinalRule())
    cells = [(worst, dv.parse_objective("avg.avg")),
             (worst, dv.parse_objective("max.max")),
             (make("compose:optimal,optimal", "avg.avg"),
              dv.parse_objective("avg.avg")),
             (make("arl:2", "max.max"), dv.parse_objective("max.max"))]
    results, hits = _check_against_reference(
        cells, draw, dv.GeneratorSpec(), trials=30, seed=1)
    drawn = [draw(_trial_rng(1, i)) for i in range(30)]
    assert any(inst is pool[1] for inst in drawn)
    assert any(inst is pool[2] for inst in drawn)
    first_zero = next(inst for inst in drawn
                      if inst is pool[1] or inst is pool[2])
    for result, n_hits in zip(results[:2], hits[:2]):
        assert math.isinf(result.max_ratio) and n_hits > 1
        assert result.witness is first_zero
    assert results[2].max_ratio == 1.0


def test_sweep_cells_matches_reference_across_block_boundaries():
    spec = dv.GeneratorSpec()
    block = dv.distortion._block_trials(spec)
    counts = (block - 1, block, block + 1, 2 * block + 3)
    cells = _cells(VERIFY_PANEL)
    assert len(cells) == 31
    draw = _random_draw(spec)
    ratios = [reference_ratios(m, o, draw, counts[-1], 6) for m, o in cells]
    per_instance = sum(not dv.distortion._batched(m, o) for m, o in cells)
    assert per_instance == 8   # the plurality-matching cells
    for trials in counts:
        results, calls = _sweep_cells_per_instance_calls(cells, spec, trials, 6)
        assert calls == trials * per_instance
        for (mechanism, objective), result, row in zip(cells, results, ratios):
            first = int(np.argmax(row[:trials]))
            assert result.max_ratio == row[first], (mechanism.spec, objective.spec)
            assert result.evaluated == trials
            assert (result.witness.content_key()
                    == draw(_trial_rng(6, first)).content_key())


def test_sweep_cells_boxes_reach_the_rescue_paths():
    def drawn(spec):
        return [dv.random_instance(_trial_rng(3, i), spec) for i in range(150)]

    with np.errstate(over="ignore", under="ignore"):
        assert any(np.isinf(inst.agent_alt[list(d)].sum(axis=0)).any()
                   for inst in drawn(dv.GeneratorSpec(high=1.5e308))
                   for d in inst.districts)
        assert any((inst.agent_alt ** 2 < np.finfo(float).tiny).all()
                   for inst in drawn(dv.GeneratorSpec(high=1e-160)))


def test_sweep_cells_reps_only_with_coinciding_representatives():
    # every district sits at alternative 0, so the over step offers only it
    coinciding = dv.build_line_instance([[0.01 * d, 0.02] for d in range(9)],
                                        [0.0, 1.0, 2.0])
    specs = [dv.GeneratorSpec(kind="fixed", instance=coinciding),
             dv.GeneratorSpec(n_range=(8, 16), m_range=(1, 3), k_range=(8, 16))]
    cells = [(make(m, o), dv.parse_objective(o))
             for m in ("compose:optimal,optimal,reps-only",
                       "compose:plurality-matching,plurality-matching,reps-only")
             for o in cli.DEFAULT_OBJECTIVES]
    trace = dv.run(cells[0][0], coinciding)
    assert trace.per_step_candidates[1] == (0,)
    for spec in specs:
        _check_against_reference(cells, _random_draw(spec), spec, trials=60,
                                 seed=2)


@pytest.mark.parametrize("kind", [dv.LINE, dv.EXPLICIT])
def test_sweep_cells_fixed_instance_with_scattered_districts(kind):
    points = [0.9, 0.1, 0.5, 0.35, 0.8, 0.05, 0.6]
    alts = [0.0, 0.4, 0.7, 1.0]
    districts = [[0, 3, 5], [1, 6], [2, 4]]
    if kind == dv.LINE:
        metric = {"type": "line",
                  "agent_positions": [[points[a] for a in d] for d in districts],
                  "alternative_positions": alts}
    else:
        everything = np.array(points + alts)
        metric = {"type": "explicit",
                  "distances": np.abs(everything[:, None]
                                      - everything[None, :]).tolist()}
    instance = dv.instance_from_json({"metric": metric, "districts": districts,
                                      "alternatives": len(alts)})
    spec = dv.GeneratorSpec(kind="fixed", instance=instance)
    cells = [(m, o) for m, o in _cells(VERIFY_PANEL)
             if kind == dv.LINE or not m.line_only]
    results, _ = _check_against_reference(cells, lambda rng: instance, spec,
                                          trials=7, seed=0)
    assert all(result.witness is instance for result in results)


def test_sweep_cells_mixes_batched_and_per_instance_cells():
    twin = dv.InnerObjective(kind="custom", name="twin",
                             fn=lambda v: float(np.mean(v)) + 0.1 * float(np.max(v)))
    spec = dv.GeneratorSpec()
    custom = dv.ComposedObjective(dv.MAX, twin)
    cells = [(make("compose:optimal,optimal", "avg.max"),
              dv.parse_objective("avg.max")),
             (dv.compose(dv.OptimalRule(twin), dv.OptimalRule(dv.MAX)), custom),
             (make("arl:2", "max.max"), custom),
             (dv.Mechanism(WorstCardinalRule(), WorstCardinalRule()),
              dv.parse_objective("avg.avg")),
             (dv.Mechanism(dv.OptimalRule(dv.AVG), WorstCardinalRule(),
                           dv.REPRESENTATIVES_ONLY),
              dv.parse_objective("avg.avg")),
             (make("arbitrary-median", "avg.max"), dv.parse_objective("avg.max"))]
    _check_against_reference(cells, _random_draw(spec), spec,
                             trials=dv.distortion._block_trials(spec) + 2, seed=8)


def test_sweep_cells_no_cells_and_bad_arguments():
    assert dv.sweep_cells([], trials=10) == []
    with pytest.raises(dv.GeneratorError):
        dv.sweep_cells([], trials=0)
    with pytest.raises(dv.GeneratorError):
        dv.sweep_cells([], seed=-1)


# ---------------------------------------------------------------------------
# per-instance caches against the uncached per-district path
# ---------------------------------------------------------------------------

def reference_select_cardinal(rule, dist, candidates, positions):
    """Test-only oracle of the cardinal rules on a distance block."""
    values = rule.inner.over_columns(dist)
    if isinstance(rule, dv.OptimalRule):
        return int(candidates[int(np.argmin(values))])
    if isinstance(rule, dv.ThresholdSelectRule):
        acceptable = np.flatnonzero(
            values <= rule.lam * values.min() * (1 + ACCEPT_SLACK))
        pos = positions[acceptable]
        return int(candidates[acceptable[np.flatnonzero(pos == pos.max())[0]]])
    return int(candidates[rule.pick(values, positions)])


def reference_run(mechanism, instance):
    """Test-only oracle: the two-step run with nothing shared or cached.

    Every district's representative comes from its own distance block or
    from rankings sorted afresh from its own distances; the over step is
    spelled out. Returns the representatives and the winner.
    """
    in_rule, over = mechanism.in_rule, mechanism.over_rule
    everyone = np.arange(instance.num_alternatives)
    positions = instance.alternative_points if instance.is_line else None
    reps = []
    for members in instance.district_arrays():
        members = np.sort(members)
        block = instance.agent_alt[members]
        if in_rule.info == dv.CARDINAL:
            reps.append(reference_select_cardinal(
                in_rule, block, everyone, positions))
        else:
            # exact distance ties rank the lower alternative id first
            rows = np.argsort(block, axis=1, kind="stable")
            reps.append(in_rule.select_ordinal(dv.OrdinalProfile(
                rows, instance.line_axis())))
    reps = tuple(int(r) for r in reps)
    if len(reps) == 1:
        return reps, reps[0]
    candidates = (np.array(sorted(set(reps)))
                  if mechanism.selection_mode == dv.REPRESENTATIVES_ONLY
                  else everyone)
    if over.info == dv.CARDINAL:
        winner = reference_select_cardinal(
            over, instance.alt_alt[np.ix_(reps, candidates)], candidates,
            None if positions is None else positions[candidates])
    else:
        rows = np.argsort(instance.alt_alt[list(reps)], axis=1, kind="stable")
        rows = rows[np.isin(rows, candidates)].reshape(len(reps), candidates.size)
        axis = instance.line_axis()
        if axis is not None:
            axis = tuple(a for a in axis if a in set(candidates.tolist()))
        winner = over.select_ordinal(dv.OrdinalProfile(rows, axis), reps)
    return reps, int(winner)


def reference_cost_vector(instance, objective):
    """Test-only oracle: composed costs from per-district distance blocks."""
    per_district = np.array([objective.inner.over_columns(instance.agent_alt[members])
                             for members in instance.district_arrays()])
    if objective.outer.kind == "avg":
        return per_district.mean(axis=0)
    return per_district.max(axis=0)


def _explicit_from_points(inst):
    """The same agents and alternatives as an explicit distance matrix."""
    points = np.concatenate([inst.agent_points,
                             inst.alternative_points])
    if points.ndim == 1:
        points = points[:, None]
    mat = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    return dv.build_explicit_instance(mat, [len(d) for d in inst.districts],
                                      inst.num_alternatives)


def _shared_instances():
    line = dv.GeneratorSpec(n_range=(2, 12), k_range=(2, 4))
    euclid = dv.GeneratorSpec(kind="euclidean", dim=2, n_range=(3, 10),
                              m_range=(2, 5), k_range=(2, 3))
    drawn = [dv.random_instance(_trial_rng(21, i), line) for i in range(4)]
    drawn += [dv.random_instance(_trial_rng(22, i), euclid) for i in range(3)]
    drawn.append(_explicit_from_points(drawn[-1]))
    drawn.append(dv.build_line_instance([[0.0, 1.0], [1.0, 2.0]], [0.0, 1.0, 2.0]))
    # co-located alternatives: position ties must go to the lowest id
    drawn.append(dv.build_line_instance([[0.2, 0.9], [1.5, 2.0], [0.1]],
                                        [1.0, 0.0, 1.0, 2.0, 2.0]))
    return drawn


def test_line_axis_matches_lexsort_and_block_order():
    spec = dv.GeneratorSpec(m_range=(1, 6), high=2.0)

    def grid(points):
        # a 0.125 grid, so alternatives often share a position
        return (np.round(points * 8) / 8).tolist()

    instances = []
    for i in range(200):
        drawn = dv.random_instance(_trial_rng(30, i), spec)
        instances.append(dv.build_line_instance(
            [grid(drawn.agent_points[list(d)]) for d in drawn.districts],
            grid(drawn.alternative_points)))
    order = dv.distortion._stack(instances).order
    tied = 0
    for instance, row in zip(instances, order):
        m = instance.num_alternatives
        positions = instance.alternative_points
        expected = tuple(np.lexsort((np.arange(m), positions)).tolist())
        assert instance.line_axis() == expected
        # pads are the ids past m, and they sort first
        assert tuple(row[row < m].tolist()) == expected
        tied += len(set(positions.tolist())) < m
    assert tied > 20


DEFAULT_CELLS = [(m, o) for m in cli.DEFAULT_MECHANISMS
                 for o in cli.DEFAULT_OBJECTIVES]


def _check_cells_on_shared(instance, cells, rng):
    """Evaluate the cells on one instance in a shuffled order; compare each
    with the oracles run on an uncached copy of the instance."""
    fresh = dv.instance_from_json(dv.instance_to_json(instance))
    checked = 0
    for c in rng.permutation(len(cells)):
        mechanism, objective = cells[c]
        if mechanism.line_only and not instance.is_line:
            continue
        reps, winner = reference_run(mechanism, fresh)
        costs = reference_cost_vector(fresh, objective)
        report = dv.evaluate(mechanism, instance, objective)
        assert report.trace.representatives == reps, (mechanism.spec, objective.spec)
        assert report.winner == winner, (mechanism.spec, objective.spec)
        assert report.alternative_costs == tuple(costs.tolist()), objective.spec
        checked += 1
    return checked


@pytest.mark.parametrize("order_seed", [0, 1, 2])
def test_cached_runs_match_uncached_path_on_default_cells(order_seed):
    cells = [(make(m, o), dv.parse_objective(o)) for m, o in DEFAULT_CELLS]
    # a duck-typed cardinal rule in each step and in both over-step modes
    cells += [(dv.Mechanism(WorstCardinalRule(), dv.OptimalRule(dv.AVG)),
               dv.parse_objective("avg.avg")),
              (dv.Mechanism(dv.OptimalRule(dv.MAX), WorstCardinalRule()),
               dv.parse_objective("max.max")),
              (dv.Mechanism(WorstCardinalRule(), WorstCardinalRule(),
                            dv.REPRESENTATIVES_ONLY),
               dv.parse_objective("avg.avg"))]
    rng = np.random.default_rng(order_seed)
    kinds = set()
    for instance in _shared_instances():
        assert _check_cells_on_shared(instance, cells, rng) > 0
        kinds.add(instance.kind)
    assert kinds == {dv.LINE, dv.EUCLIDEAN, dv.EXPLICIT}


def test_custom_inners_sharing_a_name_keep_separate_cache_entries():
    mean_twin = dv.InnerObjective(kind="custom", name="twin",
                                  fn=lambda v: float(np.mean(v)))
    max_twin = dv.InnerObjective(kind="custom", name="twin",
                                 fn=lambda v: float(np.max(v)))
    assert mean_twin == max_twin
    outer_max = dv.InnerObjective(kind="max", name="max")
    cells = []
    for inner in (mean_twin, max_twin):
        objective = dv.ComposedObjective(dv.parse_objective("max.max").outer, inner)
        cells += [(dv.compose(dv.OptimalRule(inner), dv.OptimalRule(outer_max)),
                   objective),
                  (dv.Mechanism(dv.ThresholdSelectRule(2.0, inner),
                                dv.LeftmostRepRule()), objective)]
    # agents 0-2 make mean and max disagree on district 0's best alternative
    instance = dv.build_line_instance([[0.0, 0.1, 1.0], [2.0]], [0.1, 0.5, 2.0])
    mean_costs = reference_cost_vector(instance, cells[0][1])
    max_costs = reference_cost_vector(instance, cells[2][1])
    assert not np.array_equal(mean_costs, max_costs)
    for order_seed in range(4):
        shared = dv.instance_from_json(dv.instance_to_json(instance))
        _check_cells_on_shared(shared, cells, np.random.default_rng(order_seed))
    mean_reps, _ = reference_run(cells[0][0], instance)
    max_reps, _ = reference_run(cells[2][0], instance)
    assert mean_reps != max_reps


# ---------------------------------------------------------------------------
# hill climbing
# ---------------------------------------------------------------------------

def test_hill_climb_never_loses_ground(worked):
    mech = make("compose:plurality-matching,arbitrary", "max.max")
    objective = dv.parse_objective("max.max")
    init_ratio = dv.evaluate(mech, worked, objective).ratio
    result = dv.hill_climb(mech, objective, worked, steps=300, seed=4)
    assert result.max_ratio >= init_ratio - EXACT
    # the reported witness really achieves the reported ratio
    again = dv.evaluate(mech, result.witness, objective)
    assert again.ratio == pytest.approx(result.max_ratio, abs=EXACT)


def test_hill_climb_zero_steps(worked):
    mech = make("compose:optimal,optimal", "avg.avg")
    objective = dv.parse_objective("avg.avg")
    result = dv.hill_climb(mech, objective, worked, steps=0)
    assert result.evaluated == 1
    assert result.witness.content_key() == worked.content_key()
    assert result.max_ratio == dv.evaluate(mech, worked, objective).ratio


def test_hill_climb_deterministic(worked):
    mech = make("compose:plurality-matching,median", "avg.avg")
    objective = dv.parse_objective("avg.avg")
    a = dv.hill_climb(mech, objective, worked, steps=200, seed=9)
    b = dv.hill_climb(mech, objective, worked, steps=200, seed=9)
    assert a.max_ratio == b.max_ratio
    assert a.witness.content_key() == b.witness.content_key()


def test_hill_climb_preserves_districts(worked):
    mech = make("compose:optimal,optimal", "max.max")
    objective = dv.parse_objective("max.max")
    result = dv.hill_climb(mech, objective, worked, steps=150, seed=1)
    assert result.witness.districts == worked.districts


def test_hill_climb_requires_line(euclid_small):
    mech = make("compose:optimal,optimal", "avg.avg")
    objective = dv.parse_objective("avg.avg")
    with pytest.raises(dv.NotLineMetric):
        dv.hill_climb(mech, objective, euclid_small, steps=10)


def test_hill_climb_rebuilds_match_the_public_builder():
    mech = make("arl:2", "max.max")
    objective = dv.parse_objective("max.max")
    init = dv.random_instance(np.random.default_rng(3), dv.GeneratorSpec(
        n_range=(8, 8), m_range=(4, 4), k_range=(3, 3)))
    result = dv.hill_climb(mech, objective, init, steps=300, seed=2)
    witness = result.witness
    assert witness is not init
    pos = witness.agent_points
    public = dv.build_line_instance([[float(pos[a]) for a in d]
                                     for d in witness.districts],
                                    witness.alternative_points.tolist())
    assert witness.agent_alt.tobytes() == public.agent_alt.tobytes()
    assert witness.alt_alt.tobytes() == public.alt_alt.tobytes()
    assert witness.districts == public.districts
    assert witness.content_key() == public.content_key()
    assert not witness.agent_points.flags.writeable


def test_hill_climb_rejects_nonfinite_perturbations(worked):
    mech = make("compose:optimal,optimal", "avg.avg")
    objective = dv.parse_objective("avg.avg")
    with pytest.raises(ValueError, match="finite"):
        dv.hill_climb(mech, objective, worked, steps=5, step_size=math.inf)


def test_hill_climb_rejects_negative_steps(worked):
    mech = make("compose:optimal,optimal", "avg.avg")
    objective = dv.parse_objective("avg.avg")
    with pytest.raises(dv.GeneratorError):
        dv.hill_climb(mech, objective, worked, steps=-1)


@pytest.mark.parametrize("patience", [0, -1])
def test_hill_climb_rejects_patience_below_one(worked, patience):
    mech = make("compose:optimal,optimal", "avg.avg")
    objective = dv.parse_objective("avg.avg")
    with pytest.raises(dv.GeneratorError, match="patience"):
        dv.hill_climb(mech, objective, worked, steps=20, patience=patience)


@pytest.mark.parametrize("step_size", [math.nan, -math.inf, -0.05])
def test_hill_climb_rejects_bad_step_size_before_any_draw(worked, step_size):
    mech = make("compose:optimal,optimal", "avg.avg")
    objective = dv.parse_objective("avg.avg")
    with mock.patch.object(dv.distortion.np.random, "Generator") as generator, \
            pytest.raises(ValueError, match="step_size.*finite"):
        dv.hill_climb(mech, objective, worked, steps=5, step_size=step_size)
    generator.assert_not_called()


def test_hill_climb_rejects_negative_seed_before_any_draw(worked):
    mech = make("compose:optimal,optimal", "avg.avg")
    objective = dv.parse_objective("avg.avg")
    with mock.patch.object(dv.distortion.np.random, "Generator") as generator, \
            pytest.raises(dv.GeneratorError, match="seeds must be nonnegative"):
        dv.hill_climb(mech, objective, worked, steps=5, seed=-1)
    generator.assert_not_called()


def reference_hill_climb(mechanism, objective, init, steps=2000, step_size=0.05,
                         seed=0, patience=250):
    """Test-only oracle: the climb one move at a time.

    Each move is rebuilt into its own instance and evaluated alone; a move or
    restart with a coordinate or distance that is not finite raises.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))

    def build(agents, alts):
        with np.errstate(over="ignore", invalid="ignore"):
            finite = (np.isfinite(np.abs(agents[:, None] - alts[None, :])).all()
                      and np.isfinite(np.abs(alts[:, None] - alts[None, :])).all())
        if not (finite and np.isfinite(agents).all() and np.isfinite(alts).all()):
            raise ValueError("coordinates and distances must be finite")
        return dv.instances._trusted_instance(dv.LINE, agents, init.districts, alts)

    def ratio_of(inst):
        return dv.evaluate(mechanism, inst, objective).ratio

    cur = best = init
    cur_ratio = best_ratio = ratio_of(init)
    evaluated = 1
    stale = 0
    n, m = init.num_agents, init.num_alternatives
    for _ in range(steps):
        agents = cur.agent_points.copy()
        alts = cur.alternative_points.copy()
        j = int(rng.integers(n + m))
        delta = float(rng.normal(0.0, step_size))
        with np.errstate(over="ignore"):
            if j < n:
                agents[j] += delta
            else:
                alts[j - n] += delta
        candidate = build(agents, alts)
        r = ratio_of(candidate)
        evaluated += 1
        if r > cur_ratio:
            cur, cur_ratio = candidate, r
            stale = 0
            if r > best_ratio:
                best, best_ratio = candidate, r
        else:
            stale += 1
            if stale >= patience:
                with np.errstate(over="ignore"):
                    agents = best.agent_points + rng.normal(0.0, step_size * 10, n)
                    alts = best.alternative_points + rng.normal(0.0, step_size * 10, m)
                cur = build(agents, alts)
                cur_ratio = ratio_of(cur)
                evaluated += 1
                stale = 0
                if cur_ratio > best_ratio:
                    best, best_ratio = cur, cur_ratio
    return dv.SweepResult(best_ratio, best, evaluated, seed)


def _climb_outcome(climb, *args, **kwargs):
    """What a climb returns, or the type and message of what it raises."""
    try:
        result = climb(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    return repr(result.max_ratio), result.evaluated, result.witness.content_key()


#: Batched cells (cardinal and ordinal, avg, max and mixed) and one
#: plurality-matching cell, which a block cannot decide.
CLIMB_PANEL = (
    ("arl:2", "max.max"),
    ("compose:optimal,optimal", "avg.avg"),
    ("compose:optimal,optimal,reps-only", "avg.avg"),
    ("compose:median,leftmost", "max.max"),
    ("compose:optimal,optimal", "max.avg"),
    ("arbitrary-dictator", "avg.max"),
    ("compose:plurality-matching,plurality-matching", "avg.max"),
)


def _climb_inits():
    spec = dv.GeneratorSpec(n_range=(4, 9), m_range=(2, 5), k_range=(1, 3))
    drawn = [dv.random_instance(_trial_rng(41, i), spec) for i in range(2)]
    # scattered districts: agent ids are not consecutive within a district
    drawn.append(dv.instance_from_json({
        "metric": {"type": "line", "agent_positions": [[0.1, 0.8], [0.4, 0.3, 1.2]],
                   "alternative_positions": [0.2, 0.9, 0.5]},
        "districts": [[0, 3], [1, 2, 4]]}))
    return drawn


@pytest.mark.parametrize("panel_cell", CLIMB_PANEL, ids=" ".join)
def test_hill_climb_matches_one_move_at_a_time(panel_cell):
    (mechanism, objective), = _cells([panel_cell])
    batched = dv.distortion._batched(mechanism, objective)
    assert batched == ("plurality-matching" not in panel_cell[0])
    compared = 0
    for c, init in enumerate(_climb_inits()):
        for patience in (1, 3, 7, 250):
            for steps in (0, 1, 5, 37, 600):
                kwargs = dict(steps=steps, seed=c + patience + steps,
                              patience=patience, step_size=0.05 + 0.1 * c)
                expected = _climb_outcome(reference_hill_climb, mechanism,
                                          objective, init, **kwargs)
                assert _climb_outcome(dv.hill_climb, mechanism, objective, init,
                                      **kwargs) == expected, kwargs
                compared += 1
    assert compared == 60


def _check_first_raise(mechanism, objective, init, **kwargs):
    """Climbs of 0, 1, 2, ... steps match the one-move oracle up to the first
    that raises, which must raise the oracle's error. Returns its steps."""
    for steps in range(200):
        expected = _climb_outcome(reference_hill_climb, mechanism, objective,
                                  init, steps=steps, **kwargs)
        assert _climb_outcome(dv.hill_climb, mechanism, objective, init,
                              steps=steps, **kwargs) == expected, steps
        if expected[0] is ValueError:
            assert expected[1] == "coordinates and distances must be finite"
            return steps
    raise AssertionError("the oracle never raised")


@pytest.mark.parametrize("panel_cell", [CLIMB_PANEL[0], CLIMB_PANEL[-1]], ids=" ".join)
@pytest.mark.parametrize("patience", [3, 250])
def test_hill_climb_raises_where_one_move_at_a_time_does(worked, panel_cell, patience):
    # a step of 1e308 overflows a coordinate within a few moves, and a
    # restart's kick of 1e309 at once
    (mechanism, objective), = _cells([panel_cell])
    assert _check_first_raise(mechanism, objective, worked, step_size=1e308,
                              seed=5, patience=patience) > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mechanism_spec", ["compose:optimal,optimal",
                                            "compose:plurality-matching,arbitrary"])
@pytest.mark.parametrize("seed", range(6))
def test_hill_climb_rejects_moves_whose_distances_overflow(mechanism_spec, seed):
    # finite coordinates whose gaps exceed the float range; the second cell
    # is not batched, so each of its moves is built alone
    init = dv.build_line_instance([[8.5e307], [8.9e307]], [-8.5e307, 8.8e307])
    (mechanism, objective), = _cells([(mechanism_spec, "max.max")])
    with pytest.raises(ValueError, match="coordinates and distances must be finite"):
        dv.hill_climb(mechanism, objective, init, step_size=1e307, seed=seed)
    _check_first_raise(mechanism, objective, init, step_size=1e307, seed=seed)


class ScriptedGenerator:
    """Test stub for a climb's generator: it hands out the given moves, each
    a (coordinate, delta) pair, in order."""

    def __init__(self, moves):
        self.moves = list(moves)

    def integers(self, high):
        return self.moves[0][0]

    def normal(self, loc, scale):
        return self.moves.pop(0)[1]


def test_hill_climb_checks_each_move_against_the_point_it_moves():
    # agent 0 moves to -5e307, which raises the ratio, then by +1.75e308:
    # from there it lands at 1.25e308, but from its start it would land
    # 1.85e308 from alternative 1, a distance beyond float range
    init = dv.build_line_instance([[0.0, 1.0], [2.0]], [0.5, -1e307, 1.8])
    (mechanism, objective), = _cells([("compose:optimal,optimal", "max.max")])
    assert dv.distortion._batched(mechanism, objective)
    first, second = (0, -5e307), (0, 1.75e308)
    for moves, expected in (([second], (ValueError,
                                        "coordinates and distances must be finite")),
                            ([first, second], ("1.25", 3))):
        for climb in (reference_hill_climb, dv.hill_climb):
            with mock.patch.object(np.random, "Generator",
                                   lambda bits: ScriptedGenerator(moves)):
                outcome = _climb_outcome(climb, mechanism, objective, init,
                                         steps=len(moves))
            assert outcome[:2] == expected, climb
