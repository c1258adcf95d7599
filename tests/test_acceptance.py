"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Each criterion below prints a single ``[criterion N] name: PASS`` line on
success; under ``pytest -v`` the test outcome line itself doubles as the
pass/fail record. Tolerances and trial counts are fixed here on purpose;
loosening them is a change to what this package promises.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

import districtvote as dv
from districtvote import cli

EXACT = 1e-12
SWEEP_TOL = 1e-9
SQ2 = math.sqrt(2.0)
GOLDEN_LIMIT = 2.0 + math.sqrt(5.0)

UNANIMOUS_SHIPPED = (
    "compose:optimal,optimal",
    "compose:optimal,optimal,reps-only",
    "compose:plurality-matching,plurality-matching",
    "compose:plurality-matching,arbitrary",
    "compose:plurality-matching,median",
    "arbitrary-median",
    "arbitrary-dictator",
)
ORDINAL_SHIPPED = (
    "compose:plurality-matching,plurality-matching",
    "compose:plurality-matching,arbitrary",
    "compose:plurality-matching,median",
    "arbitrary-median",
    "arbitrary-dictator",
)


def make(spec, objective):
    return dv.parse_mechanism(spec, dv.parse_objective(objective))


def _trial_rng(seed, trial):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, trial])))


# ---------------------------------------------------------------------------
# criterion 1: exact arithmetic on the hand-built worst-case instances
# ---------------------------------------------------------------------------

def test_criterion_1_proof_instance_arithmetic():
    start = time.perf_counter()

    # ranking trap for avg.max: electing a costs 5/4 against 1/4
    family = dv.gen_avg_max_family(10)
    costs = dv.cost_vector(family.instances[0], family.objective)
    assert costs[family.roles[0]["a"]] == pytest.approx(5.0 / 4.0, abs=EXACT)
    assert costs[family.roles[0]["b"]] == pytest.approx(1.0 / 4.0, abs=EXACT)

    # unanimity trap for max.max: the two alternatives cost 1 and 3
    family = dv.gen_max_max_instance(1)
    for inst, roles in zip(family.instances, family.roles):
        costs = dv.cost_vector(inst, family.objective)
        assert costs[roles["a"]] == pytest.approx(1.0, abs=EXACT)
        assert costs[roles["b"]] == pytest.approx(3.0, abs=EXACT)

    # at the exact split point both branch losses of the golden-ratio
    # construction agree and equal the limit 2 + sqrt(5)
    theta = (math.sqrt(5.0) - 1.0) / 2.0
    assert (1.0 + theta) / (1.0 - theta) == pytest.approx(
        GOLDEN_LIMIT, abs=EXACT)
    assert (2.0 + theta) / theta == pytest.approx(GOLDEN_LIMIT, abs=EXACT)

    # the cardinal line family: costs (2 - sqrt(2), sqrt(2)) on the inner
    # members and (2 + sqrt(2), sqrt(2)) on the outer ones, both giving
    # ratio 1 + sqrt(2)
    family = dv.gen_cardinal_line_family()
    costs0 = dv.cost_vector(family.instances[0], family.objective)
    a0, b0 = family.roles[0]["a"], family.roles[0]["b"]
    assert costs0[a0] == pytest.approx(2.0 - SQ2, abs=EXACT)
    assert costs0[b0] == pytest.approx(SQ2, abs=EXACT)
    assert costs0[b0] / costs0[a0] == pytest.approx(1.0 + SQ2, abs=EXACT)
    costs1 = dv.cost_vector(family.instances[1], family.objective)
    a1, b1 = family.roles[1]["a"], family.roles[1]["b"]
    assert costs1[a1] == pytest.approx(2.0 + SQ2, abs=EXACT)
    assert costs1[b1] == pytest.approx(SQ2, abs=EXACT)
    assert costs1[a1] / costs1[b1] == pytest.approx(1.0 + SQ2, abs=EXACT)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[criterion 1] proof-instance arithmetic: PASS ({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# criterion 2: randomized sweeps stay within every claimed upper bound
# ---------------------------------------------------------------------------

def _sweep_cells():
    cells = []
    for obj in ("avg.avg", "avg.max", "max.max", "max.avg"):
        cells.append(("compose:optimal,optimal", obj, 3.0))
    for obj in ("avg.avg", "avg.max", "max.max", "max.avg"):
        cells.append(("compose:plurality-matching,plurality-matching", obj, 11.0))
    for obj in ("max.max", "max.avg"):
        cells.append(("compose:plurality-matching,arbitrary", obj, 5.0))
    for obj in ("avg.avg", "avg.max"):
        cells.append(("compose:plurality-matching,median", obj, 7.0))
    cells.append(("arbitrary-median", "avg.max", 5.0))
    cells.append(("arbitrary-dictator", "max.max", 3.0))
    for lam in (1.0, 2.0, 1.0 + SQ2, 4.0):
        for inner in ("avg", "max", "pmean:2"):
            cells.append((f"arl:{lam!r}", f"max.{inner}",
                          max(2.0 + 1.0 / lam, lam)))
    for obj in ("avg.avg", "avg.max", "max.max", "max.avg"):
        cells.append(("compose:optimal,optimal,reps-only", obj, 5.0))
    return cells


def test_criterion_2_upper_bound_sweeps():
    cells = _sweep_cells()
    assert len(cells) == 30
    generator = dv.GeneratorSpec(n_range=(2, 16), m_range=(2, 6),
                                 k_range=(1, 4))
    for mech_spec, obj_spec, bound in cells:
        objective = dv.parse_objective(obj_spec)
        mechanism = dv.parse_mechanism(mech_spec, objective)
        assert dv.claimed_bound(mechanism, objective) == pytest.approx(
            bound, abs=EXACT), (mech_spec, obj_spec)
        cell_start = time.perf_counter()
        result = dv.sweep(mechanism, objective, generator,
                          trials=10_000, seed=0)
        cell_elapsed = time.perf_counter() - cell_start
        assert result.max_ratio <= bound + SWEEP_TOL, (
            mech_spec, obj_spec, result.max_ratio, bound)
        assert cell_elapsed < 60.0, (mech_spec, obj_spec, cell_elapsed)
    print(f"[criterion 2] upper-bound sweeps: PASS "
          f"({len(cells)} cells x 10000 trials)")


# ---------------------------------------------------------------------------
# criterion 3: adversarial families force their lower bounds
# ---------------------------------------------------------------------------

def test_criterion_3_lower_bound_certification():
    start = time.perf_counter()

    trap = dv.gen_max_max_instance(2)
    for spec in UNANIMOUS_SHIPPED:
        forced = dv.certify_lower_bound(trap, make(spec, "max.max"))
        assert forced >= 3.0 - SWEEP_TOL, (spec, forced)

    avg_max = dv.gen_avg_max_family(10)
    max_avg = dv.gen_max_avg_family(10)
    for spec in ORDINAL_SHIPPED:
        forced = dv.certify_lower_bound(avg_max, make(spec, "avg.max"))
        assert forced >= 4.2, (spec, "avg.max", forced)
        forced = dv.certify_lower_bound(max_avg, make(spec, "max.avg"))
        assert forced >= 4.2, (spec, "max.avg", forced)

    for build in (dv.gen_avg_max_family, dv.gen_max_avg_family):
        targets = [build(i).target_ratio for i in range(5, 15)]
        for earlier, later in zip(targets, targets[1:]):
            assert later >= earlier - EXACT
        for earlier, later in zip(targets, targets[1:]):
            assert (GOLDEN_LIMIT - later) <= (GOLDEN_LIMIT - earlier) + EXACT
        assert targets[-1] == pytest.approx(GOLDEN_LIMIT, abs=1e-4)
        assert targets[-1] <= GOLDEN_LIMIT + EXACT

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[criterion 3] lower-bound certification: PASS ({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# criterion 4: the threshold mechanism is tight at 1 + sqrt(2)
# ---------------------------------------------------------------------------

def test_criterion_4_threshold_tightness():
    start = time.perf_counter()
    family = dv.gen_cardinal_line_family()
    mech = dv.lambda_arl(1.0 + SQ2)

    achieved = dv.certify_lower_bound(family, mech)
    assert achieved <= 1.0 + SQ2 + SWEEP_TOL
    assert achieved == pytest.approx(1.0 + SQ2, abs=SWEEP_TOL)

    # non-unanimity witness: on the first member every agent ranks role a
    # first, yet the district representative is role b
    member0 = family.instances[0]
    a, b = family.roles[0]["a"], family.roles[0]["b"]
    assert np.all(member0.profile().tops == a)
    trace = dv.run(mech, member0)
    assert trace.representatives == (b,)
    assert not mech.unanimous

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[criterion 4] threshold tightness at 1+sqrt(2): PASS "
          f"({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# criterion 5: single-electorate rule guarantees
# ---------------------------------------------------------------------------

def test_criterion_5_rule_level_distortion():
    start = time.perf_counter()
    trials = 10_000

    # plurality-matching pays at most 3x the best average cost; the optimal
    # rule is exact on the same instances
    single = dv.GeneratorSpec(k_range=(1, 1), n_range=(2, 16), m_range=(2, 6))
    worst_pm = 1.0
    for i in range(trials):
        inst = dv.random_instance(_trial_rng(11, i), single)
        costs = dv.cost_vector(inst, dv.AVG_AVG)
        best = float(costs.min())
        winner = dv.plurality_matching_rule(inst.profile())
        opt = int(dv.OptimalRule(dv.AVG).pick(dv.district_aggregates(inst, dv.AVG),
                                              None)[0])
        assert costs[opt] == pytest.approx(best, abs=EXACT)
        if best == 0.0:
            assert costs[winner] == 0.0
        else:
            worst_pm = max(worst_pm, float(costs[winner]) / best)
    assert worst_pm <= 3.0 + SWEEP_TOL

    # with every voter standing exactly on an alternative the guarantee
    # sharpens to 2x
    worst_pinned = 1.0
    for i in range(trials):
        rng = _trial_rng(12, i)
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 17))
        alts = rng.uniform(0.0, 1.0, m)
        voters = alts[rng.integers(0, m, n)]
        inst = dv.build_line_instance([voters.tolist()], alts.tolist())
        assert np.all(inst.agent_alt.min(axis=1) == 0.0)
        costs = dv.cost_vector(inst, dv.AVG_AVG)
        best = float(costs.min())
        winner = dv.plurality_matching_rule(inst.profile())
        if best == 0.0:
            assert costs[winner] == 0.0
        else:
            worst_pinned = max(worst_pinned, float(costs[winner]) / best)
    assert worst_pinned <= 2.0 + SWEEP_TOL

    # the line median minimizes the total distance from pseudo-voters
    # placed at alternatives; an exhaustive scan is the oracle
    line = dv.GeneratorSpec(k_range=(1, 1), n_range=(2, 4), m_range=(2, 6))
    for i in range(trials):
        rng = _trial_rng(13, i)
        inst = dv.random_instance(rng, line)
        m = inst.num_alternatives
        k = int(rng.integers(1, 5))
        reps = [int(r) for r in rng.integers(0, m, k)]
        rows = inst.alternative_rankings()[np.array(reps)]
        profile = dv.OrdinalProfile(rows, inst.line_axis())
        winner = dv.MedianLineRule.pick(dv.Electorate.of(profile, reps))
        totals = inst.alt_alt[np.array(reps)].sum(axis=0)
        assert totals[winner] == pytest.approx(float(totals.min()), abs=EXACT)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[criterion 5] rule-level distortion: PASS "
          f"(pm worst {worst_pm:.4f} <= 3, pinned worst "
          f"{worst_pinned:.4f} <= 2, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 6: structural facts the guarantees lean on
# ---------------------------------------------------------------------------

def test_criterion_6_structural_lemmas():
    start = time.perf_counter()
    samples = 10_000

    # on a line, moving a candidate toward the sum-minimizing point never
    # increases the total distance to a fixed point set
    for i in range(samples):
        rng = _trial_rng(21, i)
        points = rng.uniform(0.0, 1.0, int(rng.integers(1, 17)))
        argmin = float(np.sort(points)[(points.size - 1) // 2])
        y = float(rng.uniform(-0.25, 1.25))
        x = y + float(rng.uniform(0.0, 1.0)) * (argmin - y)
        sum_x = float(np.abs(points - x).sum())
        sum_y = float(np.abs(points - y).sum())
        assert sum_x <= sum_y + EXACT

    # the best representative among k of them costs at most 2(k-1)/k times
    # the best alternative overall, in any metric
    line = dv.GeneratorSpec(n_range=(2, 6), m_range=(2, 6))
    euclid = dv.GeneratorSpec(kind="euclidean", dim=2, n_range=(2, 6),
                              m_range=(2, 6))
    for i in range(samples):
        rng = _trial_rng(22, i)
        inst = dv.random_instance(rng, line if i % 2 == 0 else euclid)
        m = inst.num_alternatives
        k = int(rng.integers(1, 5))
        reps = np.array([int(r) for r in rng.integers(0, m, k)])
        sub = inst.alt_alt[reps]
        lhs = float(sub[:, reps].sum(axis=0).min())
        rhs = float(sub.sum(axis=0).min())
        assert lhs <= (2.0 * (k - 1) / k) * rhs + SWEEP_TOL

    # the properties the composition guarantees require hold for the
    # shipped aggregators
    for spec in ("avg", "max", "pmean:1.5", "pmean:2", "pmean:3"):
        results = dv.run_property_checks(dv.parse_inner(spec),
                                         samples=samples)
        assert all(r.passed for r in results), spec

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"[criterion 6] structural lemmas: PASS "
          f"({samples} samples each, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 7: verification artifacts are reproducible byte for byte
# ---------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "mechanisms": ["compose:optimal,optimal",
                       "compose:plurality-matching,plurality-matching",
                       "arl:2"],
        "objectives": ["avg.avg", "max.max"],
        "generator": {"seed": 17, "trials": 400,
                      "n-range": [2, 8], "m-range": [2, 4], "k-range": [1, 3]},
        "families": ["cardinal-line", "max-max-unanimity"],
    }), encoding="utf-8")

    blobs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code = cli.main(["verify-bounds", "--config", str(config_path),
                         "--out", str(out_dir)])
        assert code == 0
        blobs.append((out_dir / "bounds.csv").read_bytes())
    assert blobs[0] == blobs[1]

    # the same rows serialize identically in memory as well
    config = cli.load_config(str(config_path))
    rows_a = cli.run_verify_bounds(config)
    rows_b = cli.run_verify_bounds(config)
    assert cli.rows_to_csv(rows_a) == cli.rows_to_csv(rows_b)

    with open(tmp_path / "first" / "bounds.csv", newline="",
              encoding="utf-8") as fh:
        parsed = list(csv.DictReader(fh))
    assert all(row["within_bound"] == "true" for row in parsed)
    print(f"[criterion 7] determinism: PASS "
          f"({len(parsed)} rows byte-identical across runs)")
