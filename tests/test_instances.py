"""Instance construction, validation, rankings, and JSON round-trips."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

import districtvote as dv

from .strategies import euclidean_instances, line_instances

EXACT = 1e-12


# ---------------------------------------------------------------------------
# distances (hand-computed)
# ---------------------------------------------------------------------------

def test_worked_instance_distances(worked):
    # |0-0.5|=0.5 |0-1.8|=1.8 ; |1-0.5|=0.5 |1-1.8|=0.8 ; |2-0.5|=1.5 |2-1.8|=0.2
    expected = np.array([[0.5, 1.8], [0.5, 0.8], [1.5, 0.2]])
    assert np.allclose(worked.agent_alt, expected, atol=EXACT)
    assert np.allclose(worked.alt_alt, [[0.0, 1.3], [1.3, 0.0]], atol=EXACT)
    assert worked.num_agents == 3
    assert worked.num_alternatives == 2
    assert worked.num_districts == 2
    assert worked.districts == ((0, 1), (2,))
    assert worked.is_line
    assert worked.agent_positions.tolist() == [0.0, 1.0, 2.0]
    assert worked.alternative_positions.tolist() == [0.5, 1.8]


def test_euclidean_distances(euclid_small):
    # 3-4-5 triangles by construction
    assert np.allclose(euclid_small.agent_alt, [[0.0, 10.0], [5.0, 5.0]],
                       atol=EXACT)
    assert np.allclose(euclid_small.alt_alt, [[0.0, 10.0], [10.0, 0.0]],
                       atol=EXACT)
    assert not euclid_small.is_line
    assert euclid_small.agent_positions is None


def test_explicit_builder_accepts_valid_metric():
    # points 0,1,2 on a line at 0, 1, 3 (two agents, one alternative)
    mat = [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]
    inst = dv.build_explicit_instance(mat, district_sizes=[2],
                                      num_alternatives=1)
    assert inst.num_agents == 2
    assert inst.agent_alt.tolist() == [[3.0], [2.0]]
    assert not inst.is_line


# ---------------------------------------------------------------------------
# validation errors
# ---------------------------------------------------------------------------

def test_empty_district_rejected():
    with pytest.raises(dv.EmptyDistrict):
        dv.build_line_instance([[0.0], []], [1.0])


def test_no_alternatives_rejected():
    with pytest.raises(dv.NoAlternatives):
        dv.build_line_instance([[0.0]], [])


def test_matrix_size_mismatch_rejected():
    with pytest.raises(ValueError):
        dv.build_explicit_instance([[0.0, 1.0], [1.0, 0.0]],
                                   district_sizes=[2], num_alternatives=1)


def test_overlapping_districts_rejected(worked):
    data = dv.instance_to_json(worked)
    data["districts"] = [[0, 1], [1, 2]]
    data["metric"]["agent_positions"] = [[0.0, 1.0], [1.0, 2.0]]
    with pytest.raises(dv.InvalidPartition):
        dv.instance_from_json(data)


def test_missing_agent_in_partition_rejected(worked):
    data = dv.instance_to_json(worked)
    data["districts"] = [[0], [2]]
    data["metric"]["agent_positions"] = [[0.0], [2.0]]
    with pytest.raises((dv.InvalidPartition, dv.SchemaError)):
        dv.instance_from_json(data)


def test_negative_distance_rejected():
    mat = [[0.0, -1.0], [-1.0, 0.0]]
    with pytest.raises(dv.NegativeDistance):
        dv.build_explicit_instance(mat, [1], 1)


def test_asymmetric_matrix_rejected():
    mat = [[0.0, 1.0], [2.0, 0.0]]
    with pytest.raises(dv.AsymmetricMatrix):
        dv.build_explicit_instance(mat, [1], 1)


def test_nonzero_diagonal_rejected():
    mat = [[0.5, 1.0], [1.0, 0.0]]
    with pytest.raises(dv.NonzeroDiagonal):
        dv.build_explicit_instance(mat, [1], 1)


def test_triangle_violation_rejected_with_witness():
    # d(0,2)=5 exceeds d(0,1)+d(1,2)=2
    mat = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    with pytest.raises(dv.TriangleViolation) as exc:
        dv.build_explicit_instance(mat, [2], 1)
    i, j, x = exc.value.triple
    assert (i, j) == (0, 2)
    assert x == 1
    assert exc.value.excess == pytest.approx(3.0, abs=EXACT)


def test_triangle_tolerance_accepts_tiny_excess():
    eps = 0.5 * dv.TRIANGLE_TOL
    mat = [[0.0, 1.0, 2.0 + eps], [1.0, 0.0, 1.0], [2.0 + eps, 1.0, 0.0]]
    inst = dv.build_explicit_instance(mat, [2], 1)
    assert inst.num_agents == 2


@pytest.mark.parametrize("scale, far", [(1e-12, None), (1e12, None), (1.0, 1e10)])
def test_matrix_checks_scale_with_the_distances(scale, far):
    # far: one more alternative that far from every point, which must not
    # loosen the checks among the others
    def build(mat):
        mat = np.array(mat, dtype=float) * scale
        if far is not None:
            mat = np.pad(mat, (0, 1), constant_values=far)
            mat[-1, -1] = 0.0
        return dv.build_explicit_instance(mat, [2], len(mat) - 2)

    with pytest.raises(dv.TriangleViolation):
        build([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    with pytest.raises(dv.AsymmetricMatrix):
        build([[0, 1, 2], [1, 0, 1], [2.5, 1, 0]])
    with pytest.raises(dv.NonzeroDiagonal):
        build([[0.5, 1, 2], [1, 0, 1], [2, 1, 0]])
    build([[0, 1, 2], [1, 0, 1], [2, 1, 0]])  # a metric at the same scale passes


def test_matrix_of_large_line_points_is_accepted():
    # |p_i - p_j| rounds at 1e9, past any absolute slack
    for seed in range(200):
        p = np.random.default_rng(seed).uniform(0.0, 1.0, 8) * 1e9
        mat = np.abs(p[:, None] - p[None, :])
        inst = dv.build_explicit_instance(mat, [3, 2], 3)
        assert inst.agent_alt.tobytes() == mat[:5, 5:].tobytes()


def test_triangle_check_does_not_warn_on_overflowing_sums():
    big = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = dv.build_explicit_instance(
            [[0.0, big, big], [big, 0.0, big], [big, big, 0.0]], [1], 2)
        assert inst.agent_alt.tolist() == [[big, big]]
        # d(0,3) exceeds the path through 1; the path through 2 overflows
        mat = [[0.0, 1e307, big, 1.5e308], [1e307, 0.0, big, 1e307],
               [big, big, 0.0, big], [1.5e308, 1e307, big, 0.0]]
        with pytest.raises(dv.TriangleViolation) as exc:
            dv.build_explicit_instance(mat, [2], 2)
    assert exc.value.triple == (0, 3, 1)


def test_nonfinite_positions_rejected():
    with pytest.raises((ValueError, dv.SchemaError)):
        dv.build_line_instance([[float("nan")]], [0.0])
    with pytest.raises((ValueError, dv.SchemaError)):
        dv.build_line_instance([[0.0]], [float("inf")])


# ---------------------------------------------------------------------------
# rankings and the canonical tie-break
# ---------------------------------------------------------------------------

def test_worked_profile_rankings(worked):
    profile = worked.profile()
    assert profile.rankings.tolist() == [[0, 1], [0, 1], [1, 0]]
    assert profile.tops.tolist() == [0, 0, 1]
    assert profile.line_axis == (0, 1)
    assert profile.num_voters == 3


def test_distance_ties_break_by_ascending_id():
    # the agent is equidistant (0.5) from both alternatives
    inst = dv.build_line_instance([[1.0]], [1.5, 0.5])
    assert inst.profile().rankings.tolist() == [[0, 1]]


def test_line_axis_orders_by_position_then_id():
    inst = dv.build_line_instance([[0.0]], [2.0, 1.0, 2.0])
    # positions 1.0 < 2.0 == 2.0, co-located pair ordered by id
    assert inst.line_axis() == (1, 0, 2)


def test_profile_restrict_sorts_by_agent_id(worked):
    sub = worked.profile().restrict([2, 0])
    assert sub.rankings.tolist() == [[0, 1], [1, 0]]
    assert sub.line_axis == (0, 1)


@settings(max_examples=120, deadline=None)
@given(line_instances())
def test_rankings_are_sorted_by_distance_with_id_ties(inst):
    profile = inst.profile()
    for i, row in enumerate(profile.rankings):
        dists = inst.agent_alt[i, row]
        assert np.all(np.diff(dists) >= 0)
        for a, b in zip(row[:-1], row[1:]):
            if inst.agent_alt[i, a] == inst.agent_alt[i, b]:
                assert a < b


@settings(max_examples=120, deadline=None)
@given(line_instances())
def test_ranking_rows_are_permutations(inst):
    profile = inst.profile()
    m = inst.num_alternatives
    for row in profile.rankings:
        assert sorted(row.tolist()) == list(range(m))


@settings(max_examples=60, deadline=None)
@given(line_instances(max_agents=6, max_alternatives=4))
def test_line_distances_form_a_metric(inst):
    # feed the implied full point-to-point matrix back through the validator
    pts = np.concatenate([inst.agent_positions, inst.alternative_positions])
    mat = np.abs(pts[:, None] - pts[None, :])
    rebuilt = dv.build_explicit_instance(
        mat, [len(d) for d in inst.districts], inst.num_alternatives)
    assert np.allclose(rebuilt.agent_alt, inst.agent_alt, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(euclidean_instances(max_agents=5, max_alternatives=3))
def test_euclidean_distances_form_a_metric(inst):
    n, m = inst.num_agents, inst.num_alternatives
    # triangle inequality through every alternative hop
    for i in range(n):
        for j in range(m):
            for x in range(m):
                assert (inst.agent_alt[i, j]
                        <= inst.agent_alt[i, x] + inst.alt_alt[x, j] + 1e-9)


def test_single_peaked_rankings_along_axis():
    # with distinct alternative positions each voter's preference falls
    # then rises along the axis
    inst = dv.build_line_instance([[0.4, 2.2, 3.0]], [0.0, 1.0, 2.0, 3.5])
    profile = inst.profile()
    m = inst.num_alternatives
    for row in profile.rankings:
        rank_of = np.empty(m, dtype=int)
        rank_of[row] = np.arange(m)
        along_axis = rank_of[list(profile.line_axis)]
        imin = int(np.argmin(along_axis))
        assert all(along_axis[i] > along_axis[i + 1] for i in range(imin))
        assert all(along_axis[i] < along_axis[i + 1]
                   for i in range(imin, m - 1))


@settings(max_examples=120, deadline=None)
@given(line_instances(distinct_alternatives=True))
def test_single_peaked_rankings_property(inst):
    profile = inst.profile()
    m = inst.num_alternatives
    axis = list(profile.line_axis)
    for row in profile.rankings:
        rank_of = np.empty(m, dtype=int)
        rank_of[row] = np.arange(m)
        along_axis = rank_of[axis]
        imin = int(np.argmin(along_axis))
        assert all(np.diff(along_axis[:imin + 1]) < 0)
        assert all(np.diff(along_axis[imin:]) > 0)


# ---------------------------------------------------------------------------
# trusted construction of generated instances
# ---------------------------------------------------------------------------

def public_random_instance(rng, spec):
    """Test-only reference: the generator's draws, built by the public builders."""
    n = int(rng.integers(spec.n_range[0], spec.n_range[1] + 1))
    m = int(rng.integers(spec.m_range[0], spec.m_range[1] + 1))
    k_hi = min(spec.k_range[1], n)
    k = int(rng.integers(min(spec.k_range[0], k_hi), k_hi + 1))
    cuts = (np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
            if k > 1 else [])
    if spec.kind == dv.LINE:
        agents = rng.uniform(spec.low, spec.high, n)
        alts = rng.uniform(spec.low, spec.high, m)
        return dv.build_line_instance([b.tolist() for b in np.split(agents, cuts)],
                                      alts.tolist())
    agents = rng.uniform(spec.low, spec.high, (n, spec.dim))
    alts = rng.uniform(spec.low, spec.high, (m, spec.dim))
    return dv.build_euclidean_instance([b.tolist() for b in np.split(agents, cuts)],
                                       alts.tolist())


def assert_same_instance(got, want):
    for name in ("agent_alt", "alt_alt"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert not a.flags.writeable
    for name in ("agent_points", "alternative_points"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.tobytes() == b.tobytes(), name
        assert not a.flags.writeable
    assert got.districts == want.districts
    assert got.content_key() == want.content_key()


@pytest.mark.parametrize("spec", [
    dv.GeneratorSpec(),
    dv.GeneratorSpec(n_range=(1, 20), m_range=(1, 7), k_range=(1, 6),
                     low=-1e6, high=3e6),
    dv.GeneratorSpec(kind="euclidean", dim=3, n_range=(2, 9), k_range=(1, 4)),
], ids=["line", "line-wide", "euclidean"])
def test_random_instance_equals_public_builders_on_same_draws(spec):
    for seed in range(150):
        got = dv.random_instance(np.random.default_rng(seed), spec)
        assert_same_instance(got, public_random_instance(
            np.random.default_rng(seed), spec))


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", [dv.LINE, dv.EUCLIDEAN, dv.EXPLICIT])
@pytest.mark.parametrize("read_back", [False, True], ids=["built", "from-json"])
def test_instance_arrays_are_read_only(kind, read_back):
    if kind == dv.LINE:
        inst = dv.build_line_instance([[0.0, 1.0], [2.0]], [0.5, 1.8])
    elif kind == dv.EUCLIDEAN:
        inst = dv.build_euclidean_instance([[[0.0, 0.0]], [[3.0, 4.0]]],
                                           [[0.0, 0.0], [6.0, 8.0]])
    else:
        inst = dv.build_explicit_instance(
            [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]], [1, 1], 1)
    if read_back:
        inst = dv.instance_from_json(dv.instance_to_json(inst))
    assert inst.kind == kind
    assert (inst.num_agents, inst.num_alternatives) == inst.agent_alt.shape
    held = ["agent_alt", "alt_alt"] + (
        ["matrix"] if kind == dv.EXPLICIT else ["agent_points", "alternative_points"])
    for name in held:
        assert not getattr(inst, name).flags.writeable, name
    if kind == dv.EXPLICIT:
        assert inst.agent_points is None and inst.alternative_points is None
    else:
        assert inst.matrix is None


def test_json_round_trip_line(worked):
    data = dv.instance_to_json(worked)
    again = dv.instance_from_json(data)
    assert again.content_key() == worked.content_key()
    assert again.districts == worked.districts


def test_json_round_trip_euclidean(euclid_small):
    data = dv.instance_to_json(euclid_small)
    again = dv.instance_from_json(data)
    assert again.content_key() == euclid_small.content_key()


def test_json_round_trip_explicit():
    mat = [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]
    inst = dv.build_explicit_instance(mat, [2], 1)
    again = dv.instance_from_json(dv.instance_to_json(inst))
    assert again.content_key() == inst.content_key()


def test_save_and_load(tmp_path, worked):
    path = tmp_path / "inst.json"
    dv.save_instance(worked, path)
    again = dv.load_instance(path)
    assert again.content_key() == worked.content_key()


def test_unknown_top_level_field_rejected(worked):
    data = dv.instance_to_json(worked)
    data["surprise"] = 1
    with pytest.raises(dv.UnknownField):
        dv.instance_from_json(data)


def test_unknown_metric_field_rejected(worked):
    data = dv.instance_to_json(worked)
    data["metric"]["surprise"] = 1
    with pytest.raises(dv.UnknownField):
        dv.instance_from_json(data)


def test_alternative_count_mismatch_rejected(worked):
    data = dv.instance_to_json(worked)
    data["alternatives"] = 7
    with pytest.raises(dv.SchemaError):
        dv.instance_from_json(data)


def test_malformed_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(dv.SchemaError):
        dv.load_instance(path)


def test_content_key_changes_with_content(worked):
    other = dv.build_line_instance([[0.0, 1.0], [2.0]], [0.5, 1.9])
    assert other.content_key() != worked.content_key()


@settings(max_examples=60, deadline=None)
@given(line_instances(max_agents=6, max_alternatives=4))
def test_json_round_trip_property(inst):
    again = dv.instance_from_json(dv.instance_to_json(inst))
    assert again.content_key() == inst.content_key()
