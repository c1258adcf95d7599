"""Command line interface: subcommands, artifacts, exit codes."""

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import districtvote as dv
from districtvote import cli

SQ2 = math.sqrt(2.0)


@pytest.fixture
def worked_file(worked, tmp_path):
    path = tmp_path / "worked.json"
    dv.save_instance(worked, str(path))
    return str(path)


@pytest.fixture
def euclid_file(euclid_small, tmp_path):
    path = tmp_path / "euclid.json"
    dv.save_instance(euclid_small, str(path))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_happy_path(capsys, worked_file):
    code, out, err = run_cli(capsys, "eval", worked_file,
                             "compose:optimal,optimal", "avg.avg")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["winner"] == 0
    assert report["representatives"] == [0, 1]
    assert report["ratio"] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert report["infinite"] is False


def test_eval_threshold_boundary_instance(capsys, tmp_path):
    # the first member of the cardinal line family: the threshold rule
    # represents the district by the far alternative even though every
    # agent ranks the near one first
    family = dv.gen_cardinal_line_family()
    path = tmp_path / "member0.json"
    dv.save_instance(family.instances[0], str(path))
    code, out, _ = run_cli(capsys, "eval", str(path),
                           "arl:2.414213562373095", "max.max")
    assert code == 0
    report = json.loads(out)
    assert report["representatives"] == [1]
    assert report["winner"] == 1
    assert report["ratio"] == pytest.approx(1.0 + SQ2, abs=1e-9)


def test_eval_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "eval", str(tmp_path / "nope.json"),
                             "compose:optimal,optimal", "avg.avg")
    assert code == 2
    assert "error:" in err


def test_eval_bad_mechanism(capsys, worked_file):
    code, _, err = run_cli(capsys, "eval", worked_file, "mystery", "avg.avg")
    assert code == 2
    assert "error:" in err


def test_eval_bad_objective(capsys, worked_file):
    code, _, err = run_cli(capsys, "eval", worked_file,
                           "compose:optimal,optimal", "sum.sum")
    assert code == 2
    assert "error:" in err


def test_eval_metric_incompatibility(capsys, euclid_file):
    code, _, err = run_cli(capsys, "eval", euclid_file,
                           "arbitrary-median", "avg.max")
    assert code == 3
    assert "error:" in err


def _explicit_document(distances):
    return {"metric": {"type": "explicit", "distances": distances},
            "districts": [[0, 1]], "alternatives": 1}


def _line_document(agent_positions, districts, alternative_positions):
    return {"metric": {"type": "line", "agent_positions": agent_positions,
                       "alternative_positions": alternative_positions},
            "districts": districts}


@pytest.mark.parametrize("document, error", [
    (_explicit_document([[0, 1, 1], [1, 0, -1], [1, -1, 0]]), dv.NegativeDistance),
    (_explicit_document([[0, 1, 5], [1, 0, 1], [5, 1, 0]]), dv.TriangleViolation),
    (_explicit_document([[0, 1, 1], [1, 0, 1], [1, 2, 0]]), dv.AsymmetricMatrix),
    (_explicit_document([[1, 1, 1], [1, 0, 1], [1, 1, 0]]), dv.NonzeroDiagonal),
    (_line_document([[0.0], [1.0]], [[0], [0]], [0.5]), dv.InvalidPartition),
    (_line_document([[0.0], []], [[0], []], [0.5]), dv.EmptyDistrict),
    (_line_document([[0.0]], [[0]], []), dv.NoAlternatives),
    # wrong-typed or wrongly nested leaves
    (_line_document([[[0.0]]], [[0]], [0.5]), dv.SchemaError),
    ({**_line_document([[0.0]], [[0]], [1.0, 2.0]), "alternatives": [[1.0], [2.0]]},
     dv.SchemaError),
    (_line_document(5, [[0]], [0.5]), dv.SchemaError),
    (_line_document([[None]], [[0]], [0.5]), dv.SchemaError),
    ({"metric": {"type": ["line"], "agent_positions": [[0.0]],
                 "alternative_positions": [0.5]}, "districts": [[0]]}, dv.SchemaError),
    (_line_document([[10 ** 400]], [[0]], [0.5]), dv.SchemaError),
    (_line_document([[0.0]], [[0]], 3), dv.SchemaError),
    # finite points whose distance overflows
    (_line_document([[-1e308]], [[0]], [1e308]), ValueError),
])
def test_eval_malformed_instance_file(capsys, tmp_path, document, error):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(error):
        dv.load_instance(str(path))
    code, out, err = run_cli(capsys, "eval", str(path),
                             "compose:optimal,optimal", "avg.avg")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("document, costs", [
    # an alternative at 1e308: district 0's two distances sum past the float range
    (_line_document([[0.0, 1.0], [2.0]], [[0, 1], [2]], [0.5, 1e308]), [1.0, 1e308]),
    # two agents and two alternatives, every distance 1e308
    ({**_explicit_document([[0.0 if i == j else 1e308 for j in range(4)]
                            for i in range(4)]), "alternatives": 2}, [1e308, 1e308]),
])
def test_eval_avg_stays_finite_on_huge_distances(capsys, tmp_path, document, costs):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", str(path),
                             "compose:optimal,optimal", "avg.avg")
    assert code == 0, err
    report = json.loads(out)
    assert report["alternative_costs"] == costs
    assert report["ratio"] == 1.0


_FUZZ_INSTANCES = [
    _line_document([[0.0, 1.0], [2.0]], [[0, 1], [2]], [0.5, 1.8]),
    {"metric": {"type": "line", "agent_positions": [[2.0, 0.0], [1.5]]},
     "districts": [[2, 0], [1]], "alternatives": [0.5, 1.8]},
    {"metric": {"type": "euclidean", "agent_coords": [[[0.0, 0.0], [1.0, 0.0]]],
                "alternative_coords": [[0.5, 0.5], [1.0, 1.0]]},
     "districts": [[0, 1]], "alternatives": 2},
    _explicit_document([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.5, 0.5, 0.0]]),
]
_FUZZ_CONFIG = {
    "mechanisms": ["compose:optimal,optimal", "arl:2"],
    "objectives": ["max.max"],
    "generator": {"kind": "line", "seed": 0, "trials": 3, "n-range": [2, 4],
                  "m-range": [2, 3], "k-range": [1, 2], "low": 0.0, "high": 1.0,
                  "dim": 2},
    "families": ["cardinal-line"],
    "fib_index": 4,
    "family_x": 2,
    "bounds": {"arl:2|max.max": 3.0},
    "output": {"format": "csv"},
}


def _paths(node, prefix=()):
    """Key paths to every value nested in ``node``."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _wrong_values(old) -> list:
    """Values of another JSON type than ``old``, or ``old`` a list level
    deeper or shallower; never a number where a number belongs, so no huge
    trial count can slip in."""
    values = [None, True, [old], {"k": old}]
    if not isinstance(old, str):
        values.append("x")
    if not isinstance(old, (int, float)):
        values.append(2)
    if isinstance(old, list) and old:
        values.append(old[0])
    return values


@st.composite
def _mutated_documents(draw):
    is_config = draw(st.booleans())
    document = copy.deepcopy(
        _FUZZ_CONFIG if is_config else draw(st.sampled_from(_FUZZ_INSTANCES)))
    *path, key = draw(st.sampled_from(list(_paths(document))))
    parent = document
    for step in path:
        parent = parent[step]
    parent[key] = draw(st.sampled_from(_wrong_values(parent[key])))
    return is_config, document


@settings(max_examples=250, deadline=None)
@given(_mutated_documents())
def test_mutated_documents_exit_0_or_2(case):
    is_config, document = case
    with tempfile.TemporaryDirectory() as folder:
        path = str(Path(folder) / "document.json")
        Path(path).write_text(json.dumps(document), encoding="utf-8")
        argv = (["verify-bounds", "--config", path, "--out", folder] if is_config
                else ["eval", path, "compose:optimal,optimal", "avg.avg"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert "error:" not in err.getvalue()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_stdout_summary(capsys):
    code, out, _ = run_cli(capsys, "sweep", "compose:optimal,optimal",
                           "avg.avg", "--trials", "80", "--seed", "3")
    assert code == 0
    summary = json.loads(out)
    assert summary["trials"] == 80
    assert summary["seed"] == 3
    assert 1.0 <= summary["max_ratio"] <= 3.0 + 1e-9


def test_sweep_deterministic_stdout(capsys):
    args = ("sweep", "compose:plurality-matching,arbitrary", "max.max",
            "--trials", "60", "--seed", "5")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_sweep_csv_artifact(capsys, tmp_path):
    out_path = tmp_path / "cell.csv"
    code, _, _ = run_cli(capsys, "sweep", "compose:optimal,optimal", "avg.avg",
                         "--trials", "50", "--out", str(out_path))
    assert code == 0
    with open(out_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert row["trials"] == "50"
    assert float(row["max_ratio"]) <= 3.0 + 1e-9
    assert row["within_bound"] == "true"
    witness = dv.load_instance(str(tmp_path / row["witness_path"]))
    assert witness.num_alternatives >= 2


def test_sweep_json_artifact(capsys, tmp_path):
    out_path = tmp_path / "cell.json"
    code, _, _ = run_cli(capsys, "sweep", "compose:optimal,optimal", "max.avg",
                         "--trials", "40", "--format", "json",
                         "--out", str(out_path))
    assert code == 0
    with open(out_path, encoding="utf-8") as fh:
        result = dv.sweep_result_from_json(json.load(fh))
    assert result.evaluated == 40
    assert result.max_ratio >= 1.0


def test_sweep_custom_ranges(capsys):
    code, out, _ = run_cli(capsys, "sweep", "compose:optimal,optimal",
                           "avg.avg", "--trials", "30",
                           "--n-range", "2,4", "--m-range", "2,3",
                           "--k-range", "1,2")
    assert code == 0
    assert json.loads(out)["max_ratio"] >= 1.0


def test_sweep_bad_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "compose:optimal,optimal",
                           "avg.avg", "--n-range", "2,16,3")
    assert code == 2
    assert "error:" in err


def test_sweep_bad_trials(capsys):
    code, _, err = run_cli(capsys, "sweep", "compose:optimal,optimal",
                           "avg.avg", "--trials", "0")
    assert code == 2


# ---------------------------------------------------------------------------
# check-properties
# ---------------------------------------------------------------------------

def test_check_properties_pass(capsys):
    code, out, _ = run_cli(capsys, "check-properties", "pmean:2",
                           "--samples", "500")
    assert code == 0
    assert out.count("PASS") == 3
    assert "monotone: PASS (500 samples)" in out


def test_check_properties_fail(capsys):
    code, out, _ = run_cli(capsys, "check-properties", "squared-sum-demo",
                           "--samples", "500")
    assert code == 1
    assert "FAIL" in out
    assert "witness=" in out


def test_check_properties_unknown_inner(capsys):
    code, _, err = run_cli(capsys, "check-properties", "mystery")
    assert code == 2
    assert "error:" in err


def test_check_properties_bad_samples(capsys):
    code, _, err = run_cli(capsys, "check-properties", "avg",
                           "--samples", "0")
    assert code == 2


# ---------------------------------------------------------------------------
# gen-family
# ---------------------------------------------------------------------------

def test_gen_family_writes_bundle(capsys, tmp_path):
    out_dir = tmp_path / "fam"
    code, out, _ = run_cli(capsys, "gen-family", "cardinal-line",
                           "--out", str(out_dir))
    assert code == 0
    manifest_path = out.strip()
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["family"] == "cardinal-line"
    for fname in manifest["instances"]:
        assert (out_dir / fname).exists()


def test_gen_family_unknown_name(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gen-family", "mystery",
                           "--out", str(tmp_path / "x"))
    assert code == 2
    assert "error:" in err


def test_gen_family_too_large(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gen-family", "avg-max-golden",
                           "--fib-index", "25", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# verify-bounds
# ---------------------------------------------------------------------------

SMALL_CONFIG = {
    "mechanisms": ["compose:optimal,optimal", "arl:2"],
    "objectives": ["avg.avg", "max.max"],
    "generator": {"seed": 0, "trials": 120, "n-range": [2, 6],
                  "m-range": [2, 4], "k-range": [1, 3]},
    "families": ["cardinal-line"],
}


def write_config(tmp_path, name="config.json", **overrides):
    data = {**SMALL_CONFIG, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_verify_bounds_small_config_passes(capsys, tmp_path):
    out_dir = tmp_path / "artifacts"
    code, out, err = run_cli(capsys, "verify-bounds", "--config",
                             write_config(tmp_path), "--out", str(out_dir))
    assert code == 0, err
    assert "FAIL" not in out
    with open(out_dir / "bounds.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    # the threshold mechanism claims nothing for avg.avg, so one of the
    # four mechanism x objective cells is skipped; both mechanisms get a
    # certification row against the line family
    sweep_rows = [r for r in rows if not r["mechanism"].startswith("certify:")]
    certify_rows = [r for r in rows if r["mechanism"].startswith("certify:")]
    assert len(sweep_rows) == 3
    assert len(certify_rows) == 2
    for row in rows:
        assert row["within_bound"] == "true"
        if row["witness_path"]:
            assert (out_dir / row["witness_path"]).exists()
    certify = certify_rows[0]
    assert certify["mechanism"].startswith("certify:cardinal-line:")
    assert float(certify["bound"]) == pytest.approx(1.0 + SQ2, abs=1e-12)
    assert float(certify["max_ratio"]) >= 1.0 + SQ2 - 1e-9


def test_verify_bounds_json_artifact(capsys, tmp_path):
    out_dir = tmp_path / "artifacts"
    code, _, _ = run_cli(capsys, "verify-bounds", "--config",
                         write_config(tmp_path), "--out", str(out_dir),
                         "--format", "json")
    assert code == 0
    with open(out_dir / "bounds.json", encoding="utf-8") as fh:
        rows = json.load(fh)
    assert all(isinstance(r["within_bound"], bool) for r in rows)
    assert all(r["seed"] == 0 for r in rows)


def test_verify_bounds_deterministic_artifact(capsys, tmp_path):
    config = write_config(tmp_path, families=[])
    blobs = []
    for run_dir in ("run_a", "run_b"):
        out_dir = tmp_path / run_dir
        code, _, _ = run_cli(capsys, "verify-bounds", "--config", config,
                             "--out", str(out_dir))
        assert code == 0
        blobs.append((out_dir / "bounds.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_verify_bounds_forced_failure(capsys, tmp_path):
    config = write_config(
        tmp_path,
        mechanisms=["compose:optimal,optimal"],
        objectives=["avg.avg"],
        families=[],
        bounds={"compose:optimal,optimal|avg.avg": 1.000001},
    )
    code, out, err = run_cli(capsys, "verify-bounds", "--config", config)
    assert code == 1
    assert "FAIL" in out
    assert "1 of 1 checks failed" in err


def per_cell_reference(config, out_dir):
    """Test-only oracle: the sweep rows of verify-bounds, one sweep per cell,
    each witness written as soon as its cell is done."""
    rows = []
    line = config.generator.kind == "line"
    for mech_spec in config.mechanisms:
        for obj_spec in config.objectives:
            objective = dv.parse_objective(obj_spec)
            mechanism = dv.parse_mechanism(mech_spec, objective)
            bound = config.bounds.get(f"{mech_spec}|{obj_spec}")
            if bound is None:
                bound = dv.claimed_bound(mechanism, objective, line=line)
            if bound is None:
                continue
            result = dv.sweep(mechanism, objective, config.generator,
                              trials=config.trials, seed=config.seed)
            name = f"witness_{len(rows):03d}.json"
            dv.save_instance(result.witness, str(out_dir / name))
            rows.append(cli.VerifyRow(
                "sweep", mech_spec, obj_spec, result.evaluated,
                result.max_ratio, float(bound),
                result.max_ratio <= bound + cli.BOUND_TOL, name, config.seed))
    return cli.rows_to_csv(rows)


def test_verify_bounds_matches_per_cell_sweeps(capsys, tmp_path):
    config = write_config(
        tmp_path,
        mechanisms=["compose:optimal,optimal",
                    "compose:plurality-matching,plurality-matching",
                    "arl:2", "arbitrary-median"],
        objectives=["avg.avg", "max.max", "max.pmean:2"],
        families=[],
        bounds={"compose:optimal,optimal|avg.avg": 1.05},
    )
    out_dir, ref_dir = tmp_path / "out", tmp_path / "ref"
    code, _, err = run_cli(capsys, "verify-bounds", "--config", config,
                           "--out", str(out_dir))
    assert code == 1, err
    ref_dir.mkdir()
    expected = per_cell_reference(cli.load_config(config), ref_dir)
    assert (out_dir / "bounds.csv").read_text(encoding="utf-8") == expected
    witnesses = sorted(p.name for p in ref_dir.iterdir())
    assert len(witnesses) == 7
    assert sorted(p.name for p in out_dir.glob("witness_*.json")) == witnesses
    for name in witnesses:
        assert (out_dir / name).read_bytes() == (ref_dir / name).read_bytes()


@pytest.mark.parametrize("extra", [[], ["mystery"]])
def test_verify_bounds_line_only_mechanism_on_euclidean(capsys, tmp_path,
                                                         extra):
    # the bound override forces a line-only mechanism onto euclidean draws;
    # a bad spec after it does not mask the incompatibility
    config = write_config(
        tmp_path,
        mechanisms=["compose:optimal,optimal", "arbitrary-median"] + extra,
        objectives=["avg.max"],
        generator={**SMALL_CONFIG["generator"], "kind": "euclidean"},
        families=[],
        bounds={"arbitrary-median|avg.max": 5.0},
    )
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "verify-bounds", "--config", config,
                           "--out", str(out_dir))
    assert code == 3
    assert err == "error: mechanism 'arbitrary-median' runs only on line instances\n"
    # an aborted run leaves no witness files behind
    assert list(out_dir.iterdir()) == []


def test_verify_bounds_unbuildable_family_aborts_before_sweeping(capsys, tmp_path):
    config = write_config(tmp_path, families=["avg-max-golden"], fib_index=40)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "verify-bounds", "--config", config,
                             "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(out_dir.iterdir()) == []


def test_verify_bounds_seed_override_changes_rows(capsys, tmp_path):
    config = write_config(tmp_path, families=[])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "verify-bounds", "--config", config, "--out", str(out_a))
    run_cli(capsys, "verify-bounds", "--config", config, "--seed", "9",
            "--out", str(out_b))
    rows_a = (out_a / "bounds.csv").read_text().splitlines()
    rows_b = (out_b / "bounds.csv").read_text().splitlines()
    assert rows_a != rows_b
    assert all(line.endswith(",9") for line in rows_b[1:])


def test_verify_bounds_trials_override(capsys, tmp_path):
    config = write_config(tmp_path, families=[])
    out_dir = tmp_path / "artifacts"
    code, _, _ = run_cli(capsys, "verify-bounds", "--config", config,
                         "--trials", "37", "--out", str(out_dir))
    assert code == 0
    with open(out_dir / "bounds.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["trials"] == "37" for r in rows)


@pytest.mark.parametrize("mutation", [
    {"mechanisms": []},
    {"objectives": []},
    {"mystery": 1},
    {"generator": {"trials": 100}},
    {"generator": {"seed": -1}},
    {"generator": {"seed": 0, "mystery": 1}},
    {"families": ["mystery"]},
    {"bounds": {"k": "high"}},
])
def test_verify_bounds_invalid_configs(capsys, tmp_path, mutation):
    code, _, err = run_cli(capsys, "verify-bounds", "--config",
                           write_config(tmp_path, **mutation))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("mutation, message", [
    ({"generator": {"seed": 0, "low": [0]}}, "generator.low must be a number"),
    ({"generator": {"seed": 0, "high": "1"}}, "generator.high must be a number"),
    ({"generator": {"seed": 0, "kind": "euclidean", "dim": [2]}},
     "generator.dim must be an integer"),
    ({"fib_index": [3]}, "fib_index must be an integer"),
    ({"family_x": 2.5}, "family_x must be an integer"),
    ({"output": {"path": 5}}, "output.path must be a string"),
    ({"generator": {"seed": 0, "low": -10 ** 400}}, "generator.low must be finite"),
    ({"bounds": {"arl:2|max.max": 10 ** 400}},
     "bound override 'arl:2|max.max' must be finite"),
    ({"generator": {"seed": 0, "low": -1e308, "high": 1e308}},
     "generator low, high and high - low must be finite"),
    # json.load reads the NaN literal that json.dumps writes
    ({"bounds": {"arl:2|max.max": math.nan}},
     "bound override 'arl:2|max.max' must be finite"),
    ({"bounds": {"compose:optimal,optimal|avg.avgg": 1.0}},
     "bound override 'compose:optimal,optimal|avg.avgg' names no configured "
     "mechanism|objective cell"),
    ({"generator": {"seed": 0, "kind": "euclidean", "high": 1e200}},
     "euclidean generator box is too wide: distances across it overflow"),
])
def test_verify_bounds_wrong_typed_or_unbounded_config(capsys, tmp_path, mutation,
                                                       message):
    code, out, err = run_cli(capsys, "verify-bounds", "--config",
                             write_config(tmp_path, **mutation))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_bounds_fixed_line_instance_keeps_line_only_cells():
    instance = dv.build_line_instance([[0.0, 0.4], [0.7, 1.0]], [0.1, 0.5, 0.9])
    config = cli.ExperimentConfig(
        mechanisms=["arl:2", "compose:optimal,optimal"], objectives=["max.max"],
        generator=dv.GeneratorSpec(kind="fixed", instance=instance),
        trials=3, seed=0)
    rows = cli.run_verify_bounds(config)
    assert [(r.mechanism, r.bound) for r in rows] == [
        ("arl:2", 2.5), ("compose:optimal,optimal", 3.0)]


GOLDEN = Path(__file__).parent / "data" / "verify_bounds_golden.json"


def _witnesses_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*")
                       if p.is_file() and p != out_dir / "bounds.csv"):
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0"
                      + path.read_bytes() + b"\0")
    return digest.hexdigest()


def test_verify_bounds_default_artifacts_match_recorded_digests(capsys, tmp_path):
    # the default experiment's CSV and witness files, byte for byte
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, *golden["argv"], "--out", str(out_dir))
    assert code == 0, err
    csv_bytes = (out_dir / "bounds.csv").read_bytes()
    assert hashlib.sha256(csv_bytes).hexdigest() == golden["bounds_csv_sha256"]
    assert _witnesses_digest(out_dir) == golden["witnesses_sha256"]


def test_verify_bounds_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify-bounds", "--config", str(path))
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# rule indices out of range are input errors (exit 2)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mechanism, objective, message", [
    ("compose:dictator:5,plurality-matching", "avg.avg",
     "dictator index 5 out of range for 2 voters"),
    ("compose:optimal,arbitrary:7", "max.max",
     "district index 7 out of range for 2 districts"),
])
def test_eval_rule_index_out_of_range(capsys, worked_file, mechanism,
                                      objective, message):
    code, out, err = run_cli(capsys, "eval", worked_file, mechanism, objective)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_sweep_rule_index_out_of_range(capsys):
    # the first single-agent district has no second voter to dictate
    code, out, err = run_cli(capsys, "sweep", "compose:dictator:1,optimal",
                             "max.max", "--trials", "5")
    assert code == 2
    assert out == ""
    assert err == "error: dictator index 1 out of range for 1 voters\n"


def test_verify_bounds_rule_index_out_of_range(capsys, tmp_path):
    config = write_config(tmp_path, mechanisms=["compose:dictator:1,optimal"],
                          objectives=["max.max"], families=[])
    code, _, err = run_cli(capsys, "verify-bounds", "--config", config)
    assert code == 2
    assert err == "error: dictator index 1 out of range for 1 voters\n"


# ---------------------------------------------------------------------------
# non-finite parameters are input errors (exit 2)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mechanism, objective, message", [
    ("arl:nan", "max.max", "threshold nan must be a finite number >= 1"),
    ("arl:inf", "max.max", "threshold inf must be a finite number >= 1"),
    # 400 nines parse to an infinite exponent
    ("arl:2", "max.pmean:" + "9" * 400, "power mean exponent must be finite"),
], ids=["arl-nan", "arl-inf", "pmean-inf"])
def test_eval_non_finite_parameter(capsys, worked_file, mechanism, objective,
                                   message):
    code, out, err = run_cli(capsys, "eval", worked_file, mechanism, objective)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_bounds_nan_lambda_is_an_input_error(capsys, tmp_path):
    # it used to sweep against a bound of nan and exit 1
    config = write_config(tmp_path, mechanisms=["arl:nan"],
                          objectives=["max.max"], families=[])
    code, out, err = run_cli(capsys, "verify-bounds", "--config", config)
    assert code == 2
    assert out == ""
    assert err == "error: threshold nan must be a finite number >= 1\n"


def test_check_properties_infinite_power_mean(capsys):
    code, out, err = run_cli(capsys, "check-properties", "pmean:" + "9" * 400)
    assert code == 2
    assert out == ""
    assert err == "error: power mean exponent must be finite\n"


def test_verify_bounds_reports_a_bad_last_spec_before_sweeping(
        capsys, tmp_path, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before every spec parsed")

    monkeypatch.setattr(cli, "sweep_cells", no_sweep)
    config = write_config(tmp_path, mechanisms=[*SMALL_CONFIG["mechanisms"],
                                                "mystery"], families=[])
    code, out, err = run_cli(capsys, "verify-bounds", "--config", config)
    assert code == 2
    assert out == ""
    assert err == "error: unknown mechanism spec 'mystery'\n"


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### verify-bounds config format", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(block, encoding="utf-8")
    config = cli.load_config(str(path))
    assert config.mechanisms == ["compose:optimal,optimal", "arl:2"]
    assert config.out_path == "results"
    assert config.out_format == "csv"


# ---------------------------------------------------------------------------
# row serialization units
# ---------------------------------------------------------------------------

def test_rows_to_csv_and_json_handle_infinity():
    row = cli.VerifyRow("sweep", "m", "o", 5, math.inf, 3.0, False, "", 0)
    text = cli.rows_to_csv([row])
    assert "inf" in text.splitlines()[1]
    data = json.loads(cli.rows_to_json([row]))
    assert data[0]["max_ratio"] is None
    assert data[0]["within_bound"] is False


def test_default_config_covers_shipped_mechanisms():
    config = cli.default_config()
    assert len(config.mechanisms) == 11
    assert len(config.objectives) == 5
    assert config.trials == 10_000
    assert list(config.families) == list(dv.FAMILY_NAMES)


def test_load_config_range_spellings(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "mechanisms": ["arl:2"],
        "objectives": ["max.max"],
        "generator": {"seed": 1, "n_range": [2, 5], "m-range": [2, 3]},
    }), encoding="utf-8")
    config = cli.load_config(str(path))
    assert config.generator.n_range == (2, 5)
    assert config.generator.m_range == (2, 3)
    assert config.seed == 1
