"""Command line interface.

Subcommands:

* ``eval``             -- run one mechanism on one instance file, print the report
* ``sweep``            -- random worst-case search for one mechanism/objective
* ``verify-bounds``    -- sweep every configured cell against its claimed bound
                          and certify lower-bound families; CSV/JSON artifact
* ``check-properties`` -- property-check an inner aggregator
* ``gen-family``       -- export an adversarial family as a JSON bundle

Exit codes: 0 success, 1 a bound or property check failed, 2 invalid input
or configuration, 3 mechanism/metric incompatibility.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .adversarial import FAMILY_NAMES, build_family, certify_details, export_family
from .distortion import (
    GeneratorSpec,
    evaluate,
    report_to_json,
    sweep,
    sweep_cells,
    sweep_result_to_json,
)
from .errors import (
    ConfigError,
    DistrictVoteError,
    GeneratorError,
    IncompatibleRuleMetric,
    InternalNoWinner,
)
from .instances import load_instance, save_instance
from .mechanisms import check_metric, claimed_bound, parse_mechanism
from .objectives import (
    InnerObjective,
    CUSTOM_KIND,
    parse_inner,
    parse_objective,
    run_property_checks,
)
from .rules import ORDINAL
from .tolerances import BOUND_TOL

# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

DEFAULT_MECHANISMS = (
    "compose:optimal,optimal",
    "compose:optimal,optimal,reps-only",
    "compose:plurality-matching,plurality-matching",
    "compose:plurality-matching,arbitrary",
    "compose:plurality-matching,median",
    "arbitrary-median",
    "arbitrary-dictator",
    "arl:1",
    "arl:2",
    "arl:2.414213562373095",
    "arl:4",
)

DEFAULT_OBJECTIVES = ("avg.avg", "avg.max", "max.max", "max.avg", "max.pmean:2")


@dataclass
class ExperimentConfig:
    """Parsed verify-bounds configuration."""

    mechanisms: list[str]
    objectives: list[str]
    generator: GeneratorSpec
    trials: int
    seed: int
    families: list[str] = field(default_factory=list)
    fib_index: int = 10
    family_x: int = 2
    bounds: dict = field(default_factory=dict)
    out_path: str | None = None
    out_format: str = "csv"


def default_config() -> ExperimentConfig:
    return ExperimentConfig(
        mechanisms=list(DEFAULT_MECHANISMS),
        objectives=list(DEFAULT_OBJECTIVES),
        generator=GeneratorSpec(),
        trials=10_000,
        seed=0,
        families=list(FAMILY_NAMES),
    )


def _get_range(block: dict, name: str, default: tuple[int, int]) -> tuple[int, int]:
    raw = block.get(f"{name}-range", block.get(f"{name}_range"))
    if raw is None:
        return default
    if (not isinstance(raw, list) or len(raw) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw)):
        raise ConfigError(f"generator {name}-range must be a two-integer list")
    return int(raw[0]), int(raw[1])


def _integer(raw, what: str) -> int:
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise ConfigError(f"{what} must be an integer")
    return raw


def _number(raw, what: str) -> float:
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise ConfigError(f"{what} must be a number")
    try:
        value = float(raw)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{what} must be finite") from exc
    if not math.isfinite(value):  # json.load reads NaN and Infinity
        raise ConfigError(f"{what} must be finite")
    return value


_GENERATOR_KEYS = {"kind", "n-range", "n_range", "m-range", "m_range",
                   "k-range", "k_range", "trials", "seed", "low", "high", "dim"}
_CONFIG_KEYS = {"mechanisms", "objectives", "generator", "families",
                "fib_index", "family_x", "bounds", "output"}


def load_config(path: str) -> ExperimentConfig:
    """Parse a verify-bounds config file; missing blocks take defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config field(s) {sorted(unknown)}")

    mechanisms = data.get("mechanisms")
    objectives = data.get("objectives")
    if not isinstance(mechanisms, list) or not mechanisms:
        raise ConfigError("config needs a non-empty 'mechanisms' list")
    if not isinstance(objectives, list) or not objectives:
        raise ConfigError("config needs a non-empty 'objectives' list")

    gen_block = data.get("generator", {})
    if not isinstance(gen_block, dict):
        raise ConfigError("'generator' must be an object")
    unknown = set(gen_block) - _GENERATOR_KEYS
    if unknown:
        raise ConfigError(f"unknown generator field(s) {sorted(unknown)}")
    if "seed" not in gen_block:
        raise ConfigError("config needs generator.seed")
    seed = gen_block["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("generator.seed must be a nonnegative integer")
    trials = gen_block.get("trials", 10_000)
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ConfigError("generator.trials must be a positive integer")
    generator = GeneratorSpec(
        kind=gen_block.get("kind", "line"),
        n_range=_get_range(gen_block, "n", (2, 16)),
        m_range=_get_range(gen_block, "m", (2, 6)),
        k_range=_get_range(gen_block, "k", (1, 4)),
        low=_number(gen_block.get("low", 0.0), "generator.low"),
        high=_number(gen_block.get("high", 1.0), "generator.high"),
        dim=_integer(gen_block.get("dim", 2), "generator.dim"),
    )
    try:
        generator.validate()
    except GeneratorError as exc:
        raise ConfigError(str(exc)) from exc

    families = data.get("families", [])
    if not isinstance(families, list):
        raise ConfigError("'families' must be a list of family names")
    for name in families:
        if name not in FAMILY_NAMES:
            raise ConfigError(f"unknown family {name!r}")

    bounds = data.get("bounds", {})
    if not isinstance(bounds, dict):
        raise ConfigError("'bounds' must map 'mechanism|objective' to numbers")
    bounds = {str(key): _number(value, f"bound override {key!r}")
              for key, value in bounds.items()}
    cells = {f"{mech}|{obj}" for mech in mechanisms for obj in objectives}
    for key in bounds:
        if key not in cells:
            raise ConfigError(f"bound override {key!r} names no configured "
                              "mechanism|objective cell")

    output = data.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("'output' must be an object")
    out_format = output.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError("output.format must be 'csv' or 'json'")
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("output.path must be a string")

    return ExperimentConfig(
        mechanisms=[str(s) for s in mechanisms],
        objectives=[str(s) for s in objectives],
        generator=generator,
        trials=trials,
        seed=seed,
        families=[str(f) for f in families],
        fib_index=_integer(data.get("fib_index", 10), "fib_index"),
        family_x=_integer(data.get("family_x", 2), "family_x"),
        bounds=bounds,
        out_path=out_path,
        out_format=out_format,
    )


# ---------------------------------------------------------------------------
# verify-bounds core
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyRow:
    """One line of the verification artifact.

    ``kind`` is ``sweep`` (measured max ratio must stay <= bound) or
    ``certify`` (a family must force >= bound = its target ratio); the
    mechanism column of certify rows reads ``certify:<family>:<mechanism>``.
    """

    kind: str
    mechanism: str
    objective: str
    trials: int
    max_ratio: float
    bound: float
    within_bound: bool
    witness_path: str
    seed: int


_CSV_COLUMNS = ("mechanism", "objective", "trials", "max_ratio", "bound",
                "within_bound", "witness_path", "seed")


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf"
    return repr(float(value))


def rows_to_csv(rows: list[VerifyRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            row.mechanism, row.objective, str(row.trials), _fmt(row.max_ratio),
            _fmt(row.bound), "true" if row.within_bound else "false",
            row.witness_path, str(row.seed),
        ])
    return buf.getvalue()


def rows_to_json(rows: list[VerifyRow]) -> str:
    payload = []
    for row in rows:
        payload.append({
            "mechanism": row.mechanism,
            "objective": row.objective,
            "trials": row.trials,
            "max_ratio": None if math.isinf(row.max_ratio) else row.max_ratio,
            "bound": row.bound,
            "within_bound": row.within_bound,
            "witness_path": row.witness_path,
            "seed": row.seed,
        })
    return json.dumps(payload, indent=2) + "\n"


def _family_applies(family_name: str, mechanism) -> bool:
    """Whether a family's case analysis binds this mechanism at all."""
    if family_name == "max-max-unanimity":
        return mechanism.unanimous
    if family_name in ("avg-max-golden", "max-avg-golden"):
        return mechanism.info == ORDINAL
    return True


def run_verify_bounds(config: ExperimentConfig) -> list[VerifyRow]:
    """Evaluate every configured sweep cell and family certification.

    Every cell is parsed and checked against the generator's metric, and
    every family is built, before any sweeps; so a bad cell or family
    leaves no witness files. The sweep cells share each trial's instance
    (``sweep_cells``); every cell's row equals that of its own ``sweep``.
    """
    rows: list[VerifyRow] = []
    out_dir = config.out_path
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    line_metric = config.generator.is_line

    cells, claims = [], []
    for mech_spec in config.mechanisms:
        for obj_spec in config.objectives:
            objective = parse_objective(obj_spec)
            mechanism = parse_mechanism(mech_spec, objective)
            bound = config.bounds.get(f"{mech_spec}|{obj_spec}")
            if bound is None:
                bound = claimed_bound(mechanism, objective, line=line_metric)
            if bound is not None:
                # a bound override can put a line-only cell on other draws
                check_metric(mechanism, line_metric)
                cells.append((mechanism, objective))
                claims.append((mech_spec, obj_spec, float(bound)))
    families = [(name, build_family(name, fib_index=config.fib_index,
                                    x=config.family_x))
                for name in config.families]
    results = sweep_cells(cells, config.generator, trials=config.trials,
                          seed=config.seed)
    for cell_index, ((mech_spec, obj_spec, bound), result) in enumerate(
            zip(claims, results)):
        witness_path = ""
        if out_dir:
            witness_path = f"witness_{cell_index:03d}.json"
            save_instance(result.witness, os.path.join(out_dir, witness_path))
        rows.append(VerifyRow(
            kind="sweep",
            mechanism=mech_spec,
            objective=obj_spec,
            trials=result.evaluated,
            max_ratio=result.max_ratio,
            bound=bound,
            within_bound=result.max_ratio <= bound + BOUND_TOL,
            witness_path=witness_path,
            seed=config.seed,
        ))

    for family_name, family in families:
        exported = False
        for mech_spec in config.mechanisms:
            mechanism = parse_mechanism(mech_spec, family.objective)
            if not _family_applies(family_name, mechanism):
                continue
            ratios = certify_details(family, mechanism)
            worst = max(range(len(ratios)), key=lambda i: ratios[i])
            achieved = ratios[worst]
            witness_path = ""
            if out_dir:
                if not exported:
                    export_family(family, os.path.join(out_dir, "families",
                                                       family_name))
                    exported = True
                witness_path = f"families/{family_name}/instance_{worst:02d}.json"
            rows.append(VerifyRow(
                kind="certify",
                mechanism=f"certify:{family_name}:{mech_spec}",
                objective=family.objective.spec,
                trials=len(family.instances),
                max_ratio=achieved,
                bound=family.target_ratio,
                within_bound=achieved >= family.target_ratio - BOUND_TOL,
                witness_path=witness_path,
                seed=config.seed,
            ))
    return rows


def _print_verify_table(rows: list[VerifyRow]) -> None:
    name_w = max([len(r.mechanism) for r in rows] + [9])
    obj_w = max([len(r.objective) for r in rows] + [9])
    header = (f"{'mechanism':<{name_w}}  {'objective':<{obj_w}}  "
              f"{'bound':>10}  {'max_ratio':>12}  result")
    print(header)
    print("-" * len(header))
    for row in rows:
        relation = "<=" if row.kind == "sweep" else ">="
        status = "PASS" if row.within_bound else "FAIL"
        print(f"{row.mechanism:<{name_w}}  {row.objective:<{obj_w}}  "
              f"{relation} {row.bound:>7.4f}  {row.max_ratio:>12.6f}  {status}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    instance = load_instance(args.instance_file)
    objective = parse_objective(args.objective)
    mechanism = parse_mechanism(args.mechanism, objective)
    report = evaluate(mechanism, instance, objective)
    print(json.dumps(report_to_json(report), indent=2))
    return 0


def _parse_range_flag(raw: str | None, default: tuple[int, int]) -> tuple[int, int]:
    if raw is None:
        return default
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"range {raw!r} must look like '2,16'")
    return int(parts[0]), int(parts[1])


def cmd_sweep(args) -> int:
    objective = parse_objective(args.objective)
    mechanism = parse_mechanism(args.mechanism, objective)
    generator = GeneratorSpec(
        kind=args.kind,
        n_range=_parse_range_flag(args.n_range, (2, 16)),
        m_range=_parse_range_flag(args.m_range, (2, 6)),
        k_range=_parse_range_flag(args.k_range, (1, 4)),
    )
    result = sweep(mechanism, objective, generator,
                   trials=args.trials, seed=args.seed)
    summary = {
        "mechanism": args.mechanism,
        "objective": args.objective,
        "trials": result.evaluated,
        "max_ratio": None if result.infinite else result.max_ratio,
        "infinite": result.infinite,
        "seed": result.seed,
    }
    print(json.dumps(summary, indent=2))
    if args.out:
        if args.format == "json":
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(sweep_result_to_json(result), fh, indent=2)
                fh.write("\n")
        else:
            witness_path = args.out + ".witness.json"
            save_instance(result.witness, witness_path)
            bound = claimed_bound(mechanism, objective, line=generator.is_line)
            text = rows_to_csv([VerifyRow(
                "sweep", args.mechanism, args.objective, result.evaluated,
                result.max_ratio, bound if bound is not None else float("nan"),
                bound is None or result.max_ratio <= bound + BOUND_TOL,
                os.path.basename(witness_path), result.seed)])
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    return 0


def cmd_verify_bounds(args) -> int:
    config = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("seed must be nonnegative")
        config.seed = args.seed
    if args.trials is not None:
        if args.trials < 1:
            raise ConfigError("trials must be positive")
        config.trials = args.trials
    if args.out is not None:
        config.out_path = args.out
    if args.format is not None:
        config.out_format = args.format
    rows = run_verify_bounds(config)
    _print_verify_table(rows)
    if config.out_path:
        text = (rows_to_csv(rows) if config.out_format == "csv"
                else rows_to_json(rows))
        name = "bounds.csv" if config.out_format == "csv" else "bounds.json"
        artifact = os.path.join(config.out_path, name)
        with open(artifact, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {artifact}")
    failed = [r for r in rows if not r.within_bound]
    if failed:
        print(f"{len(failed)} of {len(rows)} checks failed", file=sys.stderr)
        return 1
    return 0


def _demo_inner(spec: str) -> InnerObjective | None:
    if spec == "squared-sum-demo":
        return InnerObjective(
            kind=CUSTOM_KIND, name="squared-sum-demo",
            fn=lambda v: float(np.sum(v)) ** 2,
        )
    return None


def cmd_check_properties(args) -> int:
    inner = _demo_inner(args.inner) or parse_inner(args.inner)
    if args.samples < 1:
        raise ConfigError("samples must be positive")
    if args.seed < 0:
        raise ConfigError("seed must be nonnegative")
    results = run_property_checks(inner, samples=args.samples, seed=args.seed)
    any_fail = False
    for result in results:
        if result.passed:
            print(f"{result.property_name}: PASS ({result.samples} samples)")
        else:
            any_fail = True
            print(f"{result.property_name}: FAIL witness={result.witness!r}")
    return 1 if any_fail else 0


def cmd_gen_family(args) -> int:
    family = build_family(args.name, fib_index=args.fib_index, x=args.x)
    manifest = export_family(family, args.out)
    print(manifest)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="districtvote",
        description="distributed metric social choice: mechanisms and distortion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a mechanism on an instance file")
    p_eval.add_argument("instance_file")
    p_eval.add_argument("mechanism", help="e.g. compose:optimal,optimal")
    p_eval.add_argument("objective", help="e.g. avg.max")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="random worst-case search")
    p_sweep.add_argument("mechanism")
    p_sweep.add_argument("objective")
    p_sweep.add_argument("--trials", type=int, default=1000)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--kind", default="line", choices=["line", "euclidean"])
    p_sweep.add_argument("--n-range", dest="n_range", default=None)
    p_sweep.add_argument("--m-range", dest="m_range", default=None)
    p_sweep.add_argument("--k-range", dest="k_range", default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", default="csv", choices=["csv", "json"])
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify-bounds",
                              help="sweep all cells against claimed bounds")
    p_verify.add_argument("--config", default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--format", default=None, choices=["csv", "json"])
    p_verify.set_defaults(func=cmd_verify_bounds)

    p_check = sub.add_parser("check-properties",
                             help="property-check an inner aggregator")
    p_check.add_argument("inner", help="avg | max | pmean:<p> | squared-sum-demo")
    p_check.add_argument("--samples", type=int, default=10_000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check_properties)

    p_family = sub.add_parser("gen-family", help="export an adversarial family")
    p_family.add_argument("name", help=" | ".join(FAMILY_NAMES))
    p_family.add_argument("--fib-index", dest="fib_index", type=int, default=10)
    p_family.add_argument("--x", type=int, default=2)
    p_family.add_argument("--out", required=True)
    p_family.set_defaults(func=cmd_gen_family)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; errors of the caller's making become exit codes.

    A mechanism that cannot run on the metric exits 3; any other package
    error, ``ValueError`` or ``OSError`` is invalid input and exits 2.
    ``InternalNoWinner`` (a bug) and other unexpected errors still propagate.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalNoWinner:
        raise
    except IncompatibleRuleMetric as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DistrictVoteError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
