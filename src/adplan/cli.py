"""Command line front end.

Subcommands: plan (single GA run), experiment (seeded batch with reports),
oracle (exact optimum by a DP over removed sets), validate (load and check a
product file).  Exit codes: 0 success, 2 validation or configuration error,
3 file I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (
    ExperimentAborted,
    ExperimentSpecError,
    fixture_hash,
    plan_report,
    run_experiment,
    spec_from_json,
    write_outputs,
    write_partial,
)
from .encoding import metrics, plan_record
from .fitness import FitnessMode, Weights
from .ga import GAConfig, evolve
from .oracle import DEFAULT_CAP, brute_force_optimal
from .product import ProductError, load_product


def _parse_weights(text: str) -> Weights:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--weights needs three comma-separated numbers, got {text!r}")
    return Weights(*(float(p) for p in parts))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adplan",
        description="Disassembly sequence planning with a fuzzy-hybrid genetic algorithm.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="run the GA once and print/write the best plan")
    p.add_argument("product", help="product JSON file")
    p.add_argument("--mode", default="A", help="run mode: A, B, C or D (default A)")
    p.add_argument("--pop", type=int, default=GAConfig.population_size,
                   help="population size (default %(default)s)")
    p.add_argument("--mut", type=float, default=GAConfig.mutation_prob,
                   help="mutation probability (default %(default)s)")
    p.add_argument("--cross", type=float, default=GAConfig.crossover_rate,
                   help="crossover rate (default %(default)s)")
    p.add_argument("--gens", type=int, default=GAConfig.max_generations,
                   help="generations (default %(default)s)")
    p.add_argument("--seed", type=int, default=GAConfig.seed, help="RNG seed (default %(default)s)")
    p.add_argument("--weights", type=str, default=None, help="fitness weights, e.g. 2,1,1")
    p.add_argument("--target", type=float, default=None, help="algebraic fitness counted as success")
    p.add_argument("--out", type=str, default=None, help="directory for best_plan.json (default: stdout)")

    e = sub.add_parser("experiment", help="run a seeded batch experiment from a spec file")
    e.add_argument("spec", help="experiment spec JSON (a manifest.json also works)")
    e.add_argument("--out", type=str, default="results", help="output directory (default results/)")
    e.add_argument("--workers", type=_positive_int, default=1, help="process pool size (default 1)")

    o = sub.add_parser("oracle", help="exact optimum and optimal plans for a product")
    o.add_argument("product", help="product JSON file")
    o.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help=f"refuse products with more components (default {DEFAULT_CAP})")
    o.add_argument("--weights", type=str, default=None, help="fitness weights, e.g. 2,1,1")
    o.add_argument("--out", type=str, default=None, help="directory for oracle.json")

    v = sub.add_parser("validate", help="load a product file and report its shape")
    v.add_argument("product", help="product JSON file")
    return parser


def _cmd_plan(args: argparse.Namespace) -> int:
    model = load_product(args.product)
    config = GAConfig(
        population_size=args.pop,
        mutation_prob=args.mut,
        crossover_rate=args.cross,
        max_generations=args.gens,
        mode=FitnessMode.from_letter(args.mode),
        weights=_parse_weights(args.weights) if args.weights else GAConfig.weights,
        seed=args.seed,
        success_target=args.target,
    )
    result = evolve(model, config)
    record = plan_report(model, result, config.weights)
    m = result.best_metrics
    print(
        f"{model.name}: mode {config.mode.value} seed {config.seed}: "
        f"fitness {result.best_fitness} (algebraic {result.best_algebraic}), "
        f"feasible {m.feasible_len}/{m.n_parts}, "
        f"{m.orient_changes} orientation and {m.grip_changes} gripper changes"
    )
    if args.target is not None:
        print(f"target {args.target}: {'reached' if result.success else 'missed'}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "best_plan.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    else:
        print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = spec_from_json(args.spec)
    try:
        report = run_experiment(spec, workers=args.workers)
    except ExperimentAborted as exc:
        path = write_partial(exc.results, args.out)
        print(f"error: {exc}", file=sys.stderr)
        print(f"salvaged completed runs to {path}", file=sys.stderr)
        return 1
    for s in report.summaries:
        line = f"mode {s.mode.value}: best algebraic fitness {s.best.best_algebraic} (seed {s.best.seed})"
        if spec.success_target is not None:
            line += f", success {s.success_count}/{spec.runs}"
        print(line)
    paths = write_outputs(report, args.out)
    print(f"wrote {paths['report']}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    model = load_product(args.product)
    weights = _parse_weights(args.weights) if args.weights else Weights()
    result = brute_force_optimal(model, weights, cap=args.cap)
    count = len(result.optimal_plans)
    suffix = "+" if result.truncated else ""
    print(
        f"{model.name}: optimal fitness {result.optimal_fitness} "
        f"({count}{suffix} optimal plans, {result.states_explored} states explored)"
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        data = {
            "product": model.name,
            "fixtureHash": fixture_hash(args.product),
            "weights": list(weights.as_tuple()),
            "optimalFitness": result.optimal_fitness,
            "statesExplored": result.states_explored,
            "optimalPlanCount": count,
            "truncated": result.truncated,
            "optimalPlans": [
                plan_record(model, plan, metrics(model, plan))
                for plan in result.optimal_plans
            ],
        }
        path = out / "oracle.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    else:
        best = result.optimal_plans[0]
        m = metrics(model, best)
        order = " ".join(model.part_names[p] for p in best.sequence)
        print(f"example optimal order: {order}")
        print(
            f"feasible {m.feasible_len}/{m.n_parts}, "
            f"{m.orient_changes} orientation and {m.grip_changes} gripper changes"
        )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    model = load_product(args.product)
    print(
        f"{args.product}: OK ({model.name}: {model.n} components, "
        f"{len(model.directions)} directions, {len(model.gripper_catalog)} grippers)"
    )
    return 0


_COMMANDS = {
    "plan": _cmd_plan,
    "experiment": _cmd_experiment,
    "oracle": _cmd_oracle,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ProductError, ExperimentSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
