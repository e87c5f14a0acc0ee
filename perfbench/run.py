#!/usr/bin/env python3
"""Benchmark of the adplan planner, end to end or layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload case2-protocol --seed 0 --seconds 10 --trace 0

One run sets up the workload, then repeats whole rounds (the workload's
fixed batch of oracle and GA calls) until ``--seconds`` have passed, always
at least one round, and checks every round's answers with ``checks.py``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
spans of ``tracer.py`` and prints the per-layer metrics instead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402  (imports after the set-up clock starts)
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: evolve runs that must lie above the reported tail percentile
TAIL_RUNS_ABOVE = 10


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "adplan" / "__init__.py").is_file():
        print(f"error: no adplan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass
    if result is None:
        return 2
    print(json.dumps(result))
    return 0


def run(args: argparse.Namespace, work_dir: Path) -> dict | None:
    # -- set-up: import, products, fuzzy systems (timed from process start)
    import adplan
    from adplan import bench, oracle, product

    import checks
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return None
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    def call(name, fn, *a, **kw):
        return tracer.span(name, fn, *a, **kw) if tracer else fn(*a, **kw)

    wl = workloads.prepare(args.workload, args.seed, SRC, work_dir)
    model = call("product.load", product.load_product, wl.spec.product_path)
    adplan.build_ranking_system()
    adplan.build_controller_system()
    setup_s = time.perf_counter() - START

    # -- measured rounds
    rounds = []
    t_measure = time.perf_counter()
    while True:
        out_dir = work_dir / f"round{len(rounds)}"
        t0 = time.perf_counter()
        solved = None
        if wl.oracle:
            solved = call(
                "oracle.solve", oracle.brute_force_optimal, model, wl.spec.weights,
                cap=workloads.ORACLE_CAP,
            )
        report = call("bench.run_experiment", bench.run_experiment, wl.spec)
        paths = call("bench.write_outputs", bench.write_outputs, report, out_dir)
        wall = time.perf_counter() - t0
        results = [r for s in report.summaries for r in s.results]
        size = sum(p.stat().st_size for p in paths.values())
        rounds.append(Round(wall, solved, results, out_dir, size))
        if time.perf_counter() - t_measure >= args.seconds:
            break

    # -- checks, made apart from the program and outside every timing
    doc = json.loads(wl.spec.product_path.read_text("utf-8"))
    weights = wl.spec.weights.as_tuple()
    optimum = checks.stack_optimum(doc, weights)
    universe = checks.ranking_universe(SRC)
    errors = []
    target = wl.spec.success_target
    if target is not None and target != optimum:
        errors.append(f"success target {target} is not the exact optimum {optimum}")
    first = [r.best_algebraic for r in rounds[0].results]
    for k, rnd in enumerate(rounds):
        if rnd.solved is not None:
            errors += checks.oracle_errors(doc, weights, rnd.solved, optimum)
        for r in rnd.results:
            errors += checks.run_errors(doc, wl.spec, r, universe, optimum)
        errors += checks.report_errors(doc, wl.spec, rnd.results, rnd.out_dir)
        if [r.best_algebraic for r in rnd.results] != first:
            errors.append(f"round {k}: results differ from round 0 with the same seeds")

    validate_s = []
    if tracer:
        for _ in rounds:
            seconds, msg = cli_validate(wl.spec.product_path)
            validate_s.append(seconds)
            if msg:
                errors.append(msg)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    ga_runs = sum(len(r.results) for r in rounds)
    print(
        f"{wl.name} seed {args.seed} trace {args.trace}: {len(rounds)} round(s), "
        f"{ga_runs} GA runs, wall {statistics.median(r.wall for r in rounds):.3f} s, "
        f"exact optimum {optimum}, mean best {statistics.fmean(first)}",
        file=sys.stderr,
    )

    if tracer:
        metrics = layer_metrics(tracer, rounds, validate_s)
    else:
        metrics = end_to_end(setup_s, rounds)
    return {
        "correct": not errors,
        "attempted": ga_runs + sum(r.solved is not None for r in rounds),
        "failed": 0,
        "metrics": metrics,
    }


class Round(NamedTuple):
    """One repetition of the workload's batch."""

    wall: float
    solved: object  # OracleResult, or None without an oracle
    results: list
    out_dir: Path
    artifact_bytes: int


def cli_validate(product_path: Path) -> tuple[float, str | None]:
    """Time one fresh-process ``python -m adplan.cli validate``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "adplan.cli", "validate", str(product_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0 or ": OK (" not in proc.stdout:
        return seconds, f"cli validate exited {proc.returncode}: {proc.stderr.strip()[:200]}"
    return seconds, None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_s: float, rounds: list[Round]) -> dict:
    times = [r.elapsed_seconds for rnd in rounds for r in rnd.results]
    gens = sum(len(r.stats) for rnd in rounds for r in rnd.results)
    tails = []
    for rnd in rounds:
        ordered = sorted(r.elapsed_seconds for r in rnd.results)
        tails.append(ordered[len(ordered) - 1 - TAIL_RUNS_ABOVE])
    best = [r.best_algebraic for r in rounds[0].results]
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(r.wall for r in rounds), "s"),
        "plan_s": metric(statistics.median(times), "s"),
        "plan_tail_s": metric(statistics.median(tails), "s"),
        "gens_per_s": metric(gens / sum(times), "1/s"),
        "best_fitness": metric(statistics.fmean(best), "fitness"),
    }


def median(values) -> float:
    """Median, or 0.0 for a layer the workload never reached."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, rounds: list[Round], validate_s: list[float]) -> dict:
    runs = tracer.runs
    n_rounds = len(rounds)

    def per_round(total: float) -> float:
        # rounds repeat the same seeds, so exact counts stay whole numbers
        share = total / n_rounds
        return int(share) if share == int(share) else share

    def calls(name: str) -> float:
        return per_round(sum(r.calls[name] for r in runs))

    def ms_per_gen(name: str) -> float:
        # over the runs that reached the layer (the controller runs in mode D only)
        return median(1e3 * r.busy[name] / r.generations for r in runs if r.calls[name])

    mode_b = [r for r in runs if r.mode == "B"]
    lookups = per_round(sum(r.calls["fitness.evaluate"] for r in mode_b))
    misses = per_round(sum(r.calls["fitness.fuzzy_fitness"] for r in mode_b))
    solve = tracer.durations("oracle.solve")
    states = [rnd.solved.states_explored for rnd in rounds if rnd.solved is not None]
    overhead = []
    for sid, name in enumerate(tracer.names):
        if name == "bench.run_experiment":
            children = sum(
                tracer.ends[k] - tracer.starts[k]
                for k, parent in enumerate(tracer.parents)
                if parent == sid and tracer.names[k] in ("ga.evolve", "tracer.reduce")
            )
            overhead.append(tracer.ends[sid] - tracer.starts[sid] - children)

    out = {
        "product.load_ms": metric(1e3 * median(tracer.durations("product.load")), "ms"),
        "cli.validate_s": metric(median(validate_s), "s"),
    }
    for layer in (
        "encoding.metrics", "encoding.crossover", "encoding.mutate",
        "ga.select", "ga.controller", "fitness.evaluate",
    ):
        out[f"{layer}_calls"] = metric(calls(layer), "count")
        out[f"{layer}_ms_per_gen"] = metric(ms_per_gen(layer), "ms")
    out.update({
        "ga.gen_ms": metric(median(1e3 * r.seconds / r.generations for r in runs), "ms"),
        "ga.self_ms_per_gen": metric(median(1e3 * r.self_seconds / r.generations for r in runs), "ms"),
        "ga.diversity_ms_per_gen": metric(ms_per_gen("ga.diversity"), "ms"),
        "ga.rng_sample_calls": metric(sum(r.rng["sample"] for r in runs) / len(runs), "count"),
        "ga.rng_randrange_calls": metric(sum(r.rng["randrange"] for r in runs) / len(runs), "count"),
        "fitness.rank_lookups": metric(lookups, "count"),
        "fitness.rank_misses": metric(misses, "count"),
        "fitness.rank_hit_ratio": metric(1.0 - misses / lookups if lookups else 0.0, "ratio"),
        "fuzzy.infer_calls": metric(calls("fuzzy.infer"), "count"),
        "fuzzy.infer_us": metric(1e6 * median(tracer.infer_seconds), "us"),
        "oracle.states": metric(per_round(sum(states)), "count"),
        "oracle.solve_s": metric(median(solve), "s"),
        "oracle.states_per_s": metric(sum(states) / sum(solve) if solve else 0.0, "1/s"),
        "bench.overhead_ms": metric(1e3 * median(overhead), "ms"),
        "bench.write_ms": metric(1e3 * median(tracer.durations("bench.write_outputs")), "ms"),
        "bench.artifact_bytes": metric(per_round(sum(r.artifact_bytes for r in rounds)), "bytes"),
    })
    return out


if __name__ == "__main__":
    sys.exit(main())
