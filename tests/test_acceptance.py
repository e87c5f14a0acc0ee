"""Acceptance gates: one test per shipped criterion, each printing a verdict.

Every test appends an "ACCEPTANCE n: PASS/FAIL" line to the terminal summary
(see conftest.pytest_terminal_summary) so the release checklist is readable
straight off a full pytest run.  The heavyweight experiment batches are
session fixtures shared between criteria.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from adplan.bench import run_experiment, spec_from_dict, write_outputs
from adplan.cli import main
from adplan.encoding import PlanMetrics
from adplan.fitness import FitnessMode, Weights, adaptive_fitness, algebraic_fitness
from adplan.fuzzy import (
    FuzzyRule,
    FuzzySystem,
    LinguisticVariable,
    TriangularMF,
    build_ranking_system,
)
from adplan.ga import GAConfig, evolve
from adplan.oracle import brute_force_optimal
from conftest import ACCEPTANCE_LINES, FIXTURE_DIR, ORACLE_OPTIMA, load_fixture


def record(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)


def curve_column(path: Path, column: str) -> list[float]:
    lines = path.read_text(encoding="utf-8").splitlines()
    idx = lines[0].split(",").index(column)
    return [float(row.split(",")[idx]) for row in lines[1:]]


# -- shared experiment batches -------------------------------------------------


@pytest.fixture(scope="session")
def criterion1_artifacts(tmp_path_factory):
    """Mode A, 20 seeded runs, 300 generations on each small fixture.

    Targets are recomputed from the exhaustive oracle here rather than taken
    from the frozen table, so this gate cannot drift from the ground truth.
    """
    root = tmp_path_factory.mktemp("criterion1")
    artifacts = {}
    for name, frozen in ORACLE_OPTIMA.items():
        optimum = brute_force_optimal(load_fixture(name), Weights()).optimal_fitness
        assert optimum == frozen, f"frozen optimum for {name} is stale"
        spec = spec_from_dict(
            {
                "product": f"{name}.json",
                "modes": ["A"],
                "runs": 20,
                "generations": 300,
                "population": 80,
                "mutation": 0.8,
                "crossover": 0.4,
                "successTarget": optimum,
            },
            FIXTURE_DIR,
        )
        start = time.perf_counter()
        report = run_experiment(spec)
        elapsed = time.perf_counter() - start
        out = root / name
        write_outputs(report, out)
        artifacts[name] = (report, out, elapsed)
    return artifacts


@pytest.fixture(scope="session")
def criterion5_artifacts(tmp_path_factory):
    """The shipped 19-part two-mode protocol, run through the CLI and timed."""
    out = tmp_path_factory.mktemp("criterion5") / "results"
    spec_path = FIXTURE_DIR / "experiment_protocol19.json"
    start = time.perf_counter()
    code = main(["experiment", str(spec_path), "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    return report, out, elapsed


@pytest.fixture(scope="session")
def criterion7_artifacts(tmp_path_factory):
    """The shipped all-modes experiment, run twice: spec then manifest replay."""
    root = tmp_path_factory.mktemp("criterion7")
    first, second = root / "first", root / "second"
    assert main(["experiment", str(FIXTURE_DIR / "experiment_cage5.json"),
                 "--out", str(first), "--workers", "1"]) == 0
    assert main(["experiment", str(first / "manifest.json"),
                 "--out", str(second), "--workers", "2"]) == 0
    return first, second


# -- criteria -------------------------------------------------------------------


def test_criterion_1_ga_reaches_exhaustive_optimum(criterion1_artifacts):
    rates, times = {}, {}
    for name, (report, _, elapsed) in criterion1_artifacts.items():
        rates[name] = report.summaries[0].success_rate
        times[name] = elapsed
    worst = min(rates, key=rates.get)
    slowest = max(times, key=times.get)
    ok = all(r >= 0.95 for r in rates.values()) and all(t < 10.0 for t in times.values())
    record(
        1, ok,
        f"10 fixtures, 20 runs each: worst optimum rate {rates[worst]:.2f} "
        f"({worst}), slowest fixture {times[slowest]:.1f}s ({slowest})",
    )
    assert ok


def test_criterion_2_algebraic_fitness_identity():
    rng = random.Random(20260815)
    worst = 0.0
    for _ in range(50):
        n = rng.randrange(1, 41)
        l = rng.randrange(0, n + 1)
        o = rng.randrange(0, max(l, 1))
        g = rng.randrange(0, max(l, 1))
        w = Weights(*(rng.uniform(0.0, 5.0) for _ in range(3)))
        got = algebraic_fitness(PlanMetrics(l, o, g, n), w)
        wf, wo, wg = (Fraction(v) for v in w.as_tuple())
        want = wf * l + wo * (n - 1 - o) + wg * (n - 1 - g)
        worst = max(worst, abs(Fraction(got) - want))
    ok = worst <= Fraction(1, 10**12)
    record(2, ok, f"50 random cases vs rational arithmetic, worst error {float(worst):.2e}")
    assert ok


def test_criterion_3_adaptive_phase_latch():
    # phase 1 scores through the feasibility term alone: perturbing the
    # orientation and gripper counts must not move the value
    w = Weights()
    rng = random.Random(7)
    depends_only_on_l = True
    for _ in range(200):
        n = rng.randrange(2, 12)
        l = rng.randrange(0, n + 1)
        base = adaptive_fitness(PlanMetrics(l, 0, 0, n), w, False)
        o = rng.randrange(0, max(l, 1))
        g = rng.randrange(0, max(l, 1))
        if adaptive_fitness(PlanMetrics(l, o, g, n), w, False) != base:
            depends_only_on_l = False
    # seeded run whose random initial population is partly infeasible
    result = evolve(
        load_fixture("stack6"),
        GAConfig(population_size=10, mutation_prob=0.2, max_generations=150,
                 mode=FitnessMode.ADAPTIVE, seed=0),
    )
    flags = [s.all_feasible for s in result.stats]
    fractions = [s.feasible_fraction for s in result.stats]
    latched = True in flags and flags[0] is False
    first = flags.index(True) if latched else -1
    latch_exact = (
        latched
        and all(flags[first:])
        and not any(flags[:first])
        and fractions[first] == 1.0
        and all(f < 1.0 for f in fractions[:first])
    )
    ok = depends_only_on_l and latch_exact
    record(
        3, ok,
        f"phase 1 ignores o and g over 200 perturbations; "
        f"flag latches at generation {first}, the first all-feasible one",
    )
    assert ok


def test_criterion_4_fuzzy_engine_contract():
    # symmetric single-rule systems: centroid lands on the consequent peak
    # within half a percent of the universe (the discretization bound)
    centroid_err = 0.0
    for peak in (0.2, 0.35, 0.5, 0.65, 0.8):
        half = min(peak, 1.0 - peak, 0.2)
        x = LinguisticVariable("x", 0.0, 1.0, (
            TriangularMF("low", 0.0, 0.0, 1.0),
            TriangularMF("high", 0.0, 1.0, 1.0),
        ))
        y = LinguisticVariable("y", 0.0, 1.0, (
            TriangularMF("mid", peak - half, peak, peak + half),
            TriangularMF("pad_lo", 0.0, 0.0, peak),
            TriangularMF("pad_hi", peak, 1.0, 1.0),
        ))
        system = FuzzySystem(inputs=(x,), output=y, rules=(FuzzyRule((("x", "low"),), "mid"),))
        for probe in (0.1, 0.4, 0.75):
            centroid_err = max(centroid_err, abs(system.infer({"x": probe}) - peak))
    # ranking monotone in the feasibility input at every grid point, to the
    # same discretization bound
    ranking = build_ranking_system()
    grid = [i / 20 for i in range(21)]
    mono_violation = 0.0
    for o in grid:
        for g in grid:
            prev = None
            for lN in grid:
                value = ranking.infer({
                    "feasible_fraction": lN,
                    "orientation_stability": o,
                    "gripper_stability": g,
                })
                if prev is not None and prev - value > mono_violation:
                    mono_violation = prev - value
                prev = value
    ok = centroid_err <= 0.005 and mono_violation <= 0.005
    record(
        4, ok,
        f"single-rule centroid error {centroid_err:.4f}, worst feasibility "
        f"monotonicity dip {mono_violation:.4f} on the 21x21x21 grid (bound 0.005)",
    )
    assert ok


def test_criterion_5_protocol_reproduction(criterion5_artifacts):
    report, _, elapsed = criterion5_artifacts
    rate_a = report["modes"]["A"]["successRate"]
    rate_b = report["modes"]["B"]["successRate"]
    ok = rate_b >= rate_a and elapsed < 300.0
    record(
        5, ok,
        f"19-part protocol: success rate B {rate_b:.2f} >= A {rate_a:.2f}, "
        f"total runtime {elapsed:.0f}s",
    )
    assert ok


def test_criterion_6_controller_stays_in_bounds_and_acts():
    model = load_fixture("cage5")
    cfg_bounds = GAConfig(mode=FitnessMode.ADAPTIVE_CONTROLLED)
    mut_lo, mut_hi = cfg_bounds.mutation_bounds
    cross_lo, cross_hi = cfg_bounds.crossover_bounds
    in_bounds = True
    distinct_muts = []
    for seed in range(20):
        result = evolve(model, GAConfig(
            population_size=20, max_generations=60,
            mode=FitnessMode.ADAPTIVE_CONTROLLED, seed=seed,
        ))
        muts = [s.mutation_prob for s in result.stats]
        crosses = [s.crossover_rate for s in result.stats]
        in_bounds = in_bounds and all(mut_lo <= m <= mut_hi for m in muts)
        in_bounds = in_bounds and all(cross_lo <= c <= cross_hi for c in crosses)
        distinct_muts.append(len(set(muts)))
    ok = in_bounds and max(distinct_muts) >= 3
    record(
        6, ok,
        f"20 runs: rates inside [{mut_lo}, {mut_hi}] x [{cross_lo}, {cross_hi}], "
        f"most active run used {max(distinct_muts)} distinct mutation probabilities",
    )
    assert ok


def test_criterion_7_reruns_are_byte_identical(criterion7_artifacts):
    first, second = criterion7_artifacts
    tree1 = {p.name: p.read_bytes() for p in sorted(first.iterdir())}
    tree2 = {p.name: p.read_bytes() for p in sorted(second.iterdir())}
    identical = tree1 == tree2 and len(tree1) >= 6
    report = json.loads((first / "report.json").read_text(encoding="utf-8"))
    rates = {m: report["modes"][m]["successRate"] for m in "ABCD"}
    solves = all(r >= 0.9 for r in rates.values())
    ok = identical and solves
    record(
        7, ok,
        f"manifest replay with a different worker count reproduced all "
        f"{len(tree1)} files byte for byte; success rates {rates}",
    )
    assert ok


def test_criterion_8_elitism_monotone_curves(criterion1_artifacts, criterion5_artifacts):
    curves = [out / "curve_A.csv" for _, out, _ in criterion1_artifacts.values()]
    curves += [criterion5_artifacts[1] / "curve_A.csv", criterion5_artifacts[1] / "curve_B.csv"]
    curves_ok = True
    for path in curves:
        series = curve_column(path, "meanMaxFitness")
        curves_ok = curves_ok and all(b >= a - 1e-9 for a, b in zip(series, series[1:]))
    # stronger per-run check on the in-memory reports: max fitness never drops
    # within a fitness phase (modes A and B have a single phase)
    runs_ok = True
    for report, _, _ in criterion1_artifacts.values():
        for summary in report.summaries:
            for run in summary.results:
                series = [s.max_fitness for s in run.stats]
                runs_ok = runs_ok and all(b >= a - 1e-9 for a, b in zip(series, series[1:]))
    ok = curves_ok and runs_ok
    record(
        8, ok,
        f"{len(curves)} emitted curves and all 200 per-run traces are "
        f"non-decreasing in max fitness",
    )
    assert ok
