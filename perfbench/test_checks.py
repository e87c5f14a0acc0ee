"""The benchmark's answer checks pass on real runs and fail on corrupted ones.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

from adplan import (  # noqa: E402
    ExperimentSpec,
    FitnessMode,
    PlanMetrics,
    brute_force_optimal,
    load_product,
    run_experiment,
    write_outputs,
)

import checks  # noqa: E402
import workloads  # noqa: E402

FIXTURES = SRC / "adplan" / "fixtures"
WEIGHTS = (2.0, 1.0, 1.0)
UNIVERSE = checks.ranking_universe(SRC)


def doc_of(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text("utf-8"))


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    """A short four-mode experiment on product1 and its written artifacts."""
    path = FIXTURES / "product1.json"
    spec = ExperimentSpec(
        product_path=path,
        product_ref=str(path),
        runs=2,
        population_size=12,
        max_generations=40,
        success_target=29.0,
    )
    report = run_experiment(spec)
    out = tmp_path_factory.mktemp("artifacts")
    write_outputs(report, out)
    results = [r for s in report.summaries for r in s.results]
    return spec, results, out


def by_mode(results, letter: str):
    return next(r for r in results if r.mode is FitnessMode(letter))


def with_row(result, k: int, **changes):
    stats = list(result.stats)
    stats[k] = replace(stats[k], **changes)
    return replace(result, stats=tuple(stats))


def errors_of(spec, result) -> list[str]:
    return checks.run_errors(doc_of("product1"), spec, result, UNIVERSE, 29.0)


def assert_caught(errors: list[str], fragment: str) -> None:
    assert any(fragment in e for e in errors), errors


# -- the checks accept what the program really produces ----------------------------


def test_clean_batch_passes(batch):
    spec, results, out = batch
    for r in results:
        assert errors_of(spec, r) == []
    assert checks.report_errors(doc_of("product1"), spec, results, out) == []


def test_interval_dp_gives_the_case_study_optima():
    assert checks.stack_optimum(doc_of("product1"), WEIGHTS) == 29.0
    assert checks.stack_optimum(doc_of("product2"), WEIGHTS) == 68.0


@pytest.mark.parametrize("name", ["stack4", "stack5", "stack6", "twin6", "clamp6"])
def test_interval_dp_agrees_with_exhaustive_search(name):
    oracle = brute_force_optimal(load_product(FIXTURES / f"{name}.json"))
    assert checks.stack_optimum(doc_of(name), WEIGHTS) == oracle.optimal_fitness


def test_generated_stack_is_a_column_stack():
    doc = workloads.stack_product(3)
    found = sorted(map(sorted, checks.stack_columns(doc)))
    assert found == sorted(map(sorted, workloads.stack_columns(3)))
    assert len(doc["components"]) == workloads.STACK_PARTS


def test_oracle_answer_passes_and_a_wrong_one_fails():
    doc = doc_of("stack5")
    oracle = brute_force_optimal(load_product(FIXTURES / "stack5.json"))
    assert checks.oracle_errors(doc, WEIGHTS, oracle, 16.0) == []
    assert_caught(checks.oracle_errors(doc, WEIGHTS, oracle, 17.0), "interval DP gives 17.0")
    plan = oracle.optimal_plans[0]
    worse = plan._replace(directions=(1 - plan.directions[0],) + plan.directions[1:])
    bad = replace(oracle, optimal_plans=(worse,))
    assert_caught(checks.oracle_errors(doc, WEIGHTS, bad, 16.0), "scores")


# -- corrupted plans ----------------------------------------------------------------


def test_corrupted_plans_are_caught(batch):
    spec, results, _ = batch
    r = by_mode(results, "A")
    seq, dirs, grips = r.best
    dup = r.best._replace(sequence=(seq[1],) + seq[1:])
    assert_caught(errors_of(spec, replace(r, best=dup)), "not a permutation")
    far = r.best._replace(directions=(6,) + dirs[1:])
    assert_caught(errors_of(spec, replace(r, best=far)), "out of range")
    part = seq[0]
    allowed = {c["id"]: c["grippers"] for c in doc_of("product1")["components"]}[part]
    wrong = next(k for k, g in enumerate(doc_of("product1")["grippers"]) if g not in allowed)
    banned = r.best._replace(grippers=(wrong,) + grips[1:])
    assert_caught(errors_of(spec, replace(r, best=banned)), "not allowed")


def test_stack_structure_is_verified():
    doc = doc_of("product2")
    doc["interference"]["+z"][0][1] ^= 1
    with pytest.raises(ValueError, match="not a column stack"):
        checks.stack_columns(doc)


# -- corrupted metrics --------------------------------------------------------------


def test_corrupted_metrics_are_caught(batch):
    spec, results, _ = batch
    r = by_mode(results, "A")
    m = r.best_metrics
    off = PlanMetrics(m.feasible_len, m.orient_changes + 1, m.grip_changes, m.n_parts)
    assert_caught(errors_of(spec, replace(r, best_metrics=off)), "raw walk")
    assert_caught(errors_of(spec, replace(r, best_algebraic=r.best_algebraic + 1)), "best_algebraic")
    assert_caught(errors_of(spec, replace(r, best_fitness=r.best_fitness + 1)), "best_fitness")
    assert_caught(errors_of(spec, replace(r, success=not r.success)), "success flag")


def test_fitness_above_the_exact_optimum_is_caught(batch):
    spec, results, _ = batch
    r = by_mode(results, "A")
    errors = checks.run_errors(doc_of("product1"), spec, r, UNIVERSE, r.best_algebraic - 1)
    assert_caught(errors, "exceeds the exact optimum")


# -- corrupted stats rows ------------------------------------------------------------


def test_elitism_drop_is_caught(batch):
    spec, results, _ = batch
    r = by_mode(results, "A")
    dropped = with_row(r, 20, max_fitness=r.stats[19].max_fitness - 1)
    assert_caught(errors_of(spec, dropped), "max fitness fell")


def test_latch_clearing_is_caught(batch):
    spec, results, _ = batch
    r = with_row(by_mode(results, "C"), 8, all_feasible=False)
    r = with_row(r, 10, all_feasible=False)
    r = with_row(r, 9, all_feasible=True, feasible_fraction=1.0)
    assert_caught(errors_of(spec, r), "latch cleared")
    assert_caught(errors_of(spec, with_row(r, 9, feasible_fraction=0.5)), "latch set with")
    a = with_row(by_mode(results, "A"), 3, all_feasible=True)
    assert_caught(errors_of(spec, a), "non-adaptive")


def test_rates_are_checked(batch):
    spec, results, _ = batch
    d = by_mode(results, "D")
    assert_caught(errors_of(spec, with_row(d, 7, mutation_prob=0.99)), "mutation rate")
    assert_caught(errors_of(spec, with_row(d, 7, crossover_rate=0.05)), "crossover rate")
    a = by_mode(results, "A")
    assert_caught(errors_of(spec, with_row(a, 7, mutation_prob=0.5)), "static mode")


def test_ranges_are_checked(batch):
    spec, results, _ = batch
    a = by_mode(results, "A")
    assert_caught(errors_of(spec, with_row(a, 4, diversity=1.5)), "diversity")
    assert_caught(errors_of(spec, with_row(a, 4, feasible_fraction=-0.1)), "feasible_fraction")
    b = by_mode(results, "B")
    assert_caught(errors_of(spec, with_row(b, 0, mean_fitness=1.5)), "ranking universe")
    assert_caught(errors_of(spec, replace(b, best_fitness=1.5)), "ranking universe")


def test_missing_generation_is_caught(batch):
    spec, results, _ = batch
    a = by_mode(results, "A")
    assert_caught(errors_of(spec, replace(a, stats=a.stats[:-1])), "stats rows")


# -- corrupted artifacts ----------------------------------------------------------------


def corrupt_report(out: Path, tmp_path: Path, edit) -> Path:
    copy = tmp_path / "copy"
    copy.mkdir()
    for name in ("report.json", "manifest.json"):
        (copy / name).write_bytes((out / name).read_bytes())
    report = json.loads((copy / "report.json").read_text("utf-8"))
    edit(report)
    (copy / "report.json").write_text(json.dumps(report), encoding="utf-8")
    return copy


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (lambda r: r["modes"]["A"]["runs"][0].update(bestAlgebraicFitness=-1.0), "entry"),
        (lambda r: r["modes"]["B"]["runs"][1].update(gripperChanges=99), "entry"),
        (lambda r: r["modes"]["C"].update(successCount=7), "success"),
        (lambda r: r["modes"]["D"].update(bestSeed=12345), "bestSeed"),
        (lambda r: r["modes"]["A"]["bestPlan"]["steps"].reverse(), "bestPlan"),
        (lambda r: r["modes"]["B"]["curve"]["meanMaxFitness"].__setitem__(3, 9.0), "curve"),
        (lambda r: r.update(generations=1), "generations"),
    ],
)
def test_corrupted_report_is_caught(batch, tmp_path, edit, fragment):
    spec, results, out = batch
    copy = corrupt_report(out, tmp_path, edit)
    assert_caught(checks.report_errors(doc_of("product1"), spec, results, copy), fragment)
