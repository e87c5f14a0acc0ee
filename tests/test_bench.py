"""Benchmark harness: spec parsing, deterministic artifacts, aborts, replay."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adplan.bench
from adplan.bench import (
    ExperimentAborted,
    ExperimentSpecError,
    emit_curves,
    fixture_hash,
    manifest_dict,
    report_to_dict,
    run_experiment,
    spec_from_dict,
    spec_from_json,
    write_outputs,
    write_partial,
)
from adplan.fitness import FitnessMode, Weights
from conftest import FIXTURE_DIR, fixture_path


def small_spec(product="cage5.json", modes="AB", runs=2, gens=40, **extra):
    data = {
        "product": product,
        "modes": list(modes),
        "runs": runs,
        "generations": gens,
        "population": 20,
        **extra,
    }
    return spec_from_dict(data, FIXTURE_DIR)


def read_tree(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


# -- spec parsing -------------------------------------------------------------


def test_spec_defaults():
    spec = spec_from_dict({"product": "cage5.json"}, FIXTURE_DIR)
    assert spec.product_path == FIXTURE_DIR / "cage5.json"
    assert spec.product_ref == "cage5.json"
    assert spec.modes == tuple(FitnessMode)
    assert spec.runs == 20
    assert spec.base_seed == 0
    assert spec.population_size == 80
    assert spec.mutation_prob == 0.8
    assert spec.crossover_rate == 0.4
    assert spec.max_generations == 300
    assert spec.weights == Weights(2.0, 1.0, 1.0)
    assert spec.success_target is None
    assert spec.fixture_hash is None


def test_spec_rejects_unknown_keys():
    with pytest.raises(ExperimentSpecError, match="unknown experiment spec keys.*runz"):
        spec_from_dict({"product": "cage5.json", "runz": 3}, FIXTURE_DIR)


def test_spec_requires_product():
    with pytest.raises(ExperimentSpecError, match="'product'"):
        spec_from_dict({"modes": ["A"]}, FIXTURE_DIR)


def test_spec_keeps_absolute_paths():
    abs_path = str((FIXTURE_DIR / "cage5.json").resolve())
    spec = spec_from_dict({"product": abs_path}, Path("/nonexistent"))
    assert spec.product_path == Path(abs_path)


def test_spec_validates_weights_and_modes():
    with pytest.raises(ExperimentSpecError, match="three numbers"):
        spec_from_dict({"product": "cage5.json", "weights": [1, 2]}, FIXTURE_DIR)
    with pytest.raises(ValueError, match="unknown mode"):
        spec_from_dict({"product": "cage5.json", "modes": ["A", "Z"]}, FIXTURE_DIR)
    with pytest.raises(ExperimentSpecError, match="duplicate"):
        spec_from_dict({"product": "cage5.json", "modes": ["A", "A"]}, FIXTURE_DIR)
    with pytest.raises(ExperimentSpecError, match="at least one mode"):
        spec_from_dict({"product": "cage5.json", "modes": []}, FIXTURE_DIR)
    with pytest.raises(ExperimentSpecError, match="runs"):
        spec_from_dict({"product": "cage5.json", "runs": 0}, FIXTURE_DIR)


def test_spec_rejects_ga_parameters_outside_bounds():
    with pytest.raises(ValueError, match="mutation"):
        spec_from_dict(
            {"product": "cage5.json", "mutation": 0.1, "mutationBounds": [0.2, 0.95]},
            FIXTURE_DIR,
        )


def test_spec_checks_rate_bounds_only_for_mode_d():
    spec = {"product": "cage5.json", "mutation": 0.1, "crossover": 0.9}
    assert spec_from_dict({**spec, "modes": ["A", "B", "C"]}, FIXTURE_DIR).mutation_prob == 0.1
    with pytest.raises(ValueError, match="mutation"):
        spec_from_dict({**spec, "modes": ["A", "D"]}, FIXTURE_DIR)


def test_spec_from_json_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ExperimentSpecError, match="invalid JSON"):
        spec_from_json(p)


def test_shipped_experiment_specs_load_and_verify():
    for name in ("experiment_protocol19.json", "experiment_cage5.json"):
        spec = spec_from_json(FIXTURE_DIR / name)
        assert spec.fixture_hash == fixture_hash(spec.product_path)
        assert spec.runs == 20
        assert spec.population_size == 80
        assert spec.mutation_prob == 0.8
        assert spec.crossover_rate == 0.4


# -- run_experiment -----------------------------------------------------------


def test_fixture_hash_mismatch_aborts_before_running():
    spec = small_spec(fixtureHash="sha256:" + "0" * 64)
    with pytest.raises(ExperimentSpecError, match="hashes to"):
        run_experiment(spec)


def test_report_structure_and_exact_success_rate():
    spec = small_spec(runs=4, gens=30, successTarget=18.0)
    report = run_experiment(spec)
    assert report.product_hash == fixture_hash(fixture_path("cage5"))
    assert len(report.summaries) == 2
    for s in report.summaries:
        assert len(s.results) == 4
        assert [r.seed for r in s.results] == [0, 1, 2, 3]
        assert s.success_count == sum(r.success for r in s.results)
        assert s.success_rate == s.success_count / 4  # exact division
        assert len(s.mean_max_fitness) == 30
        # best run's plan scores at least as well as every run
        for r in s.results:
            assert s.best.best_algebraic >= r.best_algebraic


def test_runs_restart_seed_per_mode():
    spec = small_spec(runs=2, gens=20)
    report = run_experiment(spec)
    a, b = report.summaries
    assert [r.seed for r in a.results] == [r.seed for r in b.results] == [0, 1]
    assert all(r.mode is FitnessMode.ALGEBRAIC for r in a.results)
    assert all(r.mode is FitnessMode.FUZZY_RANKED for r in b.results)


def test_worker_pool_size_does_not_change_results():
    spec = small_spec(runs=2, gens=25)
    seq = run_experiment(spec, workers=1)
    par = run_experiment(spec, workers=3)
    assert report_to_dict(seq) == report_to_dict(par)


def test_import_leaves_the_process_pool_unloaded():
    # the pool is imported only when workers > 1, so a single-process run
    # does not pay for concurrent.futures and multiprocessing at start-up
    src = Path(adplan.bench.__file__).resolve().parents[1]
    code = (
        "import sys, adplan; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_run_panic_aborts_with_partial_results(tmp_path, monkeypatch):
    spec = small_spec(runs=2, gens=15)
    real_worker = adplan.bench._worker
    calls = []

    def flaky(job):
        if len(calls) == 3:
            raise RuntimeError("boom")
        calls.append(job)
        return real_worker(job)

    monkeypatch.setattr(adplan.bench, "_worker", flaky)
    with pytest.raises(ExperimentAborted) as err:
        run_experiment(spec, workers=1)
    exc = err.value
    assert "mode B, seed 1" in str(exc)
    assert "3/4 runs completed" in str(exc)
    assert len(exc.results) == 3

    path = write_partial(exc.results, tmp_path)
    assert path.name == "partial_runs.json"
    data = json.loads(path.read_text())
    assert data["aborted"] is True
    assert [e["mode"] for e in data["runs"]] == ["A", "A", "B"]
    assert [e["seed"] for e in data["runs"]] == [0, 1, 0]
    for entry in data["runs"]:
        assert {"seed", "success", "bestFitness", "bestAlgebraicFitness",
                "feasible", "orientationChanges", "gripperChanges", "mode"} == set(entry)


# -- artifacts ----------------------------------------------------------------


def test_write_outputs_byte_identical_across_invocations(tmp_path):
    spec = spec_from_dict(
        {"product": "product1.json", "modes": ["A"], "runs": 1, "seed": 7,
         "generations": 60, "population": 40},
        FIXTURE_DIR,
    )
    out1, out2 = tmp_path / "one", tmp_path / "two"
    write_outputs(run_experiment(spec), out1)
    write_outputs(run_experiment(spec, workers=2), out2)
    tree1, tree2 = read_tree(out1), read_tree(out2)
    assert set(tree1) == {"report.json", "manifest.json", "curve_A.csv", "best_plan_A.json"}
    assert tree1 == tree2


def test_emit_curves_row_count_and_header(tmp_path):
    spec = small_spec(modes="A", runs=1, gens=10)
    report = run_experiment(spec)
    (path,) = emit_curves(report, tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == "generation,meanMaxFitness,meanDiversity,meanMutationProb,meanCrossoverRate"
    assert len(lines) == 11  # header + one row per generation
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(10))


def test_curves_static_modes_hold_rates_and_d_moves(tmp_path):
    spec = small_spec(modes="AD", runs=2, gens=80)
    report = run_experiment(spec)
    by_mode = {s.mode.value: s for s in report.summaries}
    assert set(by_mode["A"].mean_mutation_prob) == {0.8}
    assert set(by_mode["A"].mean_crossover_rate) == {0.4}
    assert len(set(by_mode["D"].mean_mutation_prob)) >= 3


def test_single_phase_mean_curves_non_decreasing():
    spec = small_spec(modes="AB", runs=3, gens=50)
    report = run_experiment(spec)
    for s in report.summaries:
        curve = s.mean_max_fitness
        assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:]))


def test_manifest_replay_reproduces_report(tmp_path):
    spec = small_spec(runs=2, gens=30)
    report = run_experiment(spec)
    out = tmp_path / "first"
    write_outputs(report, out)

    replay_spec = spec_from_json(out / "manifest.json")
    # the manifest pins the product by content hash
    assert replay_spec.fixture_hash == report.product_hash
    replay = run_experiment(replay_spec)
    out2 = tmp_path / "second"
    write_outputs(replay, out2)
    assert read_tree(out) == read_tree(out2)


def test_manifest_contents(tmp_path):
    spec = small_spec(runs=2, gens=30, successTarget=18.0)
    report = run_experiment(spec)
    m = manifest_dict(report)
    assert m == {
        "product": str((FIXTURE_DIR / "cage5.json").resolve()),
        "fixtureHash": report.product_hash,
        "modes": ["A", "B"],
        "runs": 2,
        "seed": 0,
        "population": 20,
        "mutation": 0.8,
        "crossover": 0.4,
        "generations": 30,
        "weights": [2.0, 1.0, 1.0],
        "mutationBounds": [0.2, 0.95],
        "crossoverBounds": [0.1, 0.8],
        "successTarget": 18.0,
    }


def test_report_json_has_no_timing_fields(tmp_path):
    spec = small_spec(runs=1, gens=10)
    write_outputs(run_experiment(spec), tmp_path)
    for name in ("report.json", "manifest.json", "best_plan_A.json"):
        text = (tmp_path / name).read_text()
        assert "elapsed" not in text
        assert "seconds" not in text
        assert "time" not in text.lower()
