"""Command line front end: exit codes, determinism, artifact writing."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import adplan.bench
from adplan.bench import fixture_hash
from adplan.cli import main
from conftest import FIXTURE_DIR, fixture_path, stack_doc
from test_product import doc


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    """Invoke main() in process and return (exit code, stdout, stderr)."""
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path: Path, name="spec.json", **overrides) -> Path:
    # absolute product path so the spec works from any cwd
    data = {
        "product": str(fixture_path("cage5").resolve()),
        "modes": ["A"],
        "runs": 2,
        "generations": 40,
        "population": 20,
        "successTarget": 18.0,
        **overrides,
    }
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


# -- validate -----------------------------------------------------------------


def test_validate_reports_product_shape(capsys):
    code, out, err = run_cli(capsys, "validate", fixture_path("cage5"))
    assert code == 0
    assert err == ""
    assert "OK" in out
    assert "cage5: 5 components" in out


def test_validate_bad_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{nope", encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", bad)
    assert code == 2
    assert err.startswith("error:")
    assert "invalid JSON" in err


def test_validate_missing_file_exits_3(capsys, tmp_path):
    code, out, err = run_cli(capsys, "validate", tmp_path / "absent.json")
    assert code == 3
    assert err.startswith("i/o error:")


def test_validate_schema_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "thin.json"
    bad.write_text(json.dumps({"name": "thin"}), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", bad)
    assert code == 2
    assert err.startswith("error:")


def _no_directions():
    return doc(2, [])


def _false_id():
    bad = doc(2, ["+x"])
    bad["components"][0]["id"] = False
    return bad


def _true_entry():
    bad = doc(2, ["+x"])
    bad["interference"]["+x"][0][1] = True
    return bad


@pytest.mark.parametrize(
    "make,message",
    [
        (_no_directions, "product has no directions"),
        (_false_id, "components[0].id must be int, got bool"),
        (_true_entry, "interference[+x][0][1] must be 0 or 1, got True"),
    ],
)
def test_validate_malformed_product_exits_2(capsys, tmp_path, make, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make()), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", bad)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err
    assert len(err.splitlines()) == 1


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# -- plan ---------------------------------------------------------------------

PLAN_ARGS = ("--gens", "40", "--pop", "20", "--seed", "3")


def test_plan_stdout_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "plan", fixture_path("chain3"), *PLAN_ARGS)
    code2, out2, _ = run_cli(capsys, "plan", fixture_path("chain3"), *PLAN_ARGS)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "chain3: mode A seed 3:" in out1
    # the same record the --out path would write, printed as JSON
    record = json.loads(out1[out1.index("{"):])
    assert record["fitness"]["mode"] == "A"
    assert record["feasible"] is True


def test_plan_runs_on_a_70_part_stack(capsys, tmp_path):
    path = tmp_path / "stack70.json"
    path.write_text(json.dumps(stack_doc(70)[0]), encoding="utf-8")
    code, out, err = run_cli(capsys, "plan", path, "--gens", "5", "--pop", "10")
    assert code == 0 and err == ""
    record = json.loads(out[out.index("{"):])
    assert record["metrics"]["components"] == 70


def test_plan_seed_changes_output(capsys):
    _, out1, _ = run_cli(capsys, "plan", fixture_path("stack6"),
                         "--gens", "5", "--pop", "10", "--seed", "0")
    _, out2, _ = run_cli(capsys, "plan", fixture_path("stack6"),
                         "--gens", "5", "--pop", "10", "--seed", "1")
    assert out1 != out2


def test_plan_writes_best_plan_json(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "plan", fixture_path("chain3"), *PLAN_ARGS,
                           "--out", tmp_path)
    assert code == 0
    path = tmp_path / "best_plan.json"
    assert f"wrote {path}" in out
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["seed"] == 3
    assert record["fitness"]["weights"] == [2.0, 1.0, 1.0]
    assert set(record) >= {"steps", "assemblyOrder", "metrics", "fitness"}


def test_plan_target_reported(capsys):
    # chain3 has one 3-part optimum at 9.0; any healthy run reaches it
    code, out, _ = run_cli(capsys, "plan", fixture_path("chain3"), *PLAN_ARGS,
                           "--target", "9.0")
    assert code == 0
    assert "target 9.0: reached" in out
    code, out, _ = run_cli(capsys, "plan", fixture_path("chain3"), *PLAN_ARGS,
                           "--target", "99.0")
    assert code == 0
    assert "target 99.0: missed" in out


def test_plan_bad_weights_exits_2(capsys):
    code, _, err = run_cli(capsys, "plan", fixture_path("chain3"),
                           "--weights", "1,2")
    assert code == 2
    assert "--weights needs three" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--weights", "nan,1,1", "fitness weights must be finite"),
        ("--weights", "1,inf,1", "fitness weights must be finite"),
        ("--seed", "-3", "seed must be >= 0, got -3"),
    ],
)
def test_plan_bad_number_exits_2(capsys, tmp_path, flag, value, message):
    code, out, err = run_cli(capsys, "plan", fixture_path("cage5"), flag, value,
                             "--out", tmp_path / "plan")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1  # one line, no traceback
    assert not (tmp_path / "plan").exists()


def test_plan_unknown_mode_exits_2(capsys):
    code, _, err = run_cli(capsys, "plan", fixture_path("chain3"), "--mode", "E")
    assert code == 2
    assert "unknown mode" in err


def test_plan_bad_ga_config_exits_2(capsys):
    code, _, err = run_cli(capsys, "plan", fixture_path("chain3"), "--pop", "0")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("rate", [("--mut", "0.1"), ("--cross", "0.9")])
def test_plan_rates_outside_controller_bounds(capsys, rate):
    # the clamp bounds bind only mode D's controller
    for letter in "ABC":
        code, out, err = run_cli(capsys, "plan", fixture_path("stack6"), *PLAN_ARGS,
                                 "--mode", letter, *rate)
        assert (code, err) == (0, "")
        assert f"stack6: mode {letter} seed 3:" in out
    code, _, err = run_cli(capsys, "plan", fixture_path("stack6"), *PLAN_ARGS,
                           "--mode", "D", *rate)
    assert code == 2
    assert "bracket the configured rate in mode D" in err


# -- oracle -------------------------------------------------------------------


def test_oracle_prints_optimum(capsys):
    code, out, err = run_cli(capsys, "oracle", fixture_path("chain3"))
    assert code == 0
    assert err == ""
    assert "chain3: optimal fitness 9.0" in out
    assert "example optimal order:" in out


def test_oracle_writes_json(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "oracle", fixture_path("chain3"),
                           "--out", tmp_path)
    assert code == 0
    data = json.loads((tmp_path / "oracle.json").read_text(encoding="utf-8"))
    assert data["optimalFitness"] == 9.0
    assert data["truncated"] is False
    assert data["fixtureHash"] == fixture_hash(fixture_path("chain3"))
    assert data["optimalPlanCount"] == len(data["optimalPlans"]) >= 1
    assert all(p["feasible"] for p in data["optimalPlans"])


def test_oracle_cap_exceeded_exits_2(capsys):
    code, _, err = run_cli(capsys, "oracle", fixture_path("product2"))
    assert code == 2
    assert "19" in err and "7" in err


def test_oracle_solves_product2_with_raised_cap(capsys):
    code, out, err = run_cli(capsys, "oracle", fixture_path("product2"), "--cap", "19")
    assert code == 0
    assert err == ""
    assert "product2: optimal fitness 68.0" in out


def test_oracle_custom_weights(capsys):
    # feasibility-only weights: optimum counts parts, chain3 gives 3.0
    code, out, _ = run_cli(capsys, "oracle", fixture_path("chain3"),
                           "--weights", "1,0,0")
    assert code == 0
    assert "optimal fitness 3.0" in out


# -- experiment ---------------------------------------------------------------


def test_experiment_runs_and_writes_artifacts(capsys, tmp_path):
    spec = write_spec(tmp_path)
    out = tmp_path / "results"
    code, stdout, err = run_cli(capsys, "experiment", spec, "--out", out)
    assert code == 0
    assert err == ""
    assert "mode A: best algebraic fitness" in stdout
    assert "success 2/2" in stdout
    assert f"wrote {out / 'report.json'}" in stdout
    names = {p.name for p in out.iterdir()}
    assert names == {"report.json", "manifest.json", "curve_A.csv", "best_plan_A.json"}
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["modes"]["A"]["successRate"] == 1.0


def test_experiment_manifest_replay_is_byte_identical(capsys, tmp_path):
    spec = write_spec(tmp_path)
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    assert run_cli(capsys, "experiment", spec, "--out", out1)[0] == 0
    code, stdout, _ = run_cli(capsys, "experiment", out1 / "manifest.json",
                              "--out", out2, "--workers", "2")
    assert code == 0
    tree1 = {p.name: p.read_bytes() for p in sorted(out1.iterdir())}
    tree2 = {p.name: p.read_bytes() for p in sorted(out2.iterdir())}
    assert tree1 == tree2


def test_experiment_unknown_spec_key_exits_2(capsys, tmp_path):
    spec = write_spec(tmp_path, runz=3)
    code, _, err = run_cli(capsys, "experiment", spec)
    assert code == 2
    assert "unknown experiment spec keys" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("mutationBounds", 0.5),
        ("crossoverBounds", [0.1]),
        ("mutationBounds", [0.2, "0.9"]),
        ("crossoverBounds", [True, 0.8]),
        ("modes", [1]),
        ("modes", "AB"),
        ("product", 5),
        ("generations", None),
        ("seed", [1]),
        ("runs", 2.5),
        ("population", True),
        ("runs", "2"),
        ("mutation", "0.8"),
        ("crossover", False),
        ("successTarget", "18"),
        ("fixtureHash", 5),
    ],
)
def test_experiment_malformed_spec_field_exits_2(capsys, tmp_path, key, value):
    expected = {
        "mutationBounds": "a list",
        "crossoverBounds": "a list",
        "modes": "a list",
        "product": "a string,",
        "generations": "an integer",
        "seed": "an integer",
        "runs": "an integer",
        "population": "an integer",
        "mutation": "a number,",
        "crossover": "a number,",
        "successTarget": "a number or null",
        "fixtureHash": "a string or null",
    }[key]
    spec = write_spec(tmp_path, **{key: value})
    code, out, err = run_cli(capsys, "experiment", spec, "--out", tmp_path / "results")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {key} must be {expected}")
    assert err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("weights", [float("nan"), 1, 1], "fitness weights must be finite"),
        ("weights", [1, 1, float("inf")], "fitness weights must be finite"),
        ("successTarget", float("nan"), "success_target must be finite"),
        ("successTarget", float("inf"), "success_target must be finite"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ],
)
def test_experiment_bad_number_in_spec_exits_2(capsys, tmp_path, key, value, message):
    # json writes and reads NaN and Infinity, though JSON has neither
    spec = write_spec(tmp_path, **{key: value})
    out = tmp_path / "results"
    code, stdout, err = run_cli(capsys, "experiment", spec, "--out", out)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1  # one line, no traceback
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_experiment_workers_below_one_is_usage_error(capsys, tmp_path, workers):
    spec = write_spec(tmp_path)
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        main(["experiment", str(spec), "--out", str(out), "--workers", workers])
    assert exc.value.code == 2
    assert f"--workers: must be at least 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_missing_spec_exits_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, "experiment", tmp_path / "absent.json")
    assert code == 3
    assert err.startswith("i/o error:")


def test_experiment_abort_salvages_partial_runs(capsys, tmp_path, monkeypatch):
    real_worker = adplan.bench._worker

    def flaky(job):
        if job[1].mode.value == "B":
            raise RuntimeError("induced failure")
        return real_worker(job)

    monkeypatch.setattr(adplan.bench, "_worker", flaky)
    spec = write_spec(tmp_path, modes=["A", "B"])
    out = tmp_path / "results"
    code, _, err = run_cli(capsys, "experiment", spec, "--out", out)
    assert code == 1
    assert "induced failure" in err
    assert f"salvaged completed runs to {out / 'partial_runs.json'}" in err
    partial = json.loads((out / "partial_runs.json").read_text(encoding="utf-8"))
    assert [(e["mode"], e["seed"]) for e in partial["runs"]] == [("A", 0), ("A", 1)]
    assert not (out / "report.json").exists()


# -- installed entry point ----------------------------------------------------


@pytest.mark.skipif(shutil.which("adplan") is None, reason="package not installed")
def test_console_script_smoke():
    proc = subprocess.run(
        ["adplan", "validate", str(fixture_path("cage5"))],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "OK" in proc.stdout
