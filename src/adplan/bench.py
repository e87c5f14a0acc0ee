"""Batch experiment protocol: seeded runs, aggregation, deterministic output.

An experiment runs every requested mode with ``runs`` seeds (base seed, base
seed + 1, ...), aggregates mean-of-max fitness curves and success rates, and
emits a report, per-mode curve CSVs and best-plan files, plus a manifest that
suffices to replay the experiment bit-exactly.  Emitted artifacts carry no
timing data and are byte-identical across repeats and worker-pool sizes; a
run is keyed only by (mode, seed) so aggregation never depends on completion
order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .encoding import plan_record
from .fitness import FitnessMode, Weights, rank_key
from .ga import GAConfig, RunResult, evolve
from .product import ProductModel, load_product


class ExperimentSpecError(ValueError):
    """The experiment spec file is malformed or inconsistent."""


class ExperimentAborted(RuntimeError):
    """A run raised mid-experiment; completed runs ride along for salvage.

    ``results`` holds every RunResult collected before the failure, in job
    order, so callers can persist the partial experiment.
    """

    def __init__(self, message: str, results: tuple[RunResult, ...]):
        super().__init__(message)
        self.results = results


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that defines an experiment, minus runtime concerns.

    Worker count and output directory are deliberately not part of the spec:
    they must not influence any emitted byte.  The GA settings default to
    GAConfig's.
    """

    product_path: Path
    product_ref: str
    modes: tuple[FitnessMode, ...] = tuple(FitnessMode)
    runs: int = 20
    base_seed: int = 0
    population_size: int = GAConfig.population_size
    mutation_prob: float = GAConfig.mutation_prob
    crossover_rate: float = GAConfig.crossover_rate
    max_generations: int = GAConfig.max_generations
    weights: Weights = GAConfig.weights
    mutation_bounds: tuple[float, float] = GAConfig.mutation_bounds
    crossover_bounds: tuple[float, float] = GAConfig.crossover_bounds
    success_target: float | None = GAConfig.success_target
    fixture_hash: str | None = None

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ExperimentSpecError(f"runs must be >= 1, got {self.runs}")
        if not self.modes:
            raise ExperimentSpecError("experiment needs at least one mode")
        if len(set(self.modes)) != len(self.modes):
            raise ExperimentSpecError("duplicate modes in experiment spec")
        # fail early on bad GA parameters rather than mid-experiment; the
        # rate bounds bind in mode D only, so every mode is checked
        for mode in self.modes:
            self.config_for(mode, self.base_seed)

    def config_for(self, mode: FitnessMode, seed: int) -> GAConfig:
        shared = {f.attr: getattr(self, f.attr) for f in _FIELDS if f.attr in _GA_ATTRS}
        return GAConfig(mode=mode, seed=seed, **shared)


# -- spec fields: JSON key, ExperimentSpec attribute, reader, writer ----------


def _scalar(kinds: tuple[type, ...], what: str, convert: Callable = lambda v: v) -> Callable:
    """Reader that accepts only values of exactly these JSON types."""

    def read(key: str, value: object) -> object:
        if type(value) not in kinds:  # exact, so a JSON true is no number
            raise ExperimentSpecError(f"{key} must be {what}, got {value!r}")
        return convert(value)

    return read


_NULL = type(None)
_integer = _scalar((int,), "an integer")
_number = _scalar((int, float), "a number", float)


def _numbers(count: int, words: str) -> Callable[[str, object], tuple[float, ...]]:
    def read(key: str, value: object) -> tuple[float, ...]:
        if not isinstance(value, (list, tuple)) or len(value) != count or not all(
            type(x) in (int, float) for x in value
        ):
            raise ExperimentSpecError(f"{key} must be a list of {words} numbers, got {value!r}")
        return tuple(map(float, value))

    return read


def _modes(key: str, value: object) -> tuple[FitnessMode, ...]:
    if not isinstance(value, (list, tuple)) or not all(isinstance(m, str) for m in value):
        raise ExperimentSpecError(f"{key} must be a list of mode letters, got {value!r}")
    return tuple(FitnessMode.from_letter(m) for m in value)


class _Field(NamedTuple):
    key: str
    attr: str
    read: Callable[[str, object], object]
    write: Callable[[object], object] = lambda value: value


_FIELDS = (
    _Field("product", "product_ref", _scalar((str,), "a string")),
    _Field("modes", "modes", _modes, lambda modes: [m.value for m in modes]),
    _Field("runs", "runs", _integer),
    _Field("seed", "base_seed", _integer),
    _Field("population", "population_size", _integer),
    _Field("mutation", "mutation_prob", _number),
    _Field("crossover", "crossover_rate", _number),
    _Field("generations", "max_generations", _integer),
    _Field(
        "weights", "weights",
        lambda key, value: Weights(*_numbers(3, "three")(key, value)),
        lambda weights: list(weights.as_tuple()),
    ),
    _Field("mutationBounds", "mutation_bounds", _numbers(2, "two"), list),
    _Field("crossoverBounds", "crossover_bounds", _numbers(2, "two"), list),
    _Field(
        "successTarget", "success_target",
        _scalar((int, float, _NULL), "a number or null", lambda v: v if v is None else float(v)),
    ),
    _Field("fixtureHash", "fixture_hash", _scalar((str, _NULL), "a string or null")),
)
_SPEC_KEYS = {f.key for f in _FIELDS}
_GA_ATTRS = {f.name for f in fields(GAConfig)}


def spec_from_dict(data: Mapping, base_dir: Path) -> ExperimentSpec:
    if not isinstance(data, Mapping):
        raise ExperimentSpecError("experiment spec must be a JSON object")
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise ExperimentSpecError(f"unknown experiment spec keys: {sorted(unknown)}")
    if "product" not in data:
        raise ExperimentSpecError("experiment spec needs a 'product' path")
    kwargs = {f.attr: f.read(f.key, data[f.key]) for f in _FIELDS if f.key in data}
    path = Path(kwargs["product_ref"])
    if not path.is_absolute():
        path = base_dir / path
    return ExperimentSpec(product_path=path, **kwargs)


def spec_from_json(path: str | Path) -> ExperimentSpec:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ExperimentSpecError(f"{path}: invalid JSON: {exc}") from exc
    return spec_from_dict(data, path.parent)


def fixture_hash(path: str | Path) -> str:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return f"sha256:{digest}"


@dataclass(frozen=True)
class ModeSummary:
    mode: FitnessMode
    results: tuple[RunResult, ...]  # seed order
    success_count: int
    success_rate: float
    mean_max_fitness: tuple[float, ...]
    mean_diversity: tuple[float, ...]
    mean_mutation_prob: tuple[float, ...]
    mean_crossover_rate: tuple[float, ...]
    best: RunResult


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    model: ProductModel
    product_hash: str
    summaries: tuple[ModeSummary, ...]


def _worker(job: tuple[ProductModel, GAConfig]) -> RunResult:
    model, cfg = job
    return evolve(model, cfg)


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentReport:
    """Execute all (mode, seed) runs and aggregate per-mode summaries.

    ``workers`` > 1 fans runs out to a process pool; results are collected
    in job order, so the report is identical for any pool size.
    """
    model = load_product(spec.product_path)
    digest = fixture_hash(spec.product_path)
    if spec.fixture_hash is not None and spec.fixture_hash != digest:
        raise ExperimentSpecError(
            f"product file {spec.product_path} hashes to {digest}, "
            f"but the spec expects {spec.fixture_hash}"
        )
    jobs = [
        (model, spec.config_for(mode, spec.base_seed + r))
        for mode in spec.modes
        for r in range(spec.runs)
    ]
    results: list[RunResult] = []
    try:
        if workers > 1:
            # imported here: the pool's modules add to every ``import adplan``
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                for res in pool.map(_worker, jobs):
                    results.append(res)
        else:
            for job in jobs:
                results.append(_worker(job))
    except Exception as exc:
        failed = jobs[len(results)][1] if len(results) < len(jobs) else None
        where = (
            f"mode {failed.mode.value}, seed {failed.seed}" if failed else "a worker"
        )
        raise ExperimentAborted(
            f"experiment aborted: run failed at {where}: {exc} "
            f"({len(results)}/{len(jobs)} runs completed)",
            results=tuple(results),
        ) from exc

    summaries = []
    for k, mode in enumerate(spec.modes):
        mode_results = tuple(results[k * spec.runs : (k + 1) * spec.runs])
        summaries.append(_summarize(mode, mode_results))
    return ExperimentReport(
        spec=spec, model=model, product_hash=digest, summaries=tuple(summaries)
    )


def _summarize(mode: FitnessMode, results: tuple[RunResult, ...]) -> ModeSummary:
    gens = len(results[0].stats)
    runs = len(results)

    def mean(attr: str, g: int) -> float:
        return sum(getattr(r.stats[g], attr) for r in results) / runs

    # results are in seed order and min keeps the first of equals
    best = min(results, key=lambda r: rank_key(r.best_algebraic, r.best_metrics))
    successes = sum(1 for r in results if r.success)
    return ModeSummary(
        mode=mode,
        results=results,
        success_count=successes,
        success_rate=successes / runs,
        mean_max_fitness=tuple(mean("max_fitness", g) for g in range(gens)),
        mean_diversity=tuple(mean("diversity", g) for g in range(gens)),
        mean_mutation_prob=tuple(mean("mutation_prob", g) for g in range(gens)),
        mean_crossover_rate=tuple(mean("crossover_rate", g) for g in range(gens)),
        best=best,
    )


# -- serialization ----------------------------------------------------------


def plan_report(model: ProductModel, result: RunResult, weights: Weights) -> dict:
    """Best-plan record for one run, including both fitness scales."""
    rec = plan_record(model, result.best, result.best_metrics)
    rec["fitness"] = {
        "mode": result.mode.value,
        "value": result.best_fitness,
        "algebraic": result.best_algebraic,
        "weights": list(weights.as_tuple()),
    }
    rec["seed"] = result.seed
    rec["success"] = result.success
    return rec


def _run_entry(r: RunResult) -> dict:
    return {
        "seed": r.seed,
        "success": r.success,
        "bestFitness": r.best_fitness,
        "bestAlgebraicFitness": r.best_algebraic,
        "feasible": r.best_metrics.feasible_len == r.best_metrics.n_parts,
        "orientationChanges": r.best_metrics.orient_changes,
        "gripperChanges": r.best_metrics.grip_changes,
    }


def report_to_dict(report: ExperimentReport) -> dict:
    modes = {}
    for s in report.summaries:
        modes[s.mode.value] = {
            "successCount": s.success_count,
            "successRate": s.success_rate,
            "bestSeed": s.best.seed,
            "bestPlan": plan_report(report.model, s.best, report.spec.weights),
            "runs": [_run_entry(r) for r in s.results],
            "curve": {
                "meanMaxFitness": list(s.mean_max_fitness),
                "meanDiversity": list(s.mean_diversity),
                "meanMutationProb": list(s.mean_mutation_prob),
                "meanCrossoverRate": list(s.mean_crossover_rate),
            },
        }
    # the report restates the manifest's settings except the controller bounds
    settings = manifest_dict(report)
    del settings["mutationBounds"], settings["crossoverBounds"]
    return settings | {
        "product": report.model.name,
        "productFile": settings["product"],
        "modes": modes,
    }


def manifest_dict(report: ExperimentReport) -> dict:
    """Replay manifest: loading this as an experiment spec reproduces the report.

    The product is pinned by resolved path plus content hash so the manifest
    replays from any working directory; a rerun then emits these same bytes.
    """
    spec = report.spec
    return {f.key: f.write(getattr(spec, f.attr)) for f in _FIELDS} | {
        "product": str(spec.product_path.resolve()),
        "fixtureHash": report.product_hash,
    }


def _dump_json(data: dict, path: Path) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


CURVE_COLUMNS = ("generation", "meanMaxFitness", "meanDiversity", "meanMutationProb", "meanCrossoverRate")


def emit_curves(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """Write one curve CSV per mode; floats use repr so bytes are stable."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for s in report.summaries:
        path = out_dir / f"curve_{s.mode.value}.csv"
        lines = [",".join(CURVE_COLUMNS)]
        for g in range(len(s.mean_max_fitness)):
            lines.append(
                f"{g},{s.mean_max_fitness[g]!r},{s.mean_diversity[g]!r},"
                f"{s.mean_mutation_prob[g]!r},{s.mean_crossover_rate[g]!r}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def write_partial(results: Sequence[RunResult], out_dir: str | Path) -> Path:
    """Salvage the completed runs of an aborted experiment to disk."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "partial_runs.json"
    entries = [_run_entry(r) | {"mode": r.mode.value} for r in results]
    _dump_json({"aborted": True, "runs": entries}, path)
    return path


def write_outputs(report: ExperimentReport, out_dir: str | Path) -> dict[str, Path]:
    """Write report.json, manifest.json, curve CSVs and best-plan files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    report_path = out_dir / "report.json"
    _dump_json(report_to_dict(report), report_path)
    paths["report"] = report_path
    manifest_path = out_dir / "manifest.json"
    _dump_json(manifest_dict(report), manifest_path)
    paths["manifest"] = manifest_path
    for path in emit_curves(report, out_dir):
        paths[path.stem] = path
    for s in report.summaries:
        plan_path = out_dir / f"best_plan_{s.mode.value}.json"
        _dump_json(plan_report(report.model, s.best, report.spec.weights), plan_path)
        paths[plan_path.stem] = plan_path
    return paths
