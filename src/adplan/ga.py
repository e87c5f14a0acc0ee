"""Generational genetic algorithm over plan chromosomes.

Selection is binary tournament with replacement, elitism carries the single
best individual unchanged, and the crossover rate is the fraction of the next
generation produced by order crossover (the rest are selected clones).  Each
non-elite individual is mutated with the current mutation probability.

Mode D layers a fuzzy run-time controller on top: after every generation the
controller reads stagnation (generations since the max fitness last improved,
against a fixed horizon) and population diversity, and rescales the mutation
probability and crossover rate multiplicatively within configured bounds.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

from .encoding import (
    PlanChromosome,
    PlanMetrics,
    crossover,
    metrics,
    mutate,
    random_chromosome,
    validate_chromosome,
)
from .fitness import EvalContext, FitnessMode, Weights, algebraic_fitness
from .fuzzy import ControllerSystems, build_controller_system
from .product import ProductModel

#: Generations without improvement that count as fully stagnated.
STAGNATION_HORIZON = 10


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 80
    mutation_prob: float = 0.8
    crossover_rate: float = 0.4
    max_generations: int = 300
    mode: FitnessMode = FitnessMode.ALGEBRAIC
    weights: Weights = dc_field(default_factory=Weights)
    seed: int = 0
    # controller clamp bounds, also validated for non-controller modes
    mutation_bounds: tuple[float, float] = (0.2, 0.95)
    crossover_bounds: tuple[float, float] = (0.1, 0.8)
    success_target: float | None = None

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {self.population_size}")
        if self.max_generations < 1:
            raise ValueError(f"max_generations must be >= 1, got {self.max_generations}")
        for label, value in (("mutation_prob", self.mutation_prob), ("crossover_rate", self.crossover_rate)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")
        for label, (lo, hi), value in (
            ("mutation_bounds", self.mutation_bounds, self.mutation_prob),
            ("crossover_bounds", self.crossover_bounds, self.crossover_rate),
        ):
            if not 0.0 < lo <= value <= hi <= 1.0:
                raise ValueError(
                    f"{label} must satisfy 0 < low <= configured rate <= high <= 1, "
                    f"got ({lo}, {hi}) around {value}"
                )


@dataclass(frozen=True)
class GenerationStats:
    """Per-generation snapshot recorded before breeding the next generation.

    mutation_prob and crossover_rate are the rates that bred this generation
    (the configured defaults for generation 0), so mode-D trajectories can be
    read straight off the stats history.
    """

    generation: int
    max_fitness: float
    mean_fitness: float
    best_metrics: PlanMetrics
    mutation_prob: float
    crossover_rate: float
    diversity: float
    feasible_fraction: float
    all_feasible: bool


@dataclass(frozen=True)
class RunResult:
    """Outcome of one evolve() call.

    ``best`` is the best individual ever seen under the run's own fitness
    mode (within the final adaptive phase, if any), with ties broken toward
    fewer orientation changes then fewer gripper changes.  ``best_algebraic``
    scores that same plan on the algebraic scale so runs of different modes
    can be compared; success is judged on that value.  ``elapsed_seconds``
    stays in memory only; emitted artifacts carry no timing data.
    """

    mode: FitnessMode
    seed: int
    best: PlanChromosome
    best_metrics: PlanMetrics
    best_fitness: float
    best_algebraic: float
    success: bool
    stats: tuple[GenerationStats, ...]
    elapsed_seconds: float


def select(
    scored: Sequence[tuple], rng: random.Random
) -> PlanChromosome:
    """Binary tournament with replacement over (chromosome, fitness, ...) rows.

    Two indices are drawn uniformly; the higher fitness wins and the first
    draw wins ties (including drawing the same index twice).
    """
    a = scored[rng.randrange(len(scored))]
    b = scored[rng.randrange(len(scored))]
    return a[0] if a[1] >= b[1] else b[0]


def population_diversity(population: Sequence[PlanChromosome]) -> float:
    """Mean pairwise positionwise disagreement of the sequence sections.

    Exact over all pairs in O(P·n) for P sequences of length n: if c[k][v]
    sequences hold component v at position k, then Σ_v c[k][v]² counts the
    ordered pairs (self-pairs included) that agree at k, so the mean is
    (P²·n − Σ_k Σ_v c[k][v]²) / (P·(P−1)·n).  Draws no randomness.
    Ranges over [0, 1]; 0 means every sequence section is identical.
    """
    p = len(population)
    n = len(population[0].sequence) if population else 0
    if p < 2 or n == 0:
        return 0.0
    columns = zip(*(chrom.sequence for chrom in population))
    agree = sum(c * c for column in columns for c in Counter(column).values())
    return (p * p * n - agree) / (p * (p - 1) * n)


def controller_update(
    history: Sequence[GenerationStats],
    systems: ControllerSystems,
    config: GAConfig,
) -> tuple[float, float]:
    """Fuzzy rescaling of the mutation probability and crossover rate.

    Stagnation is the number of generations since the per-generation max
    fitness last strictly improved, scaled by STAGNATION_HORIZON and capped
    at 1.  Diversity is the latest recorded population diversity.  The two
    inferred multipliers are applied to the current rates and clamped into
    the configured bounds.
    """
    if not history:
        raise ValueError("controller needs at least one generation of history")
    best = -math.inf
    last_improve = 0
    for idx, s in enumerate(history):
        if s.max_fitness > best:
            best = s.max_fitness
            last_improve = idx
    stalled = len(history) - 1 - last_improve
    inputs = {
        "stagnation": min(1.0, stalled / STAGNATION_HORIZON),
        "diversity": history[-1].diversity,
    }
    mut_scale = systems.mutation.infer(inputs)
    cross_scale = systems.crossover.infer(inputs)
    lo, hi = config.mutation_bounds
    new_mut = min(max(history[-1].mutation_prob * mut_scale, lo), hi)
    lo, hi = config.crossover_bounds
    new_cross = min(max(history[-1].crossover_rate * cross_scale, lo), hi)
    return new_mut, new_cross


def evolve(
    model: ProductModel,
    config: GAConfig,
    *,
    ranking_system=None,
    controller: ControllerSystems | None = None,
    fitness_fn: Callable[[PlanMetrics], float] | None = None,
    audit: bool = False,
) -> RunResult:
    """Run the GA to completion and return the best plan found.

    Deterministic for a given (model, config): all randomness flows from one
    random.Random seeded with config.seed.  ``fitness_fn`` overrides the
    mode's fitness (diagnostics); ``audit`` re-validates every chromosome
    each generation and is meant for tests.
    """
    if model.n == 0:
        raise ValueError("cannot plan for a product with no components")
    t0 = time.perf_counter()
    rng = random.Random(config.seed)
    ctx = EvalContext(
        model=model,
        mode=config.mode,
        weights=config.weights,
        ranking_system=ranking_system,
    )
    if config.mode is FitnessMode.ADAPTIVE_CONTROLLED and controller is None:
        controller = build_controller_system()

    pop = [random_chromosome(model, rng) for _ in range(config.population_size)]
    known: list[PlanMetrics | None] = [None] * len(pop)
    mut_p = config.mutation_prob
    cross_r = config.crossover_rate
    history: list[GenerationStats] = []
    best_key: tuple[float, int, int] | None = None
    best_chrom: PlanChromosome | None = None
    best_m: PlanMetrics | None = None

    for gen in range(config.max_generations):
        if audit:
            for c in pop:
                validate_chromosome(model, c)
        mlist = [metrics(model, c) if m is None else m for c, m in zip(pop, known)]
        feasible = sum(1 for m in mlist if m.feasible_len == m.n_parts)
        if ctx.mode.adaptive and not ctx.all_feasible and feasible == len(pop):
            ctx.all_feasible = True
            best_key = None  # fitness scale changed with the phase
        if fitness_fn is None:
            values = [ctx.evaluate(m) for m in mlist]
        else:
            values = [fitness_fn(m) for m in mlist]
        scored = list(zip(pop, values, mlist))
        best_i = min(
            range(len(pop)),
            key=lambda i: (-values[i], mlist[i].orient_changes, mlist[i].grip_changes, i),
        )
        cand_key = (
            -values[best_i],
            mlist[best_i].orient_changes,
            mlist[best_i].grip_changes,
        )
        if best_key is None or cand_key < best_key:
            best_key = cand_key
            best_chrom = pop[best_i]
            best_m = mlist[best_i]
        history.append(
            GenerationStats(
                generation=gen,
                max_fitness=values[best_i],
                mean_fitness=sum(values) / len(values),
                best_metrics=mlist[best_i],
                mutation_prob=mut_p,
                crossover_rate=cross_r,
                diversity=population_diversity(pop),
                feasible_fraction=feasible / len(pop),
                all_feasible=ctx.all_feasible,
            )
        )
        if gen == config.max_generations - 1:
            break
        if config.mode is FitnessMode.ADAPTIVE_CONTROLLED:
            mut_p, cross_r = controller_update(history, controller, config)
        pop, known = _breed(scored, best_i, mut_p, cross_r, model, rng)

    best_alg = algebraic_fitness(best_m, config.weights)
    success = (
        config.success_target is not None
        and best_alg >= config.success_target - 1e-9
    )
    return RunResult(
        mode=config.mode,
        seed=config.seed,
        best=best_chrom,
        best_metrics=best_m,
        best_fitness=-best_key[0],
        best_algebraic=best_alg,
        success=success,
        stats=tuple(history),
        elapsed_seconds=time.perf_counter() - t0,
    )


def _breed(
    scored: list[tuple],
    elite_i: int,
    mut_p: float,
    cross_r: float,
    model: ProductModel,
    rng: random.Random,
) -> tuple[list[PlanChromosome], list[PlanMetrics | None]]:
    """The next generation, with the metrics of each member known to be
    unchanged (the elite and unmutated clones), None for new chromosomes.
    """
    p = len(scored)
    n_offspring = p - 1
    n_cross = min(n_offspring, round(cross_r * p))
    children: list[PlanChromosome] = []
    while len(children) < n_cross:
        c1, c2 = crossover(select(scored, rng), select(scored, rng), rng)
        children.append(c1)
        if len(children) < n_cross:
            children.append(c2)
    while len(children) < n_offspring:
        children.append(select(scored, rng))
    # every scored row is alive here, so object ids cannot be reused
    parent_metrics = {id(row[0]): row[2] for row in scored}
    elite, _, elite_m = scored[elite_i]
    out = [elite]
    known = [elite_m]
    for c in children:
        if rng.random() < mut_p:
            c = mutate(c, model, rng)
        out.append(c)
        known.append(parent_metrics.get(id(c)))
    return out, known
