"""Generational genetic algorithm over plan chromosomes.

Selection is binary tournament with replacement, elitism carries the single
best individual unchanged, and the crossover rate is the fraction of the next
generation produced by order crossover (the rest are selected clones).  Each
non-elite individual is mutated with the current mutation probability.
The population is one ``(3, P, n)`` array.  Each generation is scored with
one ``metrics`` and one ``EvalContext.evaluate`` call over the whole array,
and bred with three batched calls (``select``, ``crossover``, ``mutate``).
All randomness flows from one ``numpy.random.Generator`` per run.

Mode D layers a fuzzy run-time controller on top: after every generation the
controller reads stagnation (generations since the max fitness last improved,
against a fixed horizon) and population diversity, and rescales the mutation
probability and crossover rate multiplicatively within configured bounds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoding import (
    PlanChromosome,
    PlanMetrics,
    crossover,
    metrics,
    mutate,
    random_population,
)
from .fitness import EvalContext, FitnessMode, Weights, algebraic_fitness, best_row, rank_key
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
    weights: Weights = Weights()
    seed: int = 0
    # controller clamp bounds (mode D); must bracket the rates only there
    mutation_bounds: tuple[float, float] = (0.2, 0.95)
    crossover_bounds: tuple[float, float] = (0.1, 0.8)
    success_target: float | None = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.success_target is not None and not math.isfinite(self.success_target):
            raise ValueError(f"success_target must be finite, got {self.success_target}")
        if self.population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {self.population_size}")
        if self.max_generations < 1:
            raise ValueError(f"max_generations must be >= 1, got {self.max_generations}")
        for label, value in (("mutation_prob", self.mutation_prob), ("crossover_rate", self.crossover_rate)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")
        controlled = self.mode is FitnessMode.ADAPTIVE_CONTROLLED
        for label, (lo, hi), value in (
            ("mutation_bounds", self.mutation_bounds, self.mutation_prob),
            ("crossover_bounds", self.crossover_bounds, self.crossover_rate),
        ):
            if not 0.0 < lo <= hi <= 1.0:
                raise ValueError(f"{label} must satisfy 0 < low <= high <= 1, got ({lo}, {hi})")
            if controlled and not lo <= value <= hi:
                raise ValueError(
                    f"{label} must bracket the configured rate in mode D, "
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
    mode (within the final adaptive phase, if any), ordered by
    ``fitness.rank_key``.  ``best_algebraic`` scores that same plan on the
    algebraic scale so runs of different modes can be compared; success is
    judged on that value.  ``elapsed_seconds`` stays in memory only; emitted
    artifacts carry no timing data.
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
    values: Sequence[float], n_cross: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Every parent and crossover cut of one generation of P - 1 children,
    for 0 <= n_cross <= P - 1 crossover children and n parts.

    Each parent is a binary tournament with replacement over the P rows:
    two rows are drawn uniformly, the higher value wins and the first draw
    wins ties (including drawing the same row twice).  One
    ``integers(P, size=(2, T))`` call draws all T tournaments, row 0 the
    first draws and row 1 the second.  The first n_cross children come from
    pairs of consecutive tournaments, and each pair gets a cut pair
    0 <= i < j <= n, uniform over unordered pairs: a second call draws i
    below n + 1 and j below n for every pair, j steps past i (j += j >= i)
    and the two are sorted.  With one part the only cut pair spans the row.
    Both children of a pair share its cut, the second with the parents'
    roles swapped, and an odd n_cross drops the last pair's second child.
    Every other child is a clone of one tournament winner.

    Returns ``(rows, donors, (lo, hi))``: the row each child starts from,
    then the donor row and the cuts of each crossover child.
    """
    values = np.asarray(values)
    p = len(values)
    pairs = (n_cross + 1) // 2
    a, b = rng.integers(p, size=(2, p - 1 - n_cross + 2 * pairs))
    winners = np.where(values[a] >= values[b], a, b)
    i, j = rng.integers((n + 1, n), size=(pairs, 2)).T
    j += j >= i
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    rows = np.concatenate((winners[:n_cross], winners[2 * pairs :]))
    donors = winners[np.arange(n_cross) ^ 1]
    return rows, donors, (lo.repeat(2)[:n_cross], hi.repeat(2)[:n_cross])


def population_diversity(pop: np.ndarray) -> float:
    """Mean pairwise positionwise disagreement of the sequence sections.

    ``pop`` is a ``(3, P, n)`` population array.  Exact over all pairs in
    O(P·n): if c[k][v] sequences hold component v at position k, then
    Σ_v c[k][v]² counts the ordered pairs (self-pairs included) that agree
    at k, so the mean is (P²·n − Σ_k Σ_v c[k][v]²) / (P·(P−1)·n).  Each
    sequence is a permutation of 0..n−1, so the codes k·n + v are distinct
    per (k, v) and one bincount gives every c[k][v]; the sum stays an exact
    integer.  Draws no randomness.  Ranges over [0, 1]; 0 means every
    sequence section is identical.
    """
    _, p, n = pop.shape
    if p < 2 or n == 0:
        return 0.0
    counts = np.bincount((pop[0] + np.arange(0, n * n, n)).ravel())
    agree = int(counts @ counts)
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


def evolve(model: ProductModel, config: GAConfig) -> RunResult:
    """Run the GA to completion and return the best plan found.

    Deterministic for a given (model, config) on a given numpy version: all
    randomness flows from one ``numpy.random.default_rng(config.seed)``.
    The population is one ``(3, P, n)`` array (sequence, direction and
    gripper planes); row 0 of every bred generation is the elite.
    """
    if model.n == 0:
        raise ValueError("cannot plan for a product with no components")
    t0 = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    ctx = EvalContext(mode=config.mode, weights=config.weights)
    controlled = config.mode is FitnessMode.ADAPTIVE_CONTROLLED
    controller = build_controller_system() if controlled else None

    size = config.population_size
    pop = random_population(model, size, rng)
    mut_p = config.mutation_prob
    cross_r = config.crossover_rate
    history: list[GenerationStats] = []
    best_key: tuple[float, int, int] | None = None
    best_chrom: PlanChromosome | None = None
    best_m: PlanMetrics | None = None

    for gen in range(config.max_generations):
        m = metrics(model, pop)
        feasible = int(np.count_nonzero(m.feasible_len == model.n))
        if ctx.mode.adaptive and not ctx.all_feasible and feasible == size:
            ctx.latch()
            best_key = None  # fitness scale changed with the phase
        scores = ctx.evaluate(m)
        best_i = best_row(scores, m)
        values = scores.tolist()
        gen_m = PlanMetrics(*(int(x[best_i]) for x in m[:3]), model.n)
        gen_key = rank_key(values[best_i], gen_m)
        if best_key is None or gen_key < best_key:
            best_key = gen_key
            best_chrom = PlanChromosome._make(map(tuple, pop[:, best_i].tolist()))
            best_m = gen_m
        history.append(
            GenerationStats(
                generation=gen,
                max_fitness=values[best_i],
                mean_fitness=sum(values) / len(values),
                best_metrics=gen_m,
                mutation_prob=mut_p,
                crossover_rate=cross_r,
                diversity=population_diversity(pop),
                feasible_fraction=feasible / size,
                all_feasible=ctx.all_feasible,
            )
        )
        if gen == config.max_generations - 1:
            break
        if controlled:
            mut_p, cross_r = controller_update(history, controller, config)
        pop = _breed(pop, scores, best_i, mut_p, cross_r, model, rng)

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
    pop: np.ndarray,
    values: np.ndarray,
    elite_i: int,
    mut_p: float,
    cross_r: float,
    model: ProductModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """The next generation: the elite, the crossover children, then the
    clones, all but the elite mutated."""
    p = len(values)
    n_cross = min(p - 1, round(cross_r * p))
    rows, donors, cuts = select(values, n_cross, pop.shape[2], rng)
    children = np.concatenate(
        (crossover(pop, rows[:n_cross], donors, cuts), pop.take(rows[n_cross:], axis=1)), axis=1
    )
    mutate(children, model, mut_p, rng)
    return np.concatenate((pop[:, elite_i, None], children), axis=1)
