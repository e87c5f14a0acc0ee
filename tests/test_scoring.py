"""Batched scoring against the scalar rules, plan by plan.

``encoding.metrics`` scores a whole ``(3, P, n)`` population at once, and
``EvalContext.evaluate`` and ``fitness.best_row`` score and rank it.  Each
must agree with the one-plan rules for every row: the metrics with the
reference walk of ``reference_ops.walk_metrics``, the fitness bit for bit
with ``algebraic_fitness``, ``adaptive_fitness`` and ``fuzzy_fitness``, and
the best row with the first row of smallest ``rank_key``.  The populations
mix random plans with plans that follow a feasible removal order for a
while, and repeat some rows, so long prefixes and ties both occur; the
generated stacks span one, two and three 64-bit mask words.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import reference_ops as ref
from adplan.encoding import PlanChromosome, PlanMetrics, metrics, random_chromosome
from adplan.fitness import (
    EvalContext,
    FitnessMode,
    Weights,
    adaptive_fitness,
    algebraic_fitness,
    best_row,
    fuzzy_fitness,
    rank_key,
)
from adplan.fuzzy import build_ranking_system
from adplan.product import ProductModel, product_from_dict
from conftest import ORACLE_OPTIMA, STACK_TARGETS, load_fixture, stack_doc

STACK_SIZES = (44, 64, 70, 130)
WEIGHTS = (Weights(), Weights(0.3, 1.7, 0.1))
RANKING = build_ranking_system()


def long_prefix_plan(model: ProductModel, rng: random.Random) -> PlanChromosome:
    """A random feasible removal order, then one random swap or direction
    reset, so the feasible prefix is long and often ends early."""
    n = model.n
    masks = model.blocker_masks
    removed = 0
    left = list(range(n))
    seq: list[int] = []
    dirs: list[int] = []
    while left:
        options = [
            (part, d)
            for part in left
            for d in range(len(model.directions))
            if not masks[d][part] & ~removed
        ]
        if not options:
            break
        part, d = rng.choice(options)
        left.remove(part)
        seq.append(part)
        dirs.append(d)
        removed |= 1 << part
    rng.shuffle(left)
    seq += left
    dirs += [rng.randrange(len(model.directions)) for _ in left]
    if n >= 2 and rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        seq[i], seq[j] = seq[j], seq[i]
        dirs[i], dirs[j] = dirs[j], dirs[i]
    else:
        dirs[rng.randrange(n)] = rng.randrange(len(model.directions))
    grips = [rng.choice(model.allowed_grippers[part]) for part in seq]
    return PlanChromosome(tuple(seq), tuple(dirs), tuple(grips))


def mixed_population(model: ProductModel, rng: random.Random, size: int) -> list[PlanChromosome]:
    plans = [random_chromosome(model, rng) for _ in range(size // 2)]
    plans += [long_prefix_plan(model, rng) for _ in range(size - size // 2)]
    plans += rng.sample(plans, size // 4)  # clones, as the GA breeds them
    rng.shuffle(plans)
    return plans


def models() -> list[tuple[str, ProductModel]]:
    named = [(name, load_fixture(name)) for name in [*ORACLE_OPTIMA, *STACK_TARGETS]]
    for n in STACK_SIZES:
        named.append((f"stack{n}", product_from_dict(stack_doc(n, seed=n)[0])))
    return named


MODELS = models()


def rows(m: PlanMetrics) -> list[PlanMetrics]:
    """The per-row metrics of array-valued metrics, as Python ints."""
    return [PlanMetrics(*row, m.n_parts) for row in zip(*(f.tolist() for f in m[:3]))]


def scalar_fitness(mode: FitnessMode, weights: Weights, latched: bool, m: PlanMetrics) -> float:
    if mode is FitnessMode.FUZZY_RANKED:
        return fuzzy_fitness(m, RANKING)
    if mode.adaptive:
        return adaptive_fitness(m, weights, latched)
    return algebraic_fitness(m, weights)


@pytest.mark.parametrize("name, model", MODELS, ids=[name for name, _ in MODELS])
def test_batched_scoring_matches_scalar_rules(name, model):
    rng = random.Random(f"scoring-{name}")
    words = -(-model.n // 64)
    assert model.blocker_words.shape == (len(model.directions), model.n, words)
    for size in (1, 2, 40):
        plans = mixed_population(model, rng, size)
        m = metrics(model, ref.population(plans))
        assert m.n_parts == model.n and m.feasible_len.shape == (len(plans),)
        walked = [ref.walk_metrics(model, plan) for plan in plans]
        assert rows(m) == walked
        for weights in WEIGHTS:
            for mode in FitnessMode:
                for latched in (False, True):
                    values = EvalContext(mode, weights, all_feasible=latched).evaluate(m)
                    expected = [scalar_fitness(mode, weights, latched, w) for w in walked]
                    assert [v.hex() for v in values.tolist()] == [e.hex() for e in expected]
                    first_best = min(
                        range(len(plans)), key=lambda i: rank_key(expected[i], walked[i])
                    )
                    assert best_row(values, m) == first_best


def test_long_prefix_populations_reach_far(fixture_models):
    # the generator must give what the batched rule is checked on: long
    # prefixes, fully feasible plans and repeated rows
    rng = random.Random(5)
    model = fixture_models["product2"]
    plans = mixed_population(model, rng, 40)
    lengths = [ref.walk_metrics(model, plan).feasible_len for plan in plans]
    assert max(lengths) == model.n
    assert sum(length >= model.n // 2 for length in lengths) >= 10
    assert len(set(plans)) < len(plans)


def test_single_plan_metrics_take_the_batched_path():
    # one plan gives Python ints, equal to its row in a population
    model = product_from_dict(stack_doc(130, seed=1)[0])
    rng = random.Random(2)
    plans = [long_prefix_plan(model, rng) for _ in range(5)]
    batch = rows(metrics(model, ref.population(plans)))
    for plan, row in zip(plans, batch):
        one = metrics(model, plan)
        assert one == row and all(type(x) is int for x in one)


def test_blocker_words_are_built_on_first_use():
    model = product_from_dict(stack_doc(70, seed=3)[0])
    assert "blocker_words" not in vars(model)
    words = model.blocker_words
    assert words is model.blocker_words and not words.flags.writeable
    bits = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
    assert np.array_equal(bits[..., : model.n].astype(bool), model.interference)
    assert not bits[..., model.n :].any()
