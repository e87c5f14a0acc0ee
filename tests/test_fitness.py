"""Fitness functions: algebraic form, adaptive phases, fuzzy ranking."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from adplan.encoding import PlanChromosome, PlanMetrics, metrics, random_chromosome
from adplan.fitness import (
    EvalContext,
    FitnessMode,
    Weights,
    adaptive_fitness,
    algebraic_fitness,
    fuzzy_fitness,
    normalized_measures,
    rank_key,
)
from adplan.fuzzy import build_ranking_system
from test_product import doc, random_model
from adplan.product import product_from_dict


def pm(l, o, g, n):
    return PlanMetrics(l, o, g, n)


# -- weights -----------------------------------------------------------------


def test_weights_defaults():
    w = Weights()
    assert w.as_tuple() == (2.0, 1.0, 1.0)


def test_weights_reject_negative_and_all_zero():
    with pytest.raises(ValueError, match="non-negative"):
        Weights(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        Weights(0.0, 0.0, 0.0)


def test_weights_allow_partial_zero():
    w = Weights(1.0, 0.0, 0.0)
    assert algebraic_fitness(pm(3, 2, 2, 3), w) == 3.0


# -- algebraic fitness --------------------------------------------------------


def test_algebraic_single_component_unit_weights():
    assert algebraic_fitness(pm(1, 0, 0, 1), Weights(1, 1, 1)) == 1.0


def test_algebraic_perfect_eight_parts():
    # l=8, o=0, g=0 at unit weights: 8 + 7 + 7
    assert algebraic_fitness(pm(8, 0, 0, 8), Weights(1, 1, 1)) == 22.0


def test_algebraic_three_parts_default_weights():
    assert algebraic_fitness(pm(3, 1, 1, 3), Weights(2, 1, 1)) == 8.0


def test_algebraic_matches_rational_recomputation(rng):
    # 50 random metric/weight rows recomputed in exact arithmetic
    for _ in range(50):
        n = rng.randint(1, 30)
        l = rng.randint(0, n)
        budget = max(l - 1, 0)
        o = rng.randint(0, budget)
        g = rng.randint(0, budget)
        w = Weights(rng.randint(0, 8) / 2, rng.randint(0, 8) / 2, rng.randint(1, 8) / 2)
        got = algebraic_fitness(pm(l, o, g, n), w)
        wf, wo, wg = (Fraction(x).limit_denominator() for x in w.as_tuple())
        want = wf * l + wo * (n - 1 - o) + wg * (n - 1 - g)
        assert got == pytest.approx(float(want), abs=1e-12)


def test_algebraic_max_iff_perfect_plan():
    w = Weights(2, 1, 1)
    n = 6
    best = algebraic_fitness(pm(n, 0, 0, n), w)
    for l in range(n + 1):
        for o in range(max(l - 1, 0) + 1):
            for g in range(max(l - 1, 0) + 1):
                val = algebraic_fitness(pm(l, o, g, n), w)
                if (l, o, g) == (n, 0, 0):
                    assert val == best
                else:
                    assert val < best


def test_algebraic_strict_monotonicity():
    w = Weights(2, 1, 1)
    assert algebraic_fitness(pm(5, 2, 2, 8), w) > algebraic_fitness(pm(4, 2, 2, 8), w)
    assert algebraic_fitness(pm(5, 1, 2, 8), w) > algebraic_fitness(pm(5, 2, 2, 8), w)
    assert algebraic_fitness(pm(5, 2, 1, 8), w) > algebraic_fitness(pm(5, 2, 2, 8), w)


def test_algebraic_weight_scaling():
    m1, m2 = pm(5, 2, 1, 8), pm(6, 3, 3, 8)
    w = Weights(2, 1, 1)
    w3 = Weights(6, 3, 3)
    for m in (m1, m2):
        assert algebraic_fitness(m, w3) == pytest.approx(3 * algebraic_fitness(m, w))
    # the induced ordering is unchanged
    assert (algebraic_fitness(m1, w) > algebraic_fitness(m2, w)) == (
        algebraic_fitness(m1, w3) > algebraic_fitness(m2, w3)
    )


# -- adaptive fitness ---------------------------------------------------------


def test_adaptive_phase1_longer_prefix_wins():
    w = Weights(2, 1, 1)
    a = adaptive_fitness(pm(5, 4, 4, 8), w, False)
    b = adaptive_fitness(pm(4, 0, 0, 8), w, False)
    assert a == 5.0 and b == 4.0 and a > b


def test_adaptive_phase1_ignores_changes():
    w = Weights(2, 1, 1)
    base = adaptive_fitness(pm(5, 0, 0, 8), w, False)
    for o in range(5):
        for g in range(5):
            assert adaptive_fitness(pm(5, o, g, 8), w, False) == base


def test_adaptive_phase2_is_algebraic(rng):
    w = Weights(2, 1, 1)
    for _ in range(100):
        n = rng.randint(1, 12)
        l = rng.randint(0, n)
        o = rng.randint(0, max(l - 1, 0))
        g = rng.randint(0, max(l - 1, 0))
        m = pm(l, o, g, n)
        assert adaptive_fitness(m, w, True) == algebraic_fitness(m, w)


# -- normalized measures ------------------------------------------------------


def test_normalized_measures_formulas():
    m = normalized_measures(pm(4, 1, 2, 8))
    assert m["feasible_fraction"] == pytest.approx(0.5)
    assert m["orientation_stability"] == pytest.approx(1 - 1 / 3)
    assert m["gripper_stability"] == pytest.approx(1 - 2 / 3)


def test_normalized_measures_degenerate_budget():
    m = normalized_measures(pm(0, 0, 0, 5))
    assert m == {
        "feasible_fraction": 0.0,
        "orientation_stability": 1.0,
        "gripper_stability": 1.0,
    }
    m1 = normalized_measures(pm(1, 0, 0, 1))
    assert m1["feasible_fraction"] == 1.0
    assert m1["orientation_stability"] == 1.0


def test_normalized_measures_in_unit_box(rng):
    for _ in range(200):
        n = rng.randint(1, 20)
        l = rng.randint(0, n)
        o = rng.randint(0, max(l - 1, 0))
        g = rng.randint(0, max(l - 1, 0))
        for v in normalized_measures(pm(l, o, g, n)).values():
            assert 0.0 <= v <= 1.0


# -- fuzzy fitness ------------------------------------------------------------


def test_fuzzy_fitness_perfect_plan_high():
    fs = build_ranking_system()
    assert fuzzy_fitness(pm(8, 0, 0, 8), fs) >= 0.8


def test_fuzzy_fitness_worst_plan_low():
    fs = build_ranking_system()
    assert fuzzy_fitness(pm(0, 0, 0, 8), fs) <= 0.2


def test_fuzzy_fitness_monotone_in_feasible_length():
    # raw o, g fixed; growing the prefix lifts every normalized input
    fs = build_ranking_system()
    n = 10
    for o, g in [(0, 0), (1, 2), (3, 3)]:
        prev = None
        for l in range(n + 1):
            if o > max(l - 1, 0) or g > max(l - 1, 0):
                continue
            q = fuzzy_fitness(pm(l, o, g, n), fs)
            if prev is not None:
                assert q >= prev - 1e-12
            prev = q


def test_fuzzy_fitness_bounded(rng):
    fs = build_ranking_system()
    for _ in range(100):
        n = rng.randint(1, 25)
        l = rng.randint(0, n)
        o = rng.randint(0, max(l - 1, 0))
        g = rng.randint(0, max(l - 1, 0))
        assert 0.0 <= fuzzy_fitness(pm(l, o, g, n), fs) <= 1.0


def test_fuzzy_fitness_has_no_weights():
    fs = build_ranking_system()
    m = pm(5, 1, 1, 8)
    assert fuzzy_fitness(m, fs) == fuzzy_fitness(m, fs)
    # same metrics, any weight context: the call signature has no weight input


# -- mode plumbing ------------------------------------------------------------


def test_mode_from_letter():
    assert FitnessMode.from_letter("a") is FitnessMode.ALGEBRAIC
    assert FitnessMode.from_letter("B") is FitnessMode.FUZZY_RANKED
    assert FitnessMode.from_letter("C") is FitnessMode.ADAPTIVE
    assert FitnessMode.from_letter("D") is FitnessMode.ADAPTIVE_CONTROLLED
    with pytest.raises(ValueError, match="unknown mode"):
        FitnessMode.from_letter("E")


def test_mode_letters_round_trip():
    for mode in FitnessMode:
        assert FitnessMode.from_letter(mode.value) is mode


def free_model(n=3):
    return product_from_dict(doc(n, ["+y", "-x"]))


def rank_population(model, population, ctx):
    """Score a population and sort it best first by rank_key; the sort is
    stable, so equal keys keep their original order as in evolve."""
    scored = []
    for chrom in population:
        m = metrics(model, chrom)
        scored.append((chrom, ctx.evaluate(m), m))
    return sorted(scored, key=lambda row: rank_key(row[1], row[2]))


def test_rank_population_singleton():
    model = free_model(1)
    pop = [PlanChromosome((0,), (0,), (0,))]
    ranked = rank_population(model, pop, EvalContext())
    assert len(ranked) == 1 and ranked[0][0] is pop[0]


def test_rank_population_mode_a_ordering():
    model = free_model(3)
    ctx = EvalContext(FitnessMode.ALGEBRAIC, Weights(1, 1, 1))
    clean = PlanChromosome((0, 1, 2), (0, 0, 0), (0, 0, 0))  # o=0, g=0 -> 7
    churn = PlanChromosome((0, 1, 2), (0, 1, 0), (0, 0, 0))  # o=2 -> 5
    ranked = rank_population(model, [churn, clean], ctx)
    assert ranked[0][0] is clean
    assert ranked[0][1] == 7.0
    assert ranked[1][1] == 5.0


def test_rank_population_tie_breaks_orient_then_grip_then_order():
    model = product_from_dict(
        doc(3, ["+y", "-x"], {i: ["G1", "G2"] for i in range(3)}, ["G1", "G2"])
    )
    # equal fitness under w=(1, 0, 0); distinct o and g profiles
    ctx = EvalContext(FitnessMode.ALGEBRAIC, Weights(1, 0, 0))
    churn_o = PlanChromosome((0, 1, 2), (0, 1, 0), (0, 0, 0))
    churn_g = PlanChromosome((0, 1, 2), (0, 0, 0), (0, 1, 1))
    calm = PlanChromosome((0, 1, 2), (0, 0, 0), (0, 0, 0))
    calm_twin = PlanChromosome((1, 0, 2), (0, 0, 0), (0, 0, 0))
    ranked = rank_population(model, [churn_o, churn_g, calm, calm_twin], ctx)
    assert [r[0] for r in ranked] == [calm, calm_twin, churn_g, churn_o]


def test_rank_population_modes_a_and_c_agree_when_latched(rng):
    model = free_model(4)
    pop = [random_chromosome(model, rng) for _ in range(12)]
    ctx_a = EvalContext(FitnessMode.ALGEBRAIC)
    ctx_c = EvalContext(FitnessMode.ADAPTIVE, all_feasible=True)
    ra = rank_population(model, pop, ctx_a)
    rc = rank_population(model, pop, ctx_c)
    assert [r[0] for r in ra] == [r[0] for r in rc]
    assert [r[1] for r in ra] == [r[1] for r in rc]


def test_eval_context_builds_ranking_for_mode_b():
    ctx = EvalContext(FitnessMode.FUZZY_RANKED)
    assert ctx.ranking_system is not None
    m = pm(2, 0, 0, 2)
    assert ctx.evaluate(m) == fuzzy_fitness(m, ctx.ranking_system)


def test_eval_context_caches_fuzzy_triples():
    ctx = EvalContext(FitnessMode.FUZZY_RANKED)
    assert ctx.cache == {}
    v1 = ctx.evaluate(pm(3, 1, 0, 3))
    assert list(ctx.cache) == [pm(3, 1, 0, 3)]
    ctx.cache[pm(3, 1, 0, 3)] = 123.0  # prove the cache is consulted
    assert ctx.evaluate(pm(3, 1, 0, 3)) == 123.0
    assert v1 != 123.0


@pytest.mark.parametrize("mode", list(FitnessMode))
def test_eval_context_caches_every_mode_per_phase(mode):
    # what the cache holds in each mode and phase: mode B memoises its
    # fuzzy quality per metrics, across phases; the other modes score
    # straight from their formulas and cache nothing
    ctx = EvalContext(mode)
    m = pm(2, 1, 1, 3)
    first = ctx.evaluate(m)
    if mode is FitnessMode.FUZZY_RANKED:
        assert first == fuzzy_fitness(m, ctx.ranking_system)
        assert list(ctx.cache) == [m]
        ctx.cache[m] = 123.0  # prove the cache is consulted
        assert ctx.evaluate(m) == 123.0
        first = 123.0
    else:
        assert ctx.cache == {}
        assert first == (2.0 if mode.adaptive else algebraic_fitness(m, ctx.weights))
    ctx.latch()
    assert ctx.all_feasible
    # the second phase scores algebraically in the adaptive modes
    expect = algebraic_fitness(m, ctx.weights) if mode.adaptive else first
    assert ctx.evaluate(m) == expect


def test_eval_context_phase_changes_only_through_latch():
    # the phase only moves forward, through latch()
    ctx = EvalContext(FitnessMode.ADAPTIVE)
    ctx.evaluate(pm(2, 1, 1, 3))
    with pytest.raises(AttributeError, match="latch"):
        ctx.all_feasible = True
    assert not ctx.all_feasible and ctx.evaluate(pm(2, 1, 1, 3)) == 2.0
    assert EvalContext(FitnessMode.ADAPTIVE, all_feasible=True).all_feasible


def test_eval_context_modes_dispatch():
    m = pm(2, 1, 1, 3)
    w = Weights(2, 1, 1)
    assert EvalContext(FitnessMode.ALGEBRAIC, w).evaluate(m) == algebraic_fitness(m, w)
    assert EvalContext(FitnessMode.ADAPTIVE, w).evaluate(m) == 2.0
    assert (
        EvalContext(FitnessMode.ADAPTIVE, w, all_feasible=True).evaluate(m)
        == algebraic_fitness(m, w)
    )
    assert EvalContext(FitnessMode.ADAPTIVE_CONTROLLED, w).evaluate(m) == 2.0
