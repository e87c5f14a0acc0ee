"""GA engine: selection, diversity, the evolve loop, and the rate controller."""

from __future__ import annotations

import random

import pytest

import adplan.ga
from adplan import (
    FitnessMode,
    GAConfig,
    GenerationStats,
    PlanChromosome,
    PlanMetrics,
    RunResult,
    Weights,
    algebraic_fitness,
    controller_update,
    evolve,
    load_product,
    population_diversity,
    product_from_dict,
    select,
)
from adplan.fuzzy import build_controller_system
from conftest import ORACLE_OPTIMA, StubRandom, load_fixture
from test_product import doc


def stats_row(
    gen=0,
    max_fitness=5.0,
    diversity=0.5,
    mutation_prob=0.8,
    crossover_rate=0.4,
    all_feasible=False,
):
    return GenerationStats(
        generation=gen,
        max_fitness=max_fitness,
        mean_fitness=max_fitness - 1.0,
        best_metrics=PlanMetrics(3, 0, 0, 4),
        mutation_prob=mutation_prob,
        crossover_rate=crossover_rate,
        diversity=diversity,
        feasible_fraction=0.5,
        all_feasible=all_feasible,
    )


# -- GAConfig -----------------------------------------------------------------


def test_config_defaults_are_valid():
    cfg = GAConfig()
    assert cfg.population_size == 80
    assert cfg.mutation_prob == 0.8
    assert cfg.crossover_rate == 0.4
    assert cfg.max_generations == 300


def test_config_rejects_degenerate_sizes():
    with pytest.raises(ValueError, match="population_size"):
        GAConfig(population_size=1)
    with pytest.raises(ValueError, match="max_generations"):
        GAConfig(max_generations=0)


def test_config_rejects_rates_outside_unit_interval():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        GAConfig(mutation_prob=1.2)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        GAConfig(crossover_rate=-0.1)


def test_config_bounds_must_bracket_rate():
    # 0 < lo <= configured <= hi <= 1, for both controlled rates
    GAConfig(mutation_prob=0.5, mutation_bounds=(0.5, 0.5))
    with pytest.raises(ValueError, match="mutation"):
        GAConfig(mutation_prob=0.1, mutation_bounds=(0.2, 0.95))
    with pytest.raises(ValueError, match="mutation"):
        GAConfig(mutation_prob=0.8, mutation_bounds=(0.0, 0.95))
    with pytest.raises(ValueError, match="mutation"):
        GAConfig(mutation_prob=0.8, mutation_bounds=(0.2, 1.05))
    with pytest.raises(ValueError, match="crossover"):
        GAConfig(crossover_rate=0.9, crossover_bounds=(0.1, 0.8))
    with pytest.raises(ValueError, match="crossover"):
        GAConfig(crossover_rate=0.4, crossover_bounds=(0.5, 0.8))


# -- selection ----------------------------------------------------------------


def test_select_tournament_probabilities():
    # two individuals: the fitter one wins 3 of the 4 equally likely draw
    # pairs, the weaker only the (weak, weak) pair -> P(fitter) = 0.75
    weak, fit = object(), object()
    scored = [(weak, 1.0), (fit, 2.0)]
    outcomes = []
    for pair in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        stub = StubRandom(randranges=list(pair))
        outcomes.append(select(scored, stub))
    assert outcomes == [weak, fit, fit, fit]


def test_select_tie_keeps_first_draw():
    a, b = object(), object()
    scored = [(a, 2.0), (b, 2.0)]
    assert select(scored, StubRandom(randranges=[0, 1])) is a
    assert select(scored, StubRandom(randranges=[1, 0])) is b


def test_select_returns_member(rng):
    scored = [(f"c{i}", float(i % 3)) for i in range(10)]
    members = {c for c, _ in scored}
    for _ in range(100):
        assert select(scored, rng) in members


# -- diversity ----------------------------------------------------------------


def test_diversity_identical_population_is_zero():
    c = PlanChromosome((0, 1, 2), (0, 0, 0), (0, 0, 0))
    assert population_diversity([c] * 10) == 0.0


def test_diversity_reversed_permutations_is_one():
    a = PlanChromosome((0, 1, 2, 3), (0,) * 4, (0,) * 4)
    b = PlanChromosome((3, 2, 1, 0), (0,) * 4, (0,) * 4)
    assert population_diversity([a, b]) == 1.0


def test_diversity_extremes_and_bounds(rng):
    assert population_diversity([]) == 0.0
    single = PlanChromosome((0,), (0,), (0,))
    assert population_diversity([single]) == 0.0
    pop = []
    base = list(range(6))
    for _ in range(40):
        seq = base[:]
        rng.shuffle(seq)
        pop.append(PlanChromosome(tuple(seq), (0,) * 6, (0,) * 6))
    d = population_diversity(pop)
    assert 0.0 < d <= 1.0


@pytest.mark.parametrize("p", [2, 16, 17, 80])
@pytest.mark.parametrize("n", [1, 5, 19, 44])
def test_diversity_equals_all_pairs_reference(p, n):
    maker = random.Random(100 * p + n)
    for _ in range(3):
        pop = []
        for _ in range(p):
            if pop and maker.random() < 0.3:  # duplicates, as elitism makes
                pop.append(maker.choice(pop))
                continue
            seq = list(range(n))
            maker.shuffle(seq)
            pop.append(PlanChromosome(tuple(seq), (0,) * n, (0,) * n))
        pairs = [(a, b) for k, a in enumerate(pop) for b in pop[k + 1 :]]
        differ = sum(x != y for a, b in pairs for x, y in zip(a.sequence, b.sequence))
        assert population_diversity(pop) == differ / (len(pairs) * n)


def test_diversity_does_not_steer_static_modes(monkeypatch):
    # population 20 has 190 pairs: enough that a sampled estimate would
    # have drawn from the search RNG
    model = load_fixture("stack5")
    configs = [
        GAConfig(population_size=20, max_generations=40, mode=FitnessMode.from_letter(m), seed=4)
        for m in "ABC"
    ]
    honest = [evolve(model, cfg) for cfg in configs]
    monkeypatch.setattr(adplan.ga, "population_diversity", lambda *args: 0.5)
    for cfg, ref in zip(configs, honest):
        r = evolve(model, cfg)
        assert {s.diversity for s in r.stats} == {0.5}
        assert r.best == ref.best
        assert r.best_algebraic == ref.best_algebraic
        assert [s.max_fitness for s in r.stats] == [s.max_fitness for s in ref.stats]


# -- controller ----------------------------------------------------------------


def test_controller_update_needs_history():
    cfg = GAConfig()
    with pytest.raises(ValueError, match="history"):
        controller_update([], build_controller_system(), cfg)


def test_controller_update_first_generation_holds_rates():
    cfg = GAConfig(mutation_prob=0.8, crossover_rate=0.4)
    systems = build_controller_system()
    mut, cross = controller_update([stats_row(diversity=0.5)], systems, cfg)
    assert mut == pytest.approx(0.8, rel=0.05)
    assert cross == pytest.approx(0.4, rel=0.05)


def test_controller_update_stagnation_ramps_mutation_to_ceiling():
    cfg = GAConfig(mutation_prob=0.4, crossover_rate=0.4)
    systems = build_controller_system()
    history = [stats_row(gen=0, max_fitness=5.0, diversity=0.0, mutation_prob=0.4)]
    muts = [0.4]
    crosses = [0.4]
    for gen in range(1, 25):
        mut, cross = controller_update(history, systems, cfg)
        history.append(
            stats_row(
                gen=gen,
                max_fitness=5.0,  # never improves
                diversity=0.0,
                mutation_prob=mut,
                crossover_rate=cross,
            )
        )
        muts.append(mut)
        crosses.append(cross)
    assert all(b >= a - 1e-12 for a, b in zip(muts, muts[1:]))
    assert muts[-1] == pytest.approx(cfg.mutation_bounds[1])
    # converged population also drags crossover to its floor
    assert all(b <= a + 1e-12 for a, b in zip(crosses, crosses[1:]))
    assert crosses[-1] == pytest.approx(cfg.crossover_bounds[0])


def test_controller_update_never_leaves_bounds(rng):
    cfg = GAConfig(mutation_prob=0.8, crossover_rate=0.4)
    systems = build_controller_system()
    history = [stats_row()]
    for gen in range(1, 200):
        mut, cross = controller_update(history, systems, cfg)
        assert cfg.mutation_bounds[0] <= mut <= cfg.mutation_bounds[1]
        assert cfg.crossover_bounds[0] <= cross <= cfg.crossover_bounds[1]
        history.append(
            stats_row(
                gen=gen,
                max_fitness=rng.uniform(0, 10),
                diversity=rng.random(),
                mutation_prob=mut,
                crossover_rate=cross,
            )
        )


def test_controller_update_stagnation_caps_at_horizon():
    # 30 stalled generations and 10 stalled generations hit the same cap
    cfg = GAConfig()
    systems = build_controller_system()
    short = [stats_row(gen=g, max_fitness=5.0, diversity=0.3) for g in range(11)]
    long = [stats_row(gen=g, max_fitness=5.0, diversity=0.3) for g in range(31)]
    assert controller_update(short, systems, cfg) == controller_update(
        long, systems, cfg
    )


# -- evolve: basics -----------------------------------------------------------


def test_evolve_rejects_empty_product():
    model = product_from_dict(doc(1, ["+x"]))
    from adplan import reduce

    empty = reduce(model, 0)
    with pytest.raises(ValueError, match="no components"):
        evolve(empty, GAConfig(max_generations=1))


def test_evolve_single_component_immediate_optimum():
    model = product_from_dict(doc(1, ["+x"]))
    cfg = GAConfig(
        population_size=4,
        max_generations=3,
        weights=Weights(1, 1, 1),
        seed=0,
    )
    r = evolve(model, cfg)
    assert r.best_fitness == 1.0  # the feasibility weight alone
    assert r.stats[0].max_fitness == 1.0
    assert r.best_metrics == (1, 0, 0, 1)
    assert r.best.sequence == (0,)


def test_evolve_deterministic_per_seed():
    model = load_fixture("stack4")
    cfg = GAConfig(population_size=20, max_generations=40, seed=5)
    r1 = evolve(model, cfg)
    r2 = evolve(model, cfg)
    assert r1.best == r2.best
    assert r1.best_fitness == r2.best_fitness
    assert r1.stats == r2.stats
    r3 = evolve(model, GAConfig(population_size=20, max_generations=40, seed=6))
    assert r3.stats != r1.stats


def test_evolve_audit_mode_validates_every_generation():
    model = load_fixture("cage5")
    cfg = GAConfig(population_size=12, max_generations=15, seed=1)
    r = evolve(model, cfg, audit=True)
    assert len(r.stats) == 15


def test_evolve_computes_metrics_only_for_new_chromosomes(monkeypatch):
    # audit mode shows each generation's population, fitness_fn the metrics
    # the GA scored it with, the wrapped metrics() the calls actually made
    model = load_fixture("cage5")
    size = 20
    real_metrics = adplan.ga.metrics
    pops: list[list[PlanChromosome]] = []
    calls: list[int] = []
    scored: list[list[PlanMetrics]] = []

    def audit(model_, chrom):
        if not pops or len(pops[-1]) == size:
            pops.append([])
            calls.append(0)
            scored.append([])
        pops[-1].append(chrom)

    def counting(model_, chrom):
        calls[-1] += 1
        return real_metrics(model_, chrom)

    def fitness(m):
        scored[-1].append(m)
        return algebraic_fitness(m)

    monkeypatch.setattr(adplan.ga, "validate_chromosome", audit)
    monkeypatch.setattr(adplan.ga, "metrics", counting)
    cfg = GAConfig(population_size=size, max_generations=30, seed=2)
    evolve(model, cfg, fitness_fn=fitness, audit=True)
    assert len(pops) == 30
    assert calls[0] == size
    for prev, pop, n_calls in zip(pops, pops[1:], calls[1:]):
        new = sum(not any(c is old for old in prev) for c in pop)
        assert n_calls == new < size  # the elite is never re-scored
    for pop, ms in zip(pops, scored):
        assert ms == [real_metrics(model, c) for c in pop]


def test_evolve_stats_shape_and_rate_columns():
    model = load_fixture("stack4")
    for letter in "ABC":
        cfg = GAConfig(
            population_size=16,
            max_generations=25,
            mode=FitnessMode.from_letter(letter),
            seed=2,
        )
        r = evolve(model, cfg)
        assert len(r.stats) == 25
        assert [s.generation for s in r.stats] == list(range(25))
        # static-rate modes keep the configured rates in every row
        assert {s.mutation_prob for s in r.stats} == {0.8}
        assert {s.crossover_rate for s in r.stats} == {0.4}
        for s in r.stats:
            assert s.max_fitness >= s.mean_fitness
            assert 0.0 <= s.diversity <= 1.0
            assert 0.0 <= s.feasible_fraction <= 1.0


def test_evolve_best_fitness_is_max_over_stats_single_phase():
    model = load_fixture("free4")
    for letter in "AB":
        cfg = GAConfig(
            population_size=20,
            max_generations=30,
            mode=FitnessMode.from_letter(letter),
            seed=3,
        )
        r = evolve(model, cfg)
        assert r.best_fitness == max(s.max_fitness for s in r.stats)


def test_evolve_success_flag_semantics():
    model = load_fixture("chain3")
    base = dict(population_size=16, max_generations=30, seed=0)
    hit = evolve(model, GAConfig(**base, success_target=ORACLE_OPTIMA["chain3"]))
    assert hit.success and hit.best_algebraic >= ORACLE_OPTIMA["chain3"]
    miss = evolve(model, GAConfig(**base, success_target=1e9))
    assert not miss.success
    untargeted = evolve(model, GAConfig(**base))
    assert untargeted.success is False


def test_evolve_elitism_max_fitness_monotone_within_phase():
    model = load_fixture("stack5")
    for letter in "ABCD":
        cfg = GAConfig(
            population_size=24,
            max_generations=60,
            mode=FitnessMode.from_letter(letter),
            seed=4,
        )
        r = evolve(model, cfg)
        for prev, cur in zip(r.stats, r.stats[1:]):
            if prev.all_feasible == cur.all_feasible:
                assert cur.max_fitness >= prev.max_fitness - 1e-12


def test_evolve_phase_flag_latches_once():
    # small population and gentle mutation so the all-feasible state is
    # actually reachable; heavy mutation keeps reintroducing infeasible
    # offspring and the flag never flips
    model = load_fixture("stack6")
    cfg = GAConfig(
        population_size=10,
        mutation_prob=0.2,
        max_generations=150,
        mode=FitnessMode.ADAPTIVE,
        seed=0,
    )
    r = evolve(model, cfg)
    flags = [s.all_feasible for s in r.stats]
    assert flags[0] is False  # random initial population is partly infeasible
    assert True in flags
    first = flags.index(True)
    assert all(flags[first:])
    assert not any(flags[:first])
    # the flip happens exactly when the whole population is feasible
    assert r.stats[first].feasible_fraction == 1.0
    assert all(s.feasible_fraction < 1.0 for s in r.stats[:first])


def test_evolve_modes_a_b_identical_under_injected_fitness():
    # A and B differ only in the fitness call: pin it and the whole
    # evolution trace must coincide
    model = load_fixture("mixed5")

    def flat_fitness(m):
        return float(m.feasible_len * 10 + m.n_parts - m.orient_changes)

    runs = []
    for letter in "AB":
        cfg = GAConfig(
            population_size=18,
            max_generations=35,
            mode=FitnessMode.from_letter(letter),
            seed=9,
        )
        runs.append(evolve(model, cfg, fitness_fn=flat_fitness))
    a, b = runs
    assert a.best == b.best
    assert a.best_fitness == b.best_fitness
    assert a.stats == b.stats


def test_evolve_mode_d_moves_rates_within_bounds():
    model = load_fixture("cage5")
    cfg = GAConfig(
        population_size=30,
        max_generations=120,
        mode=FitnessMode.ADAPTIVE_CONTROLLED,
        seed=0,
    )
    r = evolve(model, cfg)
    muts = [s.mutation_prob for s in r.stats]
    crosses = [s.crossover_rate for s in r.stats]
    assert muts[0] == 0.8 and crosses[0] == 0.4  # defaults breed generation 0
    for m, c in zip(muts, crosses):
        assert cfg.mutation_bounds[0] <= m <= cfg.mutation_bounds[1]
        assert cfg.crossover_bounds[0] <= c <= cfg.crossover_bounds[1]
    assert len(set(round(m, 12) for m in muts)) >= 3


def test_evolve_mode_a_finds_optimum_on_five_part_fixture():
    model = load_fixture("cage5")
    target = ORACLE_OPTIMA["cage5"]
    hits = 0
    for seed in range(20):
        cfg = GAConfig(
            population_size=80,
            mutation_prob=0.8,
            crossover_rate=0.4,
            max_generations=200,
            mode=FitnessMode.ALGEBRAIC,
            seed=seed,
            success_target=target,
        )
        hits += evolve(model, cfg).success
    assert hits >= 19


def test_evolve_result_fields_are_consistent():
    model = load_fixture("twin6")
    cfg = GAConfig(population_size=20, max_generations=30, seed=7)
    r = evolve(model, cfg)
    assert isinstance(r, RunResult)
    assert r.mode is FitnessMode.ALGEBRAIC
    assert r.seed == 7
    from adplan import metrics, algebraic_fitness

    assert metrics(model, r.best) == r.best_metrics
    assert algebraic_fitness(r.best_metrics, cfg.weights) == r.best_algebraic
    assert r.elapsed_seconds > 0.0
