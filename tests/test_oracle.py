"""Exact oracle: optima, plans and truncation against the enumerative reference."""

from __future__ import annotations

import math
import random

import pytest

from adplan.encoding import metrics
from adplan.fitness import FitnessMode, Weights, algebraic_fitness
from adplan.ga import GAConfig, evolve
from adplan.oracle import brute_force_optimal
from adplan.product import product_from_dict
from brute_oracle import enumerate_optimal
from conftest import ORACLE_OPTIMA, STACK_TARGETS, load_fixture
from reference_ops import validate_chromosome
from stack_oracle import stack_optimal_fitness
from test_product import doc, zeros


def test_single_component_product():
    model = product_from_dict(doc(1, ["+x"]))
    res = brute_force_optimal(model, Weights(1, 1, 1))
    assert res.optimal_fitness == 1.0
    assert res.optimal_plans == (((0,), (0,), (0,)),)
    assert res.truncated is False


def test_three_free_parts_unit_weights():
    # all orders feasible, 2 directions, 1 gripper: optimum keeps one
    # direction throughout -> 3 + 2 + 2 = 7; any of 3! orders x 2 directions
    model = product_from_dict(doc(3, ["+y", "-x"]))
    res = brute_force_optimal(model, Weights(1, 1, 1))
    assert res.optimal_fitness == 7.0
    assert len(res.optimal_plans) == 12
    for plan in res.optimal_plans:
        assert len(set(plan.directions)) == 1


def test_linear_stack_forces_unique_order():
    # part i+1 sits on part i along +y: only [0, 1, 2] disassembles
    inter = {"+y": zeros(3)}
    inter["+y"][1][0] = 1
    inter["+y"][2][1] = 1
    model = product_from_dict(doc(3, ["+y"], interference=inter))
    res = brute_force_optimal(model, Weights(2, 1, 1))
    assert res.optimal_fitness == 2 * 3 + 2 + 2
    assert len(res.optimal_plans) == 1
    assert res.optimal_plans[0].sequence == (0, 1, 2)


def test_cap_rejects_large_products():
    model = load_fixture("product2")
    with pytest.raises(ValueError) as err:
        brute_force_optimal(model)
    assert "19" in str(err.value) and "7" in str(err.value)
    # a raised cap admits the same model (cap check only)
    big = brute_force_optimal(load_fixture("chain3"), cap=3)
    assert big.optimal_fitness == ORACLE_OPTIMA["chain3"]


def test_unpruned_state_count_matches_closed_form():
    # free model: every non-empty partial plan is reachable, so the tree has
    # sum_k P(n, k) * (D * G)^k states for D directions and G grippers/part
    model = product_from_dict(doc(3, ["+y", "-x"]))
    res = enumerate_optimal(model, Weights(1, 1, 1), prune=False)
    n, d, g = 3, 2, 1
    want = sum(
        math.perm(n, k) * (d * g) ** k for k in range(1, n + 1)
    )
    assert res.states_explored == want == 78


def test_pruned_and_unpruned_agree(rng):
    for name in ("chain3", "stack4", "free4", "cage5", "mixed5"):
        model = load_fixture(name)
        fast = enumerate_optimal(model)
        slow = enumerate_optimal(model, prune=False)
        assert fast.optimal_fitness == slow.optimal_fitness == ORACLE_OPTIMA[name]
        assert fast.states_explored <= slow.states_explored
        assert set(fast.optimal_plans) == set(slow.optimal_plans) or (
            fast.truncated or slow.truncated
        )


@pytest.mark.parametrize("plan_cap", [3, 64])
@pytest.mark.parametrize(
    "weights", [(2, 1, 1), (1, 1, 1), (3, 2, 1), (1, 0, 0), (0, 1, 1), (0.7, 0.2, 0.1)]
)
def test_dp_matches_enumeration(weights, plan_cap):
    # same optimum, same plans in the same order, same truncation; the
    # (0.7, 0.2, 0.1) weights make tied float sums differ in the last bits
    for name in ORACLE_OPTIMA:
        model = load_fixture(name)
        dp = brute_force_optimal(model, Weights(*weights), plan_cap=plan_cap)
        ref = enumerate_optimal(model, Weights(*weights), plan_cap=plan_cap)
        assert dp.optimal_fitness == pytest.approx(ref.optimal_fitness, abs=1e-9), name
        assert dp.optimal_plans == ref.optimal_plans, name
        assert dp.truncated == ref.truncated, name


@pytest.mark.parametrize("name,cap", [("product1", 8), ("product2", 19)])
def test_dp_reaches_stack_targets_at_product_scale(name, cap):
    model = load_fixture(name)
    res = brute_force_optimal(model, cap=cap)
    assert res.optimal_fitness == STACK_TARGETS[name]
    assert res.optimal_plans
    for plan in res.optimal_plans:
        validate_chromosome(model, plan)
        assert algebraic_fitness(metrics(model, plan), Weights()) == res.optimal_fitness


def test_all_fixture_optima_are_frozen_values():
    for name, want in ORACLE_OPTIMA.items():
        res = brute_force_optimal(load_fixture(name))
        assert res.optimal_fitness == want, name


def test_returned_plans_all_achieve_the_optimum():
    for name in ("stack5", "twin6", "clamp6"):
        model = load_fixture(name)
        res = brute_force_optimal(model)
        for plan in res.optimal_plans:
            validate_chromosome(model, plan)
            m = metrics(model, plan)
            assert algebraic_fitness(m, Weights()) == res.optimal_fitness


def test_plan_list_truncation():
    # 4 free parts, 2 directions, 2 interchangeable grippers: optima are
    # 4! orders x 2 directions x 2 grippers = 96 > 64
    model = product_from_dict(
        doc(4, ["+y", "-x"], {i: ["G1", "G2"] for i in range(4)}, ["G1", "G2"])
    )
    res = brute_force_optimal(model, Weights(1, 1, 1))
    assert res.truncated is True
    assert len(res.optimal_plans) == 64
    wide = brute_force_optimal(model, Weights(1, 1, 1), plan_cap=200)
    assert wide.truncated is False
    assert len(wide.optimal_plans) == 96
    assert wide.optimal_fitness == res.optimal_fitness


def test_isomorphic_relabeling_preserves_optimum(rng):
    model = load_fixture("mixed5")
    base = brute_force_optimal(model)
    perm = list(range(model.n))
    rng.shuffle(perm)  # perm[new] = old
    d = {
        "name": "relabeled",
        "components": [
            {
                "id": i,
                "name": model.part_names[perm[i]],
                "grippers": [model.gripper_catalog[k] for k in model.allowed_grippers[perm[i]]],
            }
            for i in range(model.n)
        ],
        "directions": list(model.directions),
        "grippers": list(model.gripper_catalog),
        "interference": {
            lab: [
                [int(model.interference[di][perm[i]][perm[j]]) for j in range(model.n)]
                for i in range(model.n)
            ]
            for di, lab in enumerate(model.directions)
        },
        "contact": {
            lab: [
                [int(model.contact[di][perm[i]][perm[j]]) for j in range(model.n)]
                for i in range(model.n)
            ]
            for di, lab in enumerate(model.directions)
        },
        "connection": {
            lab: [
                [int(model.connection[di][perm[i]][perm[j]]) for j in range(model.n)]
                for i in range(model.n)
            ]
            for di, lab in enumerate(model.directions)
        },
    }
    relabeled = product_from_dict(d)
    res = brute_force_optimal(relabeled)
    assert res.optimal_fitness == base.optimal_fitness
    # relabeling maps reachable DP states one to one
    assert res.states_explored == base.states_explored
    assert len(res.optimal_plans) == len(base.optimal_plans) or (
        res.truncated and base.truncated
    )


def test_no_feasible_full_sequence():
    # two parts that block each other in every direction: l is always 0,
    # so the optimum is the pure change-free credit w_o + w_g
    inter = {"+x": [[0, 1], [1, 0]]}
    model = product_from_dict(doc(2, ["+x"], interference=inter))
    res = brute_force_optimal(model, Weights(2, 1, 1))
    assert res.optimal_fitness == 2.0
    assert res.optimal_plans  # some plan still carries the best metrics


def test_oracle_upper_bounds_ga(rng):
    for name in ("stack4", "cage5", "chain5"):
        model = load_fixture(name)
        opt = ORACLE_OPTIMA[name]
        for seed in (0, 1):
            cfg = GAConfig(
                population_size=30,
                max_generations=60,
                mode=FitnessMode.ALGEBRAIC,
                seed=seed,
            )
            r = evolve(model, cfg)
            assert r.best_algebraic <= opt + 1e-9


def test_oracle_agrees_with_stack_dynamic_program():
    # independent interval DP for single-column stacks under both weights
    def column_model(grip_runs):
        n = len(grip_runs)
        inter = {"+y": zeros(n)}
        for i in range(1, n):
            inter["+y"][i][i - 1] = 1  # i rests under i-1... top removes first
        catalog = sorted({g for run in grip_runs for g in run})
        return product_from_dict(
            doc(n, ["+y"], {i: list(grip_runs[i]) for i in range(n)}, catalog, inter)
        )

    cases = [
        [("G1",), ("G1",), ("G2",)],
        [("G1",), ("G2",), ("G1", "G2"), ("G2",)],
        [("G1", "G2"), ("G2",), ("G2", "G3"), ("G3",), ("G1",)],
    ]
    for runs in cases:
        model = column_model(runs)
        res = brute_force_optimal(model, Weights(2, 1, 1))
        allowed = {i: set(r) for i, r in enumerate(runs)}
        want = stack_optimal_fitness(
            [list(range(len(runs)))], allowed, weights=(2, 1, 1)
        )
        assert res.optimal_fitness == want
