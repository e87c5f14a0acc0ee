"""Fuzzy inference: membership math, Mamdani pipeline, packaged rule bases."""

from __future__ import annotations

import itertools
import json
import random

import pytest

from adplan.fuzzy import (
    DEFUZZ_RESOLUTION,
    ControllerSystems,
    FuzzyRule,
    FuzzySystem,
    IncompleteRuleBaseError,
    LinguisticVariable,
    TriangularMF,
    build_controller_system,
    build_ranking_system,
    load_fuzzy_config,
)

RANK_INPUTS = ("feasible_fraction", "orientation_stability", "gripper_stability")


# -- independent Mamdani implementation (pure Python, no shared code) --------


def _tri(x, a, b, c):
    if x < a or x > c:
        return 0.0
    if x == b:
        return 1.0
    if x < b:
        return (x - a) / (b - a)
    return (c - x) / (c - b)


def reference_infer(section, values):
    """Re-derive min/min/max Mamdani + centroid straight from the config dict.

    Same 201-point output grid as the library so the two implementations are
    comparable to float tolerance rather than discretization tolerance.
    """
    var_mfs = {
        v["name"]: {lab: (a, b, c) for lab, a, b, c in v["mfs"]}
        for v in section["inputs"]
    }
    var_univ = {v["name"]: v["universe"] for v in section["inputs"]}
    out = section["output"]
    out_mfs = {lab: (a, b, c) for lab, a, b, c in out["mfs"]}
    lo, hi = out["universe"]

    clipped = {}
    for rule in section["rules"]:
        alpha = 1.0
        for name, label in rule["if"].items():
            vlo, vhi = var_univ[name]
            x = min(max(values[name], vlo), vhi)
            alpha = min(alpha, _tri(x, *var_mfs[name][label]))
        if alpha > 0.0:
            lab = rule["then"]
            clipped[lab] = max(clipped.get(lab, 0.0), alpha)
    if not clipped:
        raise ValueError("no rule fired")

    num = den = 0.0
    for k in range(DEFUZZ_RESOLUTION):
        y = lo + (hi - lo) * k / (DEFUZZ_RESOLUTION - 1)
        mu = max(min(alpha, _tri(y, *out_mfs[lab])) for lab, alpha in clipped.items())
        num += y * mu
        den += mu
    return num / den


def single_output_section(system_cfg, output_name):
    """Reshape one controller output into the single-system dict layout."""
    out = next(o for o in system_cfg["outputs"] if o["name"] == output_name)
    return {"inputs": system_cfg["inputs"], "output": out, "rules": out["rules"]}


# -- membership functions ----------------------------------------------------


def test_membership_peak_and_midpoints():
    mf = TriangularMF("m", 0.0, 0.5, 1.0)
    assert mf.membership(0.5) == 1.0
    assert mf.membership(0.25) == pytest.approx(0.5)
    assert mf.membership(0.75) == pytest.approx(0.5)
    assert mf.membership(0.0) == 0.0
    assert mf.membership(1.0) == 0.0


def test_membership_degenerate_shoulders():
    left = TriangularMF("lo", 0.0, 0.0, 0.5)
    assert left.membership(0.0) == 1.0
    assert left.membership(0.25) == pytest.approx(0.5)
    assert left.membership(0.5) == 0.0
    right = TriangularMF("hi", 0.5, 1.0, 1.0)
    assert right.membership(1.0) == 1.0
    assert right.membership(0.75) == pytest.approx(0.5)
    assert right.membership(0.49) == 0.0


def test_membership_zero_outside_support():
    mf = TriangularMF("m", 0.2, 0.5, 0.8)
    assert mf.membership(0.1) == 0.0
    assert mf.membership(0.9) == 0.0


def test_membership_rejects_unordered_knots():
    with pytest.raises(ValueError, match="left <= peak <= right"):
        TriangularMF("m", 0.5, 0.2, 0.8)


def test_variable_rejects_coverage_hole():
    mfs = (TriangularMF("lo", 0.0, 0.0, 0.3), TriangularMF("hi", 0.7, 1.0, 1.0))
    with pytest.raises(ValueError, match="no membership covers"):
        LinguisticVariable("v", 0.0, 1.0, mfs)


def test_variable_rejects_mf_outside_universe():
    mfs = (TriangularMF("lo", -0.1, 0.5, 1.0), TriangularMF("hi", 0.0, 1.0, 1.1))
    with pytest.raises(ValueError, match="leaves the universe"):
        LinguisticVariable("v", 0.0, 1.0, mfs[:1] + (TriangularMF("hi", 0.0, 1.0, 1.0),))
    with pytest.raises(ValueError, match="leaves the universe"):
        LinguisticVariable("v", 0.0, 1.0, (TriangularMF("lo", 0.0, 0.0, 1.0), mfs[1]))


def covering_pair():
    return (TriangularMF("low", 0.0, 0.0, 1.0), TriangularMF("high", 0.0, 1.0, 1.0))


def test_variable_clamp():
    var = LinguisticVariable("v", 0.0, 1.0, covering_pair())
    assert var.clamp(-3.0) == 0.0
    assert var.clamp(1.5) == 1.0
    assert var.clamp(0.3) == 0.3


# -- core inference ----------------------------------------------------------


def _one_rule_system(peak_mf):
    x = LinguisticVariable("x", 0.0, 1.0, covering_pair())
    y = LinguisticVariable("y", 0.0, 1.0, peak_mf)
    rules = (FuzzyRule((("x", "low"),), "mid"),)
    return FuzzySystem(inputs=(x,), output=y, rules=rules)


def test_single_rule_symmetric_centroid_is_peak():
    # clipping a symmetric triangle leaves a symmetric trapezoid; its centroid
    # sits at the peak no matter the firing strength
    for peak in (0.3, 0.5, 0.7):
        mfs = (
            TriangularMF("mid", max(0.0, peak - 0.3), peak, min(1.0, peak + 0.3)),
            TriangularMF("pad_lo", 0.0, 0.0, peak),
            TriangularMF("pad_hi", peak, 1.0, 1.0),
        )
        system = _one_rule_system(mfs)
        for x in (0.0, 0.25, 0.6, 0.9):
            assert system.infer({"x": x}) == pytest.approx(peak, abs=0.005)


def test_two_equal_rules_balance_at_midpoint():
    x = LinguisticVariable("x", 0.0, 1.0, covering_pair())
    # pad MFs close the coverage gaps at 0, 0.5, and 1; no rule uses them
    y = LinguisticVariable(
        "y",
        0.0,
        1.0,
        (
            TriangularMF("small", 0.0, 0.2, 0.4),
            TriangularMF("large", 0.6, 0.8, 1.0),
            TriangularMF("pad_lo", 0.0, 0.0, 0.2),
            TriangularMF("pad_mid", 0.0, 0.5, 1.0),
            TriangularMF("pad_hi", 0.8, 1.0, 1.0),
        ),
    )
    rules = (
        FuzzyRule((("x", "low"),), "small"),
        FuzzyRule((("x", "high"),), "large"),
    )
    system = FuzzySystem(inputs=(x,), output=y, rules=rules)
    # x = 0.5 fires both rules at strength 0.5; the clipped areas mirror each
    # other around 0.5
    assert system.infer({"x": 0.5}) == pytest.approx(0.5, abs=0.005)


def test_infer_missing_input_raises():
    system = build_ranking_system()
    with pytest.raises(KeyError, match="feasible_fraction"):
        system.infer({"orientation_stability": 1.0, "gripper_stability": 1.0})


def test_infer_rule_base_hole_raises():
    x = LinguisticVariable(
        "x",
        0.0,
        1.0,
        (
            TriangularMF("low", 0.0, 0.0, 0.6),
            TriangularMF("high", 0.4, 1.0, 1.0),
        ),
    )
    y = LinguisticVariable("y", 0.0, 1.0, covering_pair())
    system = FuzzySystem(
        inputs=(x,), output=y, rules=(FuzzyRule((("x", "high"),), "low"),)
    )
    with pytest.raises(IncompleteRuleBaseError):
        system.infer({"x": 0.1})


def test_rule_and_system_validation():
    with pytest.raises(ValueError, match="no antecedents"):
        FuzzyRule((), "m")
    x = LinguisticVariable("x", 0.0, 1.0, covering_pair() + (TriangularMF("m", 0.0, 0.5, 1.0),))
    y = LinguisticVariable("y", 0.0, 1.0, covering_pair() + (TriangularMF("m", 0.0, 0.5, 1.0),))
    with pytest.raises(ValueError, match="no rules"):
        FuzzySystem(inputs=(x,), output=y, rules=())
    with pytest.raises(ValueError, match="unknown input"):
        FuzzySystem(
            inputs=(x,), output=y, rules=(FuzzyRule((("z", "m"),), "m"),)
        )
    with pytest.raises(KeyError):
        FuzzySystem(
            inputs=(x,), output=y, rules=(FuzzyRule((("x", "m"),), "nope"),)
        )


# -- ranking system ----------------------------------------------------------


def test_ranking_matches_independent_implementation():
    cfg = load_fuzzy_config()["ranking"]
    system = build_ranking_system()
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    rng = random.Random(42)
    probes = list(itertools.product(grid, repeat=3))
    probes += [(rng.random(), rng.random(), rng.random()) for _ in range(60)]
    for l, o, g in probes:
        vals = dict(zip(RANK_INPUTS, (l, o, g)))
        assert system.infer(vals) == pytest.approx(
            reference_infer(cfg, vals), abs=1e-9
        )


def test_ranking_frozen_regression_points():
    system = build_ranking_system()
    perfect = system.infer({k: 1.0 for k in RANK_INPUTS})
    worst = system.infer({k: 0.0 for k in RANK_INPUTS})
    mid = system.infer({k: 0.5 for k in RANK_INPUTS})
    assert perfect == pytest.approx(0.835, abs=1e-12)
    assert worst == pytest.approx(0.165, abs=1e-12)
    assert mid == pytest.approx(0.5, abs=1e-12)
    assert perfect >= 0.8
    assert worst <= 0.2


def test_ranking_output_stays_in_universe():
    system = build_ranking_system()
    rng = random.Random(9)
    for _ in range(300):
        vals = {k: rng.random() for k in RANK_INPUTS}
        assert 0.0 <= system.infer(vals) <= 1.0


def test_ranking_is_continuous():
    # neighbor outputs on a fine sweep must not jump: inference is a
    # composition of piecewise-linear maps and a smooth centroid
    system = build_ranking_system()
    for o, g in [(0.0, 0.0), (0.5, 1.0), (1.0, 0.25)]:
        prev = None
        for k in range(101):
            q = system.infer(
                dict(zip(RANK_INPUTS, (k / 100, o, g)))
            )
            if prev is not None:
                assert abs(q - prev) < 0.03
            prev = q


def test_ranking_monotone_in_feasible_fraction():
    # Non-decreasing within 0.5% of the universe, the same bound the 201-point
    # centroid grid carries.  Exact monotonicity is unreachable here: clipped
    # shoulder MFs have clip-dependent centroids, so strength dips at label
    # crossovers put humps of up to ~0.004 into any admissible rule table.
    system = build_ranking_system()
    for o in (0.0, 0.25, 0.5, 0.75, 1.0):
        for g in (0.0, 0.25, 0.5, 0.75, 1.0):
            vals = [
                system.infer(dict(zip(RANK_INPUTS, (k * 0.05, o, g))))
                for k in range(21)
            ]
            assert all(b >= a - 0.005 for a, b in zip(vals, vals[1:]))
            # and strictly rising overall: ends are well separated
            assert vals[20] > vals[0]


def test_ranking_rule_order_is_irrelevant():
    cfg = json.loads(json.dumps(load_fuzzy_config()))  # deep copy
    rng = random.Random(3)
    rng.shuffle(cfg["ranking"]["rules"])
    shuffled = build_ranking_system(cfg)
    baseline = build_ranking_system()
    for l, o, g in itertools.product((0.0, 0.3, 0.6, 1.0), repeat=3):
        vals = dict(zip(RANK_INPUTS, (l, o, g)))
        assert shuffled.infer(vals) == baseline.infer(vals)


def rule_table():
    cfg = load_fuzzy_config()["ranking"]
    return {
        tuple(r["if"][k] for k in RANK_INPUTS): r["then"] for r in cfg["rules"]
    }


def test_ranking_rule_base_is_complete():
    table = rule_table()
    assert len(table) == 27
    assert set(table) == set(itertools.product(("bad", "medium", "good"), repeat=3))


def test_ranking_rule_consequent_structure():
    # good only for a perfect row; bad exactly when feasibility is bad
    # (feasibility dominance); medium otherwise.  Routing any medium- or
    # good-feasibility row to "bad" would saturate an output shoulder across
    # a label crossover and break monotonicity in the feasibility input.
    table = rule_table()
    assert table[("good", "good", "good")] == "good"
    assert table[("bad", "good", "good")] == "bad"
    assert table[("good", "medium", "good")] == "medium"
    for combo, consequent in table.items():
        if combo == ("good", "good", "good"):
            assert consequent == "good"
        elif combo[0] == "bad":
            assert consequent == "bad"
        else:
            assert consequent == "medium"


# -- controller systems ------------------------------------------------------


def test_controller_builds_named_pair():
    ctrl = build_controller_system()
    assert isinstance(ctrl, ControllerSystems)
    assert ctrl.mutation.output.name == "mutation_scale"
    assert ctrl.crossover.output.name == "crossover_scale"


def test_controller_hold_point_near_unity():
    ctrl = build_controller_system()
    vals = {"stagnation": 0.0, "diversity": 0.5}
    assert ctrl.mutation.infer(vals) == pytest.approx(1.0, rel=0.05)
    assert ctrl.crossover.infer(vals) == pytest.approx(1.0, rel=0.05)


def test_controller_stall_boosts_mutation():
    ctrl = build_controller_system()
    assert ctrl.mutation.infer({"stagnation": 1.0, "diversity": 0.0}) > 1.5


def test_controller_diversity_boosts_crossover():
    ctrl = build_controller_system()
    assert ctrl.crossover.infer({"stagnation": 0.0, "diversity": 1.0}) > 1.0


def test_controller_frozen_regression_points():
    ctrl = build_controller_system()
    hold = {"stagnation": 0.0, "diversity": 0.5}
    stall = {"stagnation": 1.0, "diversity": 0.0}
    assert ctrl.mutation.infer(hold) == pytest.approx(1.0000316455696203, abs=1e-12)
    assert ctrl.crossover.infer(hold) == pytest.approx(1.0000316455696203, abs=1e-12)
    assert ctrl.mutation.infer(stall) == pytest.approx(1.6691583541147128, abs=1e-12)
    assert ctrl.crossover.infer(stall) == pytest.approx(0.6641831683168317, abs=1e-12)


def test_controller_outputs_within_multiplier_range():
    ctrl = build_controller_system()
    for s in range(0, 11):
        for d in range(0, 11):
            vals = {"stagnation": s / 10, "diversity": d / 10}
            for system in ctrl:
                assert 0.5 <= system.infer(vals) <= 2.0


def test_controller_clamps_out_of_range_inputs():
    ctrl = build_controller_system()
    for system in ctrl:
        wild = system.infer({"stagnation": 4.2, "diversity": -1.0})
        tame = system.infer({"stagnation": 1.0, "diversity": 0.0})
        assert wild == tame


def test_controller_matches_independent_implementation():
    cfg = load_fuzzy_config()["controller"]
    ctrl = build_controller_system()
    systems = {
        "mutation_scale": ctrl.mutation,
        "crossover_scale": ctrl.crossover,
    }
    for name, system in systems.items():
        section = single_output_section(cfg, name)
        for s in (0.0, 0.2, 0.5, 0.8, 1.0):
            for d in (0.0, 0.3, 0.5, 0.7, 1.0):
                vals = {"stagnation": s, "diversity": d}
                assert system.infer(vals) == pytest.approx(
                    reference_infer(section, vals), abs=1e-9
                )


# -- configuration loading ---------------------------------------------------


def test_packaged_config_loads_and_validates():
    cfg = load_fuzzy_config()
    assert {"ranking", "controller"} <= set(cfg)
    build_ranking_system(cfg)
    build_controller_system(cfg)


def test_load_config_from_path(tmp_path):
    cfg = load_fuzzy_config()
    p = tmp_path / "alt.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    again = load_fuzzy_config(p)
    assert again == cfg


def test_controller_config_requires_both_outputs():
    cfg = json.loads(json.dumps(load_fuzzy_config()))
    cfg["controller"]["outputs"] = [
        o
        for o in cfg["controller"]["outputs"]
        if o["name"] != "crossover_scale"
    ]
    with pytest.raises(ValueError, match="crossover_scale"):
        build_controller_system(cfg)
