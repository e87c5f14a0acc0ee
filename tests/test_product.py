"""Product model: loading, validation, removability, reduction."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from adplan.product import (
    ProductError,
    ProductModel,
    ProductParseError,
    ProductValidationError,
    load_product,
    opposite_label,
    product_from_dict,
    product_to_dict,
    removed_mask,
    save_product,
)
from conftest import ORACLE_OPTIMA, STACK_TARGETS, fixture_path, load_fixture, stack_doc
from removal_reference import reduce, removable

DIRS6 = ["+x", "-x", "+y", "-y", "+z", "-z"]


def zeros(n):
    return [[0] * n for _ in range(n)]


def doc(n, directions, grippers=None, catalog=None, interference=None):
    """Minimal product document; matrices default to all-false."""
    catalog = catalog or ["G1"]
    grippers = grippers or {i: ["G1"] for i in range(n)}
    mats = {lab: zeros(n) for lab in directions}
    if interference:
        for lab, m in interference.items():
            mats[lab] = m
    return {
        "name": f"synthetic{n}",
        "components": [
            {"id": i, "name": f"P{i + 1}", "grippers": grippers[i]} for i in range(n)
        ],
        "directions": list(directions),
        "grippers": catalog,
        "interference": mats,
        "contact": {lab: zeros(n) for lab in directions},
        "connection": {lab: zeros(n) for lab in directions},
    }


def random_model(rng, n=5, ndirs=2, ngrips=2, density=0.3):
    catalog = [f"G{k + 1}" for k in range(ngrips)]
    grippers = {
        i: sorted(rng.sample(catalog, rng.randrange(1, ngrips + 1))) for i in range(n)
    }
    dirs = DIRS6[:ndirs]
    inter = {}
    for lab in dirs:
        m = zeros(n)
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < density:
                    m[i][j] = 1
        inter[lab] = m
    return product_from_dict(doc(n, dirs, grippers, catalog, inter))


# -- loading and validation -------------------------------------------------


def test_smallest_valid_product_loads():
    model = product_from_dict(doc(1, DIRS6))
    assert model.n == 1
    assert model.directions == tuple(DIRS6)
    assert model.allowed_grippers == ((0,),)


def test_product2_gripper_table_matches_catalog():
    model = load_fixture("product2")
    assert model.n == 19
    assert model.gripper_catalog == ("G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8")
    by_name = {
        model.part_names[i]: {model.gripper_catalog[g] for g in model.allowed_grippers[i]}
        for i in range(model.n)
    }
    assert by_name["P1"] == {"G1", "G2"}
    assert by_name["P2"] == {"G3"}
    assert by_name["P3"] == {"G6"}
    assert by_name["P10"] == {"G5"}
    assert by_name["P17"] == {"G2"}
    assert by_name["P19"] == {"G8"}


def test_matrix_shape_violation_names_the_field():
    bad = doc(3, ["+x", "-x"])
    bad["interference"]["+x"] = [[0, 1], [0, 0], [0, 0]]  # 3x2
    with pytest.raises(ProductError, match=r"interference\[\+x\]"):
        product_from_dict(bad)


def test_nonzero_diagonal_rejected():
    bad = doc(2, ["+x"])
    bad["interference"]["+x"][1][1] = 1
    with pytest.raises(ProductValidationError, match=r"interference\[\+x\].*component 1"):
        product_from_dict(bad)


def test_empty_gripper_set_rejected():
    bad = doc(2, ["+x"])
    bad["components"][1]["grippers"] = []
    with pytest.raises(ProductError, match="P2"):
        product_from_dict(bad)


def test_unknown_gripper_rejected():
    bad = doc(2, ["+x"])
    bad["components"][0]["grippers"] = ["G9"]
    with pytest.raises(ProductError, match="G9"):
        product_from_dict(bad)


def test_component_ids_must_cover_range():
    bad = doc(2, ["+x"])
    bad["components"][1]["id"] = 5
    with pytest.raises(ProductError):
        product_from_dict(bad)


def test_boolean_ids_are_rejected():
    # JSON false would otherwise pass as id 0
    bad = doc(2, ["+x"])
    bad["components"][0]["id"] = False
    with pytest.raises(ProductParseError, match=r"components\[0\]\.id must be int, got bool"):
        product_from_dict(bad)


def test_no_directions_gives_model_message():
    with pytest.raises(ProductValidationError, match="no directions"):
        product_from_dict(doc(2, []))


def test_missing_keys_are_parse_errors():
    for key in ("name", "components", "directions", "grippers", "interference"):
        bad = doc(2, ["+x"])
        del bad[key]
        with pytest.raises(ProductParseError, match=key):
            product_from_dict(bad)


def test_matrix_entries_must_be_binary():
    bad = doc(2, ["+x"])
    bad["interference"]["+x"][0][1] = 2
    with pytest.raises(ProductError, match=r"\+x"):
        product_from_dict(bad)


@pytest.mark.parametrize("key", ["interference", "contact", "connection"])
def test_boolean_matrix_entries_are_rejected(key):
    for entry in (True, False, 1.0, 0.0):
        bad = doc(2, ["+x"])
        bad[key]["+x"][0][1] = entry
        with pytest.raises(ProductValidationError, match=rf"must be 0 or 1, got {entry}$"):
            product_from_dict(bad)


def test_missing_direction_matrix_named():
    bad = doc(2, ["+x", "-x"])
    del bad["contact"]["-x"]
    with pytest.raises(ProductParseError, match="contact"):
        product_from_dict(bad)


def test_load_product_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ProductParseError, match="invalid JSON"):
        load_product(p)


# -- removability -----------------------------------------------------------


def test_single_component_always_removable():
    model = product_from_dict(doc(1, DIRS6))
    for d in range(6):
        assert removable(model, 0, d)


def test_blocker_row_rule_hand_case():
    inter = {"+y": zeros(3)}
    inter["+y"][2][0] = 1  # part 0 blocks part 2 along +y
    model = product_from_dict(doc(3, ["+y"], interference=inter))
    assert not removable(model, 2, 0)
    assert removable(model, 2, 0, removed={0})
    assert removable(model, 0, 0)
    assert removable(model, 1, 0)


def test_fully_blocked_part_not_removable_in_any_direction():
    dirs = ["+x", "-x", "+y"]
    inter = {lab: zeros(3) for lab in dirs}
    for lab in dirs:
        inter[lab][1][0] = 1
        inter[lab][1][2] = 1
    model = product_from_dict(doc(3, dirs, interference=inter))
    for d in range(3):
        assert not removable(model, 1, d)
    assert removable(model, 1, 0, removed={0, 2})


def test_removed_accepts_mask_and_iterable():
    inter = {"+y": zeros(3)}
    inter["+y"][2][0] = 1
    inter["+y"][2][1] = 1
    model = product_from_dict(doc(3, ["+y"], interference=inter))
    assert removable(model, 2, 0, removed=removed_mask([0, 1]))
    assert removable(model, 2, 0, removed=[0, 1])
    assert not removable(model, 2, 0, removed=[0])


def test_removable_monotone_in_removed(rng):
    for _ in range(20):
        model = random_model(rng)
        n = model.n
        for part in range(n):
            for d in range(len(model.directions)):
                others = [q for q in range(n) if q != part]
                base = 0
                for q in others:
                    was = removable(model, part, d, base)
                    base |= 1 << q
                    assert removable(model, part, d, base) >= was


# -- reduction --------------------------------------------------------------


def test_reduce_two_parts():
    model = product_from_dict(doc(2, ["+x"]))
    smaller = reduce(model, 0)
    assert smaller.n == 1
    assert smaller.part_names == ("P2",)
    assert model.n == 2  # original untouched


def test_reduce_invalid_part():
    model = product_from_dict(doc(2, ["+x"]))
    with pytest.raises(IndexError):
        reduce(model, 2)


def test_reduce_equals_removed_set(rng):
    """reduce(q) then query == query with q in the removed set (relabelled)."""
    for _ in range(10):
        model = random_model(rng)
        n = model.n
        q = rng.randrange(n)
        smaller = reduce(model, q)
        for part in range(n):
            if part == q:
                continue
            shifted = part - (part > q)
            for d in range(len(model.directions)):
                for trial in range(5):
                    rest = [p for p in range(n) if p not in (part, q)]
                    removed = rng.sample(rest, rng.randrange(len(rest) + 1))
                    small_removed = [p - (p > q) for p in removed]
                    assert removable(model, part, d, removed + [q]) == removable(
                        smaller, shifted, d, small_removed
                    )


def test_reduce_all_terminates_at_zero(rng):
    model = random_model(rng, n=6)
    while model.n:
        model = reduce(model, rng.randrange(model.n))
    assert model.n == 0
    assert model.part_names == ()


# -- serialization ----------------------------------------------------------


def test_round_trip_all_fixtures():
    for name in list(ORACLE_OPTIMA) + list(STACK_TARGETS):
        model = load_fixture(name)
        assert product_from_dict(product_to_dict(model)) == model


def test_save_load_round_trip(tmp_path, rng):
    model = random_model(rng)
    path = tmp_path / "m.json"
    save_product(model, path)
    assert load_product(path) == model


def test_fixture_files_match_their_models():
    # the shipped JSON is the source of truth; dict round-trip must agree
    data = json.loads(fixture_path("stack4").read_text(encoding="utf-8"))
    model = product_from_dict(data)
    again = product_to_dict(model)
    assert again["components"] == data["components"]
    assert again["directions"] == data["directions"]
    assert again["interference"] == data["interference"]


def test_opposite_labels():
    assert opposite_label("+x") == "-x"
    assert opposite_label("-z") == "+z"
    assert opposite_label("slide") is None


def test_blocker_masks_match_matrix(rng):
    # each mask is a Python int whose set bits are exactly the blockers,
    # also past 64 parts, where a fixed-width mask would overflow
    stacks = [product_from_dict(stack_doc(n, seed=n)[0]) for n in (64, 70, 130)]
    for model in [random_model(rng), random_model(rng, n=70, density=0.4), *stacks]:
        for d in range(len(model.directions)):
            for i in range(model.n):
                mask = model.blocker_masks[d][i]
                assert type(mask) is int and mask >= 0
                bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
                assert bits == np.flatnonzero(model.interference[d, i]).tolist()
