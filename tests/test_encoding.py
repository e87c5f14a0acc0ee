"""Chromosome encoding: metrics extraction, crossover, mutation, records."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from adplan.encoding import (
    PlanChromosome,
    crossover,
    metrics,
    mutate,
    plan_record,
    random_chromosome,
    validate_chromosome,
)
from adplan.product import product_from_dict
from conftest import ORACLE_OPTIMA, STACK_TARGETS, StubRandom, load_fixture
from removal_reference import reduce, removable
from test_product import doc, random_model, zeros


def free3(ndirs=2, grippers=None, catalog=None):
    dirs = ["+y", "-x", "+z"][:ndirs]
    return product_from_dict(doc(3, dirs, grippers, catalog))


# -- metrics ----------------------------------------------------------------


def test_metrics_single_component():
    model = product_from_dict(doc(1, ["+x"]))
    m = metrics(model, PlanChromosome((0,), (0,), (0,)))
    assert m == (1, 0, 0, 1)


def test_metrics_hand_case_free_stacking():
    model = free3(2, {0: ["G1"], 1: ["G2"], 2: ["G2"]}, ["G1", "G2"])
    # dirs [+y, +y, -x], grips [G1, G2, G2]
    chrom = PlanChromosome((0, 1, 2), (0, 0, 1), (0, 1, 1))
    m = metrics(model, chrom)
    assert (m.feasible_len, m.orient_changes, m.grip_changes) == (3, 1, 1)


def test_metrics_blocked_first_position():
    dirs = ["+x", "-x"]
    inter = {lab: zeros(3) for lab in dirs}
    for lab in dirs:
        inter[lab][2][0] = 1  # part 0 blocks part 2 everywhere
    model = product_from_dict(doc(3, dirs, interference=inter))
    chrom = PlanChromosome((2, 0, 1), (0, 0, 0), (0, 0, 0))
    assert metrics(model, chrom).feasible_len == 0


def test_changes_beyond_prefix_do_not_count():
    dirs = ["+x", "-x"]
    inter = {lab: zeros(3) for lab in dirs}
    for lab in dirs:
        inter[lab][2][0] = 1
    model = product_from_dict(
        doc(3, dirs, {i: ["G1", "G2"] for i in range(3)}, ["G1", "G2"], inter)
    )
    # prefix [1]; position 1 holds part 2, blocked while 0 is unremoved
    quiet = PlanChromosome((1, 2, 0), (0, 0, 0), (0, 0, 0))
    noisy = PlanChromosome((1, 2, 0), (0, 1, 1), (0, 1, 1))
    assert metrics(model, quiet) == metrics(model, noisy)


def test_metrics_agree_with_reduce_walk(rng):
    """Cross-implementation check: bitmask walk vs removable + reduce."""

    def reference_l(model, chrom):
        cur = model
        ids = list(range(model.n))  # current index of original component ids
        l = 0
        for pos in range(model.n):
            part = chrom.sequence[pos]
            idx = ids.index(part)
            if not removable(cur, idx, chrom.directions[pos]):
                break
            cur = reduce(cur, idx)
            ids.remove(part)
            l += 1
        return l

    names = list(ORACLE_OPTIMA) + list(STACK_TARGETS)
    for name in names:
        model = load_fixture(name)
        for _ in range(8):
            chrom = random_chromosome(model, rng)
            assert metrics(model, chrom).feasible_len == reference_l(model, chrom)


def test_metrics_bounds_invariants(rng):
    for _ in range(30):
        model = random_model(rng, n=6, ndirs=3, ngrips=3)
        m = metrics(model, random_chromosome(model, rng))
        assert 0 <= m.feasible_len <= m.n_parts
        assert 0 <= m.orient_changes <= max(m.feasible_len - 1, 0)
        assert 0 <= m.grip_changes <= max(m.feasible_len - 1, 0)


# -- random_chromosome ------------------------------------------------------


def test_random_chromosome_single_part():
    model = product_from_dict(doc(1, ["+x"]))
    chrom = random_chromosome(model, random.Random(1))
    assert chrom == ((0,), (0,), (0,))


def test_random_chromosome_respects_gripper_table(rng):
    model = load_fixture("product2")
    single = {i for i, a in enumerate(model.allowed_grippers) if len(a) == 1}
    assert single  # the table has forced rows
    for _ in range(50):
        chrom = random_chromosome(model, rng)
        validate_chromosome(model, chrom)
        for pos, part in enumerate(chrom.sequence):
            assert chrom.grippers[pos] in model.allowed_grippers[part]
            if part in single:
                assert chrom.grippers[pos] == model.allowed_grippers[part][0]


def test_random_chromosome_deterministic():
    model = load_fixture("cage5")
    assert random_chromosome(model, random.Random(7)) == random_chromosome(
        model, random.Random(7)
    )


def test_random_chromosome_covers_directions(rng):
    model = free3(3)
    seen = set()
    for _ in range(200):
        seen.update(random_chromosome(model, rng).directions)
    assert seen == {0, 1, 2}


# -- crossover --------------------------------------------------------------


def test_crossover_identical_parents_identity(rng):
    model = random_model(rng, n=5)
    a = random_chromosome(model, rng)
    for _ in range(20):
        c1, c2 = crossover(a, a, rng)
        assert c1 == a and c2 == a


def test_crossover_hand_trace_cuts_1_3():
    model = free3(2, {i: ["G1", "G2"] for i in range(3)}, ["G1", "G2"])
    model4 = product_from_dict(
        doc(4, ["+y", "-x"], {i: ["G1", "G2"] for i in range(4)}, ["G1", "G2"])
    )
    a = PlanChromosome((0, 1, 2, 3), (0, 0, 0, 0), (0, 0, 0, 0))
    b = PlanChromosome((3, 2, 1, 0), (1, 1, 1, 1), (1, 1, 1, 1))
    stub = StubRandom(bits=[1, 2])  # i = 1; j = 2 >= i steps to 3
    c1, c2 = crossover(a, b, stub)
    # child 1 keeps a[1:3], fills from b starting after the cut: b yields 0, 3
    assert c1.sequence == (3, 1, 2, 0)
    assert c1.directions == (1, 0, 0, 1)
    assert c1.grippers == (1, 0, 0, 1)
    # child 2 keeps b[1:3], fills from a: a yields 3, 0
    assert c2.sequence == (0, 2, 1, 3)
    assert c2.directions == (0, 1, 1, 0)
    assert c2.grippers == (0, 1, 1, 0)
    validate_chromosome(model4, c1)
    validate_chromosome(model4, c2)


def test_crossover_property_1000_pairs(rng):
    model = random_model(rng, n=7, ndirs=3, ngrips=3)
    for _ in range(1000):
        a = random_chromosome(model, rng)
        b = random_chromosome(model, rng)
        for child in crossover(a, b, rng):
            validate_chromosome(model, child)


def test_crossover_genes_travel_with_component(rng):
    model = random_model(rng, n=6, ndirs=3, ngrips=3)
    for _ in range(200):
        a = random_chromosome(model, rng)
        b = random_chromosome(model, rng)
        tri_a = dict(zip(a.sequence, zip(a.directions, a.grippers)))
        tri_b = dict(zip(b.sequence, zip(b.directions, b.grippers)))
        for child in crossover(a, b, rng):
            for pos, part in enumerate(child.sequence):
                pair = (child.directions[pos], child.grippers[pos])
                assert pair in (tri_a[part], tri_b[part])


def test_crossover_single_part_passthrough(rng):
    model = product_from_dict(doc(1, ["+x"]))
    a = random_chromosome(model, rng)
    b = random_chromosome(model, rng)
    assert crossover(a, b, rng) == (a, b)


# -- mutation ---------------------------------------------------------------


def test_mutate_single_part_sequence_fixed(rng):
    model = product_from_dict(doc(1, ["+x", "-x"]))
    chrom = PlanChromosome((0,), (0,), (0,))
    for _ in range(20):
        out = mutate(chrom, model, rng)
        assert out.sequence == (0,)
        validate_chromosome(model, out)


def test_mutate_property_1000_trials(rng):
    model = random_model(rng, n=7, ndirs=3, ngrips=3)
    chrom = random_chromosome(model, rng)
    for _ in range(1000):
        out = mutate(chrom, model, rng)
        validate_chromosome(model, out)
        # at most one swap: sequences differ in at most two positions
        diff = sum(x != y for x, y in zip(out.sequence, chrom.sequence))
        assert diff in (0, 2)
        chrom = out


def test_mutate_keeps_forced_gripper(rng):
    model = load_fixture("product1")
    forced = {i for i, a in enumerate(model.allowed_grippers) if len(a) == 1}
    assert forced
    chrom = random_chromosome(model, rng)
    for _ in range(300):
        chrom = mutate(chrom, model, rng)
        for pos, part in enumerate(chrom.sequence):
            if part in forced:
                assert chrom.grippers[pos] == model.allowed_grippers[part][0]


def test_crossover_cuts_and_mutation_swaps_are_uniform():
    # n = 4: 10 unordered cut pairs over 0..4, 6 unordered swap pairs over
    # 0..3; each must turn up within 15% of its share of 20,000 draws
    model = product_from_dict(doc(4, ["+y", "-x"]))
    a = PlanChromosome((0, 1, 2, 3), (0, 0, 0, 0), (0, 0, 0, 0))
    b = PlanChromosome((3, 2, 1, 0), (1, 1, 1, 1), (0, 0, 0, 0))
    rng = random.Random(7)
    draws = 20_000
    cuts = Counter()
    swaps = Counter()
    for _ in range(draws):
        child, _ = crossover(a, b, rng)
        kept = [pos for pos, d in enumerate(child.directions) if d == 0]
        cuts[kept[0], kept[-1] + 1] += 1  # a's genes fill exactly [i, j)
        moved = mutate(a, model, rng)
        swaps[tuple(p for p in range(4) if moved.sequence[p] != p)] += 1
    assert set(cuts) == {(i, j) for i in range(5) for j in range(i + 1, 5)}
    assert set(swaps) == {(i, j) for i in range(4) for j in range(i + 1, 4)}
    for counts in (cuts, swaps):
        share = draws / len(counts)
        for pair, count in counts.items():
            assert abs(count - share) <= 0.15 * share, (pair, count)


def reference_ox(keep, donor, i, j):
    """Order crossover child written out position by position."""
    n = len(keep.sequence)
    seg = keep.sequence[i:j]
    fill = [p for p in [*range(j, n), *range(j)] if donor.sequence[p] not in seg]
    slots = [*range(j, n), *range(i)]  # child positions filled after the cut
    sections = [list(s) for s in keep]
    for slot, p in zip(slots, fill):
        for section, given in zip(sections, donor):
            section[slot] = given[p]
    return PlanChromosome(*map(tuple, sections))


def test_crossover_matches_reference_and_randrange_cuts():
    # the cuts are drawn as randrange(n + 1), randrange(n) would draw them
    rng = random.Random(11)
    for trial in range(400):
        n = 2 + trial % 12
        model = random_model(rng, n=n, ndirs=3, ngrips=3)
        a = random_chromosome(model, rng)
        b = random_chromosome(model, rng)
        ref = random.Random(trial)
        i = ref.randrange(n + 1)
        j = ref.randrange(n)
        j += j >= i
        i, j = min(i, j), max(i, j)
        ours = random.Random(trial)
        c1, c2 = crossover(a, b, ours)
        assert c1 == reference_ox(a, b, i, j)
        assert c2 == reference_ox(b, a, i, j)
        assert ours.getstate() == ref.getstate()


# -- the draw rule ------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2024, 0xC0FFEE])
def test_randbelow_draws_the_randrange_stream(seed):
    # The GA calls the private Random._randbelow; this names that dependency,
    # so a CPython change fails here rather than only as golden-digest
    # mismatches.  n == 1 must consume bits as randrange(1) does.
    ours, ref = random.Random(seed), random.Random(seed)
    for n in range(1, 301):
        for _ in range(3):
            assert ours._randbelow(n) == ref.randrange(n), n
        assert ours.getstate() == ref.getstate(), n


# -- validate_chromosome ----------------------------------------------------


def test_validate_rejects_bad_chromosomes():
    model = free3(2, {i: ["G1"] for i in range(3)}, ["G1", "G2"])
    good = PlanChromosome((0, 1, 2), (0, 0, 0), (0, 0, 0))
    validate_chromosome(model, good)
    with pytest.raises(ValueError, match="permutation"):
        validate_chromosome(model, good._replace(sequence=(0, 0, 2)))
    with pytest.raises(ValueError, match="direction"):
        validate_chromosome(model, good._replace(directions=(0, 5, 0)))
    with pytest.raises(ValueError, match="gripper"):
        validate_chromosome(model, good._replace(grippers=(0, 1, 0)))
    with pytest.raises(ValueError, match="length"):
        validate_chromosome(model, PlanChromosome((0, 1), (0, 0), (0, 0)))


# -- plan record ------------------------------------------------------------


def test_plan_record_reverses_into_assembly_order():
    model = free3(2, {0: ["G1"], 1: ["G2"], 2: ["G2"]}, ["G1", "G2"])
    chrom = PlanChromosome((0, 1, 2), (0, 0, 1), (0, 1, 1))
    rec = plan_record(model, chrom)
    assert [s["component"] for s in rec["steps"]] == [0, 1, 2]
    assert [s["direction"] for s in rec["steps"]] == ["+y", "+y", "-x"]
    assert [s["gripper"] for s in rec["steps"]] == ["G1", "G2", "G2"]
    assert rec["metrics"] == {
        "feasibleLength": 3,
        "orientationChanges": 1,
        "gripperChanges": 1,
        "components": 3,
    }
    assert rec["feasible"] is True
    assert [s["component"] for s in rec["assemblyOrder"]] == [2, 1, 0]
    assert [s["direction"] for s in rec["assemblyOrder"]] == ["+x", "-y", "-y"]


def test_plan_record_marks_infeasible():
    dirs = ["+x"]
    inter = {"+x": zeros(2)}
    inter["+x"][1][0] = 1
    model = product_from_dict(doc(2, dirs, interference=inter))
    rec = plan_record(model, PlanChromosome((1, 0), (0, 0), (0, 0)))
    assert rec["feasible"] is False
    assert rec["metrics"]["feasibleLength"] == 0
