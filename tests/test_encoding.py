"""Chromosome encoding: metrics extraction, crossover, mutation, records."""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

import reference_ops as ref
from adplan.encoding import (
    PlanChromosome,
    crossover,
    metrics,
    mutate,
    plan_record,
    random_chromosome,
    randbelow,
    validate_chromosome,
)
from adplan.ga import select
from adplan.product import product_from_dict
from conftest import ORACLE_OPTIMA, STACK_TARGETS, StubRandom, load_fixture, stack_doc
from reference_ops import chromosomes, population
from reference_ops import ox_child as ref_ox
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


def test_metrics_top_down_plan_of_a_70_part_stack_is_feasible():
    # past 64 parts the removed set spans two mask words
    data, columns = stack_doc(70)
    model = product_from_dict(data)
    seq = [part for col in columns for part in reversed(col)]  # each column top down
    grips = [model.allowed_grippers[part][0] for part in seq]
    plan = PlanChromosome(tuple(seq), (0,) * 70, tuple(grips))  # all +z
    m = metrics(model, plan)
    assert m == ref.walk_metrics(model, plan)
    assert (m.feasible_len, m.orient_changes, m.n_parts) == (70, 0, 70)
    # bottom up, the first part is blocked
    assert metrics(model, plan._replace(sequence=tuple(reversed(seq)))).feasible_len == 0


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


def cross(a, b, i, j):
    """Both order-crossover children of a and b at the cuts i < j."""
    pop = population([a, b])
    return tuple(chromosomes(crossover(pop, [0, 1], [1, 0], ([i, i], [j, j]))))


def random_cut(n, rng):
    return tuple(sorted(rng.sample(range(n + 1), 2)))


def test_crossover_identical_parents_identity(rng):
    model = random_model(rng, n=5)
    a = random_chromosome(model, rng)
    lo, hi = zip(*(random_cut(5, rng) for _ in range(20)))
    children = chromosomes(crossover(population([a]), [0] * 20, [0] * 20, (lo, hi)))
    assert children == [a] * 20


def test_crossover_hand_trace_cuts_1_3():
    model4 = product_from_dict(
        doc(4, ["+y", "-x"], {i: ["G1", "G2"] for i in range(4)}, ["G1", "G2"])
    )
    a = PlanChromosome((0, 1, 2, 3), (0, 0, 0, 0), (0, 0, 0, 0))
    b = PlanChromosome((3, 2, 1, 0), (1, 1, 1, 1), (1, 1, 1, 1))
    # tournaments (0, 0) and (1, 1) pick a then b; then i = 1 and j = 2 >= i
    # steps to 3
    stub = StubRandom(bits=[0, 0, 1, 1, 1, 2])
    rows, donors, cuts = select([1.0, 1.0, 1.0], 2, 4, stub)
    assert (rows, donors, cuts) == ([0, 1], [1, 0], ([1, 1], [3, 3]))
    c1, c2 = chromosomes(crossover(population([a, b]), rows, donors, cuts))
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
    pop = population([random_chromosome(model, rng) for _ in range(2000)])
    lo, hi = zip(*(random_cut(7, rng) for _ in range(1000)))
    keep = [*range(0, 2000, 2), *range(1, 2000, 2)]
    donor = [*range(1, 2000, 2), *range(0, 2000, 2)]
    children = chromosomes(crossover(pop, keep, donor, (lo + lo, hi + hi)))
    assert len(children) == 2000
    for child in children:
        validate_chromosome(model, child)


def test_crossover_genes_travel_with_component(rng):
    model = random_model(rng, n=6, ndirs=3, ngrips=3)
    for _ in range(200):
        a = random_chromosome(model, rng)
        b = random_chromosome(model, rng)
        tri_a = dict(zip(a.sequence, zip(a.directions, a.grippers)))
        tri_b = dict(zip(b.sequence, zip(b.directions, b.grippers)))
        for child in cross(a, b, *random_cut(6, rng)):
            for pos, part in enumerate(child.sequence):
                pair = (child.directions[pos], child.grippers[pos])
                assert pair in (tri_a[part], tri_b[part])


def test_crossover_single_part_passthrough(rng):
    model = product_from_dict(doc(1, ["+x"]))
    a = random_chromosome(model, rng)
    b = random_chromosome(model, rng)
    # with one part the cut spans the row and none is drawn: two
    # tournaments of two draws each are all that select takes
    state = rng.getstate()
    rows, donors, cuts = select([0.0, 0.0, 0.0], 2, 1, rng)
    ref = random.Random()
    ref.setstate(state)
    for _ in range(4):
        ref.randrange(3)
    assert rng.getstate() == ref.getstate()
    assert cuts == ([0, 0], [1, 1])
    children = chromosomes(crossover(population([a, b]), [0, 1], [1, 0], cuts))
    assert children == [a, b]


def test_crossover_of_no_children_is_empty(rng):
    model = random_model(rng, n=5)
    pop = population([random_chromosome(model, rng) for _ in range(3)])
    assert crossover(pop, [], [], ([], [])).shape == (3, 0, 5)


@pytest.mark.parametrize("n", range(1, 8))
def test_crossover_every_cut_pair_matches_reference(n):
    rng = random.Random(n)
    model = random_model(rng, n=n, ndirs=3, ngrips=3)
    cut_pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    for _ in range(5):
        chroms = [random_chromosome(model, rng) for _ in range(4)]
        keep = [rng.randrange(4) for _ in cut_pairs]
        donor = [rng.randrange(4) for _ in cut_pairs]
        lo, hi = zip(*cut_pairs)
        got = chromosomes(crossover(population(chroms), keep, donor, (lo, hi)))
        want = [
            ref.ox_child(chroms[k], chroms[d], i, j)
            for k, d, (i, j) in zip(keep, donor, cut_pairs)
        ]
        assert got == want


# -- mutation ---------------------------------------------------------------


def mutate_one(chrom, model, rng):
    """``chrom`` after one certain mutation."""
    pop = population([chrom])
    assert mutate(pop, model, 1.0, rng) == [0]
    return chromosomes(pop)[0]


def test_mutate_single_part_sequence_fixed(rng):
    model = product_from_dict(doc(1, ["+x", "-x"]))
    pop = population([PlanChromosome((0,), (0,), (0,))] * 20)
    assert mutate(pop, model, 1.0, rng) == list(range(20))
    for out in chromosomes(pop):
        assert out.sequence == (0,)
        validate_chromosome(model, out)


def test_mutate_property_1000_trials(rng):
    model = random_model(rng, n=7, ndirs=3, ngrips=3)
    chrom = random_chromosome(model, rng)
    for _ in range(1000):
        out = mutate_one(chrom, model, rng)
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
        chrom = mutate_one(chrom, model, rng)
        for pos, part in enumerate(chrom.sequence):
            if part in forced:
                assert chrom.grippers[pos] == model.allowed_grippers[part][0]


def test_mutate_rate_zero_and_one(rng):
    model = random_model(rng, n=5, ndirs=3, ngrips=3)
    chroms = [random_chromosome(model, rng) for _ in range(30)]
    pop = population(chroms)
    state = rng.getstate()
    assert mutate(pop, model, 0.0, rng) == []
    assert chromosomes(pop) == chroms
    ref = random.Random()
    ref.setstate(state)
    for _ in chroms:
        ref.random()  # every row still draws its random()
    assert rng.getstate() == ref.getstate()
    assert mutate(pop, model, 1.0, rng) == list(range(30))


def test_mutate_rejects_a_strided_view(rng):
    # a reshape of a strided view would be a copy, and the mutation lost
    model = random_model(rng, n=5)
    pop = population([random_chromosome(model, rng) for _ in range(4)])
    with pytest.raises(ValueError, match="C-contiguous"):
        mutate(pop[:, ::2], model, 1.0, rng)


def test_crossover_cuts_and_mutation_swaps_are_uniform():
    # n = 4: 10 unordered cut pairs over 0..4, 6 unordered swap pairs over
    # 0..3; each must turn up within 15% of its share of 20,000 draws
    model = product_from_dict(doc(4, ["+y", "-x"]))
    a = PlanChromosome((0, 1, 2, 3), (0, 0, 0, 0), (0, 0, 0, 0))
    b = PlanChromosome((3, 2, 1, 0), (1, 1, 1, 1), (0, 0, 0, 0))
    rng = random.Random(7)
    draws = 20_000
    # 40,000 crossover children from 20,000 pairs, one cut per pair
    _, _, (lo, hi) = select([0.0] * (2 * draws + 1), 2 * draws, 4, rng)
    lo, hi = lo[::2], hi[::2]
    children = chromosomes(crossover(population([a, b]), [0] * draws, [1] * draws, (lo, hi)))
    cuts = Counter()
    for child in children:
        kept = [pos for pos, d in enumerate(child.directions) if d == 0]
        cuts[kept[0], kept[-1] + 1] += 1  # a's genes fill exactly [i, j)
    assert sorted(cuts.elements()) == sorted(zip(lo, hi))
    moved = population([a] * draws)
    mutate(moved, model, 1.0, rng)
    swaps = Counter(
        tuple(p for p in range(4) if seq[p] != p) for seq in moved[0].tolist()
    )
    assert set(cuts) == {(i, j) for i in range(5) for j in range(i + 1, 5)}
    assert set(swaps) == {(i, j) for i in range(4) for j in range(i + 1, 4)}
    for counts in (cuts, swaps):
        share = draws / len(counts)
        for pair, count in counts.items():
            assert abs(count - share) <= 0.15 * share, (pair, count)


def test_crossover_matches_reference_and_randrange_cuts():
    # select draws the cuts as randrange(n + 1), randrange(n) would draw
    # them, after the pair's two tournaments
    rng = random.Random(11)
    for trial in range(400):
        n = 2 + trial % 12
        model = random_model(rng, n=n, ndirs=3, ngrips=3)
        a = random_chromosome(model, rng)
        b = random_chromosome(model, rng)
        ref = random.Random(trial)
        for _ in range(4):
            ref.randrange(3)
        i = ref.randrange(n + 1)
        j = ref.randrange(n)
        j += j >= i
        i, j = min(i, j), max(i, j)
        ours = random.Random(trial)
        _, _, cuts = select([0.0, 0.0, 0.0], 2, n, ours)
        assert cuts == ([i, i], [j, j])
        c1, c2 = chromosomes(crossover(population([a, b]), [0, 1], [1, 0], cuts))
        assert c1 == ref_ox(a, b, i, j)
        assert c2 == ref_ox(b, a, i, j)
        assert ours.getstate() == ref.getstate()


def test_mutate_matches_reference():
    # 1,100 random blocks of children, n = 1..44, against the scalar
    # mutate applied child by child behind its own random() draw
    maker = random.Random(5)
    for trial in range(1100):
        n = 1 + trial % 44
        model = random_model(maker, n=n, ndirs=maker.randint(1, 6), ngrips=maker.randint(1, 4))
        chroms = [random_chromosome(model, maker) for _ in range(maker.randint(0, 12))]
        mut_p = maker.choice([0.0, 1.0, maker.random()])
        seed = maker.getrandbits(32)
        ours, theirs = random.Random(seed), random.Random(seed)
        pop = population(chroms) if chroms else np.zeros((3, 0, n), np.intp)
        rows = mutate(pop, model, mut_p, ours)
        want, want_rows = [], []
        for row, chrom in enumerate(chroms):
            if theirs.random() < mut_p:
                chrom = ref.mutate(chrom, model, theirs)
                want_rows.append(row)
            want.append(chrom)
        assert rows == want_rows
        assert chromosomes(pop) == want
        assert ours.getstate() == theirs.getstate()


# -- the draw rule ------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2024, 0xC0FFEE])
def test_randbelow_draws_the_randrange_stream(seed):
    # randbelow, and its inline copies in select and mutate, take
    # n.bit_length() bits until the value is below n; this names the
    # rule's dependency on CPython's randrange, so a change there fails here
    # rather than only as golden-digest mismatches.  n == 1 must consume
    # bits as randrange(1) does.
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in range(1, 301):
        for _ in range(3):
            assert randbelow(ours, n) == theirs.randrange(n), n
        assert ours.getstate() == theirs.getstate(), n


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
