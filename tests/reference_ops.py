"""Scalar GA operators: the one-chromosome-at-a-time forms of the batched
``encoding.metrics``, ``ga.select``, ``encoding.crossover`` and
``encoding.mutate``, plus ``random_chromosome`` and ``validate_chromosome``.

The breeding references take their draws as arguments, so a test can read
the draws a batched operator made from a copy of its generator and check
that the operator applied the rules to them exactly.  ``population`` and
``chromosomes`` convert between a list of chromosomes and a ``(3, P, n)``
population array.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from adplan.encoding import PlanChromosome, PlanMetrics
from adplan.product import ProductModel


def population(chroms: Sequence[PlanChromosome]) -> np.ndarray:
    """A ``(3, P, n)`` population array holding the chromosomes as rows."""
    if not chroms:
        return np.zeros((3, 0, 0), np.intp)
    return np.array(chroms, np.intp).transpose(1, 0, 2).copy()


def chromosomes(pop: np.ndarray) -> list[PlanChromosome]:
    """The rows of a population array as chromosomes of Python ints."""
    return [PlanChromosome(*map(tuple, sections)) for sections in zip(*pop.tolist())]


def random_chromosome(model: ProductModel, rng: random.Random) -> PlanChromosome:
    """Sample a uniformly random valid chromosome."""
    seq = list(range(model.n))
    rng.shuffle(seq)
    dirs = [rng.randrange(len(model.directions)) for _ in seq]
    grips = [rng.choice(model.allowed_grippers[part]) for part in seq]
    return PlanChromosome(tuple(seq), tuple(dirs), tuple(grips))


def validate_chromosome(model: ProductModel, chrom: PlanChromosome) -> None:
    """Raise ValueError if the chromosome breaks an encoding invariant."""
    n = model.n
    if len(chrom.sequence) != n or len(chrom.directions) != n or len(chrom.grippers) != n:
        raise ValueError(f"chromosome sections must all have length {n}")
    if sorted(chrom.sequence) != list(range(n)):
        raise ValueError("sequence section is not a permutation of component ids")
    nd = len(model.directions)
    for pos, d in enumerate(chrom.directions):
        if not 0 <= d < nd:
            raise ValueError(f"direction gene {d} at position {pos} out of range")
    for pos, (part, g) in enumerate(zip(chrom.sequence, chrom.grippers)):
        if g not in model.allowed_grippers[part]:
            raise ValueError(
                f"gripper gene {g} at position {pos} not allowed for component {part}"
            )


def walk_metrics(model: ProductModel, chrom: Sequence[Sequence[int]]) -> PlanMetrics:
    """Feasible prefix length and change counts, by walking the plan.

    Keeps the removed set as one Python int bitmask and stops at the first
    position whose component is still blocked along its assigned
    direction; orientation and gripper changes past that point do not
    count.  ``chrom`` is any (sequence, directions, grippers) triple.
    """
    seq, dirs, grips = chrom
    masks = model.blocker_masks
    removed = 0
    o = 0
    g = 0
    n = len(seq)
    prefix = 0
    for pos in range(n):
        part = seq[pos]
        if masks[dirs[pos]][part] & ~removed:
            break
        if pos:
            if dirs[pos] != dirs[pos - 1]:
                o += 1
            if grips[pos] != grips[pos - 1]:
                g += 1
        removed |= 1 << part
        prefix = pos + 1
    return PlanMetrics(prefix, o, g, n)


def tournament(scored: Sequence[tuple], a: int, b: int):
    """Binary tournament between the drawn rows a and b of (chromosome,
    fitness, ...) rows: the higher fitness wins and the first draw wins
    ties (including drawing the same row twice)."""
    return scored[a][0] if scored[a][1] >= scored[b][1] else scored[b][0]


def crossover(
    a: PlanChromosome, b: PlanChromosome, i: int, j: int
) -> tuple[PlanChromosome, PlanChromosome]:
    """Two-point order crossover producing two children.

    i is a draw below n + 1 and j one below n; j steps past i and the two
    are sorted, which makes the cut pair 0 <= i < j <= n uniform over
    unordered pairs.  Both children share it.
    """
    j += j >= i
    i, j = min(i, j), max(i, j)
    return ox_child(a, b, i, j), ox_child(b, a, i, j)


def ox_child(keep: PlanChromosome, donor: PlanChromosome, i: int, j: int) -> PlanChromosome:
    """The child that copies keep[i:j] and fills the other positions,
    starting after the second cut and wrapping, with the donor's remaining
    components in the donor's order from the same point; direction and
    gripper genes move with their component."""
    n = len(keep.sequence)
    seg = keep.sequence[i:j]
    fill = [p for p in [*range(j, n), *range(j)] if donor.sequence[p] not in seg]
    slots = [*range(j, n), *range(i)]  # child positions filled after the cut
    sections = [list(s) for s in keep]
    for slot, p in zip(slots, fill):
        for section, given in zip(sections, donor):
            section[slot] = given[p]
    return PlanChromosome(*map(tuple, sections))


def mutate(
    chrom: PlanChromosome, model: ProductModel, i: int, r: int, p: int, d: int, q: int, g: int
) -> PlanChromosome:
    """One swap of positions i and (i + 1 + r) mod n, direction d at p, and
    gripper g of the allowed set of the component at q after the swap.

    The swap exchanges whole position triples; with one part it is a no-op.
    """
    n = len(chrom.sequence)
    j = (i + 1 + r) % n
    seq, dirs, grips = (list(section) for section in chrom)
    for section in (seq, dirs, grips):
        section[i], section[j] = section[j], section[i]
    dirs[p] = d
    grips[q] = model.allowed_grippers[seq[q]][g]
    return PlanChromosome(tuple(seq), tuple(dirs), tuple(grips))


def offspring(
    scored: Sequence[tuple], n_cross: int, first: Sequence[int], second: Sequence[int],
    cuts: Sequence[tuple[int, int]],
) -> list[PlanChromosome]:
    """The P − 1 unmutated children of one generation, in the GA's order,
    from tournament draws ``first[t]``, ``second[t]`` and the cut draws of
    each crossover pair: n_cross crossover children from pairs of
    consecutive tournaments, an odd count dropping the last pair's second
    child, then tournament clones."""
    winners = [tournament(scored, a, b) for a, b in zip(first, second)]
    children: list[PlanChromosome] = []
    for k, (i, j) in enumerate(cuts):
        children += crossover(winners[2 * k], winners[2 * k + 1], i, j)
    return children[:n_cross] + winners[len(children) :]
