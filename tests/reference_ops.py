"""Scalar GA operators: the one-chromosome-at-a-time forms of the batched
``encoding.metrics``, ``ga.select``, ``encoding.crossover`` and
``encoding.mutate``.

The GA once scored and bred with exactly these functions, drawing through
``randrange``; the batched operators must give the same metrics and
children and leave the generator in the same state.  ``population`` and ``chromosomes``
convert between a list of chromosomes and a ``(3, P, n)`` population array.
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


def select(scored: Sequence[tuple], rng: random.Random):
    """Binary tournament with replacement over (chromosome, fitness, ...) rows.

    Two indices are drawn uniformly; the higher fitness wins and the first
    draw wins ties (including drawing the same index twice).
    """
    a = scored[rng.randrange(len(scored))]
    b = scored[rng.randrange(len(scored))]
    return a[0] if a[1] >= b[1] else b[0]


def crossover(
    a: PlanChromosome, b: PlanChromosome, rng: random.Random
) -> tuple[PlanChromosome, PlanChromosome]:
    """Two-point order crossover producing two children.

    One pair of distinct cut points 0 <= i < j <= n is drawn, uniformly over
    unordered pairs, and shared by both children.  With fewer than two
    parts nothing is drawn and the parents come back unchanged.
    """
    n = len(a.sequence)
    if n < 2:
        return a, b
    i = rng.randrange(n + 1)
    j = rng.randrange(n)
    j += j >= i
    if i > j:
        i, j = j, i
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


def mutate(chrom: PlanChromosome, model: ProductModel, rng: random.Random) -> PlanChromosome:
    """One swap of two positions, one direction reset, one gripper reset.

    The swap exchanges whole position triples; it is skipped, drawing
    nothing, with a single part.  The gripper reset redraws from the allowed
    set of the component sitting at the chosen position after the swap.
    """
    n = len(chrom.sequence)
    seq = list(chrom.sequence)
    dirs = list(chrom.directions)
    grips = list(chrom.grippers)
    if n >= 2:
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        j += j >= i
        seq[i], seq[j] = seq[j], seq[i]
        dirs[i], dirs[j] = dirs[j], dirs[i]
        grips[i], grips[j] = grips[j], grips[i]
    p = rng.randrange(n)
    dirs[p] = rng.randrange(len(model.directions))
    q = rng.randrange(n)
    allowed = model.allowed_grippers[seq[q]]
    grips[q] = allowed[rng.randrange(len(allowed))]
    return PlanChromosome(tuple(seq), tuple(dirs), tuple(grips))


def offspring(scored: Sequence[tuple], n_cross: int, rng: random.Random) -> list[PlanChromosome]:
    """The P − 1 unmutated children of one generation, in the GA's order:
    n_cross crossover children from tournament pairs, an odd count
    dropping the last pair's second child, then tournament clones."""
    children: list[PlanChromosome] = []
    while len(children) < n_cross:
        c1, c2 = crossover(select(scored, rng), select(scored, rng), rng)
        children.append(c1)
        if len(children) < n_cross:
            children.append(c2)
    while len(children) < len(scored) - 1:
        children.append(select(scored, rng))
    return children
