"""Plan chromosomes and their evaluation against a product model.

A plan is encoded as three parallel sections of length n: a permutation of
component IDs (removal order), a removal direction per position, and a
gripper per position.  Crossover recombines the permutation with a two-point
order crossover; the direction and gripper genes travel with the component
they were attached to in the parent.

Every index draw is ``rng._randbelow(n)``, the method ``randrange(n)``
itself ends in: the stream is exactly ``randrange``'s, so seeded results
match it, without ``randrange``'s argument handling, which costs more than
the draw.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import NamedTuple

from .product import ProductModel, opposite_label


class PlanChromosome(NamedTuple):
    sequence: tuple[int, ...]
    directions: tuple[int, ...]
    grippers: tuple[int, ...]


class PlanMetrics(NamedTuple):
    """Feasibility and tool-change summary of a plan.

    feasible_len counts the leading positions that are removable in order;
    orient_changes and grip_changes count adjacent changes strictly inside
    that feasible prefix.  A fully feasible plan has feasible_len == n_parts.
    """

    feasible_len: int
    orient_changes: int
    grip_changes: int
    n_parts: int


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


def random_chromosome(model: ProductModel, rng: random.Random) -> PlanChromosome:
    """Sample a uniformly random valid chromosome."""
    n = model.n
    seq = list(range(n))
    rng.shuffle(seq)
    nd = len(model.directions)
    dirs = [rng._randbelow(nd) for _ in range(n)]
    grips = []
    for part in seq:
        allowed = model.allowed_grippers[part]
        grips.append(allowed[rng._randbelow(len(allowed))])
    return PlanChromosome(tuple(seq), tuple(dirs), tuple(grips))


def metrics(model: ProductModel, chrom: PlanChromosome) -> PlanMetrics:
    """Evaluate feasible prefix length and change counts for a plan.

    Walks the sequence keeping a removed-set bitmask.  The walk stops at the
    first position whose component is still blocked along its assigned
    direction; orientation and gripper changes past that point do not count.
    """
    seq = chrom.sequence
    dirs = chrom.directions
    grips = chrom.grippers
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


def crossover(
    a: PlanChromosome, b: PlanChromosome, rng: random.Random
) -> tuple[PlanChromosome, PlanChromosome]:
    """Two-point order crossover producing two children.

    One pair of distinct cut points 0 <= i < j <= n is drawn, uniformly over
    unordered pairs, and shared by both children.  Each child copies the
    segment between the cuts from one parent, then fills the remaining
    positions (starting after the second cut, wrapping) with the other
    parent's components in that parent's order; direction and gripper genes
    move with their component.
    """
    n = len(a.sequence)
    if n < 2:
        return a, b
    i = rng._randbelow(n + 1)
    j = rng._randbelow(n)
    j += j >= i
    if i > j:
        i, j = j, i
    return _ox_child(a, b, i, j), _ox_child(b, a, i, j)


def _ox_child(keep: PlanChromosome, donor: PlanChromosome, i: int, j: int) -> PlanChromosome:
    n = len(keep.sequence)
    seg = set(keep.sequence[i:j])
    dseq = donor.sequence
    # donor positions in fill order (after the second cut, wrapping), shifted
    # by n to index the donor half of ``keep section + donor section``; the
    # last i of them fill the head, the kept segment follows, the rest is the
    # tail.  n >= 2 picks, so the getter always returns a tuple.
    fill = [p + n for p in (*range(j, n), *range(j)) if dseq[p] not in seg]
    r = n - j
    pick = itemgetter(*fill[r:], *range(i, j), *fill[:r])
    return PlanChromosome(
        pick(keep.sequence + dseq),
        pick(keep.directions + donor.directions),
        pick(keep.grippers + donor.grippers),
    )


def mutate(chrom: PlanChromosome, model: ProductModel, rng: random.Random) -> PlanChromosome:
    """One swap of two positions, one direction reset, one gripper reset.

    The swap exchanges whole position triples so genes stay attached to
    their component.  The gripper reset redraws from the allowed set of the
    component sitting at the chosen position after the swap.
    """
    n = len(chrom.sequence)
    if n == 0:
        return chrom
    seq = list(chrom.sequence)
    dirs = list(chrom.directions)
    grips = list(chrom.grippers)
    if n >= 2:
        i = rng._randbelow(n)
        j = rng._randbelow(n - 1)
        j += j >= i
        seq[i], seq[j] = seq[j], seq[i]
        dirs[i], dirs[j] = dirs[j], dirs[i]
        grips[i], grips[j] = grips[j], grips[i]
    p = rng._randbelow(n)
    dirs[p] = rng._randbelow(len(model.directions))
    q = rng._randbelow(n)
    allowed = model.allowed_grippers[seq[q]]
    grips[q] = allowed[rng._randbelow(len(allowed))]
    return PlanChromosome(tuple(seq), tuple(dirs), tuple(grips))


def plan_record(model: ProductModel, chrom: PlanChromosome, m: PlanMetrics | None = None) -> dict:
    """JSON-ready description of a plan: steps, metrics, assembly reversal.

    The assembly order is the disassembly sequence reversed, with each step
    assigned the opposite direction label where one exists.
    """
    if m is None:
        m = metrics(model, chrom)
    steps = [
        {
            "position": pos,
            "component": part,
            "name": model.part_names[part],
            "direction": model.directions[chrom.directions[pos]],
            "gripper": model.gripper_catalog[chrom.grippers[pos]],
        }
        for pos, part in enumerate(chrom.sequence)
    ]
    assembly = [
        {
            "component": part,
            "name": model.part_names[part],
            "direction": opposite_label(model.directions[chrom.directions[pos]]),
        }
        for pos, part in reversed(list(enumerate(chrom.sequence)))
    ]
    return {
        "steps": steps,
        "metrics": {
            "feasibleLength": m.feasible_len,
            "orientationChanges": m.orient_changes,
            "gripperChanges": m.grip_changes,
            "components": m.n_parts,
        },
        "feasible": m.feasible_len == m.n_parts,
        "assemblyOrder": assembly,
    }
