"""Plan chromosomes and their evaluation against a product model.

A plan is encoded as three parallel sections of length n: a permutation of
component IDs (removal order), a removal direction per position, and a
gripper per position.  Crossover recombines the permutation with a two-point
order crossover; the direction and gripper genes travel with the component
they were attached to in the parent.

The GA holds its population as one ``(3, P, n)`` integer array, one plane
per section, and ``metrics``, ``crossover`` and ``mutate`` work on a whole
generation at a time.  Every index draw follows ``randbelow``, the rule
``randrange(n)`` itself ends in, so the stream is exactly ``randrange``'s
and seeded results match it.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .product import ProductModel, mask_words, opposite_label


class PlanChromosome(NamedTuple):
    sequence: tuple[int, ...]
    directions: tuple[int, ...]
    grippers: tuple[int, ...]


class PlanMetrics(NamedTuple):
    """Feasibility and tool-change summary of a plan.

    feasible_len counts the leading positions that are removable in order;
    orient_changes and grip_changes count adjacent changes strictly inside
    that feasible prefix.  A fully feasible plan has feasible_len == n_parts.
    The metrics of a population hold one array per field instead, with one
    entry per plan, and the shared n_parts.
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


def randbelow(rng: random.Random, n: int) -> int:
    """A uniform draw from range(n), n >= 1: ``randrange(n)``'s stream.

    This is the rule ``randrange(n)`` itself ends in: take
    ``n.bit_length()`` bits and retry until the value is below n, so n == 1
    still consumes bits.  ``select`` and ``mutate`` repeat it inline.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def random_chromosome(model: ProductModel, rng: random.Random) -> PlanChromosome:
    """Sample a uniformly random valid chromosome."""
    n = model.n
    seq = list(range(n))
    rng.shuffle(seq)
    nd = len(model.directions)
    dirs = [randbelow(rng, nd) for _ in range(n)]
    grips = []
    for part in seq:
        allowed = model.allowed_grippers[part]
        grips.append(allowed[randbelow(rng, len(allowed))])
    return PlanChromosome(tuple(seq), tuple(dirs), tuple(grips))


@lru_cache
def _part_words(n: int) -> np.ndarray:
    """Per part count n: the one-part removed sets as ``mask_words``."""
    return mask_words(np.eye(n, dtype=bool))


def metrics(model: ProductModel, plans) -> PlanMetrics:
    """Feasible prefix length and change counts of one plan or of many.

    ``plans`` is one (sequence, directions, grippers) triple, giving int
    fields, or a ``(3, P, n)`` population array, giving one array entry per
    row.  The removed set before each position accumulates the parts before
    it as 64-bit ``mask_words``, so any part count takes one path.  The
    feasible prefix ends at the first position whose blockers along its
    direction are not all removed; changes count only inside the prefix.
    """
    pop = np.asarray(plans, np.intp)
    if pop.ndim == 2:  # one plan: a population of one, read back as ints
        return PlanMetrics(*(int(f[0]) for f in metrics(model, pop[:, None])[:3]), pop.shape[1])
    seq, dirs = pop[0], pop[1]
    n = seq.shape[1]
    words = model.blocker_words
    removed = np.bitwise_or.accumulate(_part_words(n).take(seq[:, :-1], axis=0), axis=1)
    blocked = words.reshape(-1, words.shape[2]).take(dirs * n + seq, axis=0)
    blocked[:, 1:] &= ~removed
    free = np.logical_and.accumulate(~blocked.any(axis=2), axis=1)
    length = free.sum(axis=1)
    # direction and gripper changes between neighbours inside the prefix
    o, g = ((pop[1:, :, 1:] != pop[1:, :, :-1]) & free[:, 1:]).sum(axis=2)
    return PlanMetrics(length, o, g, n)


@lru_cache
def _cut_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per part count n: positions, ``rot[j][p]`` = (p − j) mod n, the place
    of position p in fill order after a cut at j, and ``seg[i][j][p]`` =
    i <= p < j."""
    pos = np.arange(n)
    cut = np.arange(n + 1)
    tables = pos, (pos - cut[:, None]) % n, (cut[:, None, None] <= pos) & (pos < cut[:, None])
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


def crossover(
    pop: np.ndarray,
    keep: Sequence[int],
    donor: Sequence[int],
    cuts: tuple[Sequence[int], Sequence[int]],
) -> np.ndarray:
    """Two-point order crossover of many children at once; draws nothing.

    ``pop`` is a ``(3, P, n)`` population array (sequence, direction and
    gripper planes).  Child k copies positions ``lo[k]:hi[k]`` of row
    ``keep[k]``, then fills the remaining positions (starting after the
    second cut, wrapping) with the other components in the order row
    ``donor[k]`` holds them, also read from after the second cut; direction
    and gripper genes move with their component.  Returns the children as a
    ``(3, len(keep), n)`` array.
    """
    n = pop.shape[2]
    pos, rot_table, seg_table = _cut_tables(n)
    lo, hi = (np.asarray(c, np.intp) for c in cuts)
    planes = pop.reshape(3, -1)
    seqs = planes[0]
    # flat offsets: of each child's row in an (m, n) block, and of the
    # parents' genes in ``planes``
    base = np.arange(0, len(lo) * n, n)[:, None]
    kept = np.asarray(keep, np.intp)[:, None] * n + pos
    given = np.asarray(donor, np.intp)[:, None] * n
    seg = seg_table[lo, hi]
    rot = rot_table[hi]
    taken = np.zeros(seg.size, bool)  # by component: inside the kept segment
    taken.put(base + seqs.take(kept), seg)
    # the donor's positions in fill order, its segment components last;
    # child position p takes the rot[p]-th of them, or keeps its own gene
    # inside the segment
    order = np.argsort(rot + n * taken.take(base + seqs.take(given + pos)), axis=1)
    return planes.take(np.where(seg, kept, given + order.take(base + rot)), axis=1)


def mutate(children: np.ndarray, model: ProductModel, mut_p: float, rng: random.Random) -> list[int]:
    """Mutate rows of a C-contiguous ``(3, m, n)`` population array in place.

    Row by row, a ``random()`` below ``mut_p`` mutates the row: one swap of
    two positions, one direction reset, one gripper reset.  The swap
    exchanges whole position triples so genes stay attached to their
    component; with one part there is nothing to swap and it draws nothing.
    The gripper reset redraws from the allowed set of the component sitting
    at the chosen position after the swap.  Returns the rows mutated.
    """
    if not children.flags.c_contiguous:
        raise ValueError("mutate changes its array in place; it must be C-contiguous")
    _, m, n = children.shape
    nd = len(model.directions)
    allowed = model.allowed_grippers
    kn, kn1, kd = n.bit_length(), (n - 1).bit_length(), nd.bit_length()
    random_, getrandbits = rng.random, rng.getrandbits
    planes = children.reshape(3, -1)
    part_at = planes[0].item
    # the at_* lists hold flat positions within a plane
    rows, at_i, at_j, at_p, new_d, at_q, new_g = [], [], [], [], [], [], []
    for row in range(m):
        if random_() >= mut_p:
            continue
        i = j = 0
        if n >= 2:
            i = getrandbits(kn)
            while i >= n:
                i = getrandbits(kn)
            j = getrandbits(kn1)
            while j >= n - 1:
                j = getrandbits(kn1)
            j += j >= i
        p = getrandbits(kn)
        while p >= n:
            p = getrandbits(kn)
        d = getrandbits(kd)
        while d >= nd:
            d = getrandbits(kd)
        q = getrandbits(kn)
        while q >= n:
            q = getrandbits(kn)
        base = row * n
        grips = allowed[part_at(base + (j if q == i else i if q == j else q))]
        na = len(grips)
        ka = na.bit_length()
        g = getrandbits(ka)
        while g >= na:
            g = getrandbits(ka)
        rows.append(row)
        at_i.append(base + i)
        at_j.append(base + j)
        at_p.append(base + p)
        new_d.append(d)
        at_q.append(base + q)
        new_g.append(grips[g])
    if rows:
        planes[:, at_j + at_i] = planes.take(at_i + at_j, axis=1)
        planes[1].put(at_p, new_d)
        planes[2].put(at_q, new_g)
    return rows


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
