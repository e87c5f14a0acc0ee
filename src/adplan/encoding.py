"""Plan chromosomes and their evaluation against a product model.

A plan is encoded as three parallel sections of length n: a permutation of
component IDs (removal order), a removal direction per position, and a
gripper per position.  Crossover recombines the permutation with a two-point
order crossover; the direction and gripper genes travel with the component
they were attached to in the parent.

The GA holds its population as one ``(3, P, n)`` integer array, one plane
per section, and ``metrics``, ``crossover`` and ``mutate`` work on a whole
generation at a time.  Every draw comes from the run's one
``numpy.random.Generator``, a whole array per call.
"""

from __future__ import annotations

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


def random_population(model: ProductModel, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` uniformly random valid chromosomes as a ``(3, size, n)`` array.

    Draws, in order: every sequence as one ``permuted`` call, every
    direction as one ``integers`` call, then every gripper, uniform over the
    allowed set of the part at its position, as one more.
    """
    counts, table = model.gripper_choices
    seq = rng.permuted(np.tile(np.arange(model.n), (size, 1)), axis=1)
    dirs = rng.integers(len(model.directions), size=seq.shape)
    return np.stack((seq, dirs, table[seq, rng.integers(counts[seq])]))


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


def mutate(children: np.ndarray, model: ProductModel, mut_p: float, rng: np.random.Generator) -> np.ndarray:
    """Mutate rows of a ``(3, m, n)`` population array in place.

    A row is mutated when its entry of one ``random(m)`` draw is below
    ``mut_p``.  A mutated row takes one swap of positions i and j, one
    direction reset at p and one gripper reset at q.  One ``integers`` call
    draws i, r, p, d and q for every mutated row, with j = (i + 1 + r) mod n
    for r below n − 1, so the unordered swap pairs are uniform (with one
    part, r is 0 and the swap does nothing).  The swap exchanges whole
    position triples so genes stay attached to their component.  A last
    ``integers`` call redraws each gripper from the allowed set of the
    component sitting at q after the swap.  Returns the rows mutated.
    """
    _, m, n = children.shape
    rows = np.flatnonzero(rng.random(m) < mut_p)
    highs = (n, max(n - 1, 1), n, len(model.directions), n)
    i, r, p, d, q = rng.integers(highs, size=(len(rows), 5)).T
    j = (i + 1 + r) % n
    children[:, rows, i], children[:, rows, j] = children[:, rows, j], children[:, rows, i]
    children[1, rows, p] = d
    counts, table = model.gripper_choices
    part = children[0, rows, q]
    children[2, rows, q] = table[part, rng.integers(counts[part])]
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
