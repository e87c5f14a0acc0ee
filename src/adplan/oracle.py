"""Exact optimum and optimal plans by a DP over removed sets.

The algebraic fitness adds up over adjacent steps: up to the constant
(w_o + w_g) * (n - 1), a plan scores w_f - w_o·[d ≠ d_last] - w_g·[g ≠ g_last]
per feasible step and nothing once it stops at its first infeasible step.
The best remaining score therefore depends only on the state
(removed-set mask, last direction, last gripper), with -1 for "no previous
step", and is memoised per reachable state (the subassembly-state view of
Homem de Mello & Sanderson's AND/OR graphs, IEEE T-RA 6(2), 1990).  Stopping
is worth 0 and is available only when some remaining component is blocked
along some direction; the full mask is worth 0.

Optimal plans are recovered by walking the optimal branches in the order
part, direction, gripper.  A stop emits the blocked step followed by the
canonical completion (remaining ids ascending, direction 0, first allowed
gripper), since steps past the first infeasible one never count.  Scores
are float sums taken in different orders, so ties are judged within
TIE_TOL.

statesExplored counts the DP states reached from the empty removed set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .encoding import PlanChromosome, metrics
from .fitness import Weights, algebraic_fitness
from .product import ProductModel

#: Largest component count the oracle accepts by default.
DEFAULT_CAP = 7

#: Scores within this distance of the optimum count as optimal.
TIE_TOL = 1e-9


@dataclass(frozen=True)
class OracleResult:
    optimal_fitness: float
    optimal_plans: tuple[PlanChromosome, ...]
    states_explored: int
    truncated: bool  # plan list hit plan_cap; fitness is still exact


def brute_force_optimal(
    model: ProductModel,
    weights: Weights = Weights(),
    *,
    cap: int = DEFAULT_CAP,
    plan_cap: int = 64,
) -> OracleResult:
    """Optimal algebraic fitness and optimal plans, exactly.

    Refuses products larger than ``cap`` components; the number of
    reachable removed sets can still grow as 2^n.  ``plan_cap`` bounds only
    how many tied-optimal plans are kept, never the search itself.
    """
    n = model.n
    if n < 1:
        raise ValueError("oracle needs a product with at least one component")
    if n > cap:
        raise ValueError(
            f"product has {n} components, above the oracle cap of {cap}; "
            "raise cap explicitly if you really want an exhaustive search"
        )
    w_f, w_o, w_g = weights.as_tuple()
    ndir = len(model.directions)
    allowed = model.allowed_grippers
    masks = model.blocker_masks
    full = (1 << n) - 1
    memo: dict[tuple[int, int, int], float] = {}

    def value(removed: int, d_last: int, g_last: int) -> float:
        key = (removed, d_last, g_last)
        best = memo.get(key)
        if best is not None:
            return best
        best = 0.0 if removed == full else -math.inf
        for part in range(n):
            bit = 1 << part
            if removed & bit:
                continue
            for d in range(ndir):
                if masks[d][part] & ~removed:
                    if best < 0.0:
                        best = 0.0  # stop here
                    continue
                step = w_f - (w_o if d_last >= 0 and d != d_last else 0.0)
                for gr in allowed[part]:
                    v = step - (w_g if g_last >= 0 and gr != g_last else 0.0)
                    v += value(removed | bit, d, gr)
                    if v > best:
                        best = v
        memo[key] = best
        return best

    floor = value(0, -1, -1) - TIE_TOL
    seq = [0] * n
    dirs = [0] * n
    grips = [0] * n
    # one plan past plan_cap only signals truncation
    found: list[PlanChromosome] = []

    def emit(pos: int, removed: int) -> bool:
        for part in range(n):
            if not removed & (1 << part):
                seq[pos] = part
                dirs[pos] = 0
                grips[pos] = allowed[part][0]
                pos += 1
        found.append(PlanChromosome(tuple(seq), tuple(dirs), tuple(grips)))
        return len(found) <= plan_cap

    def walk(depth: int, removed: int, acc: float) -> bool:
        """Emit the optimal plans below this prefix; False once past plan_cap."""
        if removed == full:
            return emit(depth, removed)
        d_last = dirs[depth - 1] if depth else -1
        g_last = grips[depth - 1] if depth else -1
        for part in range(n):
            bit = 1 << part
            if removed & bit:
                continue
            for d in range(ndir):
                blocked = masks[d][part] & ~removed
                step = w_f - (w_o if d_last >= 0 and d != d_last else 0.0)
                for gr in allowed[part]:
                    seq[depth] = part
                    dirs[depth] = d
                    grips[depth] = gr
                    if blocked:
                        if acc >= floor and not emit(depth + 1, removed | bit):
                            return False
                        continue
                    a = acc + step - (w_g if g_last >= 0 and gr != g_last else 0.0)
                    if a + memo[removed | bit, d, gr] >= floor and not walk(
                        depth + 1, removed | bit, a
                    ):
                        return False
        return True

    walk(0, 0, 0.0)
    return OracleResult(
        optimal_fitness=algebraic_fitness(metrics(model, found[0]), weights),
        optimal_plans=tuple(found[:plan_cap]),
        states_explored=len(memo),
        truncated=len(found) > plan_cap,
    )
