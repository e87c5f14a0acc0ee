"""Independent reference optimum by exhaustive enumeration of partial plans.

Walks every (component, direction, gripper) extension of every partial plan.
Once a prefix hits an infeasible step, the metrics of any completion are
frozen (changes past the first infeasible slot never count), so with pruning
enabled the search scores the branch once with a representative completion
instead of recursing.  Pruning therefore never changes the optimal fitness,
only the multiplicity of reported optimal plans on infeasible branches.

statesExplored counts visited non-empty partial plans.  Without pruning and
with g grippers allowed per component uniformly, that count has the closed
form sum over k of P(n, k) * (D * g)^k, which the tests cross-check.

This is deliberately a different algorithm from the package's oracle (a DP
over removed sets); the tests compare the two on the small fixtures.  It
grows as n! * (D * g)^n, so keep it to products of about seven parts.
"""

from __future__ import annotations

import math

from adplan import OracleResult, PlanChromosome, ProductModel, Weights


def enumerate_optimal(
    model: ProductModel,
    weights: Weights = Weights(),
    *,
    prune: bool = True,
    plan_cap: int = 64,
) -> OracleResult:
    """Optimal algebraic fitness and the first ``plan_cap`` optimal plans."""
    n = model.n
    w_f, w_o, w_g = weights.as_tuple()
    ndir = len(model.directions)
    allowed = model.allowed_grippers
    masks = model.blocker_masks

    seq = [0] * n
    dirs = [0] * n
    grips = [0] * n
    states = 0
    best = -math.inf
    plans: list[PlanChromosome] = []
    truncated = False

    def record(l: int, o: int, g: int) -> None:
        nonlocal best, truncated
        f = w_f * l + w_o * (n - 1 - o) + w_g * (n - 1 - g)
        if f > best:
            best = f
            plans.clear()
            truncated = False
        if f == best:
            if len(plans) < plan_cap:
                plans.append(PlanChromosome(tuple(seq), tuple(dirs), tuple(grips)))
            else:
                truncated = True

    def complete(pos: int, removed: int) -> None:
        # canonical suffix for a pruned branch: remaining ids ascending,
        # first direction, first allowed gripper
        for part in range(n):
            if not removed & (1 << part):
                seq[pos] = part
                dirs[pos] = 0
                grips[pos] = allowed[part][0]
                pos += 1

    def visit(depth: int, removed: int, l: int, o: int, g: int, feasible: bool) -> None:
        nonlocal states
        if depth == n:
            record(l, o, g)
            return
        for part in range(n):
            bit = 1 << part
            if removed & bit:
                continue
            for d in range(ndir):
                blocked = bool(masks[d][part] & ~removed)
                for gr in allowed[part]:
                    states += 1
                    seq[depth] = part
                    dirs[depth] = d
                    grips[depth] = gr
                    if feasible and not blocked:
                        no = o + (1 if depth and d != dirs[depth - 1] else 0)
                        ng = g + (1 if depth and gr != grips[depth - 1] else 0)
                        visit(depth + 1, removed | bit, l + 1, no, ng, True)
                    elif prune:
                        complete(depth + 1, removed | bit)
                        record(l, o, g)
                    else:
                        visit(depth + 1, removed | bit, l, o, g, False)

    visit(0, 0, 0, 0, 0, True)
    return OracleResult(
        optimal_fitness=best,
        optimal_plans=tuple(plans),
        states_explored=states,
        truncated=truncated,
    )
