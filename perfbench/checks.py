"""Answer checks made apart from the program.

Plans are walked over the product file's raw interference lists (never the
model's ``blocker_masks``), column-stack optima come from an interval DP
written here, and the per-run properties are read off the recorded
``GenerationStats``.  Every check returns a list of error strings; an empty
list means the outputs are correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

#: Fitness phases are compared exactly; floats here are sums of small
#: integers or cached centroids, so only a real drop differs.
_EPS = 1e-9


# -- plans over raw matrices --------------------------------------------------


def walk(doc: dict, plan) -> tuple[int, int, int]:
    """(feasible_len, orient_changes, grip_changes) from the raw matrices.

    A step is feasible when no part that still remains blocks it along its
    direction; the walk stops at the first infeasible step, and changes are
    counted between consecutive steps of the feasible prefix only.
    """
    seq, dirs, grips = plan
    labels = doc["directions"]
    inter = doc["interference"]
    n = len(seq)
    removed = [False] * n
    o = g = 0
    for pos, part in enumerate(seq):
        row = inter[labels[dirs[pos]]][part]
        if any(row[j] and not removed[j] for j in range(n) if j != part):
            return pos, o, g
        if pos:
            o += dirs[pos] != dirs[pos - 1]
            g += grips[pos] != grips[pos - 1]
        removed[part] = True
    return n, o, g


def algebraic(weights, n: int, lgo: tuple[int, int, int]) -> float:
    w_f, w_o, w_g = weights
    l, o, g = lgo
    return w_f * l + w_o * (n - 1 - o) + w_g * (n - 1 - g)


def plan_errors(doc: dict, plan, where: str) -> list[str]:
    """The plan is a permutation, directions are in range, grippers allowed."""
    seq, dirs, grips = plan
    n = len(doc["components"])
    errors = []
    if not len(seq) == len(dirs) == len(grips) == n:
        return [f"{where}: sections of lengths {len(seq)}/{len(dirs)}/{len(grips)}, expected {n}"]
    if sorted(seq) != list(range(n)):
        errors.append(f"{where}: sequence {list(seq)} is not a permutation of 0..{n - 1}")
        return errors
    nd = len(doc["directions"])
    catalog = doc["grippers"]
    allowed = {c["id"]: set(c["grippers"]) for c in doc["components"]}
    for pos, part in enumerate(seq):
        if not 0 <= dirs[pos] < nd:
            errors.append(f"{where}: direction {dirs[pos]} at position {pos} out of range")
        g = grips[pos]
        if not 0 <= g < len(catalog) or catalog[g] not in allowed[part]:
            errors.append(f"{where}: gripper {g} at position {pos} not allowed for part {part}")
    return errors


# -- column stacks ---------------------------------------------------------------


def stack_columns(doc: dict) -> list[list[int]]:
    """Recover the columns (bottom to top) and verify the stack structure.

    Raises ValueError if the raw matrices are not exactly those of a column
    stack: +z blocked by every part above in the same column, -z by every
    part below, any other direction by every other part.
    """
    inter = doc["interference"]
    if "+z" not in inter or "-z" not in inter:
        raise ValueError("product has no vertical directions")
    up, down = inter["+z"], inter["-z"]
    n = len(doc["components"])
    seen = [False] * n
    columns = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        todo, members = [start], []
        while todo:
            a = todo.pop()
            members.append(a)
            for b in range(n):
                if not seen[b] and (up[a][b] or up[b][a]):
                    seen[b] = True
                    todo.append(b)
        members.sort(key=lambda p: sum(down[p]))
        columns.append(members)
    col_of, pos = {}, {}
    for c, col in enumerate(columns):
        for k, part in enumerate(col):
            col_of[part], pos[part] = c, k
    for label, rows in inter.items():
        for i in range(n):
            for j in range(n):
                same = col_of[i] == col_of[j]
                if label == "+z":
                    want = same and pos[j] > pos[i]
                elif label == "-z":
                    want = same and pos[j] < pos[i]
                else:
                    want = i != j
                if bool(rows[i][j]) != want:
                    raise ValueError(f"not a column stack: interference[{label}][{i}][{j}]")
    return columns


def stack_optimum(doc: dict, weights) -> float:
    """Exact optimal algebraic fitness of a column-stack product.

    Only a column's top (+z) or bottom (-z) part can leave, so the state is
    the remaining interval per column.  Finishing is never worse than
    stopping at an infeasible step when w_f >= w_o + w_g (a step costs at
    most w_o + w_g in changes), so the optimum is a fully feasible plan and
    the DP minimises w_o * o + w_g * g over those.
    """
    w_f, w_o, w_g = weights
    if w_f < w_o + w_g:
        raise ValueError("interval DP needs w_f >= w_o + w_g")
    columns = stack_columns(doc)
    catalog = doc["grippers"]
    allowed = {
        c["id"]: tuple(catalog.index(g) for g in c["grippers"]) for c in doc["components"]
    }
    n = len(doc["components"])
    empty = (0, -1)
    memo: dict[tuple, tuple] = {}

    def cost(state: tuple, last_end: int, last_grip: int) -> float:
        # cheapest finish from `state` after a move at `last_end` with
        # `last_grip`; table[e] = (best over grippers, best per gripper)
        if state not in memo:
            memo[state] = table(state)
        best = 0.0 if memo[state] is None else math.inf
        for e, (any_grip, by_grip) in enumerate(memo[state] or ()):
            turn = w_o if e != last_end else 0.0
            best = min(best, turn + min(any_grip + w_g, by_grip.get(last_grip, math.inf)))
        return best

    def table(state: tuple):
        moves = []
        for c, (lo, hi) in enumerate(state):
            if lo > hi:
                continue
            for end, part, rest in ((0, columns[c][hi], (lo, hi - 1)), (1, columns[c][lo], (lo + 1, hi))):
                if rest[0] > rest[1]:
                    rest = empty
                moves.append((end, part, state[:c] + (rest,) + state[c + 1 :]))
        if not moves:
            return None
        out = [(math.inf, {}), (math.inf, {})]
        for end, part, nxt in moves:
            any_grip, by_grip = out[end]
            for g in allowed[part]:
                v = cost(nxt, end, g)
                if v < by_grip.get(g, math.inf):
                    by_grip[g] = v
                any_grip = min(any_grip, v)
            out[end] = (any_grip, by_grip)
        return out

    start = tuple((0, len(col) - 1) for col in columns)
    table_start = table(start)
    min_cost = min(t[0] for t in table_start)
    return w_f * n + w_o * (n - 1) + w_g * (n - 1) - min_cost


# -- runs ------------------------------------------------------------------------------


def ranking_universe(src: Path) -> tuple[float, float]:
    data = json.loads((src / "adplan" / "data" / "fuzzy_systems.json").read_text("utf-8"))
    lo, hi = data["ranking"]["output"]["universe"]
    return float(lo), float(hi)


def run_errors(doc: dict, spec, result, universe: tuple[float, float], optimum: float | None) -> list[str]:
    """Check one RunResult: its best plan and the properties of its stats."""
    where = f"mode {result.mode.value} seed {result.seed}"
    weights = spec.weights.as_tuple()
    n = len(doc["components"])
    errors = plan_errors(doc, result.best, where)
    if errors:
        return errors
    lgo = walk(doc, result.best)
    bm = result.best_metrics
    if (bm.feasible_len, bm.orient_changes, bm.grip_changes, bm.n_parts) != (*lgo, n):
        errors.append(f"{where}: best_metrics {tuple(bm)} but the raw walk gives {(*lgo, n)}")
    alg = algebraic(weights, n, lgo)
    if result.best_algebraic != alg:
        errors.append(f"{where}: best_algebraic {result.best_algebraic}, recomputed {alg}")
    if optimum is not None and alg > optimum + _EPS:
        errors.append(f"{where}: algebraic {alg} exceeds the exact optimum {optimum}")
    target = spec.success_target
    if result.success != (target is not None and alg >= target - _EPS):
        errors.append(f"{where}: success flag {result.success} disagrees with target {target}")

    stats = result.stats
    if len(stats) != spec.max_generations:
        errors.append(f"{where}: {len(stats)} stats rows for {spec.max_generations} generations")
        return errors
    mode = result.mode.value
    adaptive = mode in "CD"
    lo_u, hi_u = universe
    for k, s in enumerate(stats):
        row = f"{where} generation {k}"
        if s.generation != k:
            errors.append(f"{row}: numbered {s.generation}")
        if not 0.0 <= s.diversity <= 1.0:
            errors.append(f"{row}: diversity {s.diversity} outside [0, 1]")
        if not 0.0 <= s.feasible_fraction <= 1.0:
            errors.append(f"{row}: feasible_fraction {s.feasible_fraction} outside [0, 1]")
        if mode == "D":
            for label, value, (lo, hi) in (
                ("mutation", s.mutation_prob, spec.mutation_bounds),
                ("crossover", s.crossover_rate, spec.crossover_bounds),
            ):
                if not lo <= value <= hi:
                    errors.append(f"{row}: {label} rate {value} outside [{lo}, {hi}]")
        elif (s.mutation_prob, s.crossover_rate) != (spec.mutation_prob, spec.crossover_rate):
            errors.append(f"{row}: rates {s.mutation_prob}/{s.crossover_rate} changed in a static mode")
        if mode == "B":
            for label, value in (("max", s.max_fitness), ("mean", s.mean_fitness)):
                if not lo_u <= value <= hi_u:
                    errors.append(f"{row}: {label} fitness {value} outside the ranking universe")
        if s.all_feasible and not adaptive:
            errors.append(f"{row}: adaptive phase set in non-adaptive mode {mode}")
        if k:
            prev = stats[k - 1]
            if prev.all_feasible and not s.all_feasible:
                errors.append(f"{row}: adaptive-phase latch cleared")
            if s.all_feasible and not prev.all_feasible and s.feasible_fraction != 1.0:
                errors.append(f"{row}: latch set with feasible_fraction {s.feasible_fraction}")
            if prev.all_feasible == s.all_feasible and s.max_fitness < prev.max_fitness - _EPS:
                errors.append(f"{row}: max fitness fell from {prev.max_fitness} to {s.max_fitness}")

    final_phase = [s.max_fitness for s in stats if s.all_feasible == stats[-1].all_feasible]
    if abs(result.best_fitness - max(final_phase)) > _EPS:
        errors.append(f"{where}: best_fitness {result.best_fitness} is not the final phase's max")
    if mode == "A" or (adaptive and stats[-1].all_feasible):
        expect = alg
    elif adaptive:
        expect = float(lgo[0])
    else:
        expect = None
        if not lo_u <= result.best_fitness <= hi_u:
            errors.append(f"{where}: best_fitness {result.best_fitness} outside the ranking universe")
    if expect is not None and result.best_fitness != expect:
        errors.append(f"{where}: best_fitness {result.best_fitness}, recomputed {expect}")
    return errors


def oracle_errors(doc: dict, weights, oracle, optimum: float) -> list[str]:
    n = len(doc["components"])
    errors = []
    if oracle.optimal_fitness != optimum:
        errors.append(f"oracle: optimum {oracle.optimal_fitness}, interval DP gives {optimum}")
    if not oracle.optimal_plans:
        errors.append("oracle: no optimal plan returned")
    for k, plan in enumerate(oracle.optimal_plans):
        where = f"oracle plan {k}"
        plan_err = plan_errors(doc, plan, where)
        errors += plan_err
        if not plan_err and algebraic(weights, n, walk(doc, plan)) != optimum:
            errors.append(f"{where}: scores {algebraic(weights, n, walk(doc, plan))}, not {optimum}")
    return errors


def report_errors(doc: dict, spec, results, out_dir: Path) -> list[str]:
    """report.json and manifest.json agree with the in-memory RunResults."""
    report = json.loads((out_dir / "report.json").read_text("utf-8"))
    manifest = json.loads((out_dir / "manifest.json").read_text("utf-8"))
    weights = spec.weights.as_tuple()
    n = len(doc["components"])
    errors = []
    for key, want in (
        ("runs", spec.runs),
        ("seed", spec.base_seed),
        ("population", spec.population_size),
        ("generations", spec.max_generations),
        ("weights", list(weights)),
    ):
        if report.get(key) != want or manifest.get(key) != want:
            errors.append(f"report/manifest: {key} is {report.get(key)}/{manifest.get(key)}, expected {want}")
    if set(report["modes"]) != {m.value for m in spec.modes}:
        errors.append(f"report: modes {sorted(report['modes'])}")
        return errors
    for mode in spec.modes:
        entry = report["modes"][mode.value]
        mine = sorted((r for r in results if r.mode is mode), key=lambda r: r.seed)
        where = f"report mode {mode.value}"
        if [e["seed"] for e in entry["runs"]] != [spec.base_seed + k for k in range(spec.runs)]:
            errors.append(f"{where}: seeds {[e['seed'] for e in entry['runs']]}")
            continue
        ranked = []
        for e, r in zip(entry["runs"], mine):
            l, o, g = walk(doc, r.best)
            alg = algebraic(weights, n, (l, o, g))
            ranked.append((-alg, o, g, r.seed))
            got = (e["bestAlgebraicFitness"], e["feasible"], e["orientationChanges"],
                   e["gripperChanges"], e["bestFitness"], e["success"])
            want = (alg, l == n, o, g, r.best_fitness, r.success)
            if e["seed"] != r.seed or got != want:
                errors.append(f"{where} seed {e['seed']}: entry {got}, expected {want}")
        successes = sum(e["success"] for e in entry["runs"])
        if entry["successCount"] != successes or entry["successRate"] != successes / spec.runs:
            errors.append(f"{where}: success {entry['successCount']}/{entry['successRate']}")
        best_seed = min(ranked)[3]
        if entry["bestSeed"] != best_seed:
            errors.append(f"{where}: bestSeed {entry['bestSeed']}, expected {best_seed}")
        best = next(r for r in mine if r.seed == best_seed)
        steps = [
            (s["component"], s["direction"], s["gripper"]) for s in entry["bestPlan"]["steps"]
        ]
        want_steps = [
            (p, doc["directions"][d], doc["grippers"][g])
            for p, d, g in zip(best.best.sequence, best.best.directions, best.best.grippers)
        ]
        if steps != want_steps:
            errors.append(f"{where}: bestPlan steps differ from seed {best_seed}'s plan")
        curve = entry["curve"]["meanMaxFitness"]
        want_curve = [
            sum(r.stats[k].max_fitness for r in mine) / len(mine) for k in range(spec.max_generations)
        ]
        if len(curve) != len(want_curve) or any(abs(a - b) > _EPS for a, b in zip(curve, want_curve)):
            errors.append(f"{where}: meanMaxFitness curve differs from the runs' stats")
    return errors
