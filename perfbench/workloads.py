"""The benchmark's workloads: which products, which GA batch, which seeds.

Every workload runs all four modes through ``adplan.bench.run_experiment``
and ``write_outputs`` (the path ``adplan experiment`` takes) with the shipped
protocol settings: population 80, 300 generations, rates 0.8/0.4, weights
(2, 1, 1).  ``--seed s`` selects GA seeds ``10*s .. 10*s+9`` per mode, so
consecutive benchmark seeds use disjoint GA seed sets.

- ``case1-exact``: ``product1`` (8 parts, 6 directions) plus the exhaustive
  oracle with its cap raised to 8.  The oracle does most of the work here
  and none anywhere else; the GA's fixed per-generation costs dominate.
- ``case2-protocol``: ``product2`` (19 parts) from the shipped protocol spec
  ``experiment_protocol19.json``, widened to all four modes.
- ``stack-large``: one generated two-column stack of 44 parts per seed.
  Per-gene work and product parsing are largest here, and an interval DP
  still finds the exact optimum in one to two seconds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from adplan import ExperimentSpec, FitnessMode, spec_from_json

#: GA runs per mode in one round; 4 modes x 10 runs = 40 evolve calls, the
#: fewest that leave ten runs above the reported tail percentile (p75).
RUNS_PER_MODE = 10
#: Oracle cap for product1 (8 parts); the package default refuses above 7.
ORACLE_CAP = 8

NAMES = ("case1-exact", "case2-protocol", "stack-large")

STACK_PARTS = 44
STACK_GRIPPERS = tuple(f"G{i}" for i in range(1, 7))
STACK_DIRECTIONS = ("+z", "-z")


@dataclass(frozen=True)
class Workload:
    name: str
    spec: ExperimentSpec
    oracle: bool


def fixture(src: Path, name: str) -> Path:
    return src / "adplan" / "fixtures" / name


def _protocol_spec(src: Path, seed: int) -> ExperimentSpec:
    """The shipped 19-part protocol, all four modes, this seed's GA seeds."""
    shipped = spec_from_json(fixture(src, "experiment_protocol19.json"))
    return replace(
        shipped, modes=tuple(FitnessMode), runs=RUNS_PER_MODE, base_seed=10 * seed
    )


def _spec_like(protocol: ExperimentSpec, product: Path, target: float | None) -> ExperimentSpec:
    return replace(
        protocol,
        product_path=product,
        product_ref=str(product),
        success_target=target,
        fixture_hash=None,
    )


def prepare(name: str, seed: int, src: Path, work_dir: Path) -> Workload:
    """Build the workload's spec; stack-large also writes its product file."""
    protocol = _protocol_spec(src, seed)
    if name == "case1-exact":
        # 29 is product1's optimum under weights (2, 1, 1); the checker
        # recomputes it with its own interval DP
        spec = _spec_like(protocol, fixture(src, "product1.json"), 29.0)
        return Workload(name, spec, oracle=True)
    if name == "case2-protocol":
        return Workload(name, protocol, oracle=False)
    if name == "stack-large":
        path = work_dir / f"stack-large-{seed}.json"
        path.write_text(json.dumps(stack_product(seed)), encoding="utf-8")
        return Workload(name, _spec_like(protocol, path, None), oracle=False)
    raise ValueError(f"unknown workload {name!r}")


def stack_columns(seed: int) -> list[list[int]]:
    """Two columns of 44 parts together, bottom to top, shuffled ids."""
    rng = random.Random(9_176_003 * seed + 11)
    ids = list(range(STACK_PARTS))
    rng.shuffle(ids)
    first = rng.randint(19, 25)
    return [ids[:first], ids[first:]]


def stack_product(seed: int) -> dict:
    """Column-stack product document generated from ``seed``.

    Along +z a part is blocked by every part above it in its column, along
    -z by every part below it.  Each part allows one to three of six
    grippers; runs of neighbours tend to share one, so gripper changes can
    be saved by taking a column in order.
    """
    rng = random.Random(7_919 * seed + 5)
    columns = stack_columns(seed)
    n = STACK_PARTS
    grippers: dict[int, list[str]] = {}
    for col in columns:
        home = rng.randrange(len(STACK_GRIPPERS))
        for part in col:
            if rng.random() < 0.25:
                home = rng.randrange(len(STACK_GRIPPERS))
            extra = rng.sample(range(len(STACK_GRIPPERS)), rng.randint(0, 2))
            allowed = sorted({home, *extra})
            grippers[part] = [STACK_GRIPPERS[g] for g in allowed]
    up = [[0] * n for _ in range(n)]
    down = [[0] * n for _ in range(n)]
    contact_up = [[0] * n for _ in range(n)]
    contact_down = [[0] * n for _ in range(n)]
    for col in columns:
        for k, part in enumerate(col):
            for above in col[k + 1 :]:
                up[part][above] = 1
                down[above][part] = 1
            if k + 1 < len(col):
                contact_up[part][col[k + 1]] = 1
                contact_down[col[k + 1]][part] = 1
    zeros = [[0] * n for _ in range(n)]
    return {
        "name": f"stack-large-{seed}",
        "components": [
            {"id": i, "name": f"S{i + 1}", "grippers": grippers[i]} for i in range(n)
        ],
        "directions": list(STACK_DIRECTIONS),
        "interference": {"+z": up, "-z": down},
        "contact": {"+z": contact_up, "-z": contact_down},
        "connection": {"+z": zeros, "-z": zeros},
        "grippers": list(STACK_GRIPPERS),
    }
