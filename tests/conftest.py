"""Shared test fixtures: packaged products, frozen optima, RNG stubs."""

from __future__ import annotations

import json
import random
from importlib import resources
from pathlib import Path

import pytest

from adplan.product import ProductModel, product_from_dict

FIXTURE_DIR = Path(str(resources.files("adplan") / "fixtures"))

#: Frozen ground truth from the exhaustive oracle (printed by
#: tools/make_fixtures.py, weights (2, 1, 1)).  Regenerating the fixtures
#: must reproduce these or the tests fail loudly.
ORACLE_OPTIMA = {
    "chain3": 9.0,
    "free4": 13.0,
    "stack4": 11.0,
    "stack5": 16.0,
    "cage5": 18.0,
    "chain5": 16.0,
    "stack6": 20.0,
    "twin6": 21.0,
    "mixed5": 17.0,
    "clamp6": 19.0,
}

#: Frozen ground truth for the two product-scale fixtures from the
#: independent interval DP over multi-column stacks (tests/stack_oracle.py).
STACK_TARGETS = {"product1": 29.0, "product2": 68.0}

#: Pass/fail lines collected by the acceptance tests; printed in the
#: terminal summary so they are visible on green runs too.
ACCEPTANCE_LINES: list[str] = []


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.json"


def load_fixture(name: str) -> ProductModel:
    return product_from_dict(json.loads(fixture_path(name).read_text(encoding="utf-8")))


def stack_doc(n: int, seed: int = 0) -> tuple[dict, list[list[int]]]:
    """A two-column stack of n parts and its columns, bottom to top.

    Along +z a part is blocked by every part above it in its column, along
    -z by every part below it; part ids are shuffled over the columns and
    each part allows one or two of three grippers.
    """
    rng = random.Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)
    columns = [ids[: n // 2], ids[n // 2 :]]
    up = [[0] * n for _ in range(n)]
    down = [[0] * n for _ in range(n)]
    for col in columns:
        for k, part in enumerate(col):
            for above in col[k + 1 :]:
                up[part][above] = 1
                down[above][part] = 1
    catalog = ["G1", "G2", "G3"]
    zeros = [[0] * n for _ in range(n)]
    doc = {
        "name": f"stack{n}",
        "components": [
            {"id": i, "name": f"S{i + 1}", "grippers": sorted(rng.sample(catalog, rng.randint(1, 2)))}
            for i in range(n)
        ],
        "directions": ["+z", "-z"],
        "grippers": catalog,
        "interference": {"+z": up, "-z": down},
        "contact": {"+z": zeros, "-z": zeros},
        "connection": {"+z": zeros, "-z": zeros},
    }
    return doc, columns


@pytest.fixture(scope="session")
def fixture_models() -> dict[str, ProductModel]:
    names = list(ORACLE_OPTIMA) + list(STACK_TARGETS)
    return {name: load_fixture(name) for name in names}


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


class StubRandom(random.Random):
    """random.Random whose getrandbits answers come from a script.

    The GA draws every index below n by asking ``getrandbits`` for
    ``n.bit_length()`` bits until the value is below n
    (``encoding.randbelow``), so a scripted value below n is the index drawn.
    Scripted entries are popped in call order; when the script runs dry the
    real generator takes over, so tests can force just the first few
    choices (crossover cut points, tournament draws) and leave the rest
    honest.
    """

    def __init__(self, seed=0, *, bits=()):
        super().__init__(seed)
        self._bits = list(bits)

    def getrandbits(self, k):
        if self._bits:
            return self._bits.pop(0)
        return super().getrandbits(k)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
