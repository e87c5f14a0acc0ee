"""Golden digests: seeded GA results pinned byte for byte.

Each digest is the sha256 of ``repr((best, best_metrics, best_fitness,
stats))`` of one ``evolve`` run with the default settings, except that the
two smaller products run 100 generations.  A change that moves any draw of
the search RNG, any float summed in another order or any tie-break moves a
digest.  Speed work must keep them; a change that means to move seeded
results says so and re-pins them.
"""

from __future__ import annotations

import hashlib

import pytest

from adplan.fitness import FitnessMode
from adplan.ga import GAConfig, evolve
from conftest import load_fixture

GENERATIONS = {"product1": 100, "product2": 300, "stack6": 100}

#: (product, mode, seed) -> digest
GOLDEN = {
    ("product1", "A", 0): "f3e44059c23851973686943fcd22ec0b0aa3a3e01e44a5633a345883857b5d68",
    ("product1", "A", 1): "bc4c5026c8151eedd9f59f93afa5e3018076c0bc700f18f9d68d3e1dcc33086f",
    ("product1", "B", 0): "442b96ee948a548766f4ffec1fe49008858f38083f64de57026ab9843043cd50",
    ("product1", "B", 1): "4eb9671d8d794e7d64ce467678c5c822af0e62c4f30b5fbe9229bf03663f7697",
    ("product1", "C", 0): "d9b626bbc948040e0046573679c815187b83216c4ad0570fbbd0f2c9ac3d6220",
    ("product1", "C", 1): "e3d26f7ca76963df3386072d5af1bb3cb5e569a46072371b1a26df968c773e44",
    ("product1", "D", 0): "714ff5d7ab4a82874d10cc0058b4389b72c4bd7dd63b09214e0f9219299295a4",
    ("product1", "D", 1): "d3c05be971be6176ed09f8f4d4125e39153a35858d2c1ef80ae4d2049fc56ab0",
    ("product2", "A", 0): "2f4dbfd15f251c7dfd51939ae638920836389e84d8b4b0665877fc419ba08c57",
    ("product2", "A", 1): "b4f2d0e4dfc51f8a7495106f8af49479b65b8356b3c0196adc9a6052a5a3cf53",
    ("product2", "B", 0): "fa507b83c438a27899ff0f26c96b23e3818a055c9a61a2c6199445123dd01398",
    ("product2", "B", 1): "63952be8c9e479e3c49bfcee0d8a41840c2df8fcccbdcef5b59f066489e25bb2",
    ("product2", "C", 0): "bc4305f900e1125af4a10d988d03cf595441ce30368283c5633de402ff22d73b",
    ("product2", "C", 1): "6a1e86030639353287bf10072fcbd80af34f5ae56685e1778d5f0216c8f0901a",
    ("product2", "D", 0): "0e51eacda4f13411f8a2ee8556bab621be04e9421ace2b3f074c43a9602ed810",
    ("product2", "D", 1): "50688aa610f47311882204e2bde7f9b04ff28e93fd3942116127bab2045e285a",
    ("stack6", "A", 0): "76436658a0f63e7037843828bf180fac8ffbce74a3cdf492ca196de70ed5f0c3",
    ("stack6", "A", 1): "d0a224a129d7672ccc9d1af537117085120bc6edc180cbd2adc924a53d73062f",
    ("stack6", "B", 0): "30ecfcff2372baabc51115086465b6fcd906e0163e57347f196151fb015dacbd",
    ("stack6", "B", 1): "8d011a289bbbf1564549012a7be84ee533975c1b87d5bcb387c4551ddd992325",
    ("stack6", "C", 0): "f2f0a42827692fe9f8a6b75d4f94cb44b08f10312fae193853ca8e84e1c205cc",
    ("stack6", "C", 1): "7c001846ffbea33eceed1c9b00c7f5736b6359a2148c64bd85184c86d746df9e",
    ("stack6", "D", 0): "8b68c04408239170e9daece47094cb264d6e26d26ba94cf6bba5333a3aec5c61",
    ("stack6", "D", 1): "b6682c422cb92e46359d86e817f6833c872bacf00a71af6d429123e4398a3b99",
}


def digest(product: str, mode: str, seed: int) -> str:
    config = GAConfig(
        mode=FitnessMode.from_letter(mode), seed=seed, max_generations=GENERATIONS[product]
    )
    r = evolve(load_fixture(product), config)
    text = repr((r.best, r.best_metrics, r.best_fitness, r.stats))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("product, mode, seed", list(GOLDEN))
def test_golden_digest(product, mode, seed):
    assert digest(product, mode, seed) == GOLDEN[product, mode, seed]
