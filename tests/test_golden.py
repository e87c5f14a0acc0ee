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
from adplan.product import product_from_dict
from conftest import load_fixture
from test_product import doc

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


def run_digest(model, config: GAConfig) -> str:
    r = evolve(model, config)
    text = repr((r.best, r.best_metrics, r.best_fitness, r.stats))
    return hashlib.sha256(text.encode()).hexdigest()


def digest(product: str, mode: str, seed: int) -> str:
    config = GAConfig(
        mode=FitnessMode.from_letter(mode), seed=seed, max_generations=GENERATIONS[product]
    )
    return run_digest(load_fixture(product), config)


@pytest.mark.parametrize("product, mode, seed", list(GOLDEN))
def test_golden_digest(product, mode, seed):
    assert digest(product, mode, seed) == GOLDEN[product, mode, seed]


# -- edge cases -----------------------------------------------------------------
#
# Settings where breeding can take a corner: no crossover children or no
# clones, an odd last crossover pair, every child mutated or none, a
# population of two, and products too small to draw a swap (n = 1) or with
# a single swap pair (n = 2).  All run at seed 0 for 60 generations.

EDGE_GENERATIONS = 60

EDGE_PRODUCTS = {
    "single": lambda: product_from_dict(doc(1, ["+x"])),
    "pair": lambda: product_from_dict(
        doc(2, ["+x", "-x"], {0: ["G1", "G2"], 1: ["G1", "G2"]}, ["G1", "G2"])
    ),
    "product1": lambda: load_fixture("product1"),
    "stack6": lambda: load_fixture("stack6"),
}

EDGE_SETTINGS = {
    "default": {},
    "pop2": {"population_size": 2},
    "cross0": {"crossover_rate": 0.0},
    "cross1": {"crossover_rate": 1.0},
    "mut0": {"mutation_prob": 0.0},
    "mut1": {"mutation_prob": 1.0},
}


def edge_config(mode: str, settings: dict) -> GAConfig:
    """The settings in one mode.  Mode D's clamp bounds must bracket each
    rate and stay above 0, so there a rate of 0 becomes 0.001 and the
    default bounds widen to take the rate in."""
    kwargs = dict(settings)
    if mode == "D":
        defaults = GAConfig()
        for rate, bounds in (
            ("mutation_prob", "mutation_bounds"),
            ("crossover_rate", "crossover_bounds"),
        ):
            if rate in kwargs:
                r = max(kwargs[rate], 0.001)
                lo, hi = getattr(defaults, bounds)
                kwargs[rate] = r
                kwargs[bounds] = (min(lo, r), max(hi, r))
    return GAConfig(
        mode=FitnessMode.from_letter(mode), seed=0, max_generations=EDGE_GENERATIONS, **kwargs
    )


#: (product, settings, mode) -> digest
EDGE_GOLDEN = {
    ("single", "default", "A"): "4a26e4936df167f0cffeea0c4a0f71f412b5293e766e5372ac4cc50f30735ef7",
    ("single", "default", "D"): "8bb680f12d44da6f0cec817887c17dd95af58d8a45ca1099d1ab55f7e5ae339a",
    ("pair", "default", "A"): "4d118746c0ae5ca4cc7facaf853d539589d7ec72b6a055dec334f49bf939e2d6",
    ("pair", "default", "D"): "a8a9317055767939d1389d295a6a509b6187ca6c886362fffed3400cfe6acd6d",
    ("pair", "pop2", "A"): "4b5cbf5bda0278c0a7e45710a251e997c20aba68ff26e5c457dcbb0e2f4d41ae",
    ("pair", "pop2", "D"): "4880fec7f26d711f5092db2b4569da1c88bb37f8f1c0117c9ce0589be859bbd4",
    ("pair", "cross0", "A"): "f532e5dc7b545a251a88e37abfbe9e8811e749a841bef121f280c9cb9aff479c",
    ("pair", "cross0", "D"): "a5974f8ce33818004b222191b42152acfd6b48afa0ace144a4bd155879d81694",
    ("pair", "cross1", "A"): "53ed12e338751ba65ced53f751b3dac9613622ad7f0f527346dc526990437f46",
    ("pair", "cross1", "D"): "887839de661d66b727c336e4a922f033faed016ad9f019ef3ce9c5ca0f42fcdc",
    ("pair", "mut0", "A"): "6e29990c99c004293a96e3159dd906628a16661956c81688adb21897daa70ce1",
    ("pair", "mut0", "D"): "84a0d57d35d7cbde37c197531fc22633db16881103e7393f2c8d458fa283baf5",
    ("pair", "mut1", "A"): "6736189e50b9ffc9452229abca79e9793a31d27ca0e304814e30ed2ccf78bfcf",
    ("pair", "mut1", "D"): "2d9eda7ac8f1ea4691fceb0cad25b158a49862fbf266b993cbbfe29b2fe9c156",
    ("product1", "pop2", "A"): "39befe49015e077cc06df53bcf4cc6dc788f3c2f784965e73fb13f14516b0cd1",
    ("product1", "pop2", "D"): "5b7a469096bf91b913bb72b13171e6ab1710c7b5947ee38522170eb3ebd140db",
    ("product1", "cross0", "A"): "1957c869c1384ea18f79e828b22fbbf40f706a8a7e21bd9f919acfd811aaa24c",
    ("product1", "cross0", "D"): "fb3ba29344ff3aa278628aa83f95ea830c5e117b305ed159e3e5a5e9d1b489b8",
    ("product1", "cross1", "A"): "2362a6fbb90a7180675eb8bc3a5a9a318530b736b69b2b6bca364a2d85e7615b",
    ("product1", "cross1", "D"): "123a03f338f4aeaf393f8ed351e41fe66a548b97b994aa930d768f9fff60014b",
    ("product1", "mut0", "A"): "d44b9b1081d5b62a75871717b6529660d16085203017887554a163897be993aa",
    ("product1", "mut0", "D"): "fcc9fc18355594b5c64055ef3eb1d6feeac8345c7806ad87379f67c31603fc76",
    ("product1", "mut1", "A"): "c901ca697cbf7a006b3805083a94b657ed10a1de7d20dfa7d9e75a1486f24191",
    ("product1", "mut1", "D"): "64089c8c6f109cdbb5b1b49ef7142182daaf536b4f900a7c2cf1cd1357787446",
    ("stack6", "pop2", "A"): "379305e898bd9ac3c6f181ee67676839c77999ccc73d45a56821368082fe6175",
    ("stack6", "pop2", "D"): "dbfca9aeb63ec94071ec5dcf75045e4928ecb75cb78d199526a70d50ef4fe94b",
    ("stack6", "cross0", "A"): "fc1da29bf69340a1fb6520707c03826308d2d41b855d48bcc0819d4763be7fdf",
    ("stack6", "cross0", "D"): "565240cd9d2897d249e704add08315b9d741d1051f05accc6da3d6e855f93224",
    ("stack6", "cross1", "A"): "e6d793a9288508047aa8c0619736c91ac0ab3e293250691c9bff208d27f1204c",
    ("stack6", "cross1", "D"): "a5bc211dfc0dfa90b15a76b9051795b93534ca9d9f5309d6cbc60d3458daadc3",
    ("stack6", "mut0", "A"): "3c8bae5755bfc36d31ec56202d322c24846ffdc94f8c54ab9696742fc0378252",
    ("stack6", "mut0", "D"): "f4da5078d4d0778f812c6c0aacba4ea60581011b456b0c22e063457e9432420f",
    ("stack6", "mut1", "A"): "1530538d2e3a4cc1c4ace004e2c85f84a183e6036a50dd99f77057b5d2a5fe6a",
    ("stack6", "mut1", "D"): "f7b8551897da7356b684dcbdf1adb1ab53ee1628104c7dd655dbe2bcde16ee5a",
}


@pytest.mark.parametrize("product, settings, mode", list(EDGE_GOLDEN))
def test_edge_golden_digest(product, settings, mode):
    config = edge_config(mode, EDGE_SETTINGS[settings])
    assert run_digest(EDGE_PRODUCTS[product](), config) == EDGE_GOLDEN[product, settings, mode]
