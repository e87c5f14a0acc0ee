"""Golden digests: seeded GA results pinned byte for byte.

Each digest is the sha256 of ``repr((best, best_metrics, best_fitness,
stats))`` of one ``evolve`` run with the default settings, except that the
two smaller products run 100 generations.  A change that moves any draw of
the search RNG, any float summed in another order or any tie-break moves a
digest.  Speed work must keep them; a change that means to move seeded
results says so and re-pins them.  The search draws from a
``numpy.random.Generator``, whose streams may change between numpy
releases; these digests were pinned on numpy 2.4.6.
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
    ("product1", "A", 0): "179d89e93ce151f176865c02aa2b728b970e182bfead8abecc66187bb3a3d5ce",
    ("product1", "A", 1): "9c3ff3914efd78575cae961e72f4ef79b07b6567615364e82259178834f5b206",
    ("product1", "B", 0): "54b76efec75dd769bd8267e50efcca61071a524f42426650cebf44d408706db4",
    ("product1", "B", 1): "f2deef7c3ec451b07892bced833061091566d6c2098a39914476d45ec019e2d4",
    ("product1", "C", 0): "76ba912b57e35751d9aa551b3fe85df6e3e7f9491330b18e72c9fa2796e0b3f8",
    ("product1", "C", 1): "e57671c73adfde3348f7e76b38602d1016ee678a8f2df571ded7443e34edd09d",
    ("product1", "D", 0): "8fc84fa89a40263b7b16f5e1ffce66ec66394d7237a22b9d0ea565b7c935d44a",
    ("product1", "D", 1): "6ce3bca3f58d17f9444d8acbdb9e86141003850a2ac9646626d516c4edd663fa",
    ("product2", "A", 0): "3747247ff5238542be8a331328489dd198e863891e5649241a2201e2f4f44b6e",
    ("product2", "A", 1): "097f032ae13f56d3beb7f3aa2af754161e9655f767773747b1cf4ebe413a7bc2",
    ("product2", "B", 0): "af46751dcf71dae8f506a01f7352da6f076d6a7f16dd1ab455ba8553e7fc87c9",
    ("product2", "B", 1): "fa5f9f7afe2319d6c19ba358aedb43edffa4ba849d5b8643d7b62ec9d826b757",
    ("product2", "C", 0): "d83f8d8eec8a4057be600814e8a92800b0fe7d537ad4e004dfb2ff697d63e7d4",
    ("product2", "C", 1): "224b8fc1803d31923a15c99ff943cec98c53db68e51e14f8063a90a713612f88",
    ("product2", "D", 0): "c842979ccd727698b4c8838be93dbc35880cdc2c90849be0f83f3d9d7bf1e8ea",
    ("product2", "D", 1): "25e8e849b622f1ff6754b351881dbe1ce05e3831c7e789b979eae9caac03658b",
    ("stack6", "A", 0): "b969a0cfbfddd6ca22390831a13f936bda44d38c2e52b7064e7da86d6bb44e2d",
    ("stack6", "A", 1): "a41941c267c24b419474857207dfe62d52a1cc870646dfce8985f58c12001c6d",
    ("stack6", "B", 0): "f961afe368f969b4d10acef9163ad837826c1d9e39bdb53615e5c24e4511b68c",
    ("stack6", "B", 1): "bad4ac5d499f7745690745c0a9727c6cdedb8c93b0a094541fc49781a4987776",
    ("stack6", "C", 0): "6f4ed18ddbcde40eb1d3b1f7e377b3ca3dc94aeba2fc7875b4f4ffa12ba770bc",
    ("stack6", "C", 1): "6560cf71bae88d0d945dd5166d2e1547045fda23914a2199cbe0bf5f5f5ebc85",
    ("stack6", "D", 0): "4599f82e30d6217d22951c3a284e52fe5b443b6ccc6169106d613267e513bc07",
    ("stack6", "D", 1): "a3b0f8f13a2ca82d2355945114b65719672a22a8ede82f3a391d8e0dc6c6caa0",
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
    ("pair", "default", "A"): "5273e539807a491329dfd5a9baf634fdbb17fd0adece836c0480eb399cbe6f66",
    ("pair", "default", "D"): "0512b93def2d7a6903ba078db43583b1a0708d05370ad5bb6981b5d6a4994583",
    ("pair", "pop2", "A"): "cfe1d89f93e41dabca3238674eb16198049f29cfa286780d9b1789e4eb95aac7",
    ("pair", "pop2", "D"): "96db5515209248287e2fd5c9d5a44d1aa10ab382b6202c0d851c44e23ec7b422",
    ("pair", "cross0", "A"): "8263c477d78e312090a0620489a0b265fa64634aaf02d0eb1f8cec4115dc3842",
    ("pair", "cross0", "D"): "f8f1f884aeb6b12ebbefac2e27d73ba890892a73f6de5e662257ac0edd7d1185",
    ("pair", "cross1", "A"): "8f895c97c70351483eb1609bffe85200a761ed8bf1e04d1860eaa32fd598c7b8",
    ("pair", "cross1", "D"): "769ec88edadf7d7228475f777bdf7847a092047abf0ef68ca83de558b084204d",
    ("pair", "mut0", "A"): "d4bf1ff9eb059c9db0a0f8a1740b469b34ffd216b06d7f788094bf056ecfa091",
    ("pair", "mut0", "D"): "bb6980237db30da698d0d1cd12c992e9e446945391bbdd3fd9db7c087f3d35db",
    ("pair", "mut1", "A"): "4a4a983d83b457261cc0ba327325b1f1f7fb731d74e5ba0d19085960266e1e35",
    ("pair", "mut1", "D"): "505d6f54f60ab8ff37649f4bcc70a2f9c15de597786244fb611ff58767de3c51",
    ("product1", "pop2", "A"): "cdf8a0d3cc2cac050f85470868de22693662a7216300b06e5fe93a2d10ca3651",
    ("product1", "pop2", "D"): "78d88c2a3998a61ec6eca5940f95e3a1740f12c7e7609990768eafc766bd8647",
    ("product1", "cross0", "A"): "88e8d10600845992debe36193b5586d0ee84a037ec2b1589d456949e9ed72c3f",
    ("product1", "cross0", "D"): "d5a46300064160b6ac77e32d5499dc22f7f19fd2461bb9973b9ff1abef1ab678",
    ("product1", "cross1", "A"): "555c26e9aeb2308f8981ef54e2420e0887cfdd512ce419121c462181ca1937a4",
    ("product1", "cross1", "D"): "c92310222291dc68f1e93a01c10f8a4cc386c101b36a2ec8fe5d8b51085baf1d",
    ("product1", "mut0", "A"): "80b125fadd6455e71a03c07206b2265b4ead275672c82c6b46ad1eeee18272ee",
    ("product1", "mut0", "D"): "63fb4d048ea2b0854fefc6625190d0bd9c33f56fd24c9e9973696a01467df1f1",
    ("product1", "mut1", "A"): "3f09848ec39feefbcea30822b348ca8b056d5fa9db2b6911629246e6062771f3",
    ("product1", "mut1", "D"): "c93af0da8c079e88d299db7744efc7fa69d097fbac2c9f9bd525d8b22a6b1e96",
    ("stack6", "pop2", "A"): "079a32caf1a884105508be06ad80f7f64dcb53a02954746c0236401dbd819b65",
    ("stack6", "pop2", "D"): "f5a465abdd95a8da5cbeab9b609b604e1517752393d12300e3f430cae46f79e0",
    ("stack6", "cross0", "A"): "b13b62958b1dd557664246bc3aa48454899140abc965c62516381f2678c8c01e",
    ("stack6", "cross0", "D"): "c667327318633b68ab2b6608f8b2eabd3e55ed5ca470d028b703dd8a9d2723aa",
    ("stack6", "cross1", "A"): "3a01253cd02f6b3671b2892754624c4c6ca22fc5f45280ecaba2b15aca58e527",
    ("stack6", "cross1", "D"): "7d39078746b27c048751835a659959511a19a72dc10b68259c88f7a693f67afc",
    ("stack6", "mut0", "A"): "1b764ba480ea816afbedaed74f437f2a6d953d59d427d422be73b686493e9821",
    ("stack6", "mut0", "D"): "d8f4aaa912f0d5263b1da96c7c22ecb69cb64c6f917a60e16a02326df20bb9b5",
    ("stack6", "mut1", "A"): "34e12a6160c135d720cd91f92767ec097e87fbc47734ae81161021260abe1be3",
    ("stack6", "mut1", "D"): "6aa90bcc9921515c24ca274354fcb981645e9f9efcb15a6e28e520899f877216",
}


@pytest.mark.parametrize("product, settings, mode", list(EDGE_GOLDEN))
def test_edge_golden_digest(product, settings, mode):
    config = edge_config(mode, EDGE_SETTINGS[settings])
    assert run_digest(EDGE_PRODUCTS[product](), config) == EDGE_GOLDEN[product, settings, mode]
