"""perfbench/tracer.py: every call site the benchmark wraps still exists.

The traced benchmark run replaces each ``_SITES`` attribute with a timing
wrapper.  A renamed or inlined site would only fail there, so this resolves
every entry and checks that a short ``evolve`` calls each ``adplan.ga``
site through the name the tracer patches.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from adplan.fitness import FitnessMode
from adplan.ga import GAConfig, evolve
from conftest import load_fixture

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_tracer_site_resolves_and_evolve_calls_each_ga_site(monkeypatch):
    tracer = load_tracer(monkeypatch)
    calls: Counter = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    ga_sites = set()
    for owner_path, attr, name in tracer._SITES:
        owner = tracer._resolve(owner_path)
        assert callable(getattr(owner, attr, None)), (owner_path, attr)
        if owner_path == "adplan.ga":
            ga_sites.add(name)
            monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    assert len(ga_sites) == 6
    # mode D runs the rate controller; 0.5 crossover breeds crossover
    # children and clones in every generation
    config = GAConfig(
        population_size=10, crossover_rate=0.5, max_generations=3,
        mode=FitnessMode.ADAPTIVE_CONTROLLED,
    )
    evolve(load_fixture("cage5"), config)
    assert set(calls) == ga_sites
    assert calls["encoding.metrics"] == calls["ga.diversity"] == 3
    assert calls["ga.select"] == calls["encoding.mutate"] == calls["ga.controller"] == 2
