"""Spans around the program's public calls, installed from outside.

The traced run replaces module attributes with timing wrappers, so the
program's own code is unchanged and the untraced run pays nothing.  Each
span records name, start, end, parent span and GA run id; when an
``evolve`` span closes, the spans under it are reduced to per-run totals
(self time is the evolve span minus its direct children) and dropped, which
keeps memory flat over a batch.  ``random.Random`` inside ``adplan.ga`` is
swapped for a subclass that counts ``sample`` and ``randrange`` calls and
otherwise draws the same numbers.
"""

from __future__ import annotations

import importlib
import random
import time
import types
from collections import Counter
from dataclasses import dataclass, field

#: (module, attribute, span name) for every wrapped call site.  Functions
#: are wrapped where the caller looks them up, e.g. ``adplan.ga.metrics``.
_SITES = (
    ("adplan.bench", "load_product", "product.load"),
    ("adplan.bench", "evolve", "ga.evolve"),
    ("adplan.ga", "metrics", "encoding.metrics"),
    ("adplan.ga", "crossover", "encoding.crossover"),
    ("adplan.ga", "mutate", "encoding.mutate"),
    ("adplan.ga", "select", "ga.select"),
    ("adplan.ga", "population_diversity", "ga.diversity"),
    ("adplan.ga", "controller_update", "ga.controller"),
    ("adplan.fitness", "fuzzy_fitness", "fitness.fuzzy_fitness"),
    ("adplan.fitness.EvalContext", "evaluate", "fitness.evaluate"),
    ("adplan.fuzzy.FuzzySystem", "infer", "fuzzy.infer"),
)


@dataclass
class RunTrace:
    """Per-run reduction of one evolve span."""

    mode: str
    generations: int
    seconds: float
    self_seconds: float
    calls: Counter = field(default_factory=Counter)
    busy: Counter = field(default_factory=Counter)
    rng: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.run_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.run_id = -1
        self.runs: list[RunTrace] = []
        self.infer_seconds: list[float] = []
        self.rng = Counter()

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn):
        names, parents, run_ids = self.names, self.parents, self.run_ids
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            run_ids.append(self.run_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def wrap_evolve(self, fn):
        inner = self.wrap("ga.evolve", fn)

        def traced(*args, **kwargs):
            self.run_id += 1
            sid = len(self.names)
            before = Counter(self.rng)
            result = inner(*args, **kwargs)
            t0 = time.perf_counter()
            self._close_run(sid, result, self.rng - before)
            # the reduction is the tracer's own cost: record it as a span so
            # the enclosing span's self time can leave it out
            self.names.append("tracer.reduce")
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.run_ids.append(self.run_id)
            self.starts.append(t0)
            self.ends.append(time.perf_counter())
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` under a span; for calls the benchmark makes itself."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _close_run(self, sid: int, result, rng: Counter) -> None:
        seconds = self.ends[sid] - self.starts[sid]
        run = RunTrace(result.mode.value, len(result.stats), seconds, seconds, rng=rng)
        for k in range(sid + 1, len(self.names)):
            name = self.names[k]
            dt = self.ends[k] - self.starts[k]
            run.calls[name] += 1
            run.busy[name] += dt
            if self.parents[k] == sid:
                run.self_seconds -= dt
            if name == "fuzzy.infer":
                self.infer_seconds.append(dt)
        self.runs.append(run)
        for lst in (self.names, self.parents, self.run_ids, self.starts, self.ends):
            del lst[sid + 1 :]

    def durations(self, name: str) -> list[float]:
        """Durations of the kept (outside-evolve) spans with this name."""
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every call site for the rest of the process."""
        for owner_path, attr, name in _SITES:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            wrapped = self.wrap_evolve(original) if name == "ga.evolve" else self.wrap(name, original)
            setattr(owner, attr, wrapped)
        ga = importlib.import_module("adplan.ga")
        ga.random = types.SimpleNamespace(Random=_counting_random(self.rng))


def _resolve(path: str):
    """A module, or a class when the last dotted name is capitalised."""
    module_path, _, last = path.rpartition(".")
    if last[:1].isupper():
        return getattr(importlib.import_module(module_path), last)
    return importlib.import_module(path)


def _counting_random(counts: Counter) -> type:
    class CountingRandom(random.Random):
        def sample(self, population, k, **kwargs):
            counts["sample"] += 1
            return super().sample(population, k, **kwargs)

        def randrange(self, start, stop=None, step=1):
            counts["randrange"] += 1
            return super().randrange(start, stop, step)

    return CountingRandom
