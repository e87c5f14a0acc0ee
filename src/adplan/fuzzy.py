"""Mamdani fuzzy inference with triangular membership functions.

Inference uses min for rule conjunction, min for implication, max for
aggregation and centroid defuzzification over a fixed uniform sampling of
the output universe (201 points).  Degenerate triangle shoulders (left == peak
or peak == right) are allowed and give vertical edges.

Two prebuilt systems ship with the package in ``data/fuzzy_systems.json``:
a plan-ranking system (three normalized plan measures in, quality out) and a
GA parameter controller (stagnation and diversity in, one multiplier out per
controlled parameter).  The controller has two outputs, which is modelled as
two single-output systems sharing the same rule inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

#: Number of sample points used for centroid defuzzification.
DEFUZZ_RESOLUTION = 201


class IncompleteRuleBaseError(ValueError):
    """No rule fired for a given input vector; the rule base has a hole."""


@dataclass(frozen=True)
class TriangularMF:
    label: str
    left: float
    peak: float
    right: float

    def __post_init__(self) -> None:
        if not self.left <= self.peak <= self.right:
            raise ValueError(
                f"membership function {self.label!r}: need left <= peak <= right, "
                f"got ({self.left}, {self.peak}, {self.right})"
            )

    def membership(self, x: float) -> float:
        if x < self.left or x > self.right:
            return 0.0
        if x == self.peak:
            return 1.0
        if x < self.peak:
            return (x - self.left) / (self.peak - self.left)
        return (self.right - x) / (self.right - self.peak)

    def grid(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized membership over a sample grid."""
        out = np.zeros_like(xs)
        if self.peak > self.left:
            m = (xs >= self.left) & (xs < self.peak)
            out[m] = (xs[m] - self.left) / (self.peak - self.left)
        if self.right > self.peak:
            m = (xs > self.peak) & (xs <= self.right)
            out[m] = (self.right - xs[m]) / (self.right - self.peak)
        out[xs == self.peak] = 1.0
        return out


@dataclass(frozen=True)
class LinguisticVariable:
    name: str
    lo: float
    hi: float
    mfs: tuple[TriangularMF, ...]

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"variable {self.name!r}: empty universe [{self.lo}, {self.hi}]")
        labels = [mf.label for mf in self.mfs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"variable {self.name!r}: duplicate membership labels")
        for mf in self.mfs:
            if mf.left < self.lo or mf.right > self.hi:
                raise ValueError(
                    f"variable {self.name!r}: membership {mf.label!r} leaves the universe"
                )
        xs = np.linspace(self.lo, self.hi, DEFUZZ_RESOLUTION)
        cover = np.zeros_like(xs)
        for mf in self.mfs:
            cover = np.maximum(cover, mf.grid(xs))
        if (cover <= 0.0).any():
            hole = xs[int(np.argmin(cover))]
            raise ValueError(
                f"variable {self.name!r}: no membership covers x = {hole:.4f}"
            )

    def mf(self, label: str) -> TriangularMF:
        for m in self.mfs:
            if m.label == label:
                return m
        raise KeyError(f"variable {self.name!r} has no membership {label!r}")

    def clamp(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)


@dataclass(frozen=True)
class FuzzyRule:
    """IF conjunction of (input variable, label) THEN output label."""

    antecedents: tuple[tuple[str, str], ...]
    consequent: str

    def __post_init__(self) -> None:
        if not self.antecedents:
            raise ValueError("rule has no antecedents")


@dataclass(frozen=True, eq=False)
class FuzzySystem:
    """Single-output Mamdani system over named input variables."""

    inputs: tuple[LinguisticVariable, ...]
    output: LinguisticVariable
    rules: tuple[FuzzyRule, ...]
    _grid: np.ndarray = field(init=False, repr=False)
    _out_grids: dict = field(init=False, repr=False)
    _compiled: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("fuzzy system has no rules")
        by_name = {v.name: v for v in self.inputs}
        if len(by_name) != len(self.inputs):
            raise ValueError("duplicate input variable names")
        compiled = []
        for rule in self.rules:
            ants = []
            for var_name, label in rule.antecedents:
                if var_name not in by_name:
                    raise ValueError(f"rule references unknown input {var_name!r}")
                var = by_name[var_name]
                ants.append((var, var.mf(label)))
            self.output.mf(rule.consequent)  # raises KeyError if unknown
            compiled.append((tuple(ants), rule.consequent))
        xs = np.linspace(self.output.lo, self.output.hi, DEFUZZ_RESOLUTION)
        out_grids = {mf.label: mf.grid(xs) for mf in self.output.mfs}
        object.__setattr__(self, "_grid", xs)
        object.__setattr__(self, "_out_grids", out_grids)
        object.__setattr__(self, "_compiled", tuple(compiled))

    def infer(self, values: Mapping[str, float]) -> float:
        """Run Mamdani inference and return the defuzzified output.

        Inputs are clamped into their universes.  Raises KeyError if a rule
        needs an input not present in ``values`` and IncompleteRuleBaseError
        if no rule fires at all.
        """
        # strongest firing per consequent label; aggregation then needs only
        # one clip per label instead of one per rule
        strengths: dict[str, float] = {}
        for ants, consequent in self._compiled:
            alpha = 1.0
            for var, mf in ants:
                try:
                    x = values[var.name]
                except KeyError:
                    raise KeyError(
                        f"missing input {var.name!r} for fuzzy inference"
                    ) from None
                alpha = min(alpha, mf.membership(var.clamp(x)))
                if alpha == 0.0:
                    break
            if alpha > 0.0 and alpha > strengths.get(consequent, 0.0):
                strengths[consequent] = alpha
        if not strengths:
            raise IncompleteRuleBaseError(
                f"no rule fired for inputs {dict(values)!r}"
            )
        agg = np.zeros_like(self._grid)
        for label, alpha in strengths.items():
            np.maximum(agg, np.minimum(alpha, self._out_grids[label]), out=agg)
        total = agg.sum()
        return float((self._grid * agg).sum() / total)


class ControllerSystems(NamedTuple):
    """The two single-output systems that make up the parameter controller."""

    mutation: FuzzySystem
    crossover: FuzzySystem


# -- configuration loading --------------------------------------------------


def _parse_variable(spec: Mapping) -> LinguisticVariable:
    lo, hi = spec["universe"]
    mfs = tuple(TriangularMF(lab, a, b, c) for lab, a, b, c in spec["mfs"])
    return LinguisticVariable(spec["name"], float(lo), float(hi), mfs)


def _parse_rules(specs: list) -> tuple[FuzzyRule, ...]:
    rules = []
    for r in specs:
        ants = tuple(sorted(r["if"].items()))
        rules.append(FuzzyRule(ants, r["then"]))
    return tuple(rules)


@lru_cache(maxsize=1)
def _default_config() -> dict:
    text = resources.files("adplan").joinpath("data/fuzzy_systems.json").read_text("utf-8")
    return json.loads(text)


def load_fuzzy_config(path: str | Path | None = None) -> dict:
    """Load a fuzzy-system configuration; None gives the packaged default."""
    if path is None:
        return _default_config()
    return json.loads(Path(path).read_text(encoding="utf-8"))


def build_ranking_system(config: Mapping | None = None) -> FuzzySystem:
    """Build the plan-ranking system (three plan measures in, quality out)."""
    cfg = (config or load_fuzzy_config())["ranking"]
    return FuzzySystem(
        inputs=tuple(_parse_variable(v) for v in cfg["inputs"]),
        output=_parse_variable(cfg["output"]),
        rules=_parse_rules(cfg["rules"]),
    )


def build_controller_system(config: Mapping | None = None) -> ControllerSystems:
    """Build the two-output GA parameter controller.

    Returns one system per controlled parameter (mutation and crossover
    multipliers); both share the same input variables.
    """
    cfg = (config or load_fuzzy_config())["controller"]
    inputs = tuple(_parse_variable(v) for v in cfg["inputs"])
    systems = {}
    for out_spec in cfg["outputs"]:
        systems[out_spec["name"]] = FuzzySystem(
            inputs=inputs,
            output=_parse_variable(out_spec),
            rules=_parse_rules(out_spec["rules"]),
        )
    try:
        return ControllerSystems(systems["mutation_scale"], systems["crossover_scale"])
    except KeyError as exc:
        raise ValueError(f"controller config lacks output {exc.args[0]!r}") from None
