"""Plan fitness: algebraic, adaptive two-phase, and fuzzy-ranked variants.

The algebraic form rewards feasible prefix length and penalizes orientation
and gripper changes:

    fitness = w_f * feasible_len
            + w_o * (n - 1 - orient_changes)
            + w_g * (n - 1 - grip_changes)

The adaptive variant scores plans by feasible prefix length alone until the
whole population is feasible for the first time, then switches (and stays)
on the full algebraic form.  The fuzzy variant normalizes the three metrics
into [0, 1] and ranks plans by the Mamdani quality output.

The algebraic and adaptive forms score one plan's metrics, or a population's
array-valued metrics row by row with the same arithmetic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dc_field
from itertools import repeat

import numpy as np

from .encoding import PlanMetrics
from .fuzzy import FuzzySystem, build_ranking_system


@dataclass(frozen=True)
class Weights:
    """Finite, non-negative weights of the algebraic fitness terms (sum must be > 0)."""

    feasible: float = 2.0
    orientation: float = 1.0
    gripper: float = 1.0

    def __post_init__(self) -> None:
        vals = (self.feasible, self.orientation, self.gripper)
        if not all(math.isfinite(w) and w >= 0 for w in vals):
            raise ValueError(f"fitness weights must be finite and non-negative, got {vals}")
        if sum(vals) <= 0:
            raise ValueError("at least one fitness weight must be positive")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.feasible, self.orientation, self.gripper)


class FitnessMode(enum.Enum):
    """The four run modes of the planner."""

    ALGEBRAIC = "A"
    FUZZY_RANKED = "B"
    ADAPTIVE = "C"
    ADAPTIVE_CONTROLLED = "D"

    @classmethod
    def from_letter(cls, letter: str) -> "FitnessMode":
        try:
            return cls(letter.upper())
        except ValueError:
            raise ValueError(
                f"unknown mode {letter!r}; expected one of A, B, C, D"
            ) from None

    @property
    def adaptive(self) -> bool:
        return self in (FitnessMode.ADAPTIVE, FitnessMode.ADAPTIVE_CONTROLLED)


def algebraic_fitness(m: PlanMetrics, weights: Weights = Weights()) -> float:
    n = m.n_parts
    return (
        weights.feasible * m.feasible_len
        + weights.orientation * (n - 1 - m.orient_changes)
        + weights.gripper * (n - 1 - m.grip_changes)
    )


def adaptive_fitness(m: PlanMetrics, weights: Weights, population_all_feasible: bool) -> float:
    """Phase 1 (not all feasible): prefix length only; phase 2: algebraic."""
    if not population_all_feasible:
        return m.feasible_len * 1.0  # a float, or a float array
    return algebraic_fitness(m, weights)


def rank_key(value: float, metrics: PlanMetrics) -> tuple[float, int, int]:
    """Sort key that puts the better plan first: higher fitness, then fewer
    orientation changes, then fewer gripper changes.
    """
    return (-value, metrics.orient_changes, metrics.grip_changes)


def best_row(values: np.ndarray, metrics: PlanMetrics) -> int:
    """The first row with the smallest ``rank_key`` over a population's
    fitness values and array-valued metrics."""
    return int(np.lexsort(rank_key(values, metrics)[::-1])[0])  # stable


def normalized_measures(m: PlanMetrics) -> dict[str, float]:
    """Map plan metrics onto the three [0, 1] inputs of the ranking system.

    Change counts are normalized by the feasible prefix's own change budget,
    max(feasible_len - 1, 1), so short prefixes are not rewarded for having
    few opportunities to change.
    """
    n = max(m.n_parts, 1)
    budget = max(m.feasible_len - 1, 1)
    return {
        "feasible_fraction": m.feasible_len / n,
        "orientation_stability": 1.0 - m.orient_changes / budget,
        "gripper_stability": 1.0 - m.grip_changes / budget,
    }


def fuzzy_fitness(m: PlanMetrics, system: FuzzySystem) -> float:
    """Quality centroid of the plan under the ranking system."""
    return system.infer(normalized_measures(m))


@dataclass
class EvalContext:
    """Everything fitness evaluation needs besides the plan metrics.

    ``all_feasible`` is the adaptive phase flag; it is given at construction
    or set once through ``latch``, and assigning it afterwards raises, so
    the phase only moves forward.  ``cache`` memoizes mode B's fuzzy
    quality of each distinct ``PlanMetrics``, so each one is inferred once;
    the other modes score straight from their formulas.
    """

    mode: FitnessMode = FitnessMode.ALGEBRAIC
    weights: Weights = Weights()
    all_feasible: bool = False
    cache: dict = dc_field(default_factory=dict)
    ranking_system: FuzzySystem | None = dc_field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.mode is FitnessMode.FUZZY_RANKED:
            self.ranking_system = build_ranking_system()

    def __setattr__(self, name: str, value) -> None:
        if name == "all_feasible" and name in self.__dict__:
            raise AttributeError("all_feasible changes only through latch()")
        super().__setattr__(name, value)

    def latch(self) -> None:
        """Enter the adaptive second phase (all plans scored algebraically)."""
        self.__dict__["all_feasible"] = True

    def evaluate(self, m: PlanMetrics):
        """Fitness of one plan's metrics, or a float array with one value
        per row of a population's array-valued metrics."""
        if self.mode.adaptive:
            return adaptive_fitness(m, self.weights, self.all_feasible)
        if self.mode is not FitnessMode.FUZZY_RANKED:
            return algebraic_fitness(m, self.weights)
        cache, n = self.cache, m.n_parts
        values = []
        for key in zip(*(np.atleast_1d(f).tolist() for f in m[:3]), repeat(n)):
            value = cache.get(key)  # a plain tuple finds its PlanMetrics key
            if value is None:
                key = PlanMetrics(*key)
                value = cache[key] = fuzzy_fitness(key, self.ranking_system)
            values.append(value)
        return np.array(values) if np.ndim(m.feasible_len) else values[0]
