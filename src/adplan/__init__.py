"""Disassembly and assembly sequence planning with a fuzzy-hybrid GA.

The package models a product as per-direction interference matrices, encodes
plans as three-section chromosomes (removal order, directions, grippers) and
searches for low tool-change, fully feasible plans with a genetic algorithm.
Fuzzy logic enters twice: a Mamdani ranking system can replace the algebraic
fitness, and a fuzzy controller can steer mutation and crossover rates at
run time.

The package root re-exports what the README, the demos and the tools use,
plus the public error classes; everything else lives in the submodules.
"""

from .bench import (
    ExperimentAborted,
    ExperimentSpec,
    ExperimentSpecError,
    run_experiment,
    spec_from_json,
    write_outputs,
)
from .encoding import PlanMetrics, plan_record
from .fitness import FitnessMode, Weights, algebraic_fitness, fuzzy_fitness, normalized_measures
from .fuzzy import IncompleteRuleBaseError, build_controller_system, build_ranking_system
from .ga import GAConfig, evolve
from .oracle import brute_force_optimal
from .product import (
    ProductError,
    ProductParseError,
    ProductValidationError,
    load_product,
    product_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentAborted",
    "ExperimentSpec",
    "ExperimentSpecError",
    "FitnessMode",
    "GAConfig",
    "IncompleteRuleBaseError",
    "PlanMetrics",
    "ProductError",
    "ProductParseError",
    "ProductValidationError",
    "Weights",
    "algebraic_fitness",
    "brute_force_optimal",
    "build_controller_system",
    "build_ranking_system",
    "evolve",
    "fuzzy_fitness",
    "load_product",
    "normalized_measures",
    "plan_record",
    "product_from_dict",
    "run_experiment",
    "spec_from_json",
    "write_outputs",
]
