"""Cross-check the GA against the exact oracle on small products.

The oracle solves a DP over (removed set, last direction, last gripper), so
its optimum is exact; the states column counts the DP states it reached.
On products this size the GA should match it from almost any seed.

Run:  python3 demos/05_oracle_check.py
"""

from importlib import resources
from pathlib import Path

from adplan import GAConfig, Weights, brute_force_optimal, evolve, load_product

FIXTURES = Path(str(resources.files("adplan") / "fixtures"))


def main() -> None:
    weights = Weights(2.0, 1.0, 1.0)
    print(f"{'product':<10} {'oracle':>7} {'states':>9} {'plans':>6} {'GA best':>8}  match")
    for name in ("chain3", "free4", "stack4", "mixed5", "cage5", "clamp6"):
        model = load_product(FIXTURES / f"{name}.json")
        oracle = brute_force_optimal(model, weights)
        ga = evolve(model, GAConfig(
            population_size=60, mutation_prob=0.8, crossover_rate=0.4,
            max_generations=200, weights=weights, seed=0,
        ))
        match = "yes" if abs(ga.best_algebraic - oracle.optimal_fitness) < 1e-9 else "NO"
        plans = f"{len(oracle.optimal_plans)}{'+' if oracle.truncated else ''}"
        print(f"{name:<10} {oracle.optimal_fitness:>7.1f} {oracle.states_explored:>9} "
              f"{plans:>6} {ga.best_algebraic:>8.1f}  {match}")

    print("\nthe oracle refuses products above its component cap; for larger"
          "\nproducts the benchmark harness tracks success against a target"
          "\nfitness instead (see the experiment subcommand).")


if __name__ == "__main__":
    main()
