"""Exercise the three tuners on analytic benchmarks.

Run:  python3 demos/tuners.py
"""

import numpy as np

from qforecast.benchmarks import RASTRIGIN_BOUNDS, SPHERE_BOUNDS, one_max, rastrigin, sphere
from qforecast.metaheuristics import ObjectiveTracker, hybrid_minimize, pso_minimize, qga_minimize

# --- particle swarm on the 4-D sphere --------------------------------------
# the tracker holds the budget: an initial sweep and 200 more of 20 particles
result = pso_minimize(ObjectiveTracker(sphere, budget=20 * 201), [SPHERE_BOUNDS] * 4,
                      n_particles=20, seed=42)
print(f"PSO on sphere(4): best {result.best_value:.3e} after {result.n_evals} evaluations")

# --- genetic search on 16-bit OneMax ----------------------------------------
result = qga_minimize(ObjectiveTracker(one_max), 16, pop_size=20, n_generations=50, seed=7)
print(f"QGA on OneMax(16): {int(-result.best_value)}/16 ones -> {result.best_bits}")

# --- hybrid vs plain swarm on 4-D rastrigin at equal budget -----------------
budget = 4000
bounds = [RASTRIGIN_BOUNDS] * 4
hybrid_finals, plain_finals = [], []
for seed in range(10):
    hybrid_finals.append(
        hybrid_minimize(ObjectiveTracker(rastrigin, budget=budget), bounds, seed=seed).best_value
    )
    plain_finals.append(
        pso_minimize(ObjectiveTracker(rastrigin, budget=budget), bounds, n_particles=20,
                     seed=seed).best_value
    )
print(f"rastrigin(4), {budget} evaluations, 10 seeds:")
print(f"  hybrid medians {np.median(hybrid_finals):.4f}  "
      f"plain swarm {np.median(plain_finals):.4f}")
print("  per-seed hybrid:", " ".join(f"{v:.2f}" for v in hybrid_finals))
print("  per-seed plain :", " ".join(f"{v:.2f}" for v in plain_finals))
