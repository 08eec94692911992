"""Exercise the three tuners on analytic objectives with known optima.

Run:  python3 demos/tuners.py
"""

import functools

import numpy as np

from qforecast.hyperspace import gray_decode
from qforecast.metaheuristics import ObjectiveTracker, hybrid_minimize, pso_minimize, qga_minimize

BOUNDS = (-5.12, 5.12)  # the customary box of both sphere and rastrigin


def sphere(x) -> float:
    """Sum of squares: 0 at the origin."""
    return float(x @ x)


def rastrigin(x) -> float:
    """A cosine-rippled sphere with a local minimum near each integer point: 0 at the origin."""
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


def one_max(bits) -> float:
    """Negated count of ones, so the all-ones string is the minimum."""
    return -float(np.sum(bits))


def tracker(objective, budget: int) -> ObjectiveTracker:
    """A tracker of ``budget`` evaluations whose trace rows store each point as a list."""
    return ObjectiveTracker(objective, budget=budget, describe=np.ndarray.tolist)


def best(searched: ObjectiveTracker) -> dict:
    """A search's result: the trace row of its first lowest objective."""
    return min(searched.trace, key=lambda row: row["objective"])


# --- particle swarm on the 4-D sphere --------------------------------------
# the tracker holds the budget: an initial sweep and 200 more of 20 particles
swarm = tracker(sphere, budget=20 * 201)
pso_minimize(swarm, [BOUNDS] * 4, n_particles=20, seed=42, init_positions=None)
print(f"PSO on sphere(4): best {best(swarm)['objective']:.3e} "
      f"after {swarm.n_evals} evaluations")

# --- genetic search on 16-bit OneMax ----------------------------------------
# the objective reads the measured bits themselves, so each is decoded to a copy;
# the budget covers all 50 generations of 20
genetic = tracker(one_max, budget=20 * 50)
qga_minimize(genetic, 16, pop_size=20, n_generations=50, seed=7, decode=np.copy)
row = best(genetic)
print(f"QGA on OneMax(16): {int(-row['objective'])}/16 ones -> {row['config']}")

# --- hybrid vs plain swarm on 4-D rastrigin at equal budget -----------------
# the genetic phase decodes each dimension from 12 Gray-coded bits, as the
# tune command's SearchSpace.decode_bits does for a hyperparameter box
budget = 4000
bounds = [BOUNDS] * 4
decode_bits = functools.partial(gray_decode, lows=[BOUNDS[0]] * 4, highs=[BOUNDS[1]] * 4,
                                widths=[12] * 4)
hybrid_finals, plain_finals = [], []
for seed in range(10):
    hybrid, plain = tracker(rastrigin, budget), tracker(rastrigin, budget)
    hybrid_minimize(hybrid, bounds, seed=seed, decode_bits=decode_bits, n_bits=48)
    pso_minimize(plain, bounds, n_particles=20, seed=seed, init_positions=None)
    hybrid_finals.append(best(hybrid)["objective"])
    plain_finals.append(best(plain)["objective"])
print(f"rastrigin(4), {budget} evaluations, 10 seeds:")
print(f"  hybrid medians {np.median(hybrid_finals):.4f}  "
      f"plain swarm {np.median(plain_finals):.4f}")
print("  per-seed hybrid:", " ".join(f"{v:.2f}" for v in hybrid_finals))
print("  per-seed plain :", " ".join(f"{v:.2f}" for v in plain_finals))
