"""Gaussian-process surrogate, expected improvement, and the BO loop.

Run:  python3 demos/bayesian_optimization.py
Writes gp_curve.tsv (grid, posterior mean/sd, EI) for plotting.
"""

import numpy as np

from qforecast.bayesopt import bo_minimize_unit, expected_improvement, gp_fit, gp_posterior
from qforecast.metaheuristics import ObjectiveTracker


def parabola(u) -> float:
    """(x - 0.7)^2 at the one coordinate of ``u``: its minimum is at 0.7."""
    return float((u[0] - 0.7) ** 2)


# --- fit a surrogate to five noisy sine observations ------------------------
x = np.array([[0.05], [0.3], [0.5], [0.75], [0.95]])
y = np.sin(6 * x[:, 0])
gp = gp_fit(x, y, seed=0)
print(f"fitted kernel: length_scale={gp.length_scales[0]:.3f} "
      f"signal_var={gp.signal_var:.3f} noise_var={gp.noise_var:.2e}")

grid = np.linspace(0, 1, 101)[:, None]
mean, var = gp_posterior(gp, grid)
ei = expected_improvement(gp, grid, gp.best_observed)
with open("gp_curve.tsv", "w") as fh:
    fh.write("x\tposterior_mean\tposterior_sd\tei\n")
    for g, m, v, e in zip(grid[:, 0], mean, np.sqrt(var), ei):
        fh.write(f"{g:.3f}\t{m:.6f}\t{v:.6f}\t{e:.6f}\n")
print("wrote gp_curve.tsv (posterior and acquisition surface over [0, 1])")

# --- run the full loop on a quadratic ----------------------------------------
# the tracker's budget of 20 evaluations: 5 initial points, then 15 BO rounds
xs, ys = bo_minimize_unit(ObjectiveTracker(parabola, budget=20), 1, n_init=5, seed=3)
order = np.argsort(ys)
print(f"\nBO on (x - 0.7)^2 with 20 evaluations:")
print(f"  best point {xs[order[0]][0]:.4f} with value {ys[order[0]]:.2e}")
print("  evaluation order:", " ".join(f"{p[0]:.2f}" for p in xs))
