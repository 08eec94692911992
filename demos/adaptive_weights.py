"""How the inverse-error combination weights move over time.

Run:  python3 demos/adaptive_weights.py
"""

import numpy as np

from qforecast.ensemble import (
    WeightParams,
    combine_predictions,
    evolve_weights,
    finalize_weights,
    weight_history_tsv,
    weights_from_predictions,
)

rng = np.random.default_rng(5)

# model 0 starts bad then improves; model 1 does the opposite
steps = 24
e0 = np.concatenate([np.full(12, 1.2), np.full(12, 0.2)]) + 0.05 * rng.random(steps)
e1 = np.concatenate([np.full(12, 0.3), np.full(12, 1.0)]) + 0.05 * rng.random(steps)
params = WeightParams(lam=0.85, gamma=0.85)  # the paper's step size and forgetting factor
state = evolve_weights(np.vstack([e0, e1]), params)

print("step  w0      w1      (accumulated, before final normalization)")
for k, w in enumerate(state.history, start=1):
    if k % 4 == 0:
        print(f"{k:4d}  {w[0]:.4f}  {w[1]:.4f}")
final = finalize_weights(state)
print(f"\nfinal simplex weights: {final.round(5)}  (sum = {final.sum():.12f})")
print("the forgetting factor lets the recently-better model 0 pull weight back")

with open("weight_history.tsv", "w") as fh:
    fh.write(weight_history_tsv(state))
print("wrote weight_history.tsv")

# --- combining real prediction series ---------------------------------------
truth = np.sin(np.linspace(0, 6, 40))
preds = np.vstack([truth + 0.3 * rng.normal(size=40), truth + 0.6 * rng.normal(size=40)])
w = finalize_weights(weights_from_predictions(truth, preds, params))
combo = combine_predictions(w, preds)
for name, series in (("model-0", preds[0]), ("model-1", preds[1]), ("ensemble", combo)):
    print(f"{name:9s} MSE {float(np.mean((series - truth) ** 2)):.4f}")
