"""Per-layer timings at fixed sizes, and a finite-difference gradient check.

Usage: python3 perfbench/layers.py SEED OUT_JSON

Times the simulator on the (n_qubits, n_layers, batch) grid, one QLSTM cell
step and one BPTT minibatch, GP fits and an EI acquisition, the weight
evolution and the 2^2 enumeration.  Each timing is the median of repeats
that stop after about half a second.  At every grid point the gradient of
``vqc_gradients_batch`` is checked against central finite differences of
``run_vqc_batch`` along random directions; this checks the result, not
the method, so any exact gradient method passes.  Writes
``{"metrics": {name: [value, unit]}, "checks": [[what, ok, detail], ...]}``.
"""

import json
import statistics
import sys
import time

import numpy as np

from qforecast.bayesopt import KBestSet, acquire_next, enumerate_ensembles, gp_fit
from qforecast.ensemble import evolve_weights
from qforecast.qlstm import HyperConfig, init_qlstm
from qforecast.quantum import VQCBlock, run_vqc_batch, vqc_gradients_batch
from tracer import gradient_rows

GRID = ((2, 1, 32), (4, 2, 32), (6, 3, 32), (8, 3, 64))
REPEAT_SECONDS = 0.5
MAX_REPEATS = 7
FD_STEP = 1e-5
FD_TOLERANCE = 1e-7  # relative to the directional derivative's scale


def timed(fn):
    """(median seconds, first result) over repeats bounded by REPEAT_SECONDS."""
    samples, first = [], None
    while not samples or (sum(samples) < REPEAT_SECONDS and len(samples) < MAX_REPEATS):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
        if first is None:
            first = result
    return statistics.median(samples), first


def gates_per_row(n, layers):
    """Encoding rotations, then per layer a CNOT ring and three rotations a qubit."""
    return 2 * n + layers * ((n if n >= 2 else 0) + 3 * n)


def fd_check(block, inputs, upstream, theta_grad, input_grad, rng):
    """Directional derivatives: thetas only, inputs only, and both together."""
    def objective(thetas, x):
        shifted = VQCBlock(block.n_qubits, block.n_layers, thetas)
        return float(np.sum(upstream * run_vqc_batch(shifted, x)))

    worst = 0.0
    for use_theta, use_input in ((True, False), (False, True), (True, True)):
        d_theta = rng.normal(size=block.thetas.shape) * use_theta
        d_input = rng.normal(size=inputs.shape) * use_input
        plus = objective(block.thetas + FD_STEP * d_theta, inputs + FD_STEP * d_input)
        minus = objective(block.thetas - FD_STEP * d_theta, inputs - FD_STEP * d_input)
        numeric = (plus - minus) / (2.0 * FD_STEP)
        terms = np.concatenate([(theta_grad * d_theta).ravel(), (input_grad * d_input).ravel()])
        scale = max(1.0, float(np.sum(np.abs(terms))))
        worst = max(worst, abs(float(np.sum(terms)) - numeric) / scale)
    return worst


def main(seed: int, out_path: str) -> int:
    rng = np.random.default_rng(seed)
    metrics, checks = {}, []

    for n, layers, batch in GRID:
        tag = f"n{n}l{layers}b{batch}"
        block = VQCBlock.random(n, layers, rng)
        inputs = rng.normal(size=(batch, n))
        upstream = rng.normal(size=(batch, n))
        forward_s, _ = timed(lambda: run_vqc_batch(block, inputs))
        gradient_s, (theta_grad, input_grad) = timed(
            lambda: vqc_gradients_batch(block, inputs, upstream))
        metrics[f"quantum.forward_ms.{tag}"] = [forward_s * 1e3, "ms"]
        metrics[f"quantum.gradient_ms.{tag}"] = [gradient_s * 1e3, "ms"]
        metrics[f"quantum.gradient_amp_ops.{tag}"] = [
            gradient_rows(block, batch) * 2**n * gates_per_row(n, layers), "count"]
        error = fd_check(block, inputs, upstream, theta_grad, input_grad, rng)
        checks.append([f"gradient matches finite differences at {tag}",
                       bool(error <= FD_TOLERANCE), f"relative error {error:.3e}"])

    cell_config = HyperConfig(0.05, 1, 2, 4, 3, 32, 1)
    model = init_qlstm(cell_config, input_dim=7, seed=seed)
    x_t = rng.normal(size=(32, 7))
    step_s, _ = timed(lambda: model.step_batch(x_t, np.zeros((32, 4)), np.zeros((32, 2)),
                                               want_y=True))
    metrics["qlstm.cell_step_ms"] = [step_s * 1e3, "ms"]
    for n, layers in ((2, 1), (4, 2)):
        model = init_qlstm(HyperConfig(0.05, layers, n, 4, 3, 32, 1), input_dim=7, seed=seed)
        windows = rng.normal(size=(32, 3, 7))
        targets = rng.normal(size=32)

        def minibatch():
            preds, caches = model.forward_batch(windows, need_cache=True)
            return model.backward(caches, 2.0 * (preds - targets) / len(targets))

        minibatch_s, _ = timed(minibatch)
        metrics[f"qlstm.minibatch_ms.n{n}l{layers}"] = [minibatch_s * 1e3, "ms"]

    def observations(count):
        x = rng.random((count, 5))
        return x, np.sin(3.0 * x).sum(axis=1) + 0.05 * rng.normal(size=count)

    for count in (20, 40):
        x, y = observations(count)
        fit_s, gp = timed(lambda: gp_fit(x, y, seed=seed))
        metrics[f"bayesopt.gp_fit_ms.n{count}"] = [fit_s * 1e3, "ms"]
        if count == 20:
            acquire_s, _ = timed(lambda: acquire_next(gp, gp.best_observed, seed=seed))
            metrics["bayesopt.acquire_ms"] = [acquire_s * 1e3, "ms"]

    steps = 1600
    targets = rng.normal(size=steps)
    errors = np.abs(rng.normal(size=(2, steps)))
    evolve_s, _ = timed(lambda: evolve_weights(errors))
    metrics["ensemble.evolve_ms.t1600"] = [evolve_s * 1e3, "ms"]
    ksets, predictions = [], {}
    for m in range(2):
        configs = [HyperConfig(0.05, 1, 2, h, 3 + 2 * m, 32, 1) for h in (4, 6)]
        ksets.append(KBestSet(m, configs, [0.0, 0.0]))
        for config in configs:
            predictions[m, config] = targets + 0.3 * rng.normal(size=steps)
    enumerate_s, result = timed(
        lambda: enumerate_ensembles(ksets, lambda m, c: predictions[m, c], targets))
    metrics["bayesopt.enumerate_ms.k2m2"] = [enumerate_s * 1e3, "ms"]
    checks.append(["2^2 enumeration evaluates 4 tuples", result.n_tuples == 4,
                   f"{result.n_tuples} tuples"])

    with open(out_path, "w") as fh:
        json.dump({"metrics": metrics, "checks": checks}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), sys.argv[2]))
