"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with ``pytest -v -s`` to see them).
"""

import itertools
import time
import warnings

import numpy as np
import pytest

warnings.filterwarnings("ignore", message="zero IQR")

from qforecast.bayesopt import (
    KBestSet,
    _finalize_fit,
    bo_minimize_unit,
    expected_improvement,
    gp_posterior,
)
from qforecast.cli import main as cli_main
from qforecast.data import (
    ingest_csv,
    prepare_dataset,
    scale_in_place,
    split_point,
    synth_series,
    write_csv,
)
from qforecast.ensemble import WeightParams, evolve_weights, finalize_weights
from qforecast.metaheuristics import hybrid_minimize, pso_minimize, qga_minimize
from qforecast.qlstm import HyperConfig, init_qlstm
from qforecast.quantum import (
    VQCBlock,
    compile_blocks,
    product_state,
    run_vqc_batch,
    vqc_gradients_batch,
)
from qforecast.runner import (
    evaluate_ensemble,
    run_ensemble,
    train_base_model,
    probe_objective,
    validation_targets,
)

from objectives import (RASTRIGIN_BOUNDS, SPHERE_BOUNDS, best_row, gray_genome, make_tracker,
                        one_max, quadratic_1d, rastrigin, sphere)
from oracles import central_difference, dense_vqc_expectations, inverse_transform, loop_oracle


class Criterion:
    """Context manager printing one pass/fail line per criterion."""

    def __init__(self, number: int, name: str, limit_seconds: float):
        self.number = number
        self.name = name
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[criterion {self.number}] {self.name}: {status} ({elapsed:.1f}s)", flush=True)
        if exc_type is None and elapsed > self.limit:
            pytest.fail(f"criterion {self.number} exceeded its {self.limit:.0f}s runtime limit "
                        f"({elapsed:.1f}s)")
        return False


# ---------------------------------------------------------------------------
# 1. Quantum correctness
# ---------------------------------------------------------------------------


def test_criterion_1_quantum_correctness():
    with Criterion(1, "quantum correctness", 30.0):
        rng = np.random.default_rng(101)
        # dense-unitary oracle equivalence, n <= 4
        for _ in range(25):
            n = int(rng.integers(1, 5))
            layers = int(rng.integers(1, 3))
            block = VQCBlock.random(n, layers, rng)
            x = rng.normal(size=n)
            got = run_vqc_batch(block, x[None])[0]
            want = dense_vqc_expectations(n, layers, block.thetas, x)
            np.testing.assert_allclose(got, want, atol=1e-9)
        # the compiled blocks are unitary, so every output state keeps norm 1
        for _ in range(30):
            n = int(rng.integers(1, 6))
            layers = int(rng.integers(1, 4))
            blocks = [VQCBlock.random(n, layers, rng) for _ in range(2)]
            unitaries = compile_blocks(blocks)
            for k in range(len(blocks)):
                w_t = unitaries[:, k * 2**n:(k + 1) * 2**n]
                assert np.abs(w_t @ w_t.conj().T - np.eye(2**n)).max() <= 1e-12
            states = product_state(rng.normal(size=(8, n))) @ unitaries
            norms = np.sum(np.abs(states.reshape(8, len(blocks), 2**n)) ** 2, axis=2)
            np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-10)
        # adjoint gradient vs central finite differences on 100 random circuits
        for _ in range(100):
            n = int(rng.integers(1, 4))
            layers = int(rng.integers(1, 3))
            block = VQCBlock.random(n, layers, rng)
            x = rng.normal(size=n)
            upstream = rng.normal(size=n)
            adjoint_grad, _ = vqc_gradients_batch(block, x[None], upstream[None])

            def value(thetas):
                return float(upstream @ run_vqc_batch(VQCBlock(n, layers, thetas), x[None])[0])

            fd_grad = central_difference(value, block.thetas, h=1e-5)
            np.testing.assert_allclose(adjoint_grad, fd_grad, rtol=1e-4, atol=1e-8)


# ---------------------------------------------------------------------------
# 2. BPTT correctness
# ---------------------------------------------------------------------------


def test_criterion_2_bptt_correctness():
    with Criterion(2, "sequence-loss gradients vs finite differences", 120.0):
        for n_qubits, seq in ((2, 3), (3, 2), (2, 2)):
            rng = np.random.default_rng(200 + n_qubits + seq)
            cfg = HyperConfig(0.05, 1, n_qubits, 2, seq, 4, 1)
            model = init_qlstm(cfg, input_dim=2, seed=300 + n_qubits)
            x = rng.normal(size=(4, seq, 2))
            y = rng.normal(size=4)
            preds, caches = model.forward_batch(x, need_cache=True)
            grads = model.backward(caches, 2.0 * (preds - y) / len(y))

            params = model.param_arrays()
            for key, arr in params.items():
                fd = np.zeros_like(arr)
                flat, flat_fd = arr.reshape(-1), fd.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + 1e-6
                    up, _ = model.forward_batch(x)
                    flat[i] = orig - 1e-6
                    down, _ = model.forward_batch(x)
                    flat[i] = orig
                    flat_fd[i] = (float(np.mean((up - y) ** 2))
                                  - float(np.mean((down - y) ** 2))) / 2e-6
                np.testing.assert_allclose(grads[key], fd, rtol=1e-3, atol=1e-7,
                                           err_msg=f"{key} (n={n_qubits}, seq={seq})")


# ---------------------------------------------------------------------------
# 3. Optimizer benchmarks
# ---------------------------------------------------------------------------


def test_criterion_3_optimizer_benchmarks():
    with Criterion(3, "swarm/genetic/hybrid benchmarks", 120.0):
        # 200 sweeps of 20 particles after the initial one
        pso = make_tracker(sphere, budget=20 * 201)
        pso_minimize(pso, [SPHERE_BOUNDS] * 4, n_particles=20, seed=42, init_positions=None)
        assert best_row(pso)["objective"] < 1e-3

        # decode=np.copy: the best decoded point is the best measured bits
        archive = qga_minimize(make_tracker(one_max, budget=20 * 50), 16, pop_size=20,
                               n_generations=50, seed=7, decode=np.copy)
        best_value, best_decoded = min(archive, key=lambda pair: pair[0])
        assert best_value == -16.0 and np.all(best_decoded == 1)

        budget = 4000
        bounds = [RASTRIGIN_BOUNDS] * 4
        hybrid_finals, plain_finals = [], []
        for seed in range(10):
            hybrid, plain = (make_tracker(rastrigin, budget=budget) for _ in range(2))
            hybrid_minimize(hybrid, bounds, seed=seed, **gray_genome(bounds))
            pso_minimize(plain, bounds, n_particles=20, seed=seed, init_positions=None)
            hybrid_finals.append(best_row(hybrid)["objective"])
            plain_finals.append(best_row(plain)["objective"])
        assert np.median(hybrid_finals) <= np.median(plain_finals)


# ---------------------------------------------------------------------------
# 4. Gaussian process and acquisition correctness
# ---------------------------------------------------------------------------


def test_criterion_4_gp_ei_correctness():
    with Criterion(4, "GP posterior / EI closed-form agreement and BO search", 30.0):
        from oracles import expected_improvement_oracle, gp_posterior_oracle

        x = np.array([[0.05], [0.3], [0.5], [0.75], [0.95]])
        y = np.sin(6 * x[:, 0])
        hyper = (np.array([0.2]), 1.3, 1e-6)
        gp = _finalize_fit(x, y, *hyper, float(np.mean(y)))  # at fixed hyperparameters
        grid = np.linspace(0, 1, 20)[:, None]
        mean, var = gp_posterior(gp, grid)
        want_mean, want_var = gp_posterior_oracle(x, y, grid, hyper[0], hyper[1],
                                                  hyper[2], float(np.mean(y)))
        np.testing.assert_allclose(mean, want_mean, atol=1e-6)
        np.testing.assert_allclose(var, want_var, atol=1e-6)
        ei = expected_improvement(gp, grid, gp.best_observed)
        np.testing.assert_allclose(ei, expected_improvement_oracle(want_mean, want_var,
                                                                   gp.best_observed),
                                   atol=1e-8)

        bo = make_tracker(quadratic_1d(0.7), budget=20)
        bo_minimize_unit(bo, 1, n_init=5, seed=3)
        assert len(bo.trace) == 20
        assert abs(best_row(bo)["config"][0] - 0.7) <= 0.05


# ---------------------------------------------------------------------------
# 5. Ensemble weight mathematics
# ---------------------------------------------------------------------------


def test_criterion_5_ensemble_math():
    with Criterion(5, "adaptive weight equations and simplex constraint", 60.0):
        rng = np.random.default_rng(500)
        # loop-oracle agreement
        for _ in range(50):
            n_models = int(rng.integers(2, 5))
            steps = int(rng.integers(1, 25))
            errors = rng.uniform(0.01, 4.0, size=(n_models, steps))
            got = finalize_weights(evolve_weights(errors, WeightParams(lam=0.85, gamma=0.85)))
            want, _, _ = loop_oracle(errors, lam=0.85, gamma=0.85)
            np.testing.assert_allclose(got, want, atol=1e-12)
        # simplex constraint over 1000 random error histories
        for _ in range(1000):
            n_models = int(rng.integers(2, 6))
            steps = int(rng.integers(1, 30))
            errors = rng.uniform(0.0, 5.0, size=(n_models, steps))
            final = finalize_weights(evolve_weights(errors))
            assert abs(final.sum() - 1.0) < 1e-12
            assert np.all(final >= 0.0) and np.all(final <= 1.0)
        # exact symmetry
        row = rng.uniform(0.1, 2.0, size=16)
        final = finalize_weights(evolve_weights(np.vstack([row, row])))
        assert final[0] == final[1] == 0.5


# ---------------------------------------------------------------------------
# 6. End-to-end desk-scale ordering
# ---------------------------------------------------------------------------


def winner_test_rows(dataset, run, architecture):
    """The test-set metric rows of an ensemble run's winner."""
    rows, _ = evaluate_ensemble(dataset, [r.triple for r in run.base_runs],
                                run.enumeration.best.weights, architecture)
    return rows


def test_criterion_6_end_to_end_desk_scale():
    with Criterion(6, "desk-scale ensembles beat their base models", 900.0):
        master_seed = 2024
        dataset = prepare_dataset(synth_series(2000, seed=404, noise_sigma=0.1),
                                  train_fraction=0.87)
        cfg3 = HyperConfig(0.05, 1, 2, 4, 3, 32, 30)
        cfg5 = HyperConfig(0.05, 1, 2, 4, 5, 32, 30)
        cfg3b = HyperConfig(0.03, 1, 2, 4, 3, 32, 30)
        cfg5b = HyperConfig(0.03, 1, 2, 4, 5, 32, 30)
        memo = {}

        k1_sets = [KBestSet(0, [cfg3], [0.0]), KBestSet(1, [cfg5], [0.0])]
        gen = run_ensemble(dataset, k1_sets, master_seed, WeightParams(), memo=memo)
        gen_rows = winner_test_rows(dataset, gen, "genhyb")
        best_base = min(r["mape_pct"] for r in gen_rows[:-1])
        ensemble_mape = gen_rows[-1]["mape_pct"]
        assert ensemble_mape <= best_base + 0.1

        # honest K-best sets: score both candidates per model with the probe
        def kset(model_index, candidates):
            score = probe_objective(dataset, candidates[0].sequence_length,
                                    model_index, master_seed, probe_epochs=5)
            ranked = sorted(((score(c), c) for c in candidates), key=lambda p: p[0])
            return KBestSet(model_index, [c for _, c in ranked], [s for s, _ in ranked])

        ksets = [kset(0, [cfg3, cfg3b]), kset(1, [cfg5, cfg5b])]
        boq = run_ensemble(dataset, ksets, master_seed, WeightParams(), memo=memo)
        assert boq.enumeration.n_tuples == 4  # K=2, m=2
        boq_rows = winner_test_rows(dataset, boq, "bo-q")
        best_base = min(r["mape_pct"] for r in boq_rows[:-1])
        assert boq_rows[-1]["mape_pct"] <= best_base + 0.1

        # brute force: the same four tuples enumerated independently
        from qforecast.ensemble import (
            combine_predictions,
            weights_from_predictions,
        )
        from qforecast.metrics import mse

        val_y = validation_targets(dataset, [3, 5])
        oracle_memo = {}
        best_objective = np.inf
        for c0, c1 in itertools.product(ksets[0].configs, ksets[1].configs):
            preds = np.vstack([
                train_base_model(dataset, c0, 0, master_seed, memo=oracle_memo).val_predictions,
                train_base_model(dataset, c1, 1, master_seed, memo=oracle_memo).val_predictions,
            ])
            w = finalize_weights(weights_from_predictions(val_y, preds, WeightParams()))
            best_objective = min(best_objective, mse(val_y, combine_predictions(w, preds)))
        assert boq.enumeration.best.objective == best_objective


# ---------------------------------------------------------------------------
# 7. Pipeline exactness
# ---------------------------------------------------------------------------


def test_criterion_7_pipeline_exactness(tmp_path):
    with Criterion(7, "full-size split counts, scaling round-trip, no leakage", 120.0):
        assert split_point(96432, 0.87) == 83895
        series = synth_series(96432, seed=7, missing_fraction=0.01, noise_sigma=0.1)
        csv_path = tmp_path / "full.csv"
        write_csv(series, csv_path)
        parsed = ingest_csv(csv_path)
        assert parsed.shape == (96432, 7)
        n_train = split_point(len(parsed), 0.87)
        assert n_train == 83895 and len(parsed) - n_train == 12537

        dataset = prepare_dataset(parsed.copy(), train_fraction=0.87)
        assert len(dataset.train_matrix) == 83895
        assert len(dataset.test_matrix) == 12537

        # scaling round-trip on the training rows
        from qforecast.data import fit_medians, fit_scaler

        full = parsed.copy()
        np.copyto(full, fit_medians(parsed[:n_train]), where=np.isnan(full))
        scaler = fit_scaler(full[:n_train])
        standardized = full[:n_train].copy()
        scale_in_place(standardized, scaler)
        round_trip = inverse_transform(standardized, scaler)
        np.testing.assert_allclose(round_trip, full[:n_train], atol=1e-9)

        # provenance: stored statistics come from the training rows alone
        assert dataset.scaler.n_fit_rows == n_train
        refit = fit_scaler(full[:n_train])
        np.testing.assert_array_equal(refit.median, dataset.scaler.median)
        np.testing.assert_array_equal(refit.mean, dataset.scaler.mean)
        leaky = fit_scaler(full)
        assert not np.allclose(leaky.mean, dataset.scaler.mean)


# ---------------------------------------------------------------------------
# 8. Reproducibility from manifests
# ---------------------------------------------------------------------------


def test_criterion_8_manifest_reproducibility(tmp_path):
    with Criterion(8, "manifest re-runs are hash-identical", 300.0):
        run_dir = tmp_path / "repro"
        assert cli_main(["preprocess", "--run", str(run_dir), "--synth-hours", "400",
                         "--seed", "3"]) == 0
        assert cli_main(["ensemble", "--run", str(run_dir), "--arch", "genhyb",
                         "--inline", "--epochs", "2", "--seed", "3"]) == 0
        assert cli_main(["forecast", "--run", str(run_dir)]) == 0
        assert cli_main(["evaluate", "--run", str(run_dir)]) == 0
        # every command re-run from its manifest must reproduce every
        # artifact byte for byte, the .npz dataset and checkpoint included
        # (the rerun command itself verifies the hashes)
        for manifest in [
            run_dir / "manifest.json",
            run_dir / "ensemble-genhyb" / "manifest.json",
            run_dir / "forecast" / "manifest.json",
            run_dir / "evaluate" / "manifest.json",
        ]:
            assert cli_main(["rerun", "--manifest", str(manifest)]) == 0
