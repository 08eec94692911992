import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforecast.ensemble import (
    combine_predictions,
    evolve_weights,
    finalize_weights,
    weight_history_tsv,
    weights_from_predictions,
)
from qforecast.errors import ConfigurationError, NumericError, ShapeError

from oracles import loop_oracle


def assert_matches_oracle(errors, lam, gamma, nu=None):
    """Final weights, per-step weights and per-step eps agree with the loop."""
    state = evolve_weights(errors, lam=lam, gamma=gamma, nu=nu)
    final, history, eps_history = loop_oracle(errors, lam=lam, gamma=gamma, nu=nu)
    np.testing.assert_allclose(finalize_weights(state), final, rtol=1e-12, atol=0)
    np.testing.assert_allclose(state.history, history, rtol=1e-12, atol=0)
    np.testing.assert_allclose(state.eps_history, eps_history, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Discounted error memory
# ---------------------------------------------------------------------------


def test_gamma_one_is_plain_sum():
    errors = np.array([[1.0, 2.0, 3.0, 4.0]])
    eps = evolve_weights(errors, gamma=1.0).eps_history[:, 0]
    np.testing.assert_allclose(eps, [1.0, 3.0, 6.0, 10.0], rtol=0, atol=1e-14)


def test_two_term_hand_expansion():
    errors = np.array([[1.0, 1.0]])
    eps = evolve_weights(errors, gamma=0.85, nu=2).eps_history[:, 0]
    np.testing.assert_allclose(eps, [1.0, 1.85], rtol=0, atol=1e-14)


def test_smoothed_error_matches_naive_loop():
    rng = np.random.default_rng(0)
    errors = rng.uniform(0.0, 3.0, size=(2, 10))
    eps = evolve_weights(errors, gamma=0.85).eps_history
    for k in range(1, 11):
        for m in range(2):
            naive = sum(0.85 ** (k - t) * errors[m, t - 1] for t in range(1, k + 1))
            assert eps[k - 1, m] == pytest.approx(naive, abs=1e-14)


def test_zero_error_is_floored(caplog):
    errors = np.zeros((2, 3))
    with caplog.at_level(logging.WARNING, logger="qforecast.ensemble"):
        state = evolve_weights(errors)
    np.testing.assert_array_equal(state.eps_history, np.full((3, 2), 1e-12))
    # one warning for the whole call, counting every floored (step, model)
    assert [r.getMessage() for r in caplog.records] == [
        "6 zero smoothed errors; flooring each to 1e-12"
    ]


def test_window_bounds_checked():
    errors = np.ones((1, 5))
    for nu in (0, -1, 2.5):
        with pytest.raises(ConfigurationError):
            evolve_weights(errors, nu=nu)


@pytest.mark.parametrize("lam, gamma", [
    (float("nan"), 0.85), (float("inf"), 0.85), (-0.1, 0.85),
    (0.85, -0.9), (0.85, 1.5), (0.85, float("nan")),
])
def test_out_of_range_weight_params_raise(lam, gamma):
    with pytest.raises(ConfigurationError):
        evolve_weights(np.ones((2, 4)), lam=lam, gamma=gamma)


def test_window_covers_the_steps_that_exist():
    # at k <= nu the window is t = 1..k, so the first steps equal full history
    rng = np.random.default_rng(4)
    errors = rng.uniform(0.05, 4.0, size=(3, 12))
    full = evolve_weights(errors, gamma=0.85)
    windowed = evolve_weights(errors, gamma=0.85, nu=5)
    np.testing.assert_allclose(windowed.eps_history[:5], full.eps_history[:5], rtol=1e-12, atol=0)
    for nu in (12, 13, 40):
        windowed = evolve_weights(errors, gamma=0.85, nu=nu)
        np.testing.assert_allclose(windowed.eps_history, full.eps_history, rtol=1e-12, atol=0)
        np.testing.assert_allclose(windowed.history, full.history, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Weight updates
# ---------------------------------------------------------------------------


def test_identical_errors_give_symmetric_increments():
    rng = np.random.default_rng(1)
    row = rng.uniform(0.1, 2.0, size=12)
    state = evolve_weights(np.vstack([row, row]))
    assert state.history.shape == (12, 2)
    for step_weights in state.history:
        assert step_weights[0] == step_weights[1]
    np.testing.assert_array_equal(finalize_weights(state), [0.5, 0.5])


def test_hand_computed_inverse_error_shares():
    # eps = [1, 2] at step 1 -> delta = [2/3, 1/3]
    errors = np.array([[1.0], [2.0]])
    state = evolve_weights(errors, lam=1.0)
    np.testing.assert_allclose(state.history[0], [0.5 + 2 / 3, 0.5 + 1 / 3], atol=1e-15)
    np.testing.assert_array_equal(state.weights, state.history[-1])


def test_final_weights_match_loop_oracle():
    rng = np.random.default_rng(7)
    errors = rng.uniform(0.05, 4.0, size=(3, 20))
    assert_matches_oracle(errors, lam=0.85, gamma=0.85)


def test_windowed_evolution_matches_loop_oracle():
    rng = np.random.default_rng(8)
    errors = rng.uniform(0.05, 4.0, size=(4, 15))
    # nu > k at the first steps, and nu >= T, clip the window at t = 1
    for nu in (1, 3, 14, 15, 40):
        assert_matches_oracle(errors, lam=0.6, gamma=0.9, nu=nu)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_evolution_matches_loop_oracle_with_zero_runs(data):
    n_models = data.draw(st.integers(min_value=1, max_value=5))
    n_steps = data.draw(st.integers(min_value=1, max_value=30))
    nu = data.draw(st.none() | st.integers(min_value=1, max_value=n_steps + 5))
    gamma = data.draw(st.sampled_from([0.0, 0.85, 1.0]))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    errors = rng.uniform(0.0, 5.0, size=(n_models, n_steps))
    for row in errors:  # one run of exact zeros per row, possibly the whole row
        start = rng.integers(0, n_steps)
        row[start:start + rng.integers(0, n_steps + 1)] = 0.0
    assert_matches_oracle(errors, lam=0.85, gamma=gamma, nu=nu)


def test_non_finite_errors_raise():
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericError):
            evolve_weights(np.array([[1.0, bad], [1.0, 1.0]]))


def test_monotone_sensitivity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        eps = rng.uniform(0.01, 5.0, size=4)
        inv = 1.0 / eps
        delta = inv / inv.sum()
        order = np.argsort(eps)
        assert np.all(np.diff(delta[order]) <= 0)


def test_recency_never_helps_large_errors():
    rng = np.random.default_rng(9)
    for _ in range(30):
        series = rng.uniform(0.1, 3.0, size=8)
        other = rng.uniform(0.1, 3.0, size=8)
        worst_last = np.sort(series)  # largest error most recent
        for perm_seed in range(5):
            perm = np.random.default_rng(perm_seed).permutation(series)
            eps_perm = evolve_weights(np.vstack([perm, other]), gamma=0.85).eps_history[-1]
            eps_sorted = evolve_weights(np.vstack([worst_last, other]), gamma=0.85).eps_history[-1]
            delta_perm = (1 / eps_perm[0]) / (1 / eps_perm).sum()
            delta_sorted = (1 / eps_sorted[0]) / (1 / eps_sorted).sum()
            assert delta_sorted <= delta_perm + 1e-12


def test_lambda_zero_keeps_initial_weights():
    rng = np.random.default_rng(2)
    errors = rng.uniform(0.1, 2.0, size=(3, 10))
    state = evolve_weights(errors, lam=0.0)
    np.testing.assert_allclose(finalize_weights(state), np.full(3, 1 / 3), atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_finalized_weights_live_on_simplex(n_models, n_steps, seed):
    errors = np.random.default_rng(seed).uniform(0.0, 5.0, size=(n_models, n_steps))
    state = evolve_weights(errors)
    final = finalize_weights(state)
    assert abs(final.sum() - 1.0) < 1e-12
    assert np.all(final >= 0.0) and np.all(final <= 1.0)
    # normalization preserves the ranking of the accumulated weights
    assert np.array_equal(np.argsort(final), np.argsort(state.weights))


def test_finalize_requires_steps():
    state = evolve_weights(np.zeros((2, 0)))
    assert state.steps_taken == 0 and state.n_models == 2
    with pytest.raises(ConfigurationError):
        finalize_weights(state)


# ---------------------------------------------------------------------------
# Combination
# ---------------------------------------------------------------------------


def test_degenerate_weights_select_single_model():
    preds = np.array([[1.0, 2.0, 3.0], [9.0, 9.0, 9.0]])
    np.testing.assert_array_equal(combine_predictions([1.0, 0.0], preds), preds[0])


def test_equal_weights_average():
    preds = np.array([[2.0], [4.0]])
    np.testing.assert_array_equal(combine_predictions([0.5, 0.5], preds), [3.0])


def test_length_mismatch_raises():
    with pytest.raises(ShapeError):
        combine_predictions([0.5, 0.5], np.ones((3, 4)))


def test_ensemble_mse_never_exceeds_worst_model():
    rng = np.random.default_rng(11)
    y = rng.normal(size=50)
    preds = y[None, :] + rng.normal(scale=[[0.3], [0.9], [0.5]], size=(3, 50))
    per_model_mse = [float(np.mean((p - y) ** 2)) for p in preds]
    for _ in range(20):
        raw = rng.uniform(0, 1, size=3)
        w = raw / raw.sum()
        combo = combine_predictions(w, preds)
        assert float(np.mean((combo - y) ** 2)) <= max(per_model_mse) + 1e-12


def test_weights_from_predictions_uses_absolute_errors():
    y = np.array([0.0, 1.0, 2.0])
    preds = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]])  # model 0 perfect
    state = weights_from_predictions(y, preds)
    final = finalize_weights(state)
    assert final[0] > final[1]


def test_weight_history_export():
    errors = np.array([[1.0, 2.0], [2.0, 1.0]])
    state = evolve_weights(errors)
    text = weight_history_tsv(state)
    lines = text.strip().split("\n")
    assert lines[0].split("\t") == ["step", "w_0", "w_1", "eps_0", "eps_1"]
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# Demo
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("demo", ["adaptive_weights", "bayesian_optimization", "circuit_basics",
                                  "full_pipeline", "train_qlstm", "tuners"])
def test_demo_runs(tmp_path, demo):
    repo = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    done = subprocess.run([sys.executable, str(repo / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if demo == "adaptive_weights":
        lines = (tmp_path / "weight_history.tsv").read_text().strip().split("\n")
        assert lines[0].split("\t") == ["step", "w_0", "w_1", "eps_0", "eps_1"]
        assert len(lines) == 25
    elif demo == "bayesian_optimization":
        header = (tmp_path / "gp_curve.tsv").read_text().split("\n", 1)[0]
        assert header.split("\t") == ["x", "posterior_mean", "posterior_sd", "ei"]
    elif demo == "circuit_basics":
        assert "max |adjoint - finite-difference|" in done.stdout
    elif demo == "full_pipeline":
        rows = json.loads((tmp_path / "demo_run" / "evaluate" / "metrics.json").read_text())
        assert [row["model"] for row in rows] == ["qlstm-seq3", "qlstm-seq5", "genhyb-ensemble"]
    elif demo == "tuners":
        assert "QGA on OneMax(16): 16/16 ones" in done.stdout
    else:
        assert "900 hourly rows -> 783 train / 117 test" in done.stdout
        assert "windows: 702 train / 78 validation" in done.stdout
        assert done.stdout.count(" final ") == 2
