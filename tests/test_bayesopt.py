import numpy as np
import pytest

from qforecast.bayesopt import (
    KBestSet,
    _neg_ei,
    acquire_next,
    bo_minimize_unit,
    bo_tune,
    ei_from_moments,
    enumerate_ensembles,
    expected_improvement,
    gp_fit,
    gp_posterior,
)
from qforecast.errors import ConfigurationError, NumericDivergenceError
from qforecast.hyperspace import SearchSpace
from qforecast.metaheuristics import ObjectiveTracker
from qforecast.qlstm import HyperConfig

from objectives import quadratic_1d
from oracles import (
    central_difference,
    expected_improvement_oracle,
    gp_posterior_oracle,
    loop_oracle,
)

SIN_X = np.array([[0.05], [0.3], [0.5], [0.75], [0.95]])
SIN_Y = np.sin(6 * SIN_X[:, 0])
SIN_HYPER = (np.array([0.2]), 1.3, 1e-6)


@pytest.fixture(scope="module")
def sin_gp():
    return gp_fit(SIN_X, SIN_Y, hyperparams=SIN_HYPER)


# ---------------------------------------------------------------------------
# Posterior
# ---------------------------------------------------------------------------


def test_posterior_interpolates_at_low_noise(sin_gp):
    mean, var = gp_posterior(sin_gp, SIN_X)
    np.testing.assert_allclose(mean, SIN_Y, atol=1e-3)
    assert np.all(var < 1e-3)


def test_posterior_variance_bounded_by_noise_at_observations(sin_gp):
    _, var = gp_posterior(sin_gp, SIN_X)
    assert np.all(var <= sin_gp.noise_var + 1e-9)
    assert np.all(var >= 0.0)


def test_far_field_reverts_to_prior(sin_gp):
    mean, var = gp_posterior(sin_gp, np.array([[40.0]]))
    assert mean[0] == pytest.approx(sin_gp.mean, abs=1e-9)
    assert var[0] == pytest.approx(sin_gp.signal_var, abs=1e-9)


def test_posterior_matches_textbook_oracle(sin_gp):
    grid = np.linspace(0.0, 1.0, 20)[:, None]
    mean, var = gp_posterior(sin_gp, grid)
    want_mean, want_var = gp_posterior_oracle(
        SIN_X, SIN_Y, grid, SIN_HYPER[0], SIN_HYPER[1], SIN_HYPER[2],
        float(np.mean(SIN_Y)),
    )
    np.testing.assert_allclose(mean, want_mean, atol=1e-6)
    np.testing.assert_allclose(var, want_var, atol=1e-6)


def test_fit_handles_duplicate_points():
    x = np.array([[0.4], [0.4], [0.8]])
    y = np.array([1.0, 2.0, 0.5])  # conflicting scores at the same point
    gp = gp_fit(x, y, seed=1)
    mean, var = gp_posterior(gp, np.array([[0.4]]))
    assert np.isfinite(mean[0]) and var[0] >= 0.0


def test_fit_needs_two_points():
    with pytest.raises(ConfigurationError):
        gp_fit(np.array([[0.5]]), np.array([1.0]))


# ---------------------------------------------------------------------------
# Expected improvement
# ---------------------------------------------------------------------------


def test_ei_zero_at_zero_variance_at_or_above_best():
    assert ei_from_moments(np.array([5.0]), np.array([0.0]), 5.0)[0] == 0.0
    assert ei_from_moments(np.array([6.0]), np.array([0.0]), 5.0)[0] == 0.0


def test_ei_deterministic_improvement_limit():
    # mean one unit below the incumbent, variance -> 0: EI -> 1
    ei = ei_from_moments(np.array([4.0]), np.array([0.0]), 5.0)
    assert ei[0] == pytest.approx(1.0, abs=1e-15)
    ei_small = ei_from_moments(np.array([4.0]), np.array([1e-18]), 5.0)
    assert ei_small[0] == pytest.approx(1.0, abs=1e-8)


def test_ei_matches_closed_form_oracle(sin_gp):
    grid = np.linspace(0.0, 1.0, 20)[:, None]
    ei = expected_improvement(sin_gp, grid, sin_gp.best_observed)
    mean, var = gp_posterior(sin_gp, grid)
    want = expected_improvement_oracle(mean, var, sin_gp.best_observed)
    np.testing.assert_allclose(ei, want, atol=1e-8)
    assert np.all(ei >= 0.0)


def test_ei_near_zero_at_observed_best(sin_gp):
    best_idx = int(np.argmin(SIN_Y))
    ei = expected_improvement(sin_gp, SIN_X[best_idx : best_idx + 1], sin_gp.best_observed)
    assert 0.0 <= ei[0] < 1e-3  # residual noise-floor variance only


def test_ei_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    x = rng.random((8, 3))
    gp = gp_fit(x, np.sin(3.0 * x).sum(axis=1), seed=3)
    best = gp.best_observed

    def neg_ei(u):
        return -float(expected_improvement(gp, u[None, :], best)[0])

    faces = rng.random((6, 3))
    faces[np.arange(6), np.arange(6) % 3] = np.arange(6) % 2
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    # (point, difference step, tolerance); next to the best observed point
    # the posterior sd falls to ~1e-3, and its variance is a difference of
    # terms ~1e5 times larger, so the two routes agree to ~1e-5 there
    cases = [(u, 1e-5, 1e-6) for u in [*rng.random((5, 3)), *faces]]
    cases += [(gp.x[np.argmin(gp.y)] + dist * direction, 1e-3 * dist, 1e-5)
              for dist in (1e-2, 1e-3, 1e-4)]
    for u, h, tol in cases:
        value, grad = _neg_ei(u, gp, best)
        assert value == pytest.approx(neg_ei(u), rel=1e-12, abs=0.0)
        want = central_difference(neg_ei, u, h)
        np.testing.assert_allclose(grad, want, rtol=tol, atol=tol * np.max(np.abs(want)))


def test_ei_gradient_is_finite_where_the_posterior_sd_is_zero():
    # a signal variance of 2^40 swallows the noise floor: at an observed point
    # the posterior variance is exactly 0
    x = np.array([[0.2, 0.3], [0.9, 0.8]])
    gp = gp_fit(x, np.array([1.0, 2.0]), hyperparams=(np.array([0.01, 0.01]), 2.0**40, 1e-6))
    assert gp_posterior(gp, x[:1])[1][0] == 0.0
    for best in (gp.best_observed, gp.best_observed + 1.0):
        value, grad = _neg_ei(x[0], gp, best)
        assert value == -expected_improvement(gp, x[:1], best)[0]
        assert np.all(np.isfinite(grad))


def test_acquire_next_returns_unit_point(sin_gp):
    point = acquire_next(sin_gp, sin_gp.best_observed, seed=4)
    assert point.shape == (1,)
    assert 0.0 <= point[0] <= 1.0


# ---------------------------------------------------------------------------
# The BO loop
# ---------------------------------------------------------------------------


def test_quadratic_minimum_found_in_twenty_evaluations():
    xs, ys = bo_minimize_unit(ObjectiveTracker(quadratic_1d(0.7), budget=20), 1, n_init=5, seed=3)
    assert len(ys) == 20
    best = xs[int(np.argmin(ys))][0]
    assert abs(best - 0.7) <= 0.05


def test_bo_loop_deterministic():
    a, b = (bo_minimize_unit(ObjectiveTracker(quadratic_1d(0.3), budget=10), 1, n_init=4, seed=9)
            for _ in range(2))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


@pytest.mark.parametrize("budget", [None, 4])
def test_bo_loop_refuses_a_budget_below_the_initial_design(budget):
    def objective(u):
        raise AssertionError("the objective must not run")

    with pytest.raises(ConfigurationError, match="at least n_init = 5"):
        bo_minimize_unit(ObjectiveTracker(objective, budget=budget), 1, n_init=5, seed=0)


def _config_score(config: HyperConfig) -> float:
    # smooth deterministic score over the box
    return (
        (np.log10(config.learning_rate) + 2.0) ** 2
        + 0.1 * (config.n_qubits - 4) ** 2
        + 0.05 * config.n_layers
        + 0.01 * abs(config.batch_size - 100) / 100
    )


def test_bo_tune_returns_k_lowest_observed():
    space = SearchSpace.default(sequence_length=3, epochs=2)
    trace = []
    kset = bo_tune(_config_score, space, n_init=5, budget=10, k=3, seed=2, trace=trace)
    assert kset.k == 3
    assert kset.scores == sorted(kset.scores)
    # the returned scores are true observed scores: recompute directly
    for config, score in zip(kset.configs, kset.scores):
        assert _config_score(config) == pytest.approx(score, abs=1e-12)
    # and they are the smallest distinct-config scores in the whole trace
    by_config = {}
    for row in trace:
        key = tuple(sorted(row["config"].items()))
        by_config[key] = min(by_config.get(key, np.inf), row["objective"])
    expected = sorted(by_config.values())[:3]
    np.testing.assert_allclose(kset.scores, expected, atol=1e-12)


def test_bo_tune_zero_iterations_returns_sorted_initial_design():
    space = SearchSpace.default(sequence_length=3, epochs=2)
    kset = bo_tune(_config_score, space, n_init=4, budget=4, k=4, seed=5)
    assert kset.k == 4
    assert kset.scores == sorted(kset.scores)


def test_bo_tune_k_too_large():
    space = SearchSpace.default(sequence_length=3, epochs=2)
    with pytest.raises(ConfigurationError):
        bo_tune(_config_score, space, n_init=3, budget=3, k=10, seed=0)


@pytest.mark.parametrize("k", [0, -1])
def test_bo_tune_rejects_k_below_one_before_evaluating(k):
    def objective(config):
        raise AssertionError("the objective must not run")

    space = SearchSpace.default(sequence_length=3, epochs=2)
    with pytest.raises(ConfigurationError, match="K must be >= 1"):
        bo_tune(objective, space, n_init=3, budget=3, k=k, seed=0)


# ---------------------------------------------------------------------------
# K-best sets
# ---------------------------------------------------------------------------


def _mk_config(lr: float, seq: int = 3) -> HyperConfig:
    return HyperConfig(lr, 1, 2, 3, seq, 16, 2)


def test_kbest_invariants_enforced():
    with pytest.raises(ConfigurationError):
        KBestSet(0, [_mk_config(0.01), _mk_config(0.02)], [2.0, 1.0])
    with pytest.raises(ConfigurationError):
        KBestSet(0, [_mk_config(0.01), _mk_config(0.01)], [1.0, 2.0])


def test_kbest_round_trip():
    kset = KBestSet(1, [_mk_config(0.01), _mk_config(0.02)], [1.0, 2.0])
    again = KBestSet.from_dict(kset.to_dict())
    assert again.configs == kset.configs
    assert again.scores == kset.scores
    assert again.model_index == 1


# ---------------------------------------------------------------------------
# K^m enumeration
# ---------------------------------------------------------------------------


def _fake_predictor(targets, rng):
    """Per-(model, config) deterministic predictions around the targets."""
    cache = {}

    def predict(model_index, config):
        key = (model_index, config)
        if key not in cache:
            scale = 0.1 + abs(np.log10(config.learning_rate) + 2.0)
            local = np.random.default_rng(hash(key) % 2**32)
            cache[key] = targets + scale * local.normal(size=targets.shape)
        return cache[key]

    return predict


def test_enumeration_counts_k_to_the_m():
    rng = np.random.default_rng(0)
    targets = rng.normal(size=30)
    ksets = [
        KBestSet(0, [_mk_config(0.01), _mk_config(0.02), _mk_config(0.04)], [1.0, 2.0, 3.0]),
        KBestSet(1, [_mk_config(0.01, 5), _mk_config(0.03, 5), _mk_config(0.05, 5)], [1.0, 2.0, 3.0]),
    ]
    result = enumerate_ensembles(ksets, _fake_predictor(targets, rng), targets)
    assert result.n_tuples == 9
    assert len(result.objectives) == 9
    assert result.best.objective == min(result.objectives)


def test_single_model_reduces_to_best_config():
    rng = np.random.default_rng(1)
    targets = rng.normal(size=25)
    configs = [_mk_config(0.01), _mk_config(0.05)]
    kset = KBestSet(0, configs, [1.0, 2.0])
    predict = _fake_predictor(targets, rng)
    result = enumerate_ensembles([kset], predict, targets)
    assert result.n_tuples == 2
    np.testing.assert_allclose(result.best.weights, [1.0], atol=1e-15)
    per_config = [float(np.mean((predict(0, c) - targets) ** 2)) for c in configs]
    assert result.best.objective == pytest.approx(min(per_config), abs=1e-12)
    assert result.best.configs[0] == configs[int(np.argmin(per_config))]


def test_enumeration_matches_independent_brute_force():
    from qforecast.ensemble import (
        combine_predictions,
        finalize_weights,
        weights_from_predictions,
    )

    rng = np.random.default_rng(2)
    targets = rng.normal(size=40)
    ksets = [
        KBestSet(0, [_mk_config(0.01), _mk_config(0.02)], [1.0, 2.0]),
        KBestSet(1, [_mk_config(0.01, 5), _mk_config(0.03, 5)], [1.5, 2.5]),
    ]
    predict = _fake_predictor(targets, rng)
    result = enumerate_ensembles(ksets, predict, targets)

    # exhaustive independent loop over all four tuples
    best_obj = np.inf
    best_combo = None
    for c0 in ksets[0].configs:
        for c1 in ksets[1].configs:
            preds = np.vstack([predict(0, c0), predict(1, c1)])
            w = finalize_weights(weights_from_predictions(targets, preds))
            obj = float(np.mean((combine_predictions(w, preds) - targets) ** 2))
            if obj < best_obj:
                best_obj, best_combo = obj, (c0, c1)
    assert result.best.objective == best_obj
    assert result.best.configs == best_combo


def test_windowed_enumeration_matches_loop_oracle():
    # a window longer than the first steps: the weights come from t = max(1, k-2)..k
    rng = np.random.default_rng(4)
    targets = rng.normal(size=30)
    ksets = [
        KBestSet(0, [_mk_config(0.01), _mk_config(0.02)], [1.0, 2.0]),
        KBestSet(1, [_mk_config(0.01, 5), _mk_config(0.03, 5)], [1.5, 2.5]),
    ]
    predict = _fake_predictor(targets, rng)
    result = enumerate_ensembles(ksets, predict, targets, lam=0.85, gamma=0.85, nu=3)
    assert result.n_tuples == 4
    objectives = []
    for c0 in ksets[0].configs:
        for c1 in ksets[1].configs:
            preds = np.vstack([predict(0, c0), predict(1, c1)])
            weights, _, _ = loop_oracle(np.abs(preds - targets), lam=0.85, gamma=0.85, nu=3)
            objectives.append(float(np.mean((weights @ preds - targets) ** 2)))
    np.testing.assert_allclose(result.objectives, objectives, rtol=1e-12, atol=0)
    best = int(np.argmin(objectives))
    assert result.best.configs == (ksets[0].configs[best // 2], ksets[1].configs[best % 2])
    assert result.best.state.steps_taken == 30


def test_failed_tuples_are_skipped():
    rng = np.random.default_rng(3)
    targets = rng.normal(size=20)
    good = _mk_config(0.01)
    bad = _mk_config(0.02)

    def predict(model_index, config):
        if config == bad:
            raise NumericDivergenceError("boom")
        return targets + 0.1

    kset = KBestSet(0, [good, bad], [1.0, 2.0])
    result = enumerate_ensembles([kset], predict, targets)
    assert result.objectives[1] == np.inf
    assert result.best.configs == (good,)

    # with no tuple left, the first tuple's divergence propagates
    errors = {}

    def diverging(model_index, config):
        raise errors.setdefault(config, NumericDivergenceError(f"lr {config.learning_rate}"))

    with pytest.raises(NumericDivergenceError) as exc:
        enumerate_ensembles([KBestSet(0, [bad, good], [1.0, 2.0])], diverging, targets)
    assert exc.value is errors[bad]


def test_mismatched_k_rejected():
    ksets = [
        KBestSet(0, [_mk_config(0.01)], [1.0]),
        KBestSet(1, [_mk_config(0.01, 5), _mk_config(0.02, 5)], [1.0, 2.0]),
    ]
    with pytest.raises(ConfigurationError):
        enumerate_ensembles(ksets, lambda m, c: np.zeros(5), np.zeros(5))
