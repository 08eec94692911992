import numpy as np
import pytest

from qforecast.data import (
    TEMPERATURE,
    destandardize_temperature,
    make_windows,
    prepare_dataset,
    synth_series,
)
from qforecast import qlstm
from qforecast.errors import ConfigurationError, MetricUndefinedError, ShapeError
from qforecast.metrics import (
    ForecastResult,
    forecast_iterative,
    format_metrics_table,
    mape_with_exclusions,
    mse,
    tsv_lines,
    write_tsv,
)
from qforecast.qlstm import (
    HyperConfig,
    forward_sequence,
    init_classical_lstm,
    init_qlstm,
    predict_batch,
    train,
)


# ---------------------------------------------------------------------------
# MAPE / MSE
# ---------------------------------------------------------------------------


def test_perfect_predictions():
    y = np.array([3.0, -2.0, 8.0])
    assert mape_with_exclusions(y, y)[0] == 0.0
    assert mse(y, y) == 0.0


def test_mape_hand_value():
    assert mape_with_exclusions([100.0], [110.0])[0] == pytest.approx(10.0, abs=1e-12)


def test_mape_matches_loop_oracle():
    rng = np.random.default_rng(0)
    y = rng.normal(scale=10, size=1000)
    y[np.abs(y) < 1e-6] = 1.0  # keep every pair in range for the oracle
    yh = y + rng.normal(size=1000)
    total = 0.0
    for a, b in zip(y, yh):
        total += abs(a - b) / abs(a)
    want = 100.0 * total / 1000
    assert mape_with_exclusions(y, yh)[0] == pytest.approx(want, abs=1e-12)


def test_mape_exclusions_counted():
    y = np.array([0.0, 2.0, 1e-12, 4.0])
    yh = np.array([1.0, 2.2, 5.0, 4.4])
    value, excluded = mape_with_exclusions(y, yh)
    assert excluded == 2
    assert value == pytest.approx(100.0 * (0.2 / 2.0 + 0.4 / 4.0) / 2, abs=1e-12)


def test_mape_all_excluded_is_undefined():
    with pytest.raises(MetricUndefinedError):
        mape_with_exclusions([0.0, 1e-10], [1.0, 1.0])[0]


def test_mape_scale_invariance():
    rng = np.random.default_rng(3)
    y = rng.uniform(1.0, 10.0, size=200)
    yh = y + rng.normal(size=200)
    base = mape_with_exclusions(y, yh)[0]
    for c in (0.5, 3.0, 117.0):
        assert mape_with_exclusions(c * y, c * yh)[0] == pytest.approx(base, abs=1e-12)


def test_mse_hand_value():
    assert mse([0.0, 0.0], [1.0, -1.0]) == 1.0


def test_mse_translation_invariance():
    rng = np.random.default_rng(5)
    y = rng.normal(size=100)
    yh = y + rng.normal(size=100)
    base = mse(y, yh)
    for c in rng.normal(scale=50, size=5):
        assert mse(y + c, yh + c) == pytest.approx(base, abs=1e-12)


def test_mse_convex_under_ensembling():
    rng = np.random.default_rng(6)
    y = rng.normal(size=80)
    preds = y[None, :] + rng.normal(scale=0.5, size=(3, 80))
    for _ in range(30):
        raw = rng.uniform(0, 1, size=3)
        w = raw / raw.sum()
        lhs = mse(y, w @ preds)
        rhs = sum(wi * mse(y, p) for wi, p in zip(w, preds))
        assert lhs <= rhs + 1e-12


def test_length_mismatch():
    with pytest.raises(ShapeError):
        mse([1.0], [1.0, 2.0])
    with pytest.raises(ShapeError):
        mape_with_exclusions([1.0], [1.0, 2.0])[0]


# ---------------------------------------------------------------------------
# Iterative forecasting
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_fixture():
    """A univariate model trained tightly on a noiseless periodic series.

    Feedback forecasting holds exogenous features at their last observed
    values, so the fixture model sees the temperature column alone; its
    whole input then evolves coherently during the rollout.
    """
    series = synth_series(
        700, seed=21, noise_sigma=0.0, annual_amplitude=0.0,
        base_temperature=15.0, daily_amplitude=5.0,
    )
    dataset = prepare_dataset(series)
    cfg = HyperConfig(0.02, 1, 2, 8, 5, 32, 60)
    windows = make_windows(dataset.train_matrix[:, :1], cfg.sequence_length)
    split = int(0.9 * len(windows))
    model = init_classical_lstm(cfg, input_dim=1, seed=77)
    train(model, cfg, windows[:split], windows[split:], seed=77)
    return dataset, cfg, model


def test_horizon_one_equals_single_forward(trained_fixture):
    dataset, cfg, model = trained_fixture
    context = dataset.test_matrix[: cfg.sequence_length, :1]
    result = forecast_iterative([("lstm", cfg, model)], [1.0], context, dataset.scaler, 1)
    direct = forward_sequence(model, context[-cfg.sequence_length :])
    want = destandardize_temperature(np.array([direct]), dataset.scaler)[0]
    assert result.y_pred[0] == pytest.approx(want, abs=1e-12)


def test_24h_forecast_on_periodic_fixture(trained_fixture):
    dataset, cfg, model = trained_fixture
    seq = cfg.sequence_length
    context = dataset.test_matrix[:seq, :1]
    future = dataset.test_matrix[seq : seq + 24, 0]
    result = forecast_iterative(
        [("lstm", cfg, model)], [1.0], context, dataset.scaler, 24, true_future=future
    )
    assert result.horizon == "24h"
    assert mape_with_exclusions(result.y_true, result.y_pred)[0] < 5.0


def test_multi_model_forecast_matches_feedback_loop():
    dataset = prepare_dataset(synth_series(240, seed=8))
    n_features = dataset.train_matrix.shape[1]
    cfg3 = HyperConfig(0.05, 1, 2, 4, 3, 32, 1)
    cfg5 = HyperConfig(0.05, 1, 2, 4, 5, 32, 1)
    models = [("qlstm", cfg3, init_qlstm(cfg3, n_features, seed=1)),
              ("lstm", cfg5, init_classical_lstm(cfg5, n_features, seed=2))]
    weights = np.array([0.3, 0.7])
    context = dataset.train_matrix[-8:]
    result = forecast_iterative(models, weights, context, dataset.scaler, 6)

    buffer = context.copy()
    want = []
    for _ in range(6):
        combined = 0.0
        for w, (_, cfg, model) in zip(weights, models):
            window = buffer[-cfg.sequence_length :]
            combined += w * predict_batch(model, window[None])[0]
        want.append(combined)
        row = buffer[-1].copy()
        row[TEMPERATURE] = combined
        buffer = np.vstack([buffer, row])
    np.testing.assert_array_equal(result.y_pred,
                                  destandardize_temperature(np.array(want), dataset.scaler))


def test_forecast_compiles_each_model_once(monkeypatch):
    # the angles do not move during a forecast, so each model is compiled
    # once for all of its hours
    calls = []
    real = qlstm.compile_blocks
    monkeypatch.setattr(qlstm, "compile_blocks", lambda *args: calls.append(1) or real(*args))
    dataset = prepare_dataset(synth_series(240, seed=8))
    n_features = dataset.train_matrix.shape[1]
    configs = [HyperConfig(0.05, 1, 2, 4, seq, 32, 1) for seq in (3, 5)]
    models = [("qlstm", config, init_qlstm(config, n_features, seed=seq))
              for seq, config in enumerate(configs)]
    result = forecast_iterative(models, [0.5, 0.5], dataset.train_matrix[-8:],
                                dataset.scaler, 6)
    assert len(result.y_pred) == 6
    assert len(calls) == 2


def test_bad_horizon():
    cfg = HyperConfig(0.05, 1, 2, 4, 2, 32, 1)
    models = [("lstm", cfg, init_classical_lstm(cfg, input_dim=7, seed=0))]
    with pytest.raises(ConfigurationError):
        forecast_iterative(models, [1.0], np.zeros((3, 7)), _dummy_scaler(), 0)


def _dummy_scaler():
    from qforecast.data import ScalerState

    n = 7
    return ScalerState(
        median=np.zeros(n), q1=np.zeros(n), q3=np.ones(n),
        mean=np.zeros(n), std=np.ones(n),
        robust_skip=np.zeros(n, dtype=bool), z_skip=np.zeros(n, dtype=bool),
        n_fit_rows=10,
    )


# ---------------------------------------------------------------------------
# Emission formats
# ---------------------------------------------------------------------------


def test_forecast_tsv_layout():
    res = ForecastResult(
        timestamps=[1, 2], y_true=np.array([1.0, 2.0]), y_pred=np.array([1.5, 2.5]),
        model="demo", horizon="2-step",
    )
    assert list(tsv_lines([res])) == ["timestamp\ty_true\ty_pred\tmodel\n",
                                      "1\t1\t1.5\tdemo\n", "2\t2\t2.5\tdemo\n"]


def test_tsv_edge_values_and_literal_model_tags(tmp_path):
    extremes = np.array([-0.0, 5e-324, 1e-300, 1e300])
    results = [
        ForecastResult([1, 2, 3, 4], extremes, extremes[::-1].copy(), "a{0}%s}", "4-step"),
        ForecastResult([7, 8], None, np.array([-0.0, 1e300]), "{", "2-step"),
    ]
    write_tsv(results, tmp_path / "out.tsv")
    assert (tmp_path / "out.tsv").read_text().split("\n") == [
        "timestamp\ty_true\ty_pred\tmodel",
        "1\t-0\t1e+300\ta{0}%s}",
        "2\t4.940656458e-324\t1e-300\ta{0}%s}",
        "3\t1e-300\t4.940656458e-324\ta{0}%s}",
        "4\t1e+300\t-0\ta{0}%s}",
        "7\t\t-0\t{",
        "8\t\t1e+300\t{",
        "",
    ]


def test_metrics_table_row_order():
    rows = [
        {"model": "base-0", "mape_pct": 1.0, "mse": 0.5, "excluded": 0},
        {"model": "ensemble", "mape_pct": 0.9, "mse": 0.4, "excluded": 1},
    ]
    text = format_metrics_table(rows)
    lines = text.strip().split("\n")
    assert lines[2].startswith("base-0")
    assert lines[3].startswith("ensemble")
