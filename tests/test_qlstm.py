import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforecast.data import WindowedDataset, prepare_dataset, synth_series
from qforecast.errors import (
    CheckpointVersionError,
    ConfigurationError,
    DataError,
    NumericDivergenceError,
    ShapeError,
)
from qforecast import qlstm
from qforecast.qlstm import (
    PREDICT_BLOCK_BYTES,
    PREDICT_MIN_ROWS,
    HyperConfig,
    forward_sequence,
    init_classical_lstm,
    init_qlstm,
    load_checkpoint,
    predict_batch,
    prediction_block_rows,
    save_checkpoint,
    train,
)
from qforecast.quantum import MAX_QUBITS, product_state_and_factors
from qforecast.runner import config_digest

from oracles import cell_oracle_backward, cell_oracle_forward, dense_vqc_expectations


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def small_config(**overrides):
    base = dict(
        learning_rate=0.05, n_layers=1, n_qubits=2, hidden_units=3,
        sequence_length=3, batch_size=8, epochs=3,
    )
    base.update(overrides)
    return HyperConfig(**base)


@pytest.fixture(scope="module")
def sine_dataset():
    series = synth_series(600, seed=33)
    return prepare_dataset(series)


# ---------------------------------------------------------------------------
# Cell step
# ---------------------------------------------------------------------------


def test_zero_initialized_cell_value():
    # zero projections + zero thetas: every circuit readout is <Z> = 1,
    # so c = sigmoid(1) * tanh(1) per component and h = 0
    cfg = small_config()
    model = init_qlstm(cfg, input_dim=2, seed=0)
    for blk in model.vqc:
        blk.thetas[:] = 0.0
    for key in ("w_in", "b_in", "w_h", "b_h", "w_y", "b_y"):
        getattr(model, key)[:] = 0.0
    h, c, y, _ = model.step_batch(np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 2)),
                                  want_y=True)
    expected_c = sigmoid(1.0) * np.tanh(1.0)
    np.testing.assert_allclose(c, np.full((1, 2), expected_c), atol=1e-12)
    np.testing.assert_allclose(h, np.zeros((1, 3)), atol=1e-12)
    np.testing.assert_allclose(y, np.zeros((1, 1)), atol=1e-12)


def test_step_output_shapes():
    # h lives in hidden_units space, the cell state in n_qubits space
    cfg = small_config(n_qubits=4, hidden_units=5)
    model = init_qlstm(cfg, input_dim=7, seed=1)
    h, c, y, _ = model.step_batch(np.zeros((1, 7)), np.zeros((1, 5)), np.zeros((1, 4)),
                                  want_y=True)
    assert h.shape == (1, 5)
    assert c.shape == (1, 4)
    assert y.shape == (1, 1)


def test_gate_ranges():
    rng = np.random.default_rng(9)
    cfg = small_config()
    model = init_qlstm(cfg, input_dim=4, seed=11)
    x = rng.normal(size=(16, 3, 4))
    _, caches = model.forward_batch(x, need_cache=True)
    for cache in caches:
        for key in ("f", "i", "o"):
            assert np.all(cache[key] > 0.0) and np.all(cache[key] < 1.0)
        assert np.all(cache["g"] > -1.0) and np.all(cache["g"] < 1.0)


def test_cell_state_recurrence_exact():
    rng = np.random.default_rng(10)
    model = init_qlstm(small_config(), input_dim=4, seed=13)
    x = rng.normal(size=(8, 3, 4))
    _, caches = model.forward_batch(x, need_cache=True)
    for cache in caches:
        recombined = cache["f"] * cache["c_prev"] + cache["i"] * cache["g"]
        np.testing.assert_array_equal(cache["c"], recombined)


# ---------------------------------------------------------------------------
# Sequence forward
# ---------------------------------------------------------------------------


def test_sequence_length_one_is_single_step():
    model = init_qlstm(small_config(sequence_length=1), input_dim=3, seed=3)
    x = np.random.default_rng(0).normal(size=(1, 3))
    pred = forward_sequence(model, x)
    _, _, y, _ = model.step_batch(x, np.zeros((1, 3)), np.zeros((1, 2)), want_y=True)
    assert pred == y[0, 0]


def test_forward_is_deterministic():
    model = init_qlstm(small_config(), input_dim=3, seed=4)
    window = np.random.default_rng(1).normal(size=(3, 3))
    assert forward_sequence(model, window) == forward_sequence(model, window)


def test_forward_matches_dense_oracle_pipeline():
    # recompute the whole cell with the dense-unitary circuit oracle
    cfg = small_config(hidden_units=2)
    model = init_qlstm(cfg, input_dim=2, seed=21)
    window = np.random.default_rng(2).normal(size=(3, 2))

    def oracle_vqc(block, v):
        return dense_vqc_expectations(block.n_qubits, block.n_layers, block.thetas, v)

    h = np.zeros(cfg.hidden_units)
    c = np.zeros(cfg.n_qubits)
    for x_t in window:
        v = model.w_in @ np.concatenate([h, x_t]) + model.b_in
        f = sigmoid(oracle_vqc(model.vqc[0], v))
        i = sigmoid(oracle_vqc(model.vqc[1], v))
        g = np.tanh(oracle_vqc(model.vqc[2], v))
        o = sigmoid(oracle_vqc(model.vqc[3], v))
        c = f * c + i * g
        u = o * np.tanh(c)
        h = model.w_h @ oracle_vqc(model.vqc[4], u) + model.b_h
    y = model.w_y @ oracle_vqc(model.vqc[5], u) + model.b_y
    assert forward_sequence(model, window) == pytest.approx(y[0], abs=1e-8)


# ---------------------------------------------------------------------------
# Gradients through the unrolled sequence
# ---------------------------------------------------------------------------


def _loss_and_grads(model, x, y):
    preds, caches = model.forward_batch(x, need_cache=True)
    err = preds - y
    loss = float(np.mean(err**2))
    grads = model.backward(caches, 2.0 * err / len(y))
    return loss, grads


def _finite_difference(model, x, y, key, h=1e-6):
    arr = model.param_arrays()[key]
    fd = np.zeros_like(arr)
    flat, flat_fd = arr.reshape(-1), fd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        preds, _ = model.forward_batch(x)
        up = float(np.mean((preds - y) ** 2))
        flat[i] = orig - h
        preds, _ = model.forward_batch(x)
        down = float(np.mean((preds - y) ** 2))
        flat[i] = orig
        flat_fd[i] = (up - down) / (2 * h)
    return fd


@pytest.mark.parametrize("n_qubits", [2, 3])
def test_qlstm_bptt_matches_finite_differences(n_qubits):
    rng = np.random.default_rng(n_qubits)
    cfg = small_config(n_qubits=n_qubits, hidden_units=2)
    model = init_qlstm(cfg, input_dim=2, seed=100 + n_qubits)
    x = rng.normal(size=(4, 3, 2))
    y = rng.normal(size=4)
    _, grads = _loss_and_grads(model, x, y)
    for key in grads:
        fd = _finite_difference(model, x, y, key)
        np.testing.assert_allclose(grads[key], fd, rtol=1e-3, atol=1e-7, err_msg=key)


def test_classical_bptt_matches_finite_differences():
    rng = np.random.default_rng(44)
    cfg = small_config(hidden_units=3)
    model = init_classical_lstm(cfg, input_dim=2, seed=7)
    x = rng.normal(size=(5, 3, 2))
    y = rng.normal(size=5)
    _, grads = _loss_and_grads(model, x, y)
    for key in grads:
        fd = _finite_difference(model, x, y, key)
        np.testing.assert_allclose(grads[key], fd, rtol=1e-5, atol=1e-9, err_msg=key)


# ---------------------------------------------------------------------------
# Compiled cell against the block-by-block oracle cell
# ---------------------------------------------------------------------------


def assert_matches_cell_oracle(model, windows, targets):
    """Predictions and every gradient array agree with the oracle cell to
    1e-12 of their scale: a prediction's largest possible size, sum |w_y| +
    |b_y|, and each gradient array's largest entry."""
    preds, caches = model.forward_batch(windows, need_cache=True)
    want_preds, want_caches = cell_oracle_forward(model, windows)
    scale = np.abs(model.w_y).sum() + np.abs(model.b_y).sum()
    np.testing.assert_allclose(preds, want_preds, rtol=0, atol=1e-12 * scale)
    dpred = 2.0 * (want_preds - targets) / len(targets)
    grads = model.backward(caches, dpred)
    want = cell_oracle_backward(model, want_caches, dpred)
    assert grads.keys() == want.keys()
    for key in want:
        np.testing.assert_allclose(grads[key], want[key], rtol=0,
                                   atol=1e-12 * np.abs(want[key]).max(), err_msg=key)


# n 2-4 against 2**n basis rows covers T * B below and above 2**n, and
# seq = 1 makes the only backward step the one where dh = 0
@settings(max_examples=25, derandomize=True, deadline=None)
@given(n=st.integers(2, 4), layers=st.integers(1, 3), seq=st.integers(1, 5),
       batch=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_compiled_cell_matches_block_by_block_oracle(n, layers, seq, batch, seed):
    rng = np.random.default_rng(seed)
    model = init_qlstm(small_config(n_qubits=n, n_layers=layers, sequence_length=seq),
                       input_dim=3, seed=rng)
    assert_matches_cell_oracle(model, rng.normal(size=(batch, seq, 3)), rng.normal(size=batch))


def test_forward_compiles_at_the_current_angles():
    # Adam updates the angles in place through param_arrays(), so a unitary
    # compiled by one call must not serve the next
    rng = np.random.default_rng(14)
    model = init_qlstm(small_config(n_qubits=3, n_layers=2), input_dim=3, seed=15)
    windows, targets = rng.normal(size=(5, 3, 3)), rng.normal(size=5)
    before, _ = model.forward_batch(windows)
    for block in model.vqc:
        block.thetas += rng.uniform(-0.5, 0.5, size=block.thetas.shape)
    after, _ = model.forward_batch(windows)
    assert not np.allclose(before, after)
    assert_matches_cell_oracle(model, windows, targets)


def test_backward_reuses_the_cached_encoding_factors_exactly():
    # a training forward caches each step input's encoding factors for
    # backward; factors rebuilt from the cached inputs give the same
    # gradients bit for bit
    rng = np.random.default_rng(16)
    model = init_qlstm(small_config(n_qubits=3, n_layers=2, sequence_length=4),
                       input_dim=3, seed=17)
    windows, targets = rng.normal(size=(6, 4, 3)), rng.normal(size=6)
    preds, caches = model.forward_batch(windows, need_cache=True)
    rebuilt = [dict(cache, enc_v=product_state_and_factors(cache["v"])[1],
                    enc_u=product_state_and_factors(cache["u"])[1]) for cache in caches]
    assert rebuilt[0]["enc_v"][1] is not caches[0]["enc_v"][1]
    dpred = 2.0 * (preds - targets) / len(targets)
    cached, fresh = model.backward(caches, dpred), model.backward(rebuilt, dpred)
    assert cached.keys() == fresh.keys()
    for key in cached:
        assert cached[key].tobytes() == fresh[key].tobytes(), key


@pytest.mark.parametrize("kind", ["qlstm", "lstm"])
def test_zero_length_windows_are_shape_errors(kind):
    cfg = small_config()
    model = {
        "qlstm": lambda: init_qlstm(cfg, input_dim=7, seed=1),
        "lstm": lambda: init_classical_lstm(cfg, input_dim=7, seed=1),
    }[kind]()
    with pytest.raises(ShapeError, match="sequence length 0"):
        model.forward_batch(np.zeros((4, 0, 7)))
    with pytest.raises(ShapeError, match="sequence length 0"):
        forward_sequence(model, np.zeros((0, 7)))


# ---------------------------------------------------------------------------
# Blocked prediction
# ---------------------------------------------------------------------------


def prediction_models():
    return {
        "qlstm-n2": init_qlstm(small_config(n_qubits=2), input_dim=7, seed=3),
        "qlstm-n3": init_qlstm(small_config(n_qubits=3, n_layers=2), input_dim=7, seed=4),
        "lstm": init_classical_lstm(small_config(), input_dim=7, seed=5),
    }


@pytest.mark.parametrize("kind", ["qlstm-n2", "qlstm-n3", "lstm"])
def test_blocked_prediction_is_one_whole_forward(kind):
    model = prediction_models()[kind]
    block = prediction_block_rows(model)
    windows = np.random.default_rng(6).normal(size=(2 * block + 1, 3, 7))
    # the last count leaves a lone window, which joins the block before it
    for count in (1, block - 1, block, block + 1, 2 * block + 1):
        whole, _ = model.forward_batch(windows[:count])
        assert predict_batch(model, windows[:count]).tobytes() == whole.tobytes()  # bit for bit


def test_block_rows_follow_the_circuit_width():
    # rows x 6 x 2**n amplitudes at 128 bytes each fill the budget down to the
    # floor; every size is a power of two, so blocks start on the BLAS row tile
    for n in range(2, 11):
        model = init_qlstm(small_config(n_qubits=n), input_dim=7, seed=n)
        rows = prediction_block_rows(model)
        assert rows == max(PREDICT_MIN_ROWS, 2 ** (12 - n))
        assert rows == PREDICT_MIN_ROWS or rows * 6 * 2**n * 128 == PREDICT_BLOCK_BYTES
        assert rows & (rows - 1) == 0 and rows % PREDICT_MIN_ROWS == 0
    assert prediction_block_rows(prediction_models()["lstm"]) == 4096


def test_prediction_memory_is_bounded_by_one_block():
    # the paper's test stack: 12 532 windows stay within the block budget,
    # beside the predictions returned, whatever the circuit width
    windows = np.random.default_rng(7).normal(size=(12532, 3, 7))
    for n, layers in ((2, 1), (4, 2), (6, 3)):
        model = init_qlstm(small_config(n_qubits=n, n_layers=layers), input_dim=7, seed=n)
        tracemalloc.start()
        try:
            predict_batch(model, windows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PREDICT_BLOCK_BYTES + windows[:, 0, 0].nbytes, (n, peak)


def test_prediction_compiles_the_model_once(monkeypatch):
    calls = []
    real = qlstm.compile_blocks
    monkeypatch.setattr(qlstm, "compile_blocks", lambda *args: calls.append(1) or real(*args))
    model = prediction_models()["qlstm-n2"]
    windows = np.random.default_rng(8).normal(size=(9000, 3, 7))  # several blocks
    preds = predict_batch(model, windows)
    assert len(calls) == 1
    model.forward_batch(windows[:5])  # a call without a compile still makes its own
    assert len(calls) == 2
    assert preds.tobytes() == model.forward_batch(windows)[0].tobytes()


@pytest.mark.parametrize("kind", ["qlstm-n2", "qlstm-n3", "lstm"])
def test_empty_window_stack_predicts_nothing(kind):
    preds = predict_batch(prediction_models()[kind], np.zeros((0, 3, 7)))
    assert preds.shape == (0,) and preds.dtype == np.float64


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def window_set(x, y):
    """``(x, y)`` as the windowed set ``train`` reads."""
    return WindowedDataset(x, y, first_target_row=x.shape[1])


def _toy_sets(rng, n=40, seq=3, dim=3):
    x = rng.normal(size=(n, seq, dim))
    y = rng.normal(size=n)
    return window_set(x[: n // 2], y[: n // 2]), window_set(x[n // 2 :], y[n // 2 :])


def test_zero_learning_rate_changes_nothing():
    rng = np.random.default_rng(0)
    train_set, test_set = _toy_sets(rng)
    cfg = small_config(learning_rate=0.0, epochs=3)
    model = init_qlstm(cfg, input_dim=3, seed=5)
    before = {k: v.copy() for k, v in model.param_arrays().items()}
    report = train(model, cfg, train_set, test_set, seed=5)
    for key, value in model.param_arrays().items():
        np.testing.assert_array_equal(value, before[key])
    assert report.train_losses[0] == report.train_losses[-1]
    assert report.test_losses[0] == report.test_losses[-1]


def test_constant_target_monotone_decrease():
    # full-batch steps keep the early descent smooth on this seeded fixture
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 3, 3))
    y = np.full(60, 0.7)
    cfg = small_config(epochs=5, learning_rate=0.01, batch_size=60)
    model = init_qlstm(cfg, input_dim=3, seed=17)
    report = train(model, cfg, window_set(x, y), window_set(x, y), seed=17)
    assert all(np.diff(report.train_losses) < 0)


def test_sine_fixture_qlstm(sine_dataset):
    cfg = HyperConfig(0.05, 1, 2, 4, 3, 32, 30)
    train_part, val_part = sine_dataset.train_val_windows(cfg.sequence_length)
    model = init_qlstm(cfg, input_dim=sine_dataset.train_matrix.shape[1], seed=42)
    report = train(model, cfg, train_part, val_part, seed=42)
    assert report.final_val_loss < 0.1
    assert all(v >= 0 and np.isfinite(v) for v in report.train_losses + report.test_losses)


def test_sine_fixture_classical(sine_dataset):
    cfg = HyperConfig(0.05, 1, 2, 4, 3, 32, 30)
    train_part, val_part = sine_dataset.train_val_windows(cfg.sequence_length)
    model = init_classical_lstm(cfg, input_dim=sine_dataset.train_matrix.shape[1], seed=42)
    report = train(model, cfg, train_part, val_part, seed=42)
    assert report.final_val_loss < 0.1


def test_classical_zero_learning_rate():
    rng = np.random.default_rng(6)
    train_set, test_set = _toy_sets(rng)
    cfg = small_config(learning_rate=0.0)
    model = init_classical_lstm(cfg, input_dim=3, seed=9)
    before = {k: v.copy() for k, v in model.param_arrays().items()}
    train(model, cfg, train_set, test_set, seed=9)
    for key, value in model.param_arrays().items():
        np.testing.assert_array_equal(value, before[key])


def test_training_is_bit_deterministic():
    rng = np.random.default_rng(8)
    train_set, test_set = _toy_sets(rng)
    cfg = small_config(epochs=4)
    r1 = train(init_qlstm(cfg, input_dim=3, seed=31), cfg, train_set, test_set, seed=77)
    r2 = train(init_qlstm(cfg, input_dim=3, seed=31), cfg, train_set, test_set, seed=77)
    assert r1.train_losses == r2.train_losses
    assert r1.test_losses == r2.test_losses


def test_empty_dataset_rejected():
    cfg = small_config()
    model = init_qlstm(cfg, input_dim=3, seed=1)
    empty = window_set(np.zeros((0, 3, 3)), np.zeros(0))
    good = window_set(np.zeros((4, 3, 3)), np.zeros(4))
    with pytest.raises(ConfigurationError):
        train(model, cfg, empty, good, seed=0)
    with pytest.raises(ConfigurationError):
        train(model, cfg, good, empty, seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_is_reported_not_crashed():
    rng = np.random.default_rng(12)
    train_set, test_set = _toy_sets(rng)
    cfg = small_config(learning_rate=1e154, epochs=3)
    model = init_qlstm(cfg, input_dim=3, seed=2)
    with pytest.raises(NumericDivergenceError):
        train(model, cfg, train_set, test_set, seed=2)


def test_window_length_mismatch_rejected():
    cfg = small_config(sequence_length=5)
    model = init_qlstm(cfg, input_dim=3, seed=1)
    sets = window_set(np.zeros((4, 3, 3)), np.zeros(4))
    with pytest.raises(ConfigurationError):
        train(model, cfg, sets, sets, seed=0)


# ---------------------------------------------------------------------------
# Configuration JSON (it names every stored model and seeds training through
# runner.config_digest, so its text must not drift)
# ---------------------------------------------------------------------------


def test_config_json_text_is_pinned():
    config = HyperConfig(0.05, 1, 2, 4, 3, 32, 1)
    assert config.to_json() == (
        '{"batch_size": 32, "epochs": 1, "hidden_units": 4, "learning_rate": 0.05, '
        '"n_layers": 1, "n_qubits": 2, "sequence_length": 3}'
    )
    assert config_digest(config) == "0f2f64e45189e16a"


@settings(max_examples=60, deadline=None)
@given(
    learning_rate=st.one_of(st.floats(0.0, 1e300), st.sampled_from([0.0, 5e-324, 0.1, 1.0])),
    ints=st.tuples(*[st.integers(1, 10**6)] * 5),
    n_qubits=st.integers(2, MAX_QUBITS),
)
def test_config_json_round_trip(learning_rate, ints, n_qubits):
    n_layers, hidden_units, sequence_length, batch_size, epochs = ints
    config = HyperConfig(learning_rate, n_layers, n_qubits, hidden_units, sequence_length,
                         batch_size, epochs)
    again = HyperConfig.from_json(config.to_json())
    assert again == config
    assert again.to_json() == config.to_json()


def test_config_from_dict_casts_each_field():
    config = HyperConfig.from_dict({"learning_rate": 1, "n_layers": 2.0, "n_qubits": 3.0,
                                    "hidden_units": 4.0, "sequence_length": 5.0,
                                    "batch_size": 6.0, "epochs": 7.0, "other": "ignored"})
    assert type(config.learning_rate) is float
    assert all(type(value) is int for key, value in config.to_dict().items()
               if key != "learning_rate")
    assert config == HyperConfig(1.0, 2, 3, 4, 5, 6, 7)
    assert config.to_json() == HyperConfig(1.0, 2, 3, 4, 5, 6, 7).to_json()


@pytest.mark.parametrize("key, value", [
    ("n_qubits", 2.7), ("epochs", True), ("batch_size", "16"), ("learning_rate", False),
    ("learning_rate", "0.05"), ("hidden_units", float("nan")),
])
def test_config_from_dict_refuses_what_it_would_truncate(key, value):
    # a count is an integral number and the rate a number; a bool is neither
    stored = {**HyperConfig(0.05, 1, 2, 4, 3, 16, 1).to_dict(), key: value}
    with pytest.raises((TypeError, ValueError)):
        HyperConfig.from_dict(stored)
    with pytest.raises(DataError):
        HyperConfig.from_json(json.dumps(stored))


def test_config_from_dict_takes_numpy_numbers():
    stored = {**HyperConfig(0.05, 1, 2, 4, 3, 16, 1).to_dict(),
              "n_qubits": np.int64(3), "learning_rate": np.float32(0.5)}
    config = HyperConfig.from_dict(stored)
    assert type(config.n_qubits) is int and config.n_qubits == 3
    assert type(config.learning_rate) is float and config.learning_rate == 0.5


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_qlstm_checkpoint_round_trip(tmp_path):
    cfg = small_config(n_qubits=3, hidden_units=4)
    model = init_qlstm(cfg, input_dim=5, seed=55)
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, cfg)
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    for (ka, va), (kb, vb) in zip(
        sorted(model.param_arrays().items()), sorted(loaded.param_arrays().items())
    ):
        assert ka == kb
        np.testing.assert_array_equal(va, vb)
    window = np.random.default_rng(3).normal(size=(3, 5))
    assert forward_sequence(model, window) == forward_sequence(loaded, window)


def test_classical_checkpoint_round_trip(tmp_path):
    cfg = small_config()
    model = init_classical_lstm(cfg, input_dim=4, seed=66)
    path = tmp_path / "lstm.npz"
    save_checkpoint(path, model, cfg)
    loaded, _ = load_checkpoint(path)
    for key, value in model.param_arrays().items():
        np.testing.assert_array_equal(value, loaded.param_arrays()[key])


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, version=np.array(99), kind=np.array("qlstm"))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)
