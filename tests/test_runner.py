import warnings

import numpy as np
import pytest

from qforecast.bayesopt import KBestSet
from qforecast.data import prepare_dataset, synth_series
from qforecast.ensemble import WeightParams
from qforecast.errors import CheckpointVersionError
from qforecast.qlstm import HyperConfig, init_classical_lstm, predict_batch
from qforecast.runner import (
    derive_seed,
    evaluate_ensemble,
    forecast_horizon,
    load_ensemble_checkpoint,
    probe_objective,
    run_ensemble,
    save_ensemble_checkpoint,
    train_base_model,
    validation_targets,
)

warnings.filterwarnings("ignore", message="zero IQR")


@pytest.fixture(scope="module")
def small_dataset():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return prepare_dataset(synth_series(420, seed=6, noise_sigma=0.1), train_fraction=0.87)


def small_config(seq=3, **overrides):
    base = dict(learning_rate=0.05, n_layers=1, n_qubits=2, hidden_units=3,
                sequence_length=seq, batch_size=32, epochs=2)
    base.update(overrides)
    return HyperConfig(**base)


def genhyb_sets(configs):
    """One K = 1 set per configuration: the GenHyb ensemble."""
    return [KBestSet(m, [config], [0.0]) for m, config in enumerate(configs)]


@pytest.fixture
def trainings(monkeypatch):
    """The configuration of every call the runner makes to ``train``."""
    from qforecast import runner

    calls = []
    real_train = runner.train

    def counting_train(*args, **kwargs):
        calls.append(args[1])
        return real_train(*args, **kwargs)

    monkeypatch.setattr(runner, "train", counting_train)
    return calls


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(7, "train", 0) == derive_seed(7, "train", 0)
    assert derive_seed(7, "train", 0) != derive_seed(7, "train", 1)
    assert derive_seed(7, "train", 0) != derive_seed(8, "train", 0)
    assert derive_seed(7, "tune", 0) != derive_seed(7, "train", 0)


def test_repeated_training_is_bit_identical(small_dataset):
    cfg = small_config()
    a = train_base_model(small_dataset, cfg, 0, 99)
    b = train_base_model(small_dataset, cfg, 0, 99)
    assert a.report.train_losses == b.report.train_losses
    np.testing.assert_array_equal(a.val_predictions, b.val_predictions)
    # the last epoch's validation forward is the model's validation prediction
    _, val_part = small_dataset.train_val_windows(cfg.sequence_length)
    np.testing.assert_array_equal(a.val_predictions, predict_batch(a.model, val_part.inputs))
    test_inputs = small_dataset.test_windows(cfg.sequence_length).inputs
    np.testing.assert_array_equal(predict_batch(a.model, test_inputs),
                                  predict_batch(b.model, test_inputs))


def test_memo_short_circuits(small_dataset):
    cfg = small_config()
    memo = {}
    a = train_base_model(small_dataset, cfg, 0, 99, memo=memo)
    b = train_base_model(small_dataset, cfg, 0, 99, memo=memo)
    assert a is b


def test_probe_objective_trains_each_configuration_once(small_dataset, trainings):
    from qforecast.metaheuristics import ObjectiveTracker

    tracker = ObjectiveTracker(probe_objective(small_dataset, 3, 0, 99, probe_epochs=1),
                               budget=3, describe=lambda config: config.to_dict())
    first, again = (tracker(small_config(), "probe", it) for it in range(2))
    assert len(trainings) == 1 and first == again
    trace = tracker.trace
    assert len(trace) == 2 and trace[0]["objective"] == trace[1]["objective"]
    tracker(small_config(learning_rate=0.03), "probe", 2)
    assert len(trainings) == 2


def test_validation_targets_align_across_window_lengths(small_dataset):
    for seqs in ([3], [5], [3, 5]):
        y = validation_targets(small_dataset, seqs)
        _, val3 = small_dataset.train_val_windows(3)
        np.testing.assert_array_equal(y, val3.targets)


def test_boq_reuses_shared_trainings(small_dataset):
    memo = {}
    ksets = [
        KBestSet(0, [small_config(3), small_config(3, learning_rate=0.03)], [0.0, 1.0]),
        KBestSet(1, [small_config(5), small_config(5, learning_rate=0.03)], [0.0, 1.0]),
    ]
    run = run_ensemble(small_dataset, ksets, 11, WeightParams(), memo=memo)
    assert run.enumeration.n_tuples == 4
    assert len(memo) == 4  # one training per distinct (model, config) pair
    rows, _ = evaluate_ensemble(small_dataset, [r.triple for r in run.base_runs],
                                run.enumeration.best.weights, "bo-q")
    assert [r["model"] for r in rows][-1] == "bo-q-ensemble"


def test_boq_diverged_candidate_scores_inf(small_dataset, trainings):
    ksets = [
        KBestSet(0, [small_config(3), small_config(3, learning_rate=1e300)], [0.0, 1.0]),
        KBestSet(1, [small_config(5), small_config(5, learning_rate=0.03)], [0.0, 1.0]),
    ]
    run = run_ensemble(small_dataset, ksets, 11, WeightParams())
    assert len(trainings) == 4  # once per distinct (model, config) pair
    objectives = run.enumeration.objectives
    assert objectives[2:] == [float("inf")] * 2 and max(objectives[:2]) < float("inf")


def test_ensemble_checkpoint_round_trip(tmp_path, small_dataset):
    configs = [small_config(3), small_config(5)]
    run = run_ensemble(small_dataset, genhyb_sets(configs), 13, WeightParams())
    path = tmp_path / "ensemble.npz"
    save_ensemble_checkpoint(path, "genhyb", run.enumeration.best.weights,
                             [b.triple for b in run.base_runs])
    arch, weights, models = load_ensemble_checkpoint(path)
    assert arch == "genhyb"
    np.testing.assert_array_equal(weights, run.enumeration.best.weights)
    test_part = small_dataset.test_windows(3)
    np.testing.assert_array_equal(
        predict_batch(models[0][2], test_part.inputs),
        predict_batch(run.base_runs[0].model, test_part.inputs),
    )


def test_ensemble_checkpoint_version_guard(tmp_path):
    path = tmp_path / "old.npz"
    np.savez(path, version=np.array(42))
    with pytest.raises(CheckpointVersionError):
        load_ensemble_checkpoint(path)


def test_constant_lstm_checkpoint_round_trip(tmp_path):
    # the exact predictor the CLI tests use: an lstm whose readout ignores its state
    cfg = small_config()
    stub = init_classical_lstm(cfg, input_dim=7, seed=0)
    stub.w_y[:] = 0.0
    stub.b_y[:] = 0.25
    path = tmp_path / "stub.npz"
    save_ensemble_checkpoint(path, "genhyb", [1.0], [("lstm", cfg, stub)])
    _, _, models = load_ensemble_checkpoint(path)
    kind, _, model = models[0]
    assert kind == "lstm"
    windows = np.random.default_rng(0).normal(size=(4, 3, 7))
    np.testing.assert_array_equal(predict_batch(model, windows), np.full(4, 0.25))


def test_forecast_horizon_shapes(small_dataset):
    configs = [small_config(3), small_config(5)]
    run = run_ensemble(small_dataset, genhyb_sets(configs), 17, WeightParams())
    result = forecast_horizon(small_dataset, [b.triple for b in run.base_runs],
                              run.enumeration.best.weights, horizon=24, model_tag="ensemble")
    assert len(result.y_pred) == 24
    assert result.y_true is not None and len(result.y_true) == 24
    assert result.timestamps == list(range(1, 25))  # hours 1..24 ahead
