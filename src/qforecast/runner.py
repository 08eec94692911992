"""End-to-end orchestration: base-model training, the ensemble recipes,
held-out evaluation, the multi-step forecast, and reproducible run artifacts.

One call, :func:`run_ensemble`, trains, enumerates and weights every
ensemble: BO-Q keeps the best of the K^m tuples of its K-best sets, and
GenHyb is the K = 1 case, one tuned configuration per model.  The test-set
evaluation, the forecast and the ensemble checkpoint all take the ensemble
as the same ``(kind, config, model)`` triples.

Every stochastic stage draws its seed from the single run seed through
named sub-streams (``derive_seed``), and every (model index, configuration)
pair maps to one fixed training seed.  Training the same pair twice --
inside the tuple enumeration, its brute-force cross-check, a repeated tuner
probe, or a re-run from a manifest -- therefore yields bit-identical
results, which also makes memoization across tuples and probes sound.

Everything runs on one thread: base models train one after another.  The
run bookkeeping (seed streams, stage timing, manifests) lives in
:mod:`qforecast.bookkeeping`, which loads no model; ``derive_seed`` and
``write_manifest`` also resolve here, where ``perfbench/`` reads them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .bayesopt import EnumerationResult, enumerate_ensembles
from .bookkeeping import derive_seed, write_manifest as write_manifest
from .data import Dataset, destandardize_temperature, read_npz, write_npz
from .ensemble import combine_predictions
from .errors import ConfigurationError, DataError, NumericDivergenceError
from .metrics import ForecastResult, forecast_iterative, mape_with_exclusions, mse
from .qlstm import (
    HyperConfig,
    TrainReport,
    checked_array,
    init_classical_lstm,
    init_qlstm,
    model_from_arrays,
    model_to_arrays,
    predict_batch,
    train,
)

ENSEMBLE_CHECKPOINT_VERSION = 1

# reference magnitudes from full-scale tuning runs, shown for sanity checks
REFERENCE_LEARNING_RATES = {"genhyb": (0.0677, 0.0691), "bo-q": (0.0726, 0.0522)}


def config_digest(config: HyperConfig) -> str:
    return hashlib.sha256(config.to_json().encode()).hexdigest()[:16]


@dataclass
class BaseModelRun:
    """One trained base model plus its predictions on the validation segment."""

    model_index: int
    config: HyperConfig
    kind: str
    model: object
    report: TrainReport

    @property
    def val_predictions(self) -> np.ndarray:
        """The report's predictions, aligned on the shared validation targets."""
        return self.report.val_predictions

    @property
    def triple(self) -> tuple:
        return self.kind, self.config, self.model


def train_base_model(dataset: Dataset, config: HyperConfig, model_index: int,
                     master_seed: int, *, kind: str = "qlstm",
                     memo: dict | None = None) -> BaseModelRun:
    """Train one base model on the inner split and predict its validation segment.

    The training seed derives from (run seed, model index, configuration),
    so repeated calls are bit-identical; ``memo`` short-circuits them.
    """
    key = (kind, model_index, config)
    if memo is not None and key in memo:
        return memo[key]
    train_part, val_part = dataset.train_val_windows(config.sequence_length)
    seed = derive_seed(master_seed, "train", kind, model_index, config_digest(config))
    if kind == "qlstm":
        model = init_qlstm(config, input_dim=dataset.train_matrix.shape[1], seed=seed)
    elif kind == "lstm":
        model = init_classical_lstm(config, input_dim=dataset.train_matrix.shape[1], seed=seed)
    else:
        raise ConfigurationError(f"unknown model kind {kind!r}")
    report = train(model, config, train_part, val_part, seed=seed)
    run = BaseModelRun(model_index, config, kind, model, report)
    if memo is not None:
        memo[key] = run
    return run


def validation_targets(dataset: Dataset, sequence_lengths) -> np.ndarray:
    """Shared validation targets (identical for every window length)."""
    _, val_part = dataset.train_val_windows(max(sequence_lengths))
    return val_part.targets


def probe_objective(dataset: Dataset, sequence_length: int, model_index: int,
                    master_seed: int, *, probe_epochs: int = 5):
    """Objective for the tuners: validation MSE of a short probe training run.

    Each distinct probe configuration trains once: a tuner that revisits a
    configuration gets the memoized score, which training would reproduce
    bit for bit.
    """
    memo: dict = {}

    def objective(config: HyperConfig) -> float:
        probe = replace(config, epochs=probe_epochs)
        run = train_base_model(dataset, probe, model_index, master_seed, memo=memo)
        return run.report.final_val_loss

    return objective


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


@dataclass
class EnsembleRun:
    architecture: str  # "genhyb" or "bo-q"
    base_runs: list
    enumeration: EnumerationResult  # a single tuple for genhyb; its best holds the weights


def _test_predictions(dataset: Dataset, models) -> tuple[np.ndarray, int]:
    """Per-model test predictions restricted to the rows every model covers,
    and the first of those rows."""
    preds, firsts = [], []
    for _, config, model in models:  # one window stack alive at a time
        part = dataset.test_windows(config.sequence_length)
        preds.append(predict_batch(model, part.inputs))
        firsts.append(part.first_target_row)
    start = max(firsts)
    return np.vstack([p[start - first:] for p, first in zip(preds, firsts)]), start


def evaluate_ensemble(dataset: Dataset, models, weights, architecture: str) -> tuple[list, list]:
    """Test-set one-step evaluation of (kind, config, model) triples and their
    weighted combination: returns the metric rows and the forecast series,
    which share one timestamp list and one ``y_true`` array."""
    preds_std, start = _test_predictions(dataset, models)
    y_std = dataset.test_matrix[start:, 0]
    timestamps = list(range(start, len(dataset.test_matrix)))
    y_c = destandardize_temperature(y_std, dataset.scaler)
    tags = [f"{kind}-seq{config.sequence_length}" for kind, config, _ in models]
    combined_std = combine_predictions(weights, preds_std)

    rows, forecasts = [], []
    for tag, pred_std in zip([*tags, f"{architecture}-ensemble"], [*preds_std, combined_std]):
        pred_c = destandardize_temperature(pred_std, dataset.scaler)
        mape_pct, excluded = mape_with_exclusions(y_c, pred_c)
        rows.append({"model": tag, "mape_pct": mape_pct, "mse": mse(y_c, pred_c),
                     "mse_standardized": mse(y_std, pred_std), "excluded": excluded})
        forecasts.append(ForecastResult(timestamps, y_c, pred_c, tag, "test-one-step"))
    return rows, forecasts


def run_ensemble(architecture: str, dataset: Dataset, ksets: list, master_seed: int, *,
                 lam: float = 0.85, gamma: float = 0.85, nu: int | None = None,
                 memo: dict | None = None) -> EnsembleRun:
    """Train every distinct candidate of the K-best sets once, enumerate the
    K^m configuration tuples, and keep the winner with its weights.

    The tuple objective is the adaptively-weighted forecast MSE on the shared
    validation segment (never the test set); :func:`evaluate_ensemble` scores
    the winner's finalized simplex weights on the test set.  A candidate whose
    training diverges scores its tuples +inf; when every tuple diverges, the
    first failing model's NumericDivergenceError propagates.
    """
    memo = {} if memo is None else memo
    seqs = []
    for kset in ksets:
        lengths = {cfg.sequence_length for cfg in kset.configs}
        if len(lengths) != 1:
            raise ConfigurationError("each K-best set must share one sequence length")
        seqs.append(lengths.pop())
    val_y = validation_targets(dataset, seqs)

    # every distinct candidate trains once, up front; the enumeration reads the outcomes
    outcomes = {}
    for m, cfg in dict.fromkeys((m, cfg) for m, kset in enumerate(ksets)
                                for cfg in kset.configs):
        try:
            outcomes[m, cfg] = train_base_model(dataset, cfg, m, master_seed, memo=memo)
        except NumericDivergenceError as exc:
            outcomes[m, cfg] = exc

    def predict_fn(model_index: int, config: HyperConfig) -> np.ndarray:
        run = outcomes[(model_index, config)]
        if isinstance(run, NumericDivergenceError):
            raise run  # the enumeration scores the tuple +inf
        return run.val_predictions

    enumeration = enumerate_ensembles(ksets, predict_fn, val_y, lam=lam, gamma=gamma, nu=nu)
    winner = enumeration.best
    base_runs = [outcomes[pair] for pair in enumerate(winner.configs)]
    return EnsembleRun(architecture, base_runs, enumeration)


def forecast_horizon(dataset: Dataset, models, weights, horizon: int = 24,
                     *, model_tag: str = "ensemble") -> ForecastResult:
    """Iterative multi-step forecast of (kind, config, model) triples from the
    end of the training split."""
    future = dataset.test_matrix[:horizon, 0] if len(dataset.test_matrix) >= horizon else None
    return forecast_iterative(models, weights, dataset.train_matrix, dataset.scaler, horizon,
                              true_future=future, model_tag=model_tag)


# ---------------------------------------------------------------------------
# Ensemble checkpoints
# ---------------------------------------------------------------------------


def save_ensemble_checkpoint(path, architecture: str, weights, models: list) -> None:
    """Persist an ensemble: ``models`` is a list of (kind, config, model)."""
    payload = {
        "version": np.array(ENSEMBLE_CHECKPOINT_VERSION),
        "architecture": np.array(architecture),
        "n_models": np.array(len(models)),
        "weights": np.asarray(weights, dtype=float),
    }
    for i, (_, config, model) in enumerate(models):
        kind, arrays = model_to_arrays(model)
        payload[f"model{i}_kind"] = np.array(kind)
        payload[f"model{i}_config"] = np.array(config.to_json())
        payload[f"model{i}_input_dim"] = np.array(model.input_dim)
        payload.update({f"model{i}_{key}": value for key, value in arrays.items()})
    write_npz(path, payload)


def load_ensemble_checkpoint(path):
    """Returns (architecture, weights, [(kind, config, model), ...])."""
    data = read_npz(path, "ensemble checkpoint", ENSEMBLE_CHECKPOINT_VERSION)
    n_models = data.integer("n_models")
    if n_models < 1:
        raise DataError(f"{path}: the ensemble holds no models")
    models = []
    for i in range(n_models):
        prefix = f"model{i}_"
        kind = str(data[prefix + "kind"])
        config = HyperConfig.from_json(data[prefix + "config"])
        arrays = {key[len(prefix):]: value for key, value in data.items()
                  if key.startswith(prefix)}
        models.append((kind, config, model_from_arrays(
            kind, config, data.integer(prefix + "input_dim"), arrays)))
    weights = checked_array("weights", data["weights"], (len(models),))
    return str(data["architecture"]), weights, models
