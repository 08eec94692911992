"""Adaptive inverse-error combination weights for model ensembles.

Weights evolve over a sequence of per-model absolute prediction errors:
at each step k the discounted error memory

    eps_m(k) = sum_{t=max(1, k-nu+1)..k} gamma^(k-t) * e_m(t)

covers the last ``nu`` steps that exist (``nu=None`` covers all of them),
is inverted and normalized across models into an increment

    delta_m(k) = (1/eps_m(k)) / sum_n (1/eps_n(k)),

and the running weights move by w_m <- w_m + lambda * delta_m(k).  After the
last step the accumulated weights are normalized onto the probability
simplex.  A forgetting factor gamma < 1 makes recent errors count more.

``evolve_weights`` computes every step in one pass: the full-history memory
is the recursion eps_m(k) = gamma * eps_m(k-1) + e_m(k), a window of ``nu``
is one convolution per model with the taps gamma^0..gamma^(nu-1), and the
weights are the running sum of the increments.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError, ShapeError

logger = logging.getLogger(__name__)

DEFAULT_LAMBDA = 0.85
DEFAULT_GAMMA = 0.85
ERROR_FLOOR = 1e-12


def _check_errors(errors: np.ndarray) -> np.ndarray:
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 2:
        raise ShapeError("errors must be (n_models, n_steps)")
    if errors.shape[0] < 1:
        raise ConfigurationError("need at least one model")
    if not np.all(np.isfinite(errors)):
        raise NumericError("error series contains non-finite values")
    if np.any(errors < 0):
        raise NumericError("prediction errors must be non-negative")
    return errors


def check_weight_params(lam: float, gamma: float, nu: int | None) -> None:
    """Reject a step size, forgetting factor or window outside its range:
    lambda finite and >= 0, 0 <= gamma <= 1, nu None or an integer >= 1."""
    if not (np.isfinite(lam) and lam >= 0):
        raise ConfigurationError(f"lambda={lam} must be finite and >= 0")
    if not 0 <= gamma <= 1:
        raise ConfigurationError(f"gamma={gamma} must satisfy 0 <= gamma <= 1")
    if nu is not None and not (isinstance(nu, (int, np.integer)) and nu >= 1):
        raise ConfigurationError(f"window nu={nu} must be None or an integer >= 1")


@dataclass
class EnsembleWeights:
    """Accumulated weights plus the per-step history that produced them."""

    weights: np.ndarray
    history: np.ndarray  # (n_steps, n_models) weights after each step
    eps_history: np.ndarray  # (n_steps, n_models) floored smoothed errors

    @property
    def n_models(self) -> int:
        return len(self.weights)

    @property
    def steps_taken(self) -> int:
        return len(self.history)


def evolve_weights(errors, lam: float = DEFAULT_LAMBDA, gamma: float = DEFAULT_GAMMA,
                   nu: int | None = None) -> EnsembleWeights:
    """Run the update over every step of an (n_models, n_steps) error series."""
    check_weight_params(lam, gamma, nu)
    errors = _check_errors(errors)
    n_models, n_steps = errors.shape
    eps = np.empty((n_steps, n_models))
    if nu is None or nu >= n_steps:  # the window holds every step
        # on Python floats: one numpy call per step would cost ~15x more
        for m, row in enumerate(errors):
            memory, column = 0.0, []
            for error in row.tolist():
                memory = gamma * memory + error
                column.append(memory)
            eps[:, m] = column
    else:
        taps = gamma ** np.arange(nu)
        for m, row in enumerate(errors):
            eps[:, m] = np.convolve(row, taps)[:n_steps]
    if not np.all(np.isfinite(eps)):
        raise NumericError("non-finite smoothed error")
    floored = eps <= 0.0  # only an all-zero window sums to zero
    if floored.any():
        logger.warning("%d zero smoothed errors; flooring each to %g",
                       int(floored.sum()), ERROR_FLOOR)
        eps[floored] = ERROR_FLOOR
    inv = 1.0 / eps
    delta = inv / inv.sum(axis=1, keepdims=True)
    steps = np.vstack([np.full((1, n_models), 1.0 / n_models), lam * delta])
    with np.errstate(over="ignore"):  # an overflow is refused, not warned about
        history = np.cumsum(steps, axis=0)
    # the increments are non-negative, so an overflow shows in the last row
    if not np.isfinite(history[-1]).all():
        raise ConfigurationError(f"lambda={lam} overflows the accumulated weights "
                                 f"over {n_steps} steps")
    return EnsembleWeights(weights=history[-1].copy(), history=history[1:], eps_history=eps)


def finalize_weights(weights: EnsembleWeights) -> np.ndarray:
    """Normalize the accumulated weights onto the probability simplex."""
    if weights.steps_taken < 1:
        raise ConfigurationError("at least one update step is required before finalizing")
    total = weights.weights.sum()
    if total <= 0.0:
        raise ConfigurationError("accumulated weights sum to zero; cannot normalize")
    return weights.weights / total


def combine_predictions(simplex_weights, predictions) -> np.ndarray:
    """Weighted sum of per-model prediction series."""
    simplex_weights = np.asarray(simplex_weights, dtype=float)
    predictions = np.asarray(predictions, dtype=float)
    if predictions.ndim != 2:
        raise ShapeError("predictions must be (n_models, n_steps)")
    if len(simplex_weights) != predictions.shape[0]:
        raise ShapeError(
            f"{predictions.shape[0]} prediction rows but {len(simplex_weights)} weights"
        )
    return simplex_weights @ predictions


def weights_from_predictions(y_true, per_model_preds, lam: float = DEFAULT_LAMBDA,
                             gamma: float = DEFAULT_GAMMA, nu: int | None = None) -> EnsembleWeights:
    """Evolve weights from raw predictions via absolute errors |y - yhat|."""
    y_true = np.asarray(y_true, dtype=float)
    per_model_preds = np.asarray(per_model_preds, dtype=float)
    if per_model_preds.ndim != 2 or per_model_preds.shape[1] != y_true.shape[0]:
        raise ShapeError("per_model_preds must be (n_models, len(y_true))")
    errors = np.abs(per_model_preds - y_true[None, :])
    return evolve_weights(errors, lam=lam, gamma=gamma, nu=nu)


def weight_history_tsv(weights: EnsembleWeights) -> str:
    """Line-per-step export (step, weights, smoothed errors) for plotting."""
    m = weights.n_models
    header = ["step"] + [f"w_{i}" for i in range(m)] + [f"eps_{i}" for i in range(m)]
    lines = ["\t".join(header)]
    for k, (w, eps) in enumerate(zip(weights.history, weights.eps_history), start=1):
        cells = [str(k)] + [format(v, ".12g") for v in w] + [format(v, ".12g") for v in eps]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
