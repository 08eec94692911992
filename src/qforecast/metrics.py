"""Forecast-accuracy metrics and multi-step forecast emission.

MAPE follows the percentage convention, 100/N * sum(|y - yhat| / |y|);
targets with |y| below 1e-8 are excluded from the sum and counted in a
reported exclusion tally (temperatures in Celsius do cross zero).  The
24-hour forecast is iterative and takes the same ``(kind, config, model)``
triples as the test-set evaluation in ``runner``: each step runs every model
once on its trailing window (``forward_sequence``, with the model's circuits
compiled once for the whole forecast), and the weighted prediction is fed
back as the next window's temperature while the exogenous features persist
from the last observed hour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TEMPERATURE, ScalerState, destandardize_temperature
from .errors import ConfigurationError, MetricUndefinedError, ShapeError
from . import qlstm
from .qlstm import compile_model

ZERO_TOLERANCE = 1e-8


def _paired(y_true, y_pred):
    y_true = np.asarray(y_true, dtype=float).reshape(-1)
    y_pred = np.asarray(y_pred, dtype=float).reshape(-1)
    if y_true.shape != y_pred.shape:
        raise ShapeError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size < 1:
        raise ShapeError("need at least one pair")
    return y_true, y_pred


def mape_with_exclusions(y_true, y_pred) -> tuple[float, int]:
    """Mean absolute percentage error plus the count of excluded targets."""
    y_true, y_pred = _paired(y_true, y_pred)
    mask = np.abs(y_true) >= ZERO_TOLERANCE
    excluded = int((~mask).sum())
    if excluded == y_true.size:
        raise MetricUndefinedError("every target was below the zero-tolerance; MAPE undefined")
    value = 100.0 * float(np.mean(np.abs(y_true[mask] - y_pred[mask]) / np.abs(y_true[mask])))
    return value, excluded


def mse(y_true, y_pred) -> float:
    y_true, y_pred = _paired(y_true, y_pred)
    diff = y_true - y_pred
    return float(np.mean(diff * diff))


@dataclass
class ForecastResult:
    """A forecast series in physical units, ready for plotting."""

    timestamps: list
    y_true: np.ndarray | None  # Celsius; None when truth is unavailable
    y_pred: np.ndarray  # Celsius
    model: str
    horizon: str  # "test-one-step" or "24h"

    def __post_init__(self):
        if self.y_true is not None and len(self.y_true) != len(self.y_pred):
            raise ShapeError("y_true and y_pred must have equal lengths")
        if len(self.timestamps) != len(self.y_pred):
            raise ShapeError("timestamps and y_pred must have equal lengths")


def forecast_iterative(
    models,
    weights,
    context: np.ndarray,
    scaler: ScalerState,
    horizon: int,
    *,
    true_future=None,
    model_tag: str = "ensemble",
) -> ForecastResult:
    """Roll weighted ``(kind, config, model)`` triples ``horizon`` steps ahead,
    stamped 1..``horizon``.

    ``context`` is the standardized trailing history (at least the longest
    window).  Each combined prediction is written back into the temperature
    column of the next row of a buffer.  Every model is compiled once
    (:func:`~qforecast.qlstm.compile_model`), and each hour runs it through
    ``forward_sequence`` with that compile: the angles do not move during a
    forecast.
    """
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(models):
        raise ShapeError("one weight per model required")
    max_seq = max(config.sequence_length for _, config, _ in models)
    context = np.asarray(context, dtype=float)
    if context.ndim != 2 or len(context) < max_seq:
        raise ShapeError(f"context must hold at least {max_seq} rows")
    if true_future is not None and len(true_future) < horizon:
        raise ShapeError("true_future shorter than the forecast horizon")

    compiled = [compile_model(model) for _, _, model in models]
    buffer = np.empty((max_seq + horizon, context.shape[1]))
    buffer[:max_seq] = context[-max_seq:]
    preds_std = np.empty(horizon)
    for step in range(horizon):
        end = max_seq + step
        combined = 0.0
        for w, (_, config, model), unitaries in zip(weights, models, compiled):
            # looked up on its module at each call, so a wrapper set there
            # (perfbench's metrics.model_call span) sees every call
            combined += w * qlstm.forward_sequence(
                model, buffer[end - config.sequence_length : end], unitaries)
        preds_std[step] = combined
        buffer[end] = buffer[end - 1]
        buffer[end, TEMPERATURE] = combined

    y_pred = destandardize_temperature(preds_std, scaler)
    y_true = None
    if true_future is not None:
        y_true = destandardize_temperature(np.asarray(true_future[:horizon], float), scaler)
    return ForecastResult(
        timestamps=list(range(1, horizon + 1)),
        y_true=y_true,
        y_pred=y_pred,
        model=model_tag,
        horizon="24h" if horizon == 24 else f"{horizon}-step",
    )


# ---------------------------------------------------------------------------
# Plot-ready emission
# ---------------------------------------------------------------------------


def tsv_lines(results: list[ForecastResult]):
    """Delimited lines (timestamp, y_true, y_pred, model), header first, each
    with its newline.  A series is one bound ``str.format`` mapped over its
    columns' ``tolist()``; the model tag is literal text in that template."""
    yield "timestamp\ty_true\ty_pred\tmodel\n"
    for res in results:
        tag = res.model.replace("{", "{{").replace("}", "}}")
        if res.y_true is None:
            yield from map(f"{{}}\t\t{{:.10g}}\t{tag}\n".format, res.timestamps,
                           res.y_pred.tolist())
        else:
            yield from map(f"{{}}\t{{:.10g}}\t{{:.10g}}\t{tag}\n".format, res.timestamps,
                           res.y_true.tolist(), res.y_pred.tolist())


def write_tsv(results: list[ForecastResult], path) -> None:
    """Write :func:`tsv_lines` to ``path``: delimited text for any plotting tool."""
    with open(path, "w") as fh:
        fh.writelines(tsv_lines(results))


def format_metrics_table(rows: list[dict]) -> str:
    """Fixed-order text table with one MAPE/MSE line per model."""
    width = max([len("model")] + [len(r["model"]) for r in rows])
    header = f"{'model'.ljust(width)}  {'mape_pct':>12}  {'mse':>14}  {'excluded':>8}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['model'].ljust(width)}  {r['mape_pct']:12.6f}  {r['mse']:14.8f}  "
            f"{r.get('excluded', 0):8d}"
        )
    return "\n".join(lines) + "\n"
