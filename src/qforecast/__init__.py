"""Quantum-hybrid LSTM ensembles for short-term weather forecasting.

The package provides an exact statevector simulator for small variational
circuits, a quantum LSTM (plus a classical baseline) trained by
backpropagation through time with adjoint circuit gradients, swarm/genetic/
Bayesian hyperparameter tuners, inverse-error adaptive ensemble weighting,
an hourly-weather data pipeline, and a reproducible CLI harness.

One entry point, ``run_ensemble``, builds both ensembles of the paper: BO-Q
over the K-best sets of a Bayesian tune, GenHyb as the K = 1 case.
``forecast_iterative`` rolls the resulting ``(kind, config, model)``
triples forward hour by hour.
"""

__version__ = "0.1.0"

import importlib

from . import errors

# each module's exports, imported on first access (PEP 562): ``import
# qforecast.cli`` and a command that needs only the data layer load no model
_EXPORTS = {
    "bayesopt": ("KBestSet", "bo_tune", "enumerate_ensembles", "expected_improvement", "gp_fit"),
    "data": ("ingest_csv", "make_windows", "prepare_dataset", "synth_series"),
    "ensemble": ("combine_predictions", "evolve_weights", "finalize_weights"),
    "hyperspace": ("SearchSpace",),
    "metaheuristics": ("hybrid_minimize", "pso_minimize", "qga_minimize"),
    "metrics": ("forecast_iterative", "mape_with_exclusions", "mse"),
    "qlstm": ("HyperConfig", "forward_sequence", "init_classical_lstm", "init_qlstm", "train"),
    "quantum": ("VQCBlock",),
    "runner": ("run_ensemble",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", "errors", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
