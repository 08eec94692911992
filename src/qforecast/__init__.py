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

from . import errors
from .bayesopt import KBestSet, bo_tune, enumerate_ensembles, expected_improvement, gp_fit
from .data import ingest_csv, make_windows, prepare_dataset, synth_series
from .ensemble import combine_predictions, evolve_weights, finalize_weights
from .hyperspace import SearchSpace
from .metaheuristics import hybrid_minimize, pso_minimize, qga_minimize
from .metrics import forecast_iterative, mape_with_exclusions, mse
from .qlstm import HyperConfig, forward_sequence, init_classical_lstm, init_qlstm, train
from .quantum import VQCBlock
from .runner import run_ensemble

__all__ = [
    "errors",
    "__version__",
    "KBestSet", "bo_tune", "enumerate_ensembles", "expected_improvement", "gp_fit",
    "ingest_csv", "make_windows", "prepare_dataset", "synth_series",
    "combine_predictions", "evolve_weights", "finalize_weights",
    "SearchSpace",
    "hybrid_minimize", "pso_minimize", "qga_minimize",
    "forecast_iterative", "mape_with_exclusions", "mse",
    "HyperConfig", "forward_sequence", "init_classical_lstm", "init_qlstm", "train",
    "VQCBlock",
    "run_ensemble",
]
