"""The library names and call forms the benchmark in ``perfbench/`` relies on.

The traced benchmark resolves its targets with ``getattr`` at run time, so a
renamed function or a dropped keyword breaks only a ``--trace 1`` run.  These
tests read ``perfbench/`` without changing it and fail at once instead.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qforecast.bayesopt import acquire_next, gp_fit
from qforecast.data import prepare_dataset, synth_series
from qforecast.qlstm import HyperConfig, init_qlstm
from qforecast.runner import validation_targets

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    tracer = load_tracer()
    assert tracer.TARGETS
    for name, (owner, attr, _) in tracer.TARGETS.items():
        assert callable(getattr(tracer._owner(owner), attr, None)), name


def qforecast_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qforecast"):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_every_name_perfbench_imports_exists():
    imports = list(qforecast_imports())
    assert imports
    for filename, module, name in imports:
        assert hasattr(importlib.import_module(module), name), (filename, module, name)


@pytest.fixture(scope="module")
def dataset():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return prepare_dataset(synth_series(240, seed=3))


def test_perfbench_call_forms_run(dataset):
    rng = np.random.default_rng(0)
    x = rng.random((6, 2))
    gp = gp_fit(x, np.sin(3.0 * x).sum(axis=1), seed=1)
    assert acquire_next(gp, gp.best_observed, seed=1).shape == (2,)

    _, val_part = dataset.train_val_windows(3)
    np.testing.assert_array_equal(validation_targets(dataset, (3, 5)), val_part.targets)

    model = init_qlstm(HyperConfig(0.05, 1, 2, 4, 3, 32, 1), dataset.train_matrix.shape[1],
                       seed=2)
    batch = len(val_part)
    h, c, y, _ = model.step_batch(val_part.inputs[:, 0], np.zeros((batch, 4)),
                                  np.zeros((batch, 2)), want_y=True)
    assert h.shape == (batch, 4) and c.shape == (batch, 2) and y.shape[0] == batch
    preds, caches = model.forward_batch(val_part.inputs, need_cache=True)
    assert preds.shape == (batch,) and len(caches) == 3


def test_traced_forecast_span_counts_every_model_call(dataset, monkeypatch):
    # the tracer's metrics.model_call span wraps qlstm.forward_sequence, which
    # forecast_iterative looks up there at each call, so each window of each
    # model is one call
    from qforecast import qlstm
    from qforecast.runner import forecast_horizon

    calls = []
    real = qlstm.forward_sequence
    monkeypatch.setattr(qlstm, "forward_sequence",
                        lambda *args: calls.append(1) or real(*args))
    n_features = dataset.train_matrix.shape[1]
    configs = [HyperConfig(0.05, 1, 2, 4, seq, 32, 1) for seq in (3, 5)]
    models = [("qlstm", config, init_qlstm(config, n_features, seed=seq))
              for seq, config in enumerate(configs)]
    result = forecast_horizon(dataset, models, [0.5, 0.5], horizon=6)
    assert len(result.y_pred) == 6
    assert len(calls) == 6 * 2


def test_tracer_leaves_no_caller_holding_an_unwrapped_target():
    # the tracer rewrites the globals of the qforecast modules loaded when it
    # installs; a module loaded later that bound a target before it was
    # wrapped would keep the original, and its span would read 0.  A fresh
    # process sees the CLI's lazy imports as a traced run does.
    probe = ("import importlib, pkgutil, sys\n"
             "import qforecast, tracer\n"
             "tracer.install(tracer.Recorder('probe'))\n"
             "for info in pkgutil.iter_modules(qforecast.__path__):\n"
             "    importlib.import_module('qforecast.' + info.name)\n"
             "originals = {}\n"
             "for span, (owner, attr, _) in tracer.TARGETS.items():\n"
             "    originals[id(getattr(tracer._owner(owner), attr).__wrapped__)] = span\n"
             "held = sorted((originals[id(value)], name, key)\n"
             "              for name, module in list(sys.modules.items())\n"
             "              if name.startswith('qforecast')\n"
             "              for key, value in vars(module).items() if id(value) in originals)\n"
             "assert not held, held\n")
    root = PERFBENCH.parent
    proc = subprocess.run([sys.executable, "-c", probe], cwd=root,
                          env={**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{PERFBENCH}"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
