"""Span recorder installed around qforecast's public functions.

Every wrapper is put at each name its callers resolve (``qforecast.qlstm``
calls ``run_vqc_batch`` through its own module global, ``qforecast.cli``
calls ``train_base_model`` through its own, and so on), so each call into a
layer records exactly one span: (id, parent id, name, start, end, count).
Spans stay in memory and are written as one JSON file when the process
exits.  The benchmark drives the CLI with ``--jobs 1``, so one call stack
per process suffices.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import time

# span name -> (owner, attribute, counter(args, kwargs, result) or None).
# An owner is a module name, or "module:Class" for a method.
TARGETS = {
    "quantum.forward": ("qforecast.quantum", "run_vqc_batch", lambda a, k, r: len(a[1])),
    "quantum.gradient": ("qforecast.quantum", "vqc_gradients_batch",
                         lambda a, k, r: gradient_rows(a[0], len(a[1]))),
    "qlstm.forward": ("qforecast.qlstm:QLSTMParams", "forward_batch", None),
    "qlstm.backward": ("qforecast.qlstm:QLSTMParams", "backward", None),
    "qlstm.train": ("qforecast.qlstm", "train", None),
    "metaheuristics.hybrid": ("qforecast.metaheuristics", "hybrid_minimize", None),
    "metaheuristics.pso": ("qforecast.metaheuristics", "pso_minimize", None),
    "metaheuristics.qga": ("qforecast.metaheuristics", "qga_minimize", None),
    "bayesopt.gp_fit": ("qforecast.bayesopt", "gp_fit", None),
    "bayesopt.acquire": ("qforecast.bayesopt", "acquire_next", None),
    "bayesopt.enumerate": ("qforecast.bayesopt", "enumerate_ensembles",
                           lambda a, k, r: r.n_tuples),
    "ensemble.evolve": ("qforecast.ensemble", "evolve_weights",
                        lambda a, k, r: r.steps_taken),
    "data.ingest": ("qforecast.data", "ingest_csv", lambda a, k, r: len(r)),
    "data.prepare": ("qforecast.data", "prepare_dataset", None),
    "data.windows": ("qforecast.data", "make_windows", None),
    "data.save_dataset": ("qforecast.data", "save_dataset", None),
    "data.load_dataset": ("qforecast.data", "load_dataset", None),
    "metrics.forecast": ("qforecast.metrics", "forecast_iterative", None),
    "metrics.model_call": ("qforecast.qlstm", "forward_sequence", None),
    "runner.train_base_model": ("qforecast.runner", "train_base_model", None),
    "runner.manifest": ("qforecast.runner", "write_manifest", None),
    "runner.save_ensemble": ("qforecast.runner", "save_ensemble_checkpoint", None),
    "runner.load_ensemble": ("qforecast.runner", "load_ensemble_checkpoint", None),
    "runner.save_model": ("qforecast.qlstm", "save_checkpoint", None),
}


def gradient_rows(block, batch: int) -> int:
    """Circuit rows one parameter-shift gradient call simulates: two shifted
    copies of the batch per trainable angle (3Ln) and per encoding angle (2n)."""
    n, layers = block.n_qubits, block.n_layers
    return batch * 2 * (3 * layers * n + 2 * n)


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list = []
        self.handler_entries: list = []

    def wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = counter(args, kwargs, result) if counter and result is not None else 0
                spans.append((span_id, parent, name, start, end, count))

        return traced

    def dump(self, path) -> None:
        payload = {"run_id": self.run_id, "spans": self.spans,
                   "handler_entries": self.handler_entries}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _owner(spec: str):
    module_name, _, cls = spec.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return getattr(module, cls) if cls else module


def install(recorder: Recorder) -> None:
    """Wrap every target at its home name and at every qforecast module
    global that holds the same function object."""
    import qforecast.cli  # imports every layer

    modules = [m for name, m in list(sys.modules.items())
               if name == "qforecast" or name.startswith("qforecast.")]
    for name, (owner_spec, attr, counter) in TARGETS.items():
        owner = _owner(owner_spec)
        original = getattr(owner, attr)
        wrapped = recorder.wrap(name, original, counter)
        setattr(owner, attr, wrapped)
        if ":" in owner_spec:
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    # time from process spawn to command handler entry
    commands = qforecast.cli.COMMANDS
    for command, handler in list(commands.items()):
        commands[command] = _entry_marker(recorder, handler)


def _entry_marker(recorder: Recorder, handler):
    def entered(options):
        recorder.handler_entries.append(time.time())
        return handler(options)

    return entered


def start_from_env() -> Recorder | None:
    """Install a recorder when ``PERFBENCH_SPANS`` names an output file."""
    path = os.environ.get("PERFBENCH_SPANS")
    if not path:
        return None
    recorder = Recorder(os.environ.get("PERFBENCH_RUN_ID", "run"))
    install(recorder)
    atexit.register(recorder.dump, path)
    return recorder
