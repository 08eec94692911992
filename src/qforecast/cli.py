"""Batch command-line harness.

Subcommands: ``synth``, ``preprocess``, ``tune``, ``train``, ``ensemble``,
``forecast``, ``evaluate``, and ``rerun`` (re-execute any command from its
manifest).  Every command resolves its options (defaults < ``--config``
JSON < flags), derives all randomness from the single run seed, refuses to
overwrite existing outputs without ``--force``, and writes a manifest with
content hashes of everything it produced.  A command computes everything
first and writes its outputs only once it has succeeded (:func:`publish`), so
a command that fails leaves the run tree as it found it.

Exit codes: 0 success, 2 usage/configuration (a size too large to allocate
included), 3 data error, 4 numeric divergence.  The environment variable
``QFORECAST_OUT_ROOT`` rebases relative run directories.

Each command imports the layers it runs inside its handler, so
``preprocess`` and ``synth`` load the data layer and no model.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bookkeeping import StageTimer, derive_seed, write_manifest
from .errors import (
    CheckpointVersionError,
    ConfigurationError,
    DataError,
    NumericDivergenceError,
    QForecastError,
)

OUT_ROOT_ENV = "QFORECAST_OUT_ROOT"

MODEL_DEFAULTS = {
    "epochs": 30,
    "n_qubits": 2,
    "n_layers": 1,
    "hidden_units": 4,
    "learning_rate": 0.05,
    "batch_size": 32,
}

TUNER_CHOICES = ("pso", "qga", "hybrid", "bayes")
MAX_HORIZON = 8766  # the longest forecast --horizon: a year of hours, each fed back into the next
ARCH_CHOICES = ("genhyb", "bo-q")


def resolve_run_dir(raw: str) -> Path:
    path = Path(raw)
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def read_manifest(path: Path) -> tuple[dict, dict]:
    """A manifest and its artifact hashes by path; an unreadable one is a usage error."""
    try:
        manifest = json.loads(path.read_text())
        return manifest, {str(a["path"]): str(a["sha256"]) for a in manifest["artifacts"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigurationError(f"{path} is not a readable manifest: {exc}") from exc


def check_output(path: Path, force: bool) -> Path:
    """Refuse an output directory path that holds anything but a directory,
    and a non-empty directory unless forced."""
    if path.exists() and not path.is_dir():
        raise ConfigurationError(f"{path} exists and is not a directory")
    if path.exists() and any(path.iterdir()) and not force:
        raise ConfigurationError(f"{path} already exists; pass --force to overwrite")
    return path


def publish(out_dir: Path, command: str, config: dict, times: dict, files: dict) -> Path:
    """Write a command's computed outputs, then its manifest.

    ``files`` maps each name, in manifest order, to a dict or list (written as
    JSON), a str (written as text) or a callable that writes the path it is
    given.  An occupied ``out_dir`` is refused unless ``config["force"]``; a
    forced run first deletes only the files the old manifest lists."""
    check_output(out_dir, config["force"])
    if (out_dir / "manifest.json").is_file():
        for name in read_manifest(out_dir / "manifest.json")[1]:
            if (out_dir / name).parent == out_dir and (out_dir / name).is_file():
                (out_dir / name).unlink()
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if callable(content):
            content(out_dir / name)
        elif isinstance(content, str):
            (out_dir / name).write_text(content)
        else:
            (out_dir / name).write_text(json.dumps(content, indent=2, sort_keys=True) + "\n")
    return write_manifest(out_dir, command, config, int(config["seed"]), times,
                          [out_dir / name for name in files])


def load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        config = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    return config


def check_counts(options: dict, **minimums: int) -> None:
    """Counts such as ``--k`` must be at least their minimum."""
    for key, minimum in minimums.items():
        if int(options[key]) < minimum:
            raise ConfigurationError(f"--{key.replace('_', '-')} must be >= {minimum}, "
                                     f"got {options[key]}")


def command_flags(parser: argparse.ArgumentParser, command: str) -> list:
    """The argparse actions of the flags ``command`` takes, ``--config`` aside."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if a.dest not in ("help", "config")]


def config_value(flag: argparse.Action, value, default):
    """A config-file value converted as the flag's argument would be: by its
    ``type``, each element for ``nargs="+"``, and checked against its
    ``choices``; a switch (``store_true``) takes a JSON boolean.  JSON null
    stands where the default is None."""
    if value is None and default is None:
        return None
    if flag.nargs == 0 and isinstance(value, bool):
        return value
    many = flag.nargs == "+"
    try:
        if flag.nargs == 0 or many != isinstance(value, list) or value == []:
            raise ValueError
        converted = [(flag.type or str)(str(v)) for v in (value if many else [value])]
        if flag.choices and any(v not in flag.choices for v in converted):
            raise ValueError
    except ValueError:
        raise ConfigurationError(f"config key {flag.dest!r}: {value!r} is not a valid "
                                 f"{flag.option_strings[0]} value") from None
    return converted if many else converted[0]


def merge_options(defaults: dict, config_file: dict, args: argparse.Namespace,
                  flags: list) -> dict:
    """defaults < config file < explicit CLI flags, for the keys that ``flags``
    (the command's argparse actions) name; other config-file keys are ignored."""
    merged = dict(defaults)
    for flag in flags:
        key = flag.dest
        if key in config_file:
            merged[key] = config_value(flag, config_file[key], defaults.get(key))
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    return merged


def dataset_path(run_dir: Path) -> Path:
    path = run_dir / "dataset.npz"
    if not path.exists():
        raise ConfigurationError(
            f"no preprocessed dataset at {path}; run `qforecast preprocess --run {run_dir}` first"
        )
    return path


def model_config(options: dict, sequence_length: int):
    from .qlstm import HyperConfig

    return HyperConfig.from_dict({**options, "sequence_length": sequence_length}).validate()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(options: dict) -> int:
    from .data import synth_series, write_csv

    out = resolve_run_dir(options["out"])
    if out.is_dir():
        raise ConfigurationError(f"--out {out} is a directory")
    if out.exists() and not options["force"]:
        raise ConfigurationError(f"{out} already exists; pass --force to overwrite")
    series = synth_series(int(options["hours"]), int(options["seed"]),
                          noise_sigma=float(options["noise"]))
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(series, out)
    print(f"wrote {len(series)} hourly rows to {out}")
    return 0


def cmd_preprocess(options: dict) -> int:
    from .data import ingest_csv, prepare_dataset, save_dataset, synth_series

    run_dir = check_output(resolve_run_dir(options["run"]), options["force"])
    timer = StageTimer()
    seed = int(options["seed"])
    with timer.time("ingest"):
        if options.get("csv"):
            options = {**options, "csv": str(Path(options["csv"]).resolve())}
            series = ingest_csv(options["csv"])
            source = {"csv": options["csv"]}
        elif options.get("synth_hours"):
            series = synth_series(int(options["synth_hours"]), derive_seed(seed, "synth"),
                                  noise_sigma=float(options["noise"]))
            source = {"synth_hours": int(options["synth_hours"]), "noise": float(options["noise"])}
        else:
            raise ConfigurationError("preprocess needs --csv FILE or --synth-hours N")
    with timer.time("prepare"):
        dataset = prepare_dataset(series, train_fraction=float(options["train_fraction"]))
    summary = {
        "rows": dataset.n_rows,
        "train_rows": len(dataset.train_matrix),
        "test_rows": len(dataset.test_matrix),
        "features": dataset.train_matrix.shape[1],
        "scaler_median": [round(v, 12) for v in dataset.scaler.median],
        "scaler_iqr": [round(v, 12) for v in dataset.scaler.iqr],
    }
    publish(run_dir, "preprocess", {**options, "source": source}, timer.times, {
        "dataset.npz": lambda path: save_dataset(path, dataset),
        "summary.json": summary,
    })
    print(f"preprocessed {summary['rows']} rows -> {summary['train_rows']} train / "
          f"{summary['test_rows']} test ({run_dir})")
    return 0


def _tune_one_model(tuner: str, dataset, seq: int, model_index: int, options: dict):
    """One model's best configuration and score, and its files by name."""
    import numpy as np

    from .bayesopt import bo_tune
    from .hyperspace import SearchSpace
    from .metaheuristics import (HYBRID_POP_SIZE, ObjectiveTracker, hybrid_minimize,
                                 pso_minimize, qga_minimize)
    from .runner import probe_objective

    seed = derive_seed(int(options["seed"]), "tune", tuner, model_index)
    space = SearchSpace.default(
        sequence_length=seq, epochs=int(options["epochs"]),
        qubit_bounds=(2, int(options["max_qubits"])),
        layer_bounds=(1, int(options["max_layers"])),
    )
    objective = probe_objective(dataset, seq, model_index, int(options["seed"]),
                                probe_epochs=int(options["probe_epochs"]))
    trace: list = []
    budget = int(options["budget"])

    if tuner == "bayes":
        n_init = min(5, max(2, budget - 1))
        kset = bo_tune(objective, space, n_init=n_init, budget=budget, k=int(options["k"]),
                       seed=seed, model_index=model_index, trace=trace)
        best = {"config": kset.configs[0].to_dict(), "score": kset.scores[0]}
        files = {f"kbest_seq{seq}.json": kset.to_dict()}
    else:
        tracker = ObjectiveTracker(
            lambda v: objective(space.decode_vector(v)), budget=budget, trace=trace,
            describe=lambda v: space.decode_vector(v).to_dict(),
        )
        if tuner == "pso":
            result = pso_minimize(tracker, space.bounds(), seed=seed)
            best_vector = result.best_position
        elif tuner == "qga":
            result = qga_minimize(tracker, space.total_bits,
                                  n_generations=max(1, budget // HYBRID_POP_SIZE), seed=seed,
                                  decode=space.decode_bits)
            best_vector = np.asarray(result.best_decoded)
        else:  # hybrid
            result = hybrid_minimize(tracker, space.bounds(), seed=seed,
                                     decode_bits=space.decode_bits, n_bits=space.total_bits)
            best_vector = result.best_position
        config = space.decode_vector(best_vector)
        best = {"config": config.to_dict(), "score": float(result.best_value)}
        files = {f"best_config_seq{seq}.json": best}

    files[f"trace_seq{seq}.jsonl"] = "".join(json.dumps(row, sort_keys=True) + "\n"
                                             for row in trace)
    return best, files


def cmd_tune(options: dict) -> int:
    from .data import load_dataset
    from .quantum import MAX_QUBITS
    from .runner import REFERENCE_LEARNING_RATES

    tuner = options["tuner"]
    # the bayes tuner's GP needs two initial points
    check_counts(options, k=1, budget=2 if tuner == "bayes" else 1, max_qubits=2, max_layers=1)
    if int(options["max_qubits"]) > MAX_QUBITS:
        raise ConfigurationError(f"--max-qubits must be <= {MAX_QUBITS}, "
                                 f"got {options['max_qubits']}")
    run_dir = resolve_run_dir(options["run"])
    dataset = load_dataset(dataset_path(run_dir))
    out_dir = check_output(run_dir / f"tune-{tuner}", options["force"])
    timer = StageTimer()
    files = {}
    for model_index, seq in enumerate(options["seq"]):
        with timer.time(f"model{model_index}"):
            best, model_files = _tune_one_model(tuner, dataset, int(seq), model_index, options)
        files.update(model_files)
        ref = REFERENCE_LEARNING_RATES.get("genhyb" if tuner != "bayes" else "bo-q")
        print(f"model {model_index} (seq {seq}): best score {best['score']:.6f} "
              f"lr {best['config']['learning_rate']:.4f} "
              f"(reference full-scale lr magnitudes: {ref})")
    publish(out_dir, "tune", options, timer.times, files)
    return 0


def cmd_train(options: dict) -> int:
    from .data import load_dataset
    from .qlstm import save_checkpoint
    from .runner import train_base_model

    run_dir = resolve_run_dir(options["run"])
    dataset = load_dataset(dataset_path(run_dir))
    kind = options["kind"]
    seq = int(options["seq"])
    out_dir = check_output(run_dir / f"train-{kind}-seq{seq}", options["force"])
    timer = StageTimer()
    config = model_config(options, seq)
    with timer.time("train"):
        run = train_base_model(dataset, config, 0, int(options["seed"]), kind=kind)
    publish(out_dir, "train", options, timer.times, {
        "checkpoint.npz": lambda path: save_checkpoint(path, run.model, config),
        "report.json": {
            "train_losses": run.report.train_losses,
            "test_losses": run.report.test_losses,
            "final_val_loss": run.report.final_val_loss,
        },
    })
    print(f"{kind} seq={seq}: final validation MSE {run.report.final_val_loss:.6f} "
          f"({config.epochs} epochs, {run.report.wall_seconds:.1f}s)")
    return 0


def _read_kbest(path: Path, model_index: int, seq: int):
    """A tune artifact as a K-best set: ``kbest_seq*.json`` from the bayes
    tuner, or ``best_config_seq*.json`` (one configuration) from the others.
    An unreadable or invalid file is a DataError, as a stored configuration is."""
    from .bayesopt import KBestSet

    try:
        payload = json.loads(path.read_text())
        if path.name.startswith("best_config"):
            payload = {"configs": [payload["config"]], "scores": [payload["score"]]}
        kset = KBestSet.from_dict({**payload, "model_index": model_index})
        if any(c.sequence_length != seq for c in kset.configs):
            raise DataError(f"a configuration is not for sequence length {seq}")
        return kset
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path} is not a valid tune artifact: {exc}") from exc


def _kbest_sets(run_dir: Path, seqs: list, options: dict) -> list:
    """One K-best set per model: K = 1 for genhyb and for ``--inline``, the
    first ``--k`` configurations of a bayes tune for bo-q."""
    from .bayesopt import KBestSet

    if options["inline"]:
        return [KBestSet(m, [model_config(options, seq)], [0.0]) for m, seq in enumerate(seqs)]
    if options["arch"] == "genhyb":
        k, name, tuners = 1, "best_config_seq{}.json", ("hybrid", "pso", "qga")
    else:
        k, name, tuners = int(options["k"]), "kbest_seq{}.json", ("bayes",)
    ksets = []
    for model_index, seq in enumerate(seqs):
        paths = [run_dir / f"tune-{tuner}" / name.format(seq) for tuner in tuners]
        path = next((path for path in paths if path.exists()), None)
        if path is None:
            raise ConfigurationError(
                f"no tuned configuration for sequence length {seq}; run `qforecast tune "
                f"--run {run_dir} --tuner {tuners[0]}` first or pass --inline to use the "
                f"flag-provided configuration"
            )
        kset = _read_kbest(path, model_index, seq)
        if k > kset.k:
            raise ConfigurationError(
                f"requested K={k} but {path} holds only {kset.k} configs"
            )
        ksets.append(KBestSet(model_index, kset.configs[:k], kset.scores[:k]))
    return ksets


def cmd_ensemble(options: dict) -> int:
    from .data import load_dataset
    from .ensemble import check_weight_params, weight_history_tsv
    from .runner import run_ensemble, save_ensemble_checkpoint

    nu = options.get("nu")
    nu = int(nu) if nu is not None else None
    kwargs = dict(lam=float(options["lam"]), gamma=float(options["gamma"]), nu=nu)
    check_weight_params(kwargs["lam"], kwargs["gamma"], nu)
    check_counts(options, k=1)
    run_dir = resolve_run_dir(options["run"])
    dataset = load_dataset(dataset_path(run_dir))
    arch = options["arch"]
    ksets = _kbest_sets(run_dir, [int(s) for s in options["seq"]], options)
    out_dir = check_output(run_dir / f"ensemble-{arch}", options["force"])
    timer = StageTimer()
    seed = int(options["seed"])

    with timer.time("train_and_combine"):
        result = run_ensemble(arch, dataset, ksets, seed, **kwargs)
    winner = result.enumeration.best

    files = {
        "checkpoint.npz": lambda path: save_ensemble_checkpoint(
            path, arch, winner.weights, [b.triple for b in result.base_runs]),
        "weights.json": {
            "architecture": arch,
            "weights": [float(w) for w in winner.weights],
            "lambda": float(options["lam"]),
            "gamma": float(options["gamma"]),
            "nu": nu,
            "configs": [b.config.to_dict() for b in result.base_runs],
        },
        "weight_history.tsv": weight_history_tsv(winner.state),
    }
    if arch == "bo-q":
        files["enumeration.json"] = {
            "n_tuples": result.enumeration.n_tuples,
            "objectives": result.enumeration.objectives,
            "best_objective": winner.objective,
            "best_configs": [c.to_dict() for c in winner.configs],
        }
    publish(out_dir, "ensemble", options, timer.times, files)
    print(f"combining weights: {[round(float(w), 5) for w in winner.weights]}")
    return 0


def _load_ensemble_dir(run_dir: Path, arch: str | None):
    from .runner import load_ensemble_checkpoint

    candidates = [arch] if arch else list(ARCH_CHOICES)
    for name in candidates:
        path = run_dir / f"ensemble-{name}" / "checkpoint.npz"
        if path.exists():
            return load_ensemble_checkpoint(path)
    raise ConfigurationError(
        f"no ensemble checkpoint under {run_dir}; run `qforecast ensemble --run {run_dir}` first"
    )


def cmd_forecast(options: dict) -> int:
    from .data import load_dataset
    from .metrics import write_tsv
    from .runner import forecast_horizon

    horizon = int(options["horizon"])
    if not 1 <= horizon <= MAX_HORIZON:
        raise ConfigurationError(f"--horizon must lie in [1, {MAX_HORIZON}], got {horizon}")
    run_dir = resolve_run_dir(options["run"])
    dataset = load_dataset(dataset_path(run_dir))
    arch, weights, models = _load_ensemble_dir(run_dir, options.get("arch"))
    out_dir = check_output(run_dir / "forecast", options["force"])
    timer = StageTimer()

    with timer.time("multi_step"):
        multi = forecast_horizon(dataset, models, weights, horizon, model_tag=f"{arch}-ensemble")

    name = f"horizon{horizon}.tsv"
    publish(out_dir, "forecast", options, timer.times,
            {name: lambda path: write_tsv([multi], path)})
    print(f"wrote {out_dir / name}")
    return 0


def cmd_evaluate(options: dict) -> int:
    from .data import load_dataset
    from .metrics import format_metrics_table, write_tsv
    from .runner import evaluate_ensemble

    run_dir = resolve_run_dir(options["run"])
    dataset = load_dataset(dataset_path(run_dir))
    arch, weights, models = _load_ensemble_dir(run_dir, options.get("arch"))
    out_dir = check_output(run_dir / "evaluate", options["force"])
    timer = StageTimer()

    with timer.time("evaluate"):
        metric_rows, one_step = evaluate_ensemble(dataset, models, weights, arch)
    table = format_metrics_table(metric_rows)
    publish(out_dir, "evaluate", options, timer.times,
            {"metrics.json": metric_rows, "metrics.txt": table,
             "test_onestep.tsv": lambda path: write_tsv(one_step, path)})
    print(table, end="")
    return 0


def cmd_rerun(options: dict) -> int:
    """Re-execute a command from its manifest and verify reproducibility.

    The command runs again with the stored options against the run directory
    the manifest sits in (or the one ``--run`` names), and every artifact
    hash is compared with the manifest's record, the npz checkpoints and
    dataset caches included: numpy stamps each npz member with the fixed zip
    date 1980-01-01, so an npz file is reproducible byte for byte.
    """
    manifest_path = Path(options["manifest"]).resolve()
    manifest, recorded = read_manifest(manifest_path)
    command = manifest.get("command")
    handler = COMMANDS.get(command) if isinstance(command, str) else None
    if handler is None:
        raise ConfigurationError(f"manifest command {command!r} is not re-runnable")
    stored = manifest.get("config")
    if not isinstance(stored, dict):
        raise ConfigurationError(f"{manifest_path}: the stored config is not a JSON object")
    # stored options are read as --config file values are, so a damaged
    # manifest is a usage error rather than a traceback
    for flag in command_flags(build_parser(), command):
        if flag.dest not in stored:
            raise ConfigurationError(f"{manifest_path}: the stored config has no "
                                     f"{flag.dest!r} key")
        stored[flag.dest] = config_value(flag, stored[flag.dest],
                                         DEFAULTS[command].get(flag.dest))
    stored["force"] = True
    # preprocess writes into the run directory itself, every other command
    # into one subdirectory of it
    out_dir = manifest_path.parent
    run_dir, sub = (out_dir, "") if command == "preprocess" else (out_dir.parent, out_dir.name)
    if options.get("run"):
        run_dir = resolve_run_dir(options["run"])
    stored["run"] = str(run_dir)

    print(f"re-running `{command}` from {manifest_path}")
    code = handler(stored)
    if code != 0:
        return code

    _, fresh = read_manifest(run_dir / sub / "manifest.json")
    mismatched = [path for path, sha in recorded.items() if fresh.get(path) != sha]
    for path in recorded:
        print(f"  {path}: {'DIFFERS' if path in mismatched else 'identical'}")
    if mismatched:
        raise ConfigurationError(
            f"re-run outputs differ from the manifest record: {', '.join(mismatched)}"
        )
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "tune": cmd_tune,
    "train": cmd_train,
    "ensemble": cmd_ensemble,
    "forecast": cmd_forecast,
    "evaluate": cmd_evaluate,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with option overrides")
    parser.add_argument("--seed", type=int, default=None, help="run seed (default 0)")
    parser.add_argument("--force", action="store_true", default=None,
                        help="overwrite existing outputs")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--qubits", dest="n_qubits", type=int, default=None)
    parser.add_argument("--layers", dest="n_layers", type=int, default=None)
    parser.add_argument("--hidden", dest="hidden_units", type=int, default=None)
    parser.add_argument("--lr", dest="learning_rate", type=float, default=None)
    parser.add_argument("--batch", dest="batch_size", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qforecast",
        description="Quantum-hybrid LSTM ensemble forecasting harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic hourly weather CSV")
    p.add_argument("--hours", type=int, required=True)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("preprocess", help="ingest, impute, scale, split, cache")
    p.add_argument("--run", required=True)
    p.add_argument("--csv")
    p.add_argument("--synth-hours", dest="synth_hours", type=int)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--train-fraction", dest="train_fraction", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("tune", help="hyperparameter search (pso | qga | hybrid | bayes)")
    p.add_argument("--run", required=True)
    p.add_argument("--tuner", choices=TUNER_CHOICES, required=True)
    p.add_argument("--budget", type=int, default=None, help="objective evaluations per model")
    p.add_argument("--k", type=int, default=None, help="K-best size (bayes)")
    p.add_argument("--probe-epochs", dest="probe_epochs", type=int, default=None)
    p.add_argument("--seq", type=int, nargs="+", default=None)
    p.add_argument("--max-qubits", dest="max_qubits", type=int, default=None)
    p.add_argument("--max-layers", dest="max_layers", type=int, default=None)
    _add_model_flags(p)
    _add_common(p)

    p = sub.add_parser("train", help="train one base model")
    p.add_argument("--run", required=True)
    p.add_argument("--kind", choices=("qlstm", "lstm"), default=None)
    p.add_argument("--seq", type=int, default=None)
    _add_model_flags(p)
    _add_common(p)

    p = sub.add_parser("ensemble", help="train and combine an ensemble (genhyb | bo-q)")
    p.add_argument("--run", required=True)
    p.add_argument("--arch", choices=ARCH_CHOICES, required=True)
    p.add_argument("--seq", type=int, nargs="+", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--nu", type=int, default=None)
    p.add_argument("--inline", action="store_true", default=None,
                   help="use flag-provided configs instead of tune artifacts")
    _add_model_flags(p)
    _add_common(p)

    p = sub.add_parser("forecast", help="emit the multi-step forecast (horizon{H}.tsv)")
    p.add_argument("--run", required=True)
    p.add_argument("--arch", choices=ARCH_CHOICES, default=None)
    p.add_argument("--horizon", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("evaluate", help="score the test split: the MAPE/MSE table and "
                                        "test_onestep.tsv")
    p.add_argument("--run", required=True)
    p.add_argument("--arch", choices=ARCH_CHOICES, default=None)
    _add_common(p)

    p = sub.add_parser("rerun", help="re-execute a command from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--run", help="fresh run directory for the re-execution")

    return parser


DEFAULTS = {
    "synth": {"noise": 0.1, "seed": 0, "force": False},
    "preprocess": {"noise": 0.1, "train_fraction": 0.87, "seed": 0, "force": False,
                   "csv": None, "synth_hours": None},
    "tune": {"budget": 40, "k": 2, "probe_epochs": 5, "seq": [3, 5], "seed": 0,
             "max_qubits": 6, "max_layers": 3, "force": False, **MODEL_DEFAULTS},
    "train": {"kind": "qlstm", "seq": 3, "seed": 0, "force": False, **MODEL_DEFAULTS},
    "ensemble": {"seq": [3, 5], "k": 2, "lam": 0.85, "gamma": 0.85, "nu": None,
                 "inline": False, "seed": 0, "force": False, **MODEL_DEFAULTS},
    "forecast": {"horizon": 24, "arch": None, "seed": 0, "force": False},
    "evaluate": {"arch": None, "seed": 0, "force": False},
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rerun":
            return cmd_rerun({"manifest": args.manifest, "run": args.run})
        options = merge_options(DEFAULTS[args.command], load_config_file(args.config), args,
                                command_flags(parser, args.command))
        return COMMANDS[args.command](options)
    except (DataError, CheckpointVersionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericDivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 4
    except QForecastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size flag too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
