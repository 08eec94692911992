"""Batch command-line harness.

Subcommands: ``synth``, ``preprocess``, ``tune``, ``train``, ``ensemble``,
``forecast``, ``evaluate``, and ``rerun`` (re-execute any command from its
manifest).  Every command resolves its options (defaults < ``--config``
JSON < flags), derives all randomness from the single run seed, refuses to
overwrite existing outputs without ``--force``, and writes a manifest with
content hashes of everything it produced.

Exit codes: 0 success, 2 usage/configuration, 3 data error, 4 numeric
divergence.  The environment variable ``QFORECAST_OUT_ROOT`` rebases
relative run directories.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .bayesopt import KBestSet, bo_tune
from .data import (
    ingest_csv,
    load_dataset,
    prepare_dataset,
    save_dataset,
    split_point,
    synth_series,
    write_csv,
)
from .ensemble import check_weight_params, weight_history_tsv
from .errors import (
    CheckpointVersionError,
    ConfigurationError,
    DataError,
    NumericDivergenceError,
    QForecastError,
)
from .hyperspace import SearchSpace
from .metaheuristics import ObjectiveTracker, hybrid_minimize, pso_minimize, qga_minimize
from .metrics import forecast_to_tsv, format_metrics_table
from .qlstm import HyperConfig, save_checkpoint
from .runner import (
    REFERENCE_LEARNING_RATES,
    StageTimer,
    derive_seed,
    ensemble_checkpoint_parts,
    evaluate_ensemble,
    forecast_horizon,
    load_ensemble_checkpoint,
    probe_objective,
    run_boq_ensemble,
    run_genhyb_ensemble,
    save_ensemble_checkpoint,
    train_base_model,
    write_manifest,
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
    """Refuse to clobber an existing non-empty output unless forced."""
    if path.exists() and (path.is_file() or any(path.iterdir())) and not force:
        raise ConfigurationError(f"{path} already exists; pass --force to overwrite")
    return path


def ensure_output(path: Path, force: bool) -> Path:
    """Create an output directory that :func:`check_output` accepts; a forced
    run first deletes the artifacts the old manifest lists, and nothing else."""
    check_output(path, force)
    if (path / "manifest.json").is_file():
        for name in read_manifest(path / "manifest.json")[1]:
            if (path / name).parent == path and (path / name).is_file():
                (path / name).unlink()
    path.mkdir(parents=True, exist_ok=True)
    return path


def ensure_output_file(path: Path, force: bool) -> Path:
    if path.exists() and not force:
        raise ConfigurationError(f"{path} already exists; pass --force to overwrite")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


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


def check_counts(options: dict, *keys: str) -> None:
    """Counts such as ``--k`` must be at least 1."""
    for key in keys:
        if int(options[key]) < 1:
            raise ConfigurationError(f"--{key} must be >= 1, got {options[key]}")


def merge_options(defaults: dict, config_file: dict, args: argparse.Namespace,
                  keys: list) -> dict:
    """defaults < config file < explicit CLI flags."""
    merged = dict(defaults)
    for key in keys:
        if key in config_file:
            merged[key] = config_file[key]
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def dataset_path(run_dir: Path) -> Path:
    path = run_dir / "dataset.npz"
    if not path.exists():
        raise ConfigurationError(
            f"no preprocessed dataset at {path}; run `qforecast preprocess --run {run_dir}` first"
        )
    return path


def model_config(options: dict, sequence_length: int) -> HyperConfig:
    return HyperConfig(
        learning_rate=float(options["learning_rate"]),
        n_layers=int(options["n_layers"]),
        n_qubits=int(options["n_qubits"]),
        hidden_units=int(options["hidden_units"]),
        sequence_length=int(sequence_length),
        batch_size=int(options["batch_size"]),
        epochs=int(options["epochs"]),
    ).validate()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(options: dict) -> int:
    out = ensure_output_file(resolve_run_dir(options["out"]), options["force"])
    records = synth_series(int(options["hours"]), int(options["seed"]),
                           noise_sigma=float(options["noise"]))
    write_csv(records, out)
    print(f"wrote {len(records)} hourly rows to {out}")
    return 0


def cmd_preprocess(options: dict) -> int:
    timer = StageTimer()
    seed = int(options["seed"])
    with timer.time("ingest"):
        if options.get("csv"):
            records = ingest_csv(options["csv"])
            source = {"csv": str(Path(options["csv"]).resolve())}
        elif options.get("synth_hours"):
            records = synth_series(int(options["synth_hours"]), derive_seed(seed, "synth"),
                                   noise_sigma=float(options["noise"]))
            source = {"synth_hours": int(options["synth_hours"]), "noise": float(options["noise"])}
        else:
            raise ConfigurationError("preprocess needs --csv FILE or --synth-hours N")
    run_dir = ensure_output(resolve_run_dir(options["run"]), options["force"])
    with timer.time("prepare"):
        dataset = prepare_dataset(records, train_fraction=float(options["train_fraction"]))
        cache = run_dir / "dataset.npz"
        save_dataset(cache, dataset)
    n_train = split_point(len(records), float(options["train_fraction"]))
    summary = {
        "rows": len(records),
        "train_rows": n_train,
        "test_rows": len(records) - n_train,
        "features": dataset.train_matrix.shape[1],
        "scaler_median": [round(v, 12) for v in dataset.scaler.median],
        "scaler_iqr": [round(v, 12) for v in dataset.scaler.iqr],
    }
    summary_path = write_json(run_dir / "summary.json", summary)
    resolved = {**options, "source": source}
    write_manifest(run_dir, "preprocess", resolved, seed, timer.times,
                   [cache, summary_path])
    print(f"preprocessed {summary['rows']} rows -> {summary['train_rows']} train / "
          f"{summary['test_rows']} test ({run_dir})")
    return 0


def _tune_one_model(tuner: str, dataset, seq: int, model_index: int, options: dict,
                    out_dir: Path):
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
        kset = bo_tune(objective, space, n_init=n_init,
                       n_iterations=max(0, budget - n_init), k=int(options["k"]),
                       seed=seed, model_index=model_index, trace=trace)
        artifact = write_json(out_dir / f"kbest_seq{seq}.json", kset.to_dict())
        best = {"config": kset.configs[0].to_dict(), "score": kset.scores[0]}
    else:
        tracker = ObjectiveTracker(
            lambda v: objective(space.decode_vector(v)), budget=budget, trace=trace,
            describe=lambda v: space.decode_vector(v).to_dict(),
        )
        if tuner == "pso":
            result = pso_minimize(tracker, space.bounds(), n_particles=20,
                                  n_iterations=10**9, seed=seed)
            best_vector = result.best_position
            score = result.best_value
        elif tuner == "qga":
            result = qga_minimize(tracker, space.total_bits, pop_size=20,
                                  n_generations=max(1, budget // 20), seed=seed,
                                  decode=space.decode_bits)
            best_vector = np.asarray(result.best_decoded)
            score = result.best_value
        else:  # hybrid
            result = hybrid_minimize(tracker, space.bounds(), budget=budget, seed=seed,
                                     decode_bits=space.decode_bits, n_bits=space.total_bits)
            best_vector = result.best_position
            score = result.best_value
        config = space.decode_vector(best_vector)
        best = {"config": config.to_dict(), "score": float(score)}
        artifact = write_json(out_dir / f"best_config_seq{seq}.json", best)

    trace_path = out_dir / f"trace_seq{seq}.jsonl"
    with open(trace_path, "w") as fh:
        for row in trace:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return best, [artifact, trace_path]


def cmd_tune(options: dict) -> int:
    check_counts(options, "k")
    run_dir = resolve_run_dir(options["run"])
    dataset = load_dataset(dataset_path(run_dir))
    tuner = options["tuner"]
    out_dir = ensure_output(run_dir / f"tune-{tuner}", options["force"])
    timer = StageTimer()
    artifacts = []
    for model_index, seq in enumerate(options["seq"]):
        with timer.time(f"model{model_index}"):
            best, files = _tune_one_model(tuner, dataset, int(seq), model_index,
                                          options, out_dir)
        artifacts.extend(files)
        ref = REFERENCE_LEARNING_RATES.get("genhyb" if tuner != "bayes" else "bo-q")
        print(f"model {model_index} (seq {seq}): best score {best['score']:.6f} "
              f"lr {best['config']['learning_rate']:.4f} "
              f"(reference full-scale lr magnitudes: {ref})")
    write_manifest(out_dir, "tune", options, int(options["seed"]), timer.times, artifacts)
    return 0


def cmd_train(options: dict) -> int:
    run_dir = resolve_run_dir(options["run"])
    dataset = load_dataset(dataset_path(run_dir))
    kind = options["kind"]
    seq = int(options["seq"])
    out_dir = check_output(run_dir / f"train-{kind}-seq{seq}", options["force"])
    timer = StageTimer()
    config = model_config(options, seq)
    with timer.time("train"):
        run = train_base_model(dataset, config, 0, int(options["seed"]), kind=kind)
    ensure_output(out_dir, options["force"])  # only a trained model replaces old outputs
    checkpoint = out_dir / "checkpoint.npz"
    save_checkpoint(checkpoint, run.model, config)
    report_path = write_json(out_dir / "report.json", {
        "train_losses": run.report.train_losses,
        "test_losses": run.report.test_losses,
        "final_val_loss": run.report.final_val_loss,
    })
    write_manifest(out_dir, "train", options, int(options["seed"]), timer.times,
                   [checkpoint, report_path])
    print(f"{kind} seq={seq}: final validation MSE {run.report.final_val_loss:.6f} "
          f"({config.epochs} epochs, {run.report.wall_seconds:.1f}s)")
    return 0


def _read_kbest(path: Path, model_index: int, seq: int) -> KBestSet:
    """A tune artifact as a K-best set: ``kbest_seq*.json`` from the bayes
    tuner, or ``best_config_seq*.json`` (one configuration) from the others.
    An unreadable or invalid file is a DataError, as a stored configuration is."""
    try:
        payload = json.loads(path.read_text())
        if path.name.startswith("best_config"):
            payload = {"configs": [payload["config"]], "scores": [payload["score"]]}
        configs = [HyperConfig.from_dict(c).validate() for c in payload["configs"]]
        if any(c.sequence_length != seq for c in configs):
            raise DataError(f"a configuration is not for sequence length {seq}")
        return KBestSet(model_index, configs, [float(x) for x in payload["scores"]])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path} is not a valid tune artifact: {exc}") from exc


def _kbest_sets(run_dir: Path, seqs: list, options: dict) -> list:
    """One K-best set per model: K = 1 for genhyb and for ``--inline``, the
    first ``--k`` configurations of a bayes tune for bo-q."""
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
    nu = options.get("nu")
    nu = int(nu) if nu is not None else None
    kwargs = dict(lam=float(options["lam"]), gamma=float(options["gamma"]), nu=nu)
    check_weight_params(kwargs["lam"], kwargs["gamma"], nu)
    check_counts(options, "k")
    run_dir = resolve_run_dir(options["run"])
    dataset = load_dataset(dataset_path(run_dir))
    arch = options["arch"]
    ksets = _kbest_sets(run_dir, [int(s) for s in options["seq"]], options)
    out_dir = check_output(run_dir / f"ensemble-{arch}", options["force"])
    timer = StageTimer()
    seed = int(options["seed"])

    with timer.time("train_and_combine"):
        if arch == "genhyb":
            result = run_genhyb_ensemble(dataset, [ks.configs[0] for ks in ksets], seed,
                                         **kwargs)
        else:
            result = run_boq_ensemble(dataset, ksets, seed, **kwargs)
    ensure_output(out_dir, options["force"])  # only a trained ensemble replaces old outputs

    checkpoint = out_dir / "checkpoint.npz"
    save_ensemble_checkpoint(checkpoint, arch, result.weights,
                             ensemble_checkpoint_parts(result))
    weights_path = write_json(out_dir / "weights.json", {
        "architecture": arch,
        "weights": [float(w) for w in result.weights],
        "lambda": float(options["lam"]),
        "gamma": float(options["gamma"]),
        "nu": nu,
        "configs": [b.config.to_dict() for b in result.base_runs],
    })
    history_path = out_dir / "weight_history.tsv"
    history_path.write_text(weight_history_tsv(result.weight_state))
    metrics_json = write_json(out_dir / "metrics.json", result.metrics_rows)
    metrics_txt = out_dir / "metrics.txt"
    metrics_txt.write_text(format_metrics_table(result.metrics_rows))
    artifacts = [checkpoint, weights_path, history_path, metrics_json, metrics_txt]
    if arch == "bo-q":
        enum_path = write_json(out_dir / "enumeration.json", {
            "n_tuples": result.enumeration.n_tuples,
            "objectives": result.enumeration.objectives,
            "best_objective": result.enumeration.best.objective,
            "best_configs": [c.to_dict() for c in result.enumeration.best.configs],
        })
        artifacts.append(enum_path)
    write_manifest(out_dir, "ensemble", options, seed, timer.times, artifacts)
    print(format_metrics_table(result.metrics_rows), end="")
    print(f"combining weights: {[round(float(w), 5) for w in result.weights]}")
    return 0


def _load_ensemble_dir(run_dir: Path, arch: str | None):
    candidates = [arch] if arch else list(ARCH_CHOICES)
    for name in candidates:
        path = run_dir / f"ensemble-{name}" / "checkpoint.npz"
        if path.exists():
            return load_ensemble_checkpoint(path)
    raise ConfigurationError(
        f"no ensemble checkpoint under {run_dir}; run `qforecast ensemble --run {run_dir}` first"
    )


def cmd_forecast(options: dict) -> int:
    run_dir = resolve_run_dir(options["run"])
    dataset = load_dataset(dataset_path(run_dir))
    arch, weights, models = _load_ensemble_dir(run_dir, options.get("arch"))
    out_dir = ensure_output(run_dir / "forecast", options["force"])
    timer = StageTimer()
    horizon = int(options["horizon"])

    with timer.time("one_step"):
        _, one_step = evaluate_ensemble(dataset, models, weights, arch)
        onestep_path = out_dir / "test_onestep.tsv"
        onestep_path.write_text(forecast_to_tsv(one_step))

    with timer.time("multi_step"):
        multi = forecast_horizon(dataset, models, weights, horizon,
                                 model_tag=f"{arch}-ensemble")
        multi_path = out_dir / f"horizon{horizon}.tsv"
        multi_path.write_text(forecast_to_tsv([multi]))

    write_manifest(out_dir, "forecast", options, int(options["seed"]), timer.times,
                   [onestep_path, multi_path])
    print(f"wrote {onestep_path} and {multi_path}")
    return 0


def cmd_evaluate(options: dict) -> int:
    run_dir = resolve_run_dir(options["run"])
    dataset = load_dataset(dataset_path(run_dir))
    arch, weights, models = _load_ensemble_dir(run_dir, options.get("arch"))
    out_dir = ensure_output(run_dir / "evaluate", options["force"])
    timer = StageTimer()

    with timer.time("evaluate"):
        metric_rows, _ = evaluate_ensemble(dataset, models, weights, arch)
    table = format_metrics_table(metric_rows)
    metrics_json = write_json(out_dir / "metrics.json", metric_rows)
    metrics_txt = out_dir / "metrics.txt"
    metrics_txt.write_text(table)
    write_manifest(out_dir, "evaluate", options, int(options["seed"]), timer.times,
                   [metrics_json, metrics_txt])
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
    handler = COMMANDS.get(command)
    if handler is None:
        raise ConfigurationError(f"manifest command {command!r} is not re-runnable")
    stored = dict(manifest.get("config", {}))
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
    parser.add_argument("--force", action="store_true", help="overwrite existing outputs")


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
    p.add_argument("--kind", choices=("qlstm", "lstm"), default="qlstm")
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
    p.add_argument("--inline", action="store_true",
                   help="use flag-provided configs instead of tune artifacts")
    _add_model_flags(p)
    _add_common(p)

    p = sub.add_parser("forecast", help="emit test one-step and multi-step forecasts")
    p.add_argument("--run", required=True)
    p.add_argument("--arch", choices=ARCH_CHOICES, default=None)
    p.add_argument("--horizon", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("evaluate", help="print/write the MAPE and MSE table")
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
    "train": {"seq": 3, "seed": 0, "force": False, **MODEL_DEFAULTS},
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
        defaults = DEFAULTS[args.command]
        config_file = load_config_file(getattr(args, "config", None))
        keys = list(defaults.keys()) + ["run", "out", "csv", "synth_hours", "hours",
                                        "tuner", "arch", "kind", "horizon"]
        options = merge_options(defaults, config_file, args, sorted(set(keys)))
        if getattr(args, "force", False):
            options["force"] = True
        if getattr(args, "inline", False):
            options["inline"] = True
        return COMMANDS[args.command](options)
    except (ConfigurationError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, CheckpointVersionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericDivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 4
    except QForecastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
