import json
import os
import struct
import subprocess
import sys
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from qforecast.bayesopt import KBestSet
from qforecast.cli import ARCH_CHOICES, COMMANDS, DEFAULTS, build_parser, command_flags, main
from qforecast.data import load_dataset, prepare_dataset, save_dataset, synth_series, write_csv
from qforecast.qlstm import HyperConfig, init_classical_lstm, init_qlstm
from qforecast.runner import save_ensemble_checkpoint

warnings.filterwarnings("ignore", message="zero IQR")


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def prepared_run(tmp_path_factory):
    """A run directory with a small preprocessed synthetic dataset."""
    base = tmp_path_factory.mktemp("cli")
    csv = base / "weather.csv"
    assert run_cli("synth", "--hours", 420, "--seed", 11, "--out", csv) == 0
    run_dir = base / "exp"
    assert run_cli("preprocess", "--run", run_dir, "--csv", csv) == 0
    return run_dir


# ---------------------------------------------------------------------------
# Data commands
# ---------------------------------------------------------------------------


def test_preprocess_writes_cache_and_summary(prepared_run):
    assert (prepared_run / "dataset.npz").exists()
    summary = json.loads((prepared_run / "summary.json").read_text())
    assert summary["rows"] == 420
    assert summary["train_rows"] == int(np.floor(0.87 * 420))
    manifest = json.loads((prepared_run / "manifest.json").read_text())
    assert manifest["command"] == "preprocess"
    assert {a["path"] for a in manifest["artifacts"]} == {"dataset.npz", "summary.json"}


PREPROCESS = ("preprocess", "--synth-hours", 120)


@pytest.mark.parametrize("argv, content, named", [
    (PREPROCESS, "[1, 2]", "JSON object"),
    (PREPROCESS, None, "not found"),
    (PREPROCESS, "{not json", "not valid JSON"),
    (("train",), '{"epochs": "x"}', "'epochs'"),
    (("ensemble", "--arch", "genhyb", "--inline"), '{"seq": 3}', "'seq'"),
    (("train",), '{"kind": "gru"}', "'kind'"),
    (("train",), '{"force": "yes"}', "'force'"),
    (("ensemble", "--arch", "genhyb"), '{"inline": 1}', "'inline'"),
], ids=["list", "missing", "malformed", "train-epochs-text", "ensemble-seq-scalar",
        "train-kind-unknown", "train-force-text", "ensemble-inline-number"])
def test_bad_config_file_is_usage_error(tmp_path, capsys, argv, content, named):
    config = tmp_path / "config.json"
    if content is not None:
        config.write_text(content)
    command, *flags = argv
    assert run_cli(command, "--run", tmp_path / "r", *flags, "--config", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not (tmp_path / "r").exists()


def test_config_file_sets_options(tmp_path):
    config = tmp_path / "config.json"
    # null stands where the default is None; keys preprocess does not take are ignored
    config.write_text(json.dumps({"train_fraction": 0.5, "csv": None, "epochs": "x"}))
    assert run_cli("preprocess", "--run", tmp_path / "r", "--synth-hours", 120,
                   "--config", config) == 0
    assert json.loads((tmp_path / "r" / "summary.json").read_text())["train_rows"] == 60


def test_every_optional_flag_has_a_default():
    """An unset flag without a DEFAULTS entry would be a KeyError traceback,
    and rerun would refuse its manifest; a DEFAULTS key that is no flag
    would be an option nothing can set."""
    parser = build_parser()
    assert set(DEFAULTS) == set(COMMANDS)
    for command, defaults in DEFAULTS.items():
        flags = command_flags(parser, command)
        assert {f.dest for f in flags if not f.required} <= set(defaults), command
        assert set(defaults) <= {f.dest for f in flags}, command


def test_config_file_kind_force_and_inline_take_effect(prepared_run, tmp_path):
    import shutil

    run_dir = tmp_path / "cfg"
    run_dir.mkdir()
    shutil.copy(prepared_run / "dataset.npz", run_dir / "dataset.npz")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": "lstm", "force": True, "inline": True}))
    train = ("train", "--run", run_dir, "--seq", 3, "--epochs", 1, "--config", config)
    assert run_cli(*train) == 0
    assert [p.name for p in run_dir.glob("train-*")] == ["train-lstm-seq3"]
    assert run_cli(*train) == 0  # the config's force overwrites
    assert run_cli(*train, "--kind", "qlstm") == 0  # an explicit flag wins
    assert sorted(p.name for p in run_dir.glob("train-*")) == ["train-lstm-seq3",
                                                               "train-qlstm-seq3"]
    # the config's inline needs no tune artifacts
    assert run_cli("ensemble", "--run", run_dir, "--arch", "genhyb", "--seq", 3,
                   "--epochs", 1, "--config", config) == 0
    assert (run_dir / "ensemble-genhyb" / "manifest.json").is_file()
    config.write_text(json.dumps({"force": False}))
    assert run_cli(*train) == 2
    assert run_cli(*train, "--force") == 0  # an explicit flag wins


@pytest.mark.parametrize("force", [(), ("--force",)], ids=["plain", "forced"])
def test_output_path_that_is_a_file_exits_before_work(prepared_run, tmp_path, capsys, force):
    import shutil

    afile = tmp_path / "afile"
    afile.write_text("keep me\n")
    assert run_cli("preprocess", "--run", afile, "--synth-hours", 120, *force) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert afile.read_text() == "keep me\n"

    run_dir = tmp_path / "run"
    run_dir.mkdir()
    shutil.copy(prepared_run / "dataset.npz", run_dir / "dataset.npz")
    (run_dir / "tune-hybrid").write_text("keep me\n")
    assert run_cli("tune", "--tuner", "hybrid", "--budget", 1, *TUNE_SMALL, "--run", run_dir,
                   "--seq", 3, *force) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert (run_dir / "tune-hybrid").read_text() == "keep me\n"
    assert sorted(p.name for p in run_dir.iterdir()) == ["dataset.npz", "tune-hybrid"]


def test_synth_refuses_overwrite(tmp_path):
    out = tmp_path / "again.csv"
    assert run_cli("synth", "--hours", 60, "--out", out) == 0
    assert run_cli("synth", "--hours", 60, "--out", out) == 2
    assert run_cli("synth", "--hours", 60, "--out", out, "--force") == 0


def test_preprocess_without_source_is_usage_error(tmp_path):
    assert run_cli("preprocess", "--run", tmp_path / "none") == 2


@pytest.mark.parametrize("argv, named", [
    (("synth", "--hours", 60, "--seed", -1), "seed must be >= 0"),
    (("synth", "--hours", 60, "--noise", "nan"), "noise_sigma must be finite"),
    (("synth", "--hours", 60, "--noise", "inf"), "noise_sigma must be finite"),
    (("synth", "--hours", 60, "--noise", -0.5), "noise_sigma must be finite and >= 0"),
    (("preprocess", "--synth-hours", 120, "--train-fraction", "nan"), "train_fraction"),
    (("preprocess", "--synth-hours", 120, "--train-fraction", "inf"), "train_fraction"),
    (("synth", "--hours", 60, "--noise", 1e308), "overflows the synthetic series"),
    (("preprocess", "--synth-hours", 120, "--noise", 1e308), "overflows the synthetic series"),
], ids=["synth-seed-1", "synth-noise-nan", "synth-noise-inf", "synth-noise-neg",
        "preprocess-fraction-nan", "preprocess-fraction-inf", "synth-noise-overflow",
        "preprocess-noise-overflow"])
def test_out_of_range_data_inputs_exit_before_writing(tmp_path, capsys, argv, named):
    command, *flags = argv
    target = "--out" if command == "synth" else "--run"
    assert run_cli(command, target, tmp_path / "out", *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert list(tmp_path.iterdir()) == []


def test_bad_csv_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,bad\n")
    assert run_cli("preprocess", "--run", tmp_path / "r", "--csv", bad) == 3
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("content", [None, b"\xff\xfe\x00\x81"], ids=["missing", "binary"])
def test_unreadable_csv_is_data_error(tmp_path, capsys, content):
    path = tmp_path / "weather.csv"
    if content is not None:
        path.write_bytes(content)
    assert run_cli("preprocess", "--run", tmp_path / "r", "--csv", path) == 3
    assert capsys.readouterr().err.startswith("data error:")
    assert not (tmp_path / "r").exists()


def test_overflowing_scaling_is_data_error(tmp_path, capsys):
    # finite cells whose IQR overflows: no summary with Infinity, no NaN cache
    series = synth_series(120, seed=0)
    series[::2, 0], series[1::2, 0] = 1e308, -1e308
    path = tmp_path / "weather.csv"
    write_csv(series, path)
    assert run_cli("preprocess", "--run", tmp_path / "r", "--csv", path) == 3
    assert "['temperature']" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


# ---------------------------------------------------------------------------
# Tuning
# ---------------------------------------------------------------------------


def test_hybrid_tune_budget_is_exact(prepared_run):
    assert run_cli(
        "tune", "--run", prepared_run, "--tuner", "hybrid", "--budget", 50,
        "--probe-epochs", 1, "--seq", 3, "--max-qubits", 3, "--max-layers", 1,
    ) == 0
    trace = (prepared_run / "tune-hybrid" / "trace_seq3.jsonl").read_text().strip().split("\n")
    assert len(trace) == 50
    rows = [json.loads(line) for line in trace]
    assert {"phase", "iteration", "config", "objective"} <= set(rows[0])
    assert all(np.isfinite(r["objective"]) for r in rows)


def test_bayes_tune_persists_k_best(prepared_run):
    assert run_cli(
        "tune", "--run", prepared_run, "--tuner", "bayes", "--budget", 8, "--k", 2,
        "--probe-epochs", 1, "--seq", 3, 5, "--max-qubits", 3, "--max-layers", 1,
    ) == 0
    for seq in (3, 5):
        payload = json.loads((prepared_run / "tune-bayes" / f"kbest_seq{seq}.json").read_text())
        assert len(payload["configs"]) == 2
        assert payload["scores"] == sorted(payload["scores"])


def test_forced_tune_leaves_no_stale_artifacts(prepared_run, tmp_path):
    import shutil

    run_dir = tmp_path / "force"
    run_dir.mkdir()
    shutil.copy(prepared_run / "dataset.npz", run_dir / "dataset.npz")
    tune = ("tune", "--run", run_dir, "--tuner", "hybrid", "--budget", 4,
            "--probe-epochs", 1, "--max-qubits", 2, "--max-layers", 1, "--seq")
    assert run_cli(*tune, 3, 5) == 0
    out = run_dir / "tune-hybrid"
    (out / "notes.txt").write_text("not an artifact")
    assert run_cli(*tune, 3, "--force") == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "best_config_seq3.json", "manifest.json", "notes.txt", "trace_seq3.jsonl"]
    # the ensemble no longer finds a tuned configuration for sequence length 5
    assert run_cli("ensemble", "--run", run_dir, "--arch", "genhyb", "--seq", 3, 5) == 2


def test_unknown_tuner_is_usage_error(prepared_run):
    # argparse handles invalid choices itself and exits with code 2
    with pytest.raises(SystemExit) as exc:
        run_cli("tune", "--run", prepared_run, "--tuner", "nosuch")
    assert exc.value.code == 2


def test_ensemble_has_no_jobs_flag(prepared_run):
    # every command runs on one thread; the retired --jobs is an unknown flag
    with pytest.raises(SystemExit) as exc:
        run_cli("ensemble", "--run", prepared_run, "--arch", "genhyb", "--jobs", 2)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Training and ensembles
# ---------------------------------------------------------------------------


def test_train_writes_checkpoint_and_report(prepared_run):
    assert run_cli(
        "train", "--run", prepared_run, "--seq", 3, "--epochs", 2,
    ) == 0
    out = prepared_run / "train-qlstm-seq3"
    assert (out / "checkpoint.npz").exists()
    report = json.loads((out / "report.json").read_text())
    assert len(report["train_losses"]) == 2


def test_diverging_train_exits_4_and_leaves_no_directory(prepared_run, tmp_path, capsys):
    import shutil

    run_dir = tmp_path / "diverge"
    run_dir.mkdir()
    shutil.copy(prepared_run / "dataset.npz", run_dir / "dataset.npz")
    assert run_cli("train", "--run", run_dir, "--lr", 1e300, "--epochs", 1) == 4
    assert capsys.readouterr().err.startswith("numeric divergence:")
    assert not list(run_dir.glob("train-*"))


@pytest.fixture(scope="module")
def genhyb_run(prepared_run):
    assert run_cli(
        "ensemble", "--run", prepared_run, "--arch", "genhyb", "--inline", "--epochs", 2,
    ) == 0
    return prepared_run


def evaluate_outputs(run_dir: Path, arch: str) -> Path:
    """``evaluate --arch`` over ``run_dir``; returns its output directory."""
    assert run_cli("evaluate", "--run", run_dir, "--arch", arch, "--force") == 0
    return run_dir / "evaluate"


def test_ensemble_artifacts(genhyb_run):
    out = genhyb_run / "ensemble-genhyb"
    weights = json.loads((out / "weights.json").read_text())
    assert abs(sum(weights["weights"]) - 1.0) < 1e-12
    evaluated = evaluate_outputs(genhyb_run, "genhyb")
    rows = json.loads((evaluated / "metrics.json").read_text())
    assert [r["model"] for r in rows] == ["qlstm-seq3", "qlstm-seq5", "genhyb-ensemble"]
    table = (evaluated / "metrics.txt").read_text().strip().split("\n")
    assert table[2].startswith("qlstm-seq3")
    assert table[4].startswith("genhyb-ensemble")
    history = (out / "weight_history.tsv").read_text().strip().split("\n")
    assert history[0].startswith("step\tw_0")


def test_boq_with_k1_matches_genhyb(genhyb_run):
    assert run_cli(
        "ensemble", "--run", genhyb_run, "--arch", "bo-q", "--inline", "--epochs", 2,
    ) == 0
    gen, boq = genhyb_run / "ensemble-genhyb", genhyb_run / "ensemble-bo-q"
    gen_rows = json.loads((evaluate_outputs(genhyb_run, "genhyb") / "metrics.json").read_text())
    boq_rows = json.loads((evaluate_outputs(genhyb_run, "bo-q") / "metrics.json").read_text())
    assert [r.pop("model") for r in gen_rows] == ["qlstm-seq3", "qlstm-seq5", "genhyb-ensemble"]
    assert [r.pop("model") for r in boq_rows] == ["qlstm-seq3", "qlstm-seq5", "bo-q-ensemble"]
    assert gen_rows == boq_rows
    assert (json.loads((gen / "weights.json").read_text())["weights"]
            == json.loads((boq / "weights.json").read_text())["weights"])
    assert (gen / "weight_history.tsv").read_bytes() == (boq / "weight_history.tsv").read_bytes()
    enum = json.loads((boq / "enumeration.json").read_text())
    assert enum["n_tuples"] == 1
    assert not (gen / "enumeration.json").exists()


def _write_kbest(run_dir: Path) -> None:
    """K-best sets of two configs per model, as a bayes tune leaves them."""
    (run_dir / "tune-bayes").mkdir()
    for m, seq in enumerate((3, 5)):
        configs = [HyperConfig(0.05, 1, 2, hidden, seq, 16, 1) for hidden in (2, 3)]
        payload = KBestSet(m, configs, [0.0, 1.0]).to_dict()
        (run_dir / "tune-bayes" / f"kbest_seq{seq}.json").write_text(json.dumps(payload))


def test_ensemble_without_tuned_configs_names_prerequisite(prepared_run, tmp_path, capsys):
    import shutil

    for arch, k, tuned, hint in [("bo-q", 2, False, "--tuner bayes"),  # no tune-bayes/
                                 ("bo-q", 3, True, "requested K=3"),  # --k above stored K
                                 ("genhyb", 2, True, "--tuner hybrid")]:  # no tuned config
        run_dir = tmp_path / f"no-tune-{arch}-{k}"
        run_dir.mkdir()
        shutil.copy(prepared_run / "dataset.npz", run_dir / "dataset.npz")
        if tuned:
            _write_kbest(run_dir)
        before = sorted(run_dir.rglob("*"))
        assert run_cli("ensemble", "--run", run_dir, "--arch", arch, "--k", k) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and hint in err
        assert sorted(run_dir.rglob("*")) == before


GOOD_CONFIG = HyperConfig(0.05, 1, 2, 2, 3, 16, 1).to_dict()


@pytest.mark.parametrize("name, content", [
    ("tune-hybrid/best_config_seq3.json", json.dumps({"config": GOOD_CONFIG})[:40]),
    ("tune-hybrid/best_config_seq3.json",
     json.dumps({"config": {k: v for k, v in GOOD_CONFIG.items() if k != "epochs"},
                 "score": 0.1})),
    ("tune-bayes/kbest_seq3.json", json.dumps([GOOD_CONFIG])),
    ("tune-bayes/kbest_seq3.json",
     json.dumps({"model_index": 0, "configs": [{**GOOD_CONFIG, "n_qubits": 0}],
                 "scores": [0.1]})),
    ("tune-bayes/kbest_seq3.json",
     json.dumps({"model_index": 0, "configs": [{**GOOD_CONFIG, "sequence_length": 5}],
                 "scores": [0.1]})),
    ("tune-hybrid/best_config_seq3.json",
     json.dumps({"config": {**GOOD_CONFIG, "n_qubits": 2.7}, "score": 0.1})),
    ("tune-bayes/kbest_seq3.json",
     json.dumps({"model_index": 0, "configs": [{**GOOD_CONFIG, "epochs": True}],
                 "scores": [0.1]})),
], ids=["truncated", "missing-key", "list", "zero-qubits", "other-seq", "fractional-count",
        "bool-count"])
def test_malformed_tune_artifact_is_data_error(prepared_run, tmp_path, capsys, name, content):
    import shutil

    run_dir = tmp_path / "malformed"
    run_dir.mkdir()
    shutil.copy(prepared_run / "dataset.npz", run_dir / "dataset.npz")
    (run_dir / name).parent.mkdir()
    (run_dir / name).write_text(content)
    arch = "genhyb" if "hybrid" in name else "bo-q"
    before = sorted(run_dir.rglob("*"))
    assert run_cli("ensemble", "--run", run_dir, "--arch", arch, "--seq", 3, "--k", 1) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and name.split("/")[1] in err
    assert sorted(run_dir.rglob("*")) == before


@pytest.mark.parametrize("arch", ARCH_CHOICES)
def test_diverging_ensemble_exits_4_for_both_architectures(prepared_run, tmp_path, capsys,
                                                            arch):
    import shutil

    run_dir = tmp_path / "diverge"
    run_dir.mkdir()
    shutil.copy(prepared_run / "dataset.npz", run_dir / "dataset.npz")
    assert run_cli("ensemble", "--run", run_dir, "--arch", arch, "--inline",
                   "--lr", 1e300, "--epochs", 1) == 4
    assert capsys.readouterr().err.startswith("numeric divergence:")
    assert not list(run_dir.glob("ensemble-*"))


def test_diverging_forced_ensemble_keeps_the_earlier_one(genhyb_run, tmp_path, capsys):
    import shutil

    run_dir = tmp_path / "earlier"
    shutil.copytree(genhyb_run, run_dir)
    out = run_dir / "ensemble-genhyb"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli("ensemble", "--run", run_dir, "--arch", "genhyb", "--inline",
                   "--lr", 1e300, "--epochs", 1, "--force") == 4
    assert capsys.readouterr().err.startswith("numeric divergence:")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("flag, value", [("--lambda", "nan"), ("--gamma", 1.5), ("--nu", 0)])
def test_out_of_range_weight_params_exit_before_training(prepared_run, tmp_path, capsys,
                                                          flag, value):
    import shutil

    run_dir = tmp_path / "params"
    run_dir.mkdir()
    shutil.copy(prepared_run / "dataset.npz", run_dir / "dataset.npz")
    assert run_cli("ensemble", "--run", run_dir, "--arch", "genhyb", "--inline",
                   flag, value) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (run_dir / "ensemble-genhyb").exists()


def test_lambda_that_overflows_the_weights_exits_2(prepared_run, tmp_path, capsys):
    # lambda is finite, so it passes the parameter check; its running sum of
    # increments overflows only once training has produced the errors
    import shutil

    run_dir = tmp_path / "overflow"
    run_dir.mkdir()
    shutil.copy(prepared_run / "dataset.npz", run_dir / "dataset.npz")
    assert run_cli("ensemble", "--run", run_dir, "--arch", "genhyb", "--inline",
                   "--epochs", 1, "--seq", 3, "--lambda", 1e308) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lambda=1e+308 overflows" in err
    assert not (run_dir / "ensemble-genhyb").exists()


TUNE_SMALL = ("--probe-epochs", 1, "--max-qubits", 2, "--max-layers", 1)
TUNE_BAYES = ("tune", "--tuner", "bayes", "--budget", 4) + TUNE_SMALL


@pytest.mark.parametrize("argv, flag", [
    (TUNE_BAYES + ("--k", 0), "--k must be >= 1"),
    (TUNE_BAYES + ("--k", -1), "--k must be >= 1"),
    (("ensemble", "--arch", "bo-q", "--k", 0), "--k must be >= 1"),
    (("ensemble", "--arch", "bo-q", "--k", -1), "--k must be >= 1"),
    (("tune", "--tuner", "pso", "--budget", 0) + TUNE_SMALL, "--budget must be >= 1"),
    (("tune", "--tuner", "qga", "--budget", 0) + TUNE_SMALL, "--budget must be >= 1"),
    (("tune", "--tuner", "bayes", "--budget", 0) + TUNE_SMALL, "--budget must be >= 2"),
    (("tune", "--tuner", "bayes", "--budget", 1) + TUNE_SMALL, "--budget must be >= 2"),
    (("tune", "--tuner", "hybrid", "--budget", 50, "--probe-epochs", 1, "--max-qubits", 11,
      "--max-layers", 1), "--max-qubits must be <= 10"),
    (("tune", "--tuner", "hybrid", "--budget", 50, "--probe-epochs", 1, "--max-qubits", 1,
      "--max-layers", 1), "--max-qubits must be >= 2"),
    (("tune", "--tuner", "bayes", "--budget", 4, "--probe-epochs", 1, "--max-qubits", 2,
      "--max-layers", 0), "--max-layers must be >= 1"),
], ids=["tune-k0", "tune-k-1", "boq-k0", "boq-k-1", "pso-budget0", "qga-budget0",
        "bayes-budget0", "bayes-budget1", "max-qubits11", "max-qubits1", "max-layers0"])
def test_counts_below_one_exit_before_writing(prepared_run, tmp_path, capsys, argv, flag):
    import shutil

    run_dir = tmp_path / "counts"
    run_dir.mkdir()
    shutil.copy(prepared_run / "dataset.npz", run_dir / "dataset.npz")
    command, *flags = argv
    if command == "ensemble":
        _write_kbest(run_dir)
    before = sorted(run_dir.rglob("*"))
    assert run_cli(command, "--run", run_dir, "--seq", 3, 5, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert sorted(run_dir.rglob("*")) == before


def test_ensemble_refuses_overwrite(genhyb_run):
    assert run_cli(
        "ensemble", "--run", genhyb_run, "--arch", "genhyb", "--inline", "--epochs", 2,
    ) == 2


# ---------------------------------------------------------------------------
# Forecast and evaluate
# ---------------------------------------------------------------------------


def test_forecast_default_horizon_24(genhyb_run):
    assert run_cli("forecast", "--run", genhyb_run, "--arch", "genhyb") == 0
    lines = (genhyb_run / "forecast" / "horizon24.tsv").read_text().strip().split("\n")
    assert len(lines) == 25  # header + 24 steps
    evaluated = evaluate_outputs(genhyb_run, "genhyb")
    onestep = (evaluated / "test_onestep.tsv").read_text().strip().split("\n")
    assert onestep[0] == "timestamp\ty_true\ty_pred\tmodel"


def test_evaluate_prints_table(genhyb_run, capsys):
    assert run_cli("evaluate", "--run", genhyb_run, "--arch", "genhyb", "--force") == 0
    out = capsys.readouterr().out
    assert "genhyb-ensemble" in out
    rows = json.loads((genhyb_run / "evaluate" / "metrics.json").read_text())
    assert [r["model"] for r in rows] == ["qlstm-seq3", "qlstm-seq5", "genhyb-ensemble"]


def test_each_model_command_has_one_job(genhyb_run, tmp_path):
    """ensemble, forecast and evaluate write disjoint artifacts; evaluate alone
    predicts the test split, and its one-step series reproduce its MSE."""
    import shutil

    run_dir = tmp_path / "run"
    run_dir.mkdir()
    shutil.copy(genhyb_run / "dataset.npz", run_dir / "dataset.npz")
    shutil.copytree(genhyb_run / "ensemble-genhyb", run_dir / "ensemble-genhyb")
    assert run_cli("forecast", "--run", run_dir) == 0
    assert run_cli("evaluate", "--run", run_dir) == 0
    names = [{a["path"] for a in json.loads((run_dir / sub / "manifest.json").read_text())
              ["artifacts"]} for sub in ("ensemble-genhyb", "forecast", "evaluate")]
    assert sum(map(len, names)) == len(set().union(*names))  # pairwise disjoint
    assert not [*genhyb_run.glob("ensemble-*/metrics.*"), *run_dir.glob("ensemble-*/metrics.*")]
    assert {p.name for p in (run_dir / "forecast").iterdir()} == {"horizon24.tsv",
                                                                 "manifest.json"}

    rows = json.loads((run_dir / "evaluate" / "metrics.json").read_text())
    lines = (run_dir / "evaluate" / "test_onestep.tsv").read_text().splitlines()[1:]
    pairs = np.array([[float(c) for c in line.split("\t")[1:3]] for line in lines
                      if line.endswith("\tgenhyb-ensemble")])
    y, y_hat = pairs.T
    diff = y - y_hat
    # %.10g keeps 10 significant digits, so each printed v is off by at most
    # 5e-10 |v| and diff by at most 5e-10 (|y| + |y_hat|); delta doubles that
    # to cover the float sums here too.  An error e in diff moves diff^2 by at
    # most 2 |diff| |e| + e^2.
    delta = 1e-9 * (np.abs(y) + np.abs(y_hat))
    tolerance = float(np.mean(2 * np.abs(diff) * delta + delta ** 2))
    assert len(pairs) and rows[-1]["model"] == "genhyb-ensemble"
    assert abs(float(np.mean(diff * diff)) - rows[-1]["mse"]) <= tolerance


def test_evaluate_stub_checkpoint_is_perfect(tmp_path):
    # on a constant series, an lstm whose readout ignores its state and
    # returns the standardized temperature predicts the truth exactly
    series = synth_series(300, seed=0, noise_sigma=0.0, daily_amplitude=0.0,
                          annual_amplitude=0.0, base_temperature=8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dataset = prepare_dataset(series)
    run_dir = tmp_path / "stub"
    run_dir.mkdir()
    save_dataset(run_dir / "dataset.npz", dataset)
    config = HyperConfig(0.05, 1, 2, 2, 3, 16, 1)
    stub = init_classical_lstm(config, dataset.train_matrix.shape[1], seed=0)
    stub.w_y[:] = 0.0
    stub.b_y[:] = dataset.train_matrix[0, 0]
    (run_dir / "ensemble-genhyb").mkdir()
    save_ensemble_checkpoint(run_dir / "ensemble-genhyb" / "checkpoint.npz", "genhyb", [1.0],
                             [("lstm", config, stub)])
    assert run_cli("evaluate", "--run", run_dir) == 0
    rows = json.loads((run_dir / "evaluate" / "metrics.json").read_text())
    for row in rows:
        assert row["mape_pct"] == 0.0
        assert row["mse"] == 0.0


def test_checkpoint_version_mismatch_is_reported(tmp_path):
    series = synth_series(120, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dataset = prepare_dataset(series)
    run_dir = tmp_path / "ver"
    (run_dir / "ensemble-genhyb").mkdir(parents=True)
    save_dataset(run_dir / "dataset.npz", dataset)
    np.savez(run_dir / "ensemble-genhyb" / "checkpoint.npz", version=np.array(9))
    assert run_cli("evaluate", "--run", run_dir) == 3


def test_stored_checkpoint_config_with_a_bool_rate_is_data_error(tmp_path, capsys):
    run_dir = untrained_ensemble_run(tmp_path)
    path = run_dir / "ensemble-genhyb" / "checkpoint.npz"
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    stored = json.loads(str(arrays["model0_config"]))
    arrays["model0_config"] = np.array(json.dumps({**stored, "learning_rate": False}))
    np.savez(path, **arrays)
    assert run_cli("evaluate", "--run", run_dir) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "learning_rate" in err


def untrained_ensemble_run(tmp_path):
    """A run directory with a small dataset and an untrained two-model genhyb
    checkpoint (a quantum and a classical cell)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dataset = prepare_dataset(synth_series(120, seed=2))
    run_dir = tmp_path / "untrained"
    (run_dir / "ensemble-genhyb").mkdir(parents=True)
    save_dataset(run_dir / "dataset.npz", dataset)
    config = HyperConfig(0.05, 1, 2, 2, 3, 16, 1)
    input_dim = dataset.train_matrix.shape[1]
    save_ensemble_checkpoint(
        run_dir / "ensemble-genhyb" / "checkpoint.npz", "genhyb", [0.5, 0.5],
        [("qlstm", config, init_qlstm(config, input_dim, seed=0)),
         ("lstm", config, init_classical_lstm(config, input_dim, seed=1))],
    )
    return run_dir


@pytest.mark.parametrize("command, artifact", [
    ("evaluate", "ensemble-genhyb/checkpoint.npz"),
    ("forecast", "dataset.npz"),
])
def test_truncated_npz_is_data_error(tmp_path, capsys, command, artifact):
    run_dir = untrained_ensemble_run(tmp_path)
    path = run_dir / artifact
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    assert run_cli(command, "--run", run_dir) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and len(err.strip().splitlines()) == 1


def flip_last_data_byte(path: Path, member: str) -> None:
    """Flip one bit of the last data byte of an npz member, not its CRC."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    data = bytearray(path.read_bytes())
    name_length, extra_length = struct.unpack_from("<HH", data, info.header_offset + 26)
    data[info.header_offset + 30 + name_length + extra_length + info.file_size - 1] ^= 1
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("argv", [
    ("tune", "--tuner", "bayes", "--budget", 2, "--seq", 3),
    ("ensemble", "--arch", "genhyb"),
    ("forecast",),
    ("evaluate",),
], ids=["tune", "ensemble", "forecast", "evaluate"])
def test_dataset_cache_with_a_flipped_data_byte_is_data_error(tmp_path, capsys, argv):
    run_dir = untrained_ensemble_run(tmp_path)
    flip_last_data_byte(run_dir / "dataset.npz", "train_matrix.npy")
    before = tree_bytes(tmp_path)
    command, *flags = argv
    assert run_cli(command, "--run", run_dir, *flags) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Bad CRC-32 for file 'train_matrix.npy'" in err
    assert tree_bytes(tmp_path) == before


@pytest.mark.parametrize("key, value", [
    ("model0_b_in", np.zeros(7)),
    ("model0_b_h", np.array([np.nan, 0.0])),
    ("model0_theta_readout", np.zeros((1, 2, 2))),
    ("model1_w_g", np.zeros((2, 2))),
    ("model1_b_o", np.zeros(3)),
    ("weights", np.array([1.0])),
    ("weights", np.array([0.5, np.inf])),
    ("model1_w_y", None),
    ("model1_config", None),
], ids=["b_in-shape", "b_h-nan", "theta-shape", "lstm-w_g-shape", "lstm-b_o-shape",
        "one-weight-two-models", "weight-inf", "missing-array", "missing-header"])
def test_corrupt_checkpoint_array_is_data_error(tmp_path, capsys, key, value):
    run_dir = untrained_ensemble_run(tmp_path)
    path = run_dir / "ensemble-genhyb" / "checkpoint.npz"
    with np.load(path) as data:
        arrays = dict(data)
    arrays[key] = value
    np.savez(path, **{k: v for k, v in arrays.items() if v is not None})
    assert run_cli("evaluate", "--run", run_dir) == 3
    assert key.split("_", 1)[-1] in capsys.readouterr().err


def test_missing_ensemble_is_actionable(prepared_run, capsys):
    fresh = prepared_run.parent / "no-ensemble"
    fresh.mkdir(exist_ok=True)
    import shutil

    shutil.copy(prepared_run / "dataset.npz", fresh / "dataset.npz")
    assert run_cli("forecast", "--run", fresh) == 2
    assert "qforecast ensemble" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Reproducibility
# ---------------------------------------------------------------------------


def test_rerun_verifies_identical_outputs(genhyb_run, capsys):
    assert run_cli("rerun", "--manifest", genhyb_run / "ensemble-genhyb" / "manifest.json") == 0
    out = capsys.readouterr().out
    assert "weights.json: identical" in out
    assert "checkpoint.npz: identical" in out
    assert "DIFFERS" not in out


def test_rerun_accepts_a_manifest_with_the_retired_jobs_key(genhyb_run, tmp_path, capsys):
    import shutil

    copy = tmp_path / "old"
    shutil.copytree(genhyb_run, copy)
    manifest_path = copy / "ensemble-genhyb" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["jobs"] = 2  # earlier versions stored a thread count
    manifest_path.write_text(json.dumps(manifest))
    assert run_cli("rerun", "--manifest", manifest_path) == 0
    out = capsys.readouterr().out
    assert out.count(": identical") == len(manifest["artifacts"])
    assert "DIFFERS" not in out


def test_rerun_acts_on_the_copied_run(genhyb_run, tmp_path, capsys):
    import shutil

    def snapshot(root):
        return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    original = snapshot(genhyb_run)
    copy = tmp_path / "copy"
    shutil.copytree(genhyb_run, copy)
    assert run_cli("rerun", "--manifest", copy / "ensemble-genhyb" / "manifest.json") == 0
    assert "DIFFERS" not in capsys.readouterr().out
    assert snapshot(genhyb_run) == original

    fresh = tmp_path / "fresh"
    fresh.mkdir()
    shutil.copy(genhyb_run / "dataset.npz", fresh / "dataset.npz")
    assert run_cli("rerun", "--manifest", copy / "ensemble-genhyb" / "manifest.json",
                   "--run", fresh) == 0
    assert "DIFFERS" not in capsys.readouterr().out
    assert (fresh / "ensemble-genhyb" / "checkpoint.npz").read_bytes() == \
        (genhyb_run / "ensemble-genhyb" / "checkpoint.npz").read_bytes()

    # a tampered input in the copy changes what the re-execution produces
    dataset = load_dataset(copy / "dataset.npz")
    dataset.train_matrix[:, 0] += 0.01
    save_dataset(copy / "dataset.npz", dataset)
    assert run_cli("rerun", "--manifest", copy / "ensemble-genhyb" / "manifest.json") == 2
    assert "checkpoint.npz: DIFFERS" in capsys.readouterr().out
    assert snapshot(genhyb_run) == original


def test_rerun_of_a_csv_preprocess_works_from_another_directory(tmp_path, monkeypatch,
                                                                 capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("synth", "--hours", 120, "--out", "w.csv") == 0
    assert run_cli("preprocess", "--run", "run1", "--csv", "w.csv") == 0
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    assert run_cli("rerun", "--manifest", "../run1/manifest.json") == 0
    out = capsys.readouterr().out
    assert "dataset.npz: identical" in out and "DIFFERS" not in out


@pytest.mark.parametrize("damage, named", [
    (lambda manifest: manifest["config"].pop("train_fraction"), "'train_fraction'"),
    (lambda manifest: manifest["config"].update(train_fraction="x"), "'train_fraction'"),
    (lambda manifest: manifest.update(config=[manifest["config"]]), "not a JSON object"),
    (lambda manifest: manifest.update(command=["preprocess"]), "not re-runnable"),
], ids=["missing-key", "mistyped-key", "config-list", "command-list"])
def test_rerun_of_a_damaged_manifest_is_usage_error(tmp_path, capsys, damage, named):
    run_dir = tmp_path / "run"
    assert run_cli("preprocess", "--run", run_dir, "--synth-hours", 120) == 0
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    damage(manifest)
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("rerun", "--manifest", manifest_path) == 2
    assert named in capsys.readouterr().err


def test_output_root_env_rebases_relative_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("QFORECAST_OUT_ROOT", str(tmp_path))
    assert run_cli("preprocess", "--run", "nested/exp", "--synth-hours", 120) == 0
    assert (tmp_path / "nested" / "exp" / "dataset.npz").exists()


# ---------------------------------------------------------------------------
# Outputs are written only after a command succeeds
# ---------------------------------------------------------------------------


def tree_bytes(root: Path) -> dict:
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("setup, argv", [
    ("empty", ("preprocess", "--run", "{run}", "--synth-hours", 120, "--train-fraction", 1.0)),
    ("dataset", TUNE_BAYES + ("--run", "{run}", "--budget", 2, "--k", 3, "--seq", 3)),
    ("tuned", TUNE_BAYES + ("--run", "{run}", "--budget", 2, "--k", 3, "--seq", 3, "--force")),
    ("ensemble", ("forecast", "--run", "{run}", "--horizon", 0)),
    ("forecast", ("forecast", "--run", "{run}", "--horizon", 0, "--force")),
    ("empty", ("synth", "--hours", 10, "--out", "{run}/new/x.csv")),
    ("dataset", ("synth", "--hours", 60, "--out", "{run}", "--force")),
    # sizes too large to allocate
    ("dataset", ("train", "--run", "{run}", "--hidden", 10**15)),
    ("dataset", ("train", "--run", "{run}", "--layers", 10**15)),
    ("ensemble", ("forecast", "--run", "{run}", "--horizon", 10**12)),
    ("ensemble", ("forecast", "--run", "{run}", "--horizon", 10**20)),
], ids=["preprocess-no-test-rows", "tune-k-above-budget", "forced-tune-k-above-budget",
        "forecast-horizon0", "forced-forecast-horizon0", "synth-too-short",
        "forced-synth-onto-directory", "train-hidden-1e15", "train-layers-1e15",
        "forecast-horizon-1e12", "forecast-horizon-1e20"])
def test_failed_command_leaves_the_run_tree_unchanged(prepared_run, tmp_path, capsys,
                                                      setup, argv):
    import shutil

    if setup in ("ensemble", "forecast"):
        run_dir = untrained_ensemble_run(tmp_path)
    else:
        run_dir = tmp_path / "run"
    if setup in ("dataset", "tuned"):
        run_dir.mkdir()
        shutil.copy(prepared_run / "dataset.npz", run_dir / "dataset.npz")
    if setup == "tuned":
        assert run_cli(*TUNE_BAYES, "--run", run_dir, "--k", 2, "--seq", 3) == 0
    if setup == "forecast":
        assert run_cli("forecast", "--run", run_dir) == 0
    before = tree_bytes(tmp_path)
    capsys.readouterr()
    assert run_cli(*(str(a).format(run=run_dir) for a in argv)) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert tree_bytes(tmp_path) == before


def test_each_output_directory_holds_its_manifest_and_what_it_lists(genhyb_run, tmp_path):
    import shutil

    run_dir = tmp_path / "run"
    shutil.copytree(genhyb_run, run_dir)
    assert run_cli("forecast", "--run", run_dir, "--force") == 0
    assert run_cli("evaluate", "--run", run_dir, "--force") == 0
    manifests = sorted(run_dir.rglob("manifest.json"))
    assert {m.parent.name for m in manifests} >= {
        "run", "ensemble-genhyb", "forecast", "evaluate"}
    for manifest in manifests:
        listed = {a["path"] for a in json.loads(manifest.read_text())["artifacts"]}
        held = {p.name for p in manifest.parent.iterdir() if p.is_file()}
        assert held == listed | {"manifest.json"}, manifest
        if manifest.parent != run_dir:
            assert {p.name for p in manifest.parent.iterdir()} == held, manifest


# ---------------------------------------------------------------------------
# Start-up
# ---------------------------------------------------------------------------

SCIPY_PROBE = """
import sys

import qforecast
import qforecast.cli


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


assert not scipy_modules(), ("import", scipy_modules())
run = sys.argv[1]
small = ["--seq", "3", "--max-qubits", "2", "--max-layers", "1", "--probe-epochs", "1"]
for argv in (
    ["preprocess", "--run", run, "--synth-hours", "120"],
    ["tune", "--run", run, "--tuner", "hybrid", "--budget", "4", *small],
    ["tune", "--run", run, "--tuner", "bayes", "--budget", "4", "--k", "1", *small],
    ["ensemble", "--run", run, "--arch", "genhyb", "--inline", "--seq", "3", "--epochs", "1"],
    ["forecast", "--run", run],
    ["evaluate", "--run", run],
):
    assert qforecast.cli.main(argv) == 0, argv
    assert not scipy_modules(), (argv[0], scipy_modules())
"""


def test_no_command_loads_scipy(tmp_path):
    """Importing the package and running every command, the bayes tune's GP
    search included, leaves scipy unloaded: the package needs numpy alone."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path / "run")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


PREPROCESS_PROBE = """
import sys

from qforecast.cli import main

assert main(["preprocess", "--run", sys.argv[1], "--csv", sys.argv[2]]) == 0
print(" ".join(sorted(sys.modules)))
"""


def test_preprocess_loads_only_the_data_layer(tmp_path):
    """``preprocess`` runs without the model stack and without numpy.ma,
    which np.median and np.percentile would load."""
    csv = tmp_path / "weather.csv"
    write_csv(synth_series(200, seed=4, missing_fraction=0.05), csv)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", PREPROCESS_PROBE, str(tmp_path / "run"),
                           str(csv)], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "qforecast.data" in loaded
    assert not loaded & {"numpy.ma", "qforecast.qlstm", "qforecast.bayesopt",
                         "qforecast.quantum", "qforecast.runner"}

