"""paper_scale_combine's API step: enumerate K^m bo-q ensembles of untrained
QLSTM base models over the validation segment and save the winner.

Usage: python3 perfbench/combine.py RUN_DIR SEED OUT_JSON

K=2 configurations for each of m=2 models (sequence lengths 3 and 5), every
base model n=2, L=1 and seeded-initialised but not trained, so the work is
inference batches of thousands of windows plus the weight evolution inside
``enumerate_ensembles``.  Writes the enumeration result and its timings to
OUT_JSON; the CLI's ``forecast`` and ``evaluate`` then read the checkpoint.
"""

import json
import sys
import time
from pathlib import Path

import tracer

SEQUENCE_LENGTHS = (3, 5)
HIDDEN_UNITS = (4, 6)  # the K=2 configurations of each set


def main(run_dir: Path, seed: int, out: Path) -> int:
    tracer.start_from_env()
    from qforecast.bayesopt import KBestSet, enumerate_ensembles
    from qforecast.data import load_dataset
    from qforecast.qlstm import HyperConfig, init_qlstm, predict_batch
    from qforecast.runner import derive_seed, save_ensemble_checkpoint, validation_targets

    dataset = load_dataset(run_dir / "dataset.npz")
    input_dim = dataset.train_matrix.shape[1]
    ksets, models = [], {}
    for m, seq in enumerate(SEQUENCE_LENGTHS):
        configs = [HyperConfig(learning_rate=0.05, n_layers=1, n_qubits=2, hidden_units=h,
                               sequence_length=seq, batch_size=32, epochs=1)
                   for h in HIDDEN_UNITS]
        ksets.append(KBestSet(m, configs, [0.0] * len(configs)))
        for k, config in enumerate(configs):
            models[m, config] = init_qlstm(config, input_dim,
                                           seed=derive_seed(seed, "combine", m, k))
    targets = validation_targets(dataset, SEQUENCE_LENGTHS)

    start = time.perf_counter()
    predictions = {}
    for (m, config), model in models.items():
        _, val_part = dataset.train_val_windows(config.sequence_length)
        predictions[m, config] = predict_batch(model, val_part.inputs)
    predicted = time.perf_counter()
    result = enumerate_ensembles(ksets, lambda m, config: predictions[m, config], targets)
    enumerated = time.perf_counter()
    checkpoint_dir = run_dir / "ensemble-bo-q"
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    save_ensemble_checkpoint(
        checkpoint_dir / "checkpoint.npz", "bo-q", result.best.weights,
        [("qlstm", config, models[m, config]) for m, config in enumerate(result.best.configs)],
    )
    saved = time.perf_counter()

    out.write_text(json.dumps({
        "segment_steps": len(targets),
        "n_tuples": result.n_tuples,
        "k": len(HIDDEN_UNITS),
        "m": len(SEQUENCE_LENGTHS),
        "objectives": result.objectives,
        "best_objective": result.best.objective,
        "weights": [float(w) for w in result.best.weights],
        "predict_s": predicted - start,
        "enumerate_s": enumerated - predicted,
        "checkpoint_s": saved - enumerated,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3])))
