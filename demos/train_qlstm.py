"""Train a small quantum LSTM and the classical baseline on synthetic weather.

Run:  python3 demos/train_qlstm.py
"""

import warnings

from qforecast.data import prepare_dataset, synth_series
from qforecast.qlstm import HyperConfig, init_classical_lstm, init_qlstm, train

warnings.filterwarnings("ignore", message="zero IQR")

series = synth_series(900, seed=1)  # (900, 7) hourly matrix
dataset = prepare_dataset(series)
print(f"{len(series)} hourly rows -> {len(dataset.train_matrix)} train / "
      f"{len(dataset.test_matrix)} test (standardized, 7 features)")

config = HyperConfig(
    learning_rate=0.05, n_layers=1, n_qubits=2, hidden_units=4,
    sequence_length=3, batch_size=32, epochs=10,
)
train_part, val_part = dataset.train_val_windows(config.sequence_length)
print(f"windows: {len(train_part)} train / {len(val_part)} validation\n")

for name, factory in (("quantum", init_qlstm), ("classical", init_classical_lstm)):
    model = factory(config, input_dim=dataset.train_matrix.shape[1], seed=42)
    report = train(model, config, train_part, val_part, seed=42)
    curve = " ".join(f"{v:.4f}" for v in report.test_losses)
    print(f"{name:9s} val-MSE per epoch: {curve}")
    print(f"{name:9s} final {report.final_val_loss:.5f} in {report.wall_seconds:.1f}s\n")
