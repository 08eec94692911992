"""Quantum LSTM cell, classical LSTM baseline, and a shared training loop.

The quantum cell replaces the six internal transformations of an LSTM with
variational circuit blocks.  Because circuit readouts live in qubit-count
dimensions while the hidden state does not, trainable linear projections
bridge the two: one maps ``concat(h, x)`` down to circuit inputs, and two
map circuit readouts up to the hidden state and the scalar prediction.
The cell state itself lives in qubit-count dimensions.

Gradients flow through the full unrolled sequence; circuit angles and
circuit inputs get exact adjoint gradients, everything classical is
analytic backprop.  A forward pass compiles the six blocks once into their
unitaries, all six a layer at a time, so a step is two closed-form product
states and two matrix products.  Inference at fixed angles compiles once
for a whole prediction or forecast (``compile_model``), and predicts in
blocks whose row count follows from the circuit width.  A training forward
also caches each step input's encoding factors and the layer factors of
the compile.  A backward pass takes the input gradients of each step
through the adjoint unitaries and those cached factors, and sums each
block's psi^H lambda over the steps; one sweep back over the layers of the
six compiled blocks at once then gives every angle gradient for the whole
minibatch.

Models are stored through one codec: ``model_to_arrays`` names a model's
kind (``qlstm`` or ``lstm``) and its parameter arrays, and
``model_from_arrays`` rebuilds it after checking every array's shape against
the configuration and that every value is finite.  The single-model
checkpoint here and the ensemble checkpoint in ``runner`` only add their
own header keys around those arrays.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import read_npz, write_npz
from .errors import (
    CheckpointVersionError,
    ConfigurationError,
    DataError,
    NumericDivergenceError,
    NumericError,
    ShapeError,
)
from .quantum import (
    MAX_QUBITS,
    VQCBlock,
    compile_blocks,
    compiled_theta_gradients,
    encoding_gradient,
    layer_factors,
    product_state,
    product_state_and_factors,
    z_expectations,
    z_signs,
)

CHECKPOINT_VERSION = 1

GATE_NAMES = ("forget", "input", "update", "output", "hidden", "readout")


@dataclass(frozen=True)
class HyperConfig:
    """One point in hyperparameter space."""

    learning_rate: float
    n_layers: int
    n_qubits: int
    hidden_units: int
    sequence_length: int
    batch_size: int
    epochs: int

    def validate(self) -> "HyperConfig":
        # training only needs a finite, non-negative rate (zero disables
        # updates, which is legal); the tuning box lives in ``hyperspace``
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ConfigurationError("learning_rate must be finite and >= 0")
        if self.n_layers < 1:
            raise ConfigurationError(f"n_layers must be >= 1, got {self.n_layers}")
        if not 2 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigurationError(f"n_qubits must be in [2, {MAX_QUBITS}], got {self.n_qubits}")
        if self.hidden_units < 1:
            raise ConfigurationError(f"hidden_units must be >= 1, got {self.hidden_units}")
        if self.sequence_length < 1:
            raise ConfigurationError(f"sequence_length must be >= 1, got {self.sequence_length}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "HyperConfig":
        """The fields read from ``d`` (other keys are ignored): the learning
        rate as a float, every other field as an int.  Each must be a number
        and not a bool, and each count an integral one: a stored 2.7 or
        ``true`` is refused, not truncated to 2 or read as 1."""
        values = {}
        for f in fields(cls):
            value = d[f.name]
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{f.name} must be a number, got {value!r}")
            if f.name == "learning_rate":
                values[f.name] = float(value)
            elif isinstance(value, numbers.Integral) or float(value).is_integer():
                values[f.name] = int(value)
            else:
                raise ValueError(f"{f.name} must be an integral number, got {value!r}")
        return cls(**values)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text) -> "HyperConfig":
        """A stored configuration; an unreadable or invalid one is a DataError."""
        try:
            return cls.from_dict(json.loads(str(text))).validate()
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"stored configuration {str(text)!r} is invalid: {exc}") from exc


@dataclass
class TrainReport:
    """Per-epoch loss curves for one training run, and the trained model's
    predictions on the held-out windows."""

    train_losses: list
    test_losses: list
    wall_seconds: float
    val_predictions: np.ndarray

    @property
    def final_val_loss(self) -> float:
        return self.test_losses[-1]


def _sigmoid(x):
    """0.5 (1 + tanh(x / 2)), worked in place in one new array."""
    out = np.tanh(0.5 * x)
    out += 1.0
    out *= 0.5
    return out


def _check_windows(windows, input_dim: int) -> np.ndarray:
    """A ``(batch, seq, input_dim)`` float stack with ``seq >= 1``, else ShapeError."""
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 3 or windows.shape[2] != input_dim:
        raise ShapeError(f"windows must have shape (batch, seq, {input_dim}), got {windows.shape}")
    if windows.shape[1] == 0:
        raise ShapeError("windows must have at least one time step, got sequence length 0")
    return windows


def _encoded(x, need_cache: bool) -> tuple:
    """``(psi, factors)``: the product states of a step's circuit inputs, which
    must be finite (exploded parameters show up here first), and for a cached
    step the encoding factors its input gradient reads, else None."""
    if not np.isfinite(x).all():
        raise NumericError("circuit inputs must be finite")
    return product_state_and_factors(x) if need_cache else (product_state(x), None)


# ---------------------------------------------------------------------------
# Quantum LSTM
# ---------------------------------------------------------------------------


@dataclass
class QLSTMParams:
    """Six circuit blocks plus the classical bridging projections."""

    vqc: tuple  # six VQCBlock instances, order matching GATE_NAMES
    w_in: np.ndarray  # (n_qubits, hidden_units + input_dim)
    b_in: np.ndarray  # (n_qubits,)
    w_h: np.ndarray  # (hidden_units, n_qubits)
    b_h: np.ndarray  # (hidden_units,)
    w_y: np.ndarray  # (output_dim, n_qubits)
    b_y: np.ndarray  # (output_dim,)
    hidden_units: int
    input_dim: int

    def __post_init__(self):
        if len(self.vqc) != 6:
            raise ShapeError(f"expected 6 circuit blocks, got {len(self.vqc)}")
        n = self.vqc[0].n_qubits
        layers = self.vqc[0].n_layers
        for block in self.vqc:
            if block.n_qubits != n or block.n_layers != layers:
                raise ShapeError("all six circuit blocks must share n_qubits and n_layers")
        if self.w_in.shape != (n, self.hidden_units + self.input_dim):
            raise ShapeError(f"w_in has shape {self.w_in.shape}")
        if self.w_h.shape != (self.hidden_units, n):
            raise ShapeError(f"w_h has shape {self.w_h.shape}")
        if self.w_y.shape[1] != n:
            raise ShapeError(f"w_y has shape {self.w_y.shape}")

    @property
    def n_qubits(self) -> int:
        return self.vqc[0].n_qubits

    @property
    def output_dim(self) -> int:
        return self.w_y.shape[0]

    def param_arrays(self) -> dict:
        out = {f"theta_{name}": blk.thetas for name, blk in zip(GATE_NAMES, self.vqc)}
        out.update(
            w_in=self.w_in, b_in=self.b_in, w_h=self.w_h, b_h=self.b_h,
            w_y=self.w_y, b_y=self.b_y,
        )
        return out

    # -- forward -----------------------------------------------------------

    def _step(self, unitaries, x_t, h_prev, c_prev, want_y: bool, need_cache: bool):
        dim = unitaries.shape[0]
        concat = np.concatenate([h_prev, x_t], axis=1)
        v = concat @ self.w_in.T + self.b_in
        psi_v, enc_v = _encoded(v, need_cache)
        phi_v = psi_v @ unitaries[:, : 4 * dim]  # the four gates that read v, side by side
        z_v = z_expectations(phi_v.reshape(len(v), 4, dim))
        if not need_cache:  # the v states are dead from here on; free them before the u half
            psi_v = phi_v = None
        gates = _sigmoid(z_v)  # forget, input, update, output; the update gate is a tanh
        gates[:, 2] = np.tanh(z_v[:, 2])
        f, i, g, o = gates.swapaxes(0, 1)
        c = f * c_prev + i * g
        tc = np.tanh(c)
        u = o * tc
        psi_u, enc_u = _encoded(u, need_cache)
        phi_u = psi_u @ unitaries[:, 4 * dim : (6 if want_y else 5) * dim]
        z_u = z_expectations(phi_u.reshape(len(u), -1, dim))
        z5 = z_u[:, 0]
        h = z5 @ self.w_h.T + self.b_h
        z6 = z_u[:, 1] if want_y else None
        y = z6 @ self.w_y.T + self.b_y if want_y else None
        cache = None
        if need_cache:
            cache = {
                "unitaries": unitaries, "concat": concat, "v": v, "psi_v": psi_v,
                "enc_v": enc_v, "phi_v": phi_v, "gates": gates, "f": f, "i": i, "g": g,
                "o": o, "c_prev": c_prev, "c": c, "tc": tc, "u": u, "psi_u": psi_u, "enc_u": enc_u,
                "phi_u": phi_u, "z5": z5, "z6": z6,
            }
        return h, c, y, cache

    def step_batch(self, x_t, h_prev, c_prev, *, want_y: bool):
        """One cell step over a batch; returns (h, c, y, cache).  No command
        calls it; ``perfbench/layers.py`` times it."""
        return self._step(compile_blocks(self.vqc), x_t, h_prev, c_prev, want_y, need_cache=True)

    def forward_batch(self, windows, need_cache: bool = False, unitaries=None):
        """Run full sequences; returns final predictions (batch,) and caches.

        The six blocks are compiled together and a layer at a time, so each
        step costs one product state and one matrix product for ``v`` and the
        same for ``u``.  A caller that runs several forwards at fixed angles
        (``predict_batch``, ``forecast_iterative``) compiles them once with
        :func:`compile_model` and hands the result over as ``unitaries``.
        Without it they are compiled here, at the angles of this call,
        because Adam moves the angles in place between training calls.  With
        ``need_cache`` each step also keeps the encoding factors of ``v`` and
        ``u`` for ``backward``, and the last step the layer factors the
        blocks were compiled from; without it none are kept.
        """
        windows = _check_windows(windows, self.input_dim)
        batch, seq = windows.shape[0], windows.shape[1]
        factors = None
        if unitaries is None:
            factors = layer_factors(self.vqc)
            # [W_f^T | W_i^T | W_g^T | W_o^T | W_hidden^T | W_readout^T]
            unitaries = compile_blocks(self.vqc, factors)
        h = np.zeros((batch, self.hidden_units))
        c = np.zeros((batch, self.n_qubits))
        caches = []
        for t in range(seq):
            h, c, y, cache = self._step(unitaries, windows[:, t, :], h, c,
                                        want_y=(t == seq - 1), need_cache=need_cache)
            if need_cache:
                caches.append(cache)
        if need_cache:
            caches[-1]["factors"] = factors
        return y[:, 0], caches

    # -- backward ------------------------------------------------------------

    def backward(self, caches, dpred):
        """BPTT through cached steps; ``dpred`` is (batch,) loss gradient on y.

        Each step forms every block's lambda = phi * (dz @ signs) and turns it
        into input gradients through mu = W^dagger lambda, reading the
        encoding factors the forward step cached.  The sums over the steps
        wait for the end: each block's G = sum psi^H lambda is one product of
        the stacked rows, written into place, and one sweep back over the
        layers of all six compiled blocks then gives their theta gradients.
        """
        final = caches[-1]
        unitaries = final["unitaries"]
        dim, n, seq, batch = unitaries.shape[0], self.n_qubits, len(caches), len(dpred)
        signs = z_signs(n)
        # every step's lambda rows, newest step first; the u rows' readout
        # half is filled by the last step alone
        lam_v = np.empty((seq, batch, 4 * dim), dtype=np.complex128)
        lam_u = np.empty((seq, batch, 2 * dim), dtype=np.complex128)
        steps = []  # what each step adds to the classical sums, newest first

        def circuit_backward(x, enc, psi, phi, dz, lam, first):
            # dz (batch, blocks, n) for the blocks from `first` on that read x;
            # their lambda goes into lam
            cols = slice(first * dim, (first + dz.shape[1]) * dim)
            np.multiply(phi, (dz.reshape(-1, n) @ signs).reshape(len(x), -1), out=lam)
            # mu = sum_k W_k^dagger lam_k, as rows: conj(W^T lam^H)^T
            return encoding_gradient(x, enc, psi, (unitaries[:, cols] @ lam.conj().T).conj().T)

        dy = dpred[:, None]
        dz6 = dy @ self.w_y
        dh = np.zeros((batch, self.hidden_units))
        dc_carry = np.zeros((batch, n))
        for t, cache in enumerate(reversed(caches)):
            dz5 = dh @ self.w_h
            dz_u = np.array([dz5, dz6]).swapaxes(0, 1) if t == 0 else dz5[:, None]
            du = circuit_backward(cache["u"], cache["enc_u"], cache["psi_u"], cache["phi_u"],
                                  dz_u, lam_u[t, :, : dz_u.shape[1] * dim], first=4)
            gates, g, tc = cache["gates"], cache["g"], cache["tc"]
            dc = dc_carry + du * cache["o"] * (1.0 - tc * tc)
            # the four gates' output gradients, then their pre-activation ones
            dz_v = np.empty_like(gates)
            np.multiply(dc, cache["c_prev"], out=dz_v[:, 0])
            np.multiply(dc, g, out=dz_v[:, 1])
            np.multiply(dc, cache["i"], out=dz_v[:, 2])
            np.multiply(du, tc, out=dz_v[:, 3])
            slope = gates * (1.0 - gates)
            slope[:, 2] = 1.0 - g * g
            dz_v *= slope
            dc_carry = dc * cache["f"]

            dv = circuit_backward(cache["v"], cache["enc_v"], cache["psi_v"], cache["phi_v"],
                                  dz_v, lam_v[t], first=0)
            steps.append((dh, cache["z5"], dv, cache["concat"]))
            dh = (dv @ self.w_in)[:, : self.hidden_units]

        dh, z5, dv, concat = (np.concatenate(rows) for rows in zip(*steps))
        psi_v, psi_u = (np.concatenate([cache[key] for cache in reversed(caches)]).conj().T
                        for key in ("psi_v", "psi_u"))
        # each block's G, written into place: no (2**n, 4 * 2**n) temporary
        gram = np.empty_like(unitaries)
        np.matmul(psi_v, lam_v.reshape(-1, 4 * dim), out=gram[:, : 4 * dim])
        np.matmul(psi_u, lam_u[:, :, :dim].reshape(-1, dim), out=gram[:, 4 * dim : 5 * dim])
        np.matmul(final["psi_u"].conj().T, lam_u[0, :, dim:], out=gram[:, 5 * dim :])
        theta_grads = compiled_theta_gradients(self.vqc, unitaries, gram, final.get("factors"))
        grads = {f"theta_{name}": grad for name, grad in zip(GATE_NAMES, theta_grads)}
        grads.update(w_in=dv.T @ concat, b_in=dv.sum(axis=0), w_h=dh.T @ z5, b_h=dh.sum(axis=0),
                     w_y=dy.T @ final["z6"], b_y=dy.sum(axis=0))
        return grads


def init_qlstm(config: HyperConfig, input_dim: int, seed) -> QLSTMParams:
    """Seeded initialization of a one-output cell: projections uniform in
    [-0.1, 0.1] (zero biases), circuit angles uniform in [-pi, pi]."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n, hidden = config.n_qubits, config.hidden_units
    blocks = tuple(VQCBlock.random(n, config.n_layers, rng) for _ in range(6))
    return QLSTMParams(
        vqc=blocks,
        w_in=rng.uniform(-0.1, 0.1, size=(n, hidden + input_dim)),
        b_in=np.zeros(n),
        w_h=rng.uniform(-0.1, 0.1, size=(hidden, n)),
        b_h=np.zeros(hidden),
        w_y=rng.uniform(-0.1, 0.1, size=(1, n)),
        b_y=np.zeros(1),
        hidden_units=hidden,
        input_dim=input_dim,
    )


def compile_model(params):
    """What ``forward_batch(..., unitaries=)`` reads for ``params``: a QLSTM's
    six blocks compiled at their current angles, or None for a model
    without circuits."""
    return compile_blocks(params.vqc) if isinstance(params, QLSTMParams) else None


def forward_sequence(params, window, unitaries=None) -> float:
    """Run any model over one ``(seq, input_dim)`` window from zero state;
    returns the final prediction.  The multi-step forecast makes its
    one-window calls here, each with the model's one :func:`compile_model`."""
    window = np.asarray(window, dtype=float)
    if window.ndim != 2 or window.shape[1] != params.input_dim:
        raise ShapeError(f"window must be (seq, {params.input_dim}), got {window.shape}")
    pred, _ = params.forward_batch(window[None], unitaries=unitaries)
    return float(pred[0])


# predict_batch keeps its working memory, beside its input and output, within
# PREDICT_BLOCK_BYTES for n <= 6.  A block of windows holds 6 x 2**n output
# amplitudes per window at a step.  With the states that fed them, their
# squared magnitudes, the classical rows and the compiled unitaries beside
# them, that is budgeted at 128 bytes an amplitude (measured: 40 at most for
# the block, and 70 with a (6, 3) compile).  A block takes as many windows as
# fit, and no fewer than PREDICT_MIN_ROWS: below that each step's fixed numpy
# calls outweigh its arithmetic (64-window blocks made a (6, 3) prediction
# about 10% slower).  Every block size is then a power of two, so a multiple
# of the BLAS row tile.  A model without circuits takes the n = 0 size.
PREDICT_BLOCK_BYTES = 3 * 2**20  # 1 024 windows at n = 2, 128 from n = 5 on
PREDICT_MIN_ROWS = 128


def prediction_block_rows(params) -> int:
    """Windows per forward pass of :func:`predict_batch` for ``params``."""
    n = params.n_qubits if isinstance(params, QLSTMParams) else 0
    return max(PREDICT_MIN_ROWS, PREDICT_BLOCK_BYTES // (128 * 6 * 2**n))


def predict_batch(params, windows) -> np.ndarray:
    """Predictions for a stack of windows (works for every model type), made
    :func:`prediction_block_rows` windows at a time so memory stays bounded,
    with the model compiled once for all of the blocks.

    Every block starts on a multiple of the BLAS row tile, and a lone last
    window joins the block before it, since numpy multiplies a single row by
    another BLAS routine whose rounding can differ.  So the result is bit for
    bit one ``forward_batch`` over the whole stack."""
    windows = _check_windows(windows, params.input_dim)
    if not len(windows):
        return np.empty(0)
    rows, unitaries = prediction_block_rows(params), compile_model(params)
    starts = [*range(0, max(len(windows) - 1, 1), rows), len(windows)]
    preds = np.empty(len(windows))
    for lo, hi in zip(starts, starts[1:]):
        preds[lo:hi] = params.forward_batch(windows[lo:hi], unitaries=unitaries)[0]
    return preds


# ---------------------------------------------------------------------------
# Classical LSTM baseline (same hidden size, affine gates)
# ---------------------------------------------------------------------------


@dataclass
class ClassicalLSTMParams:
    w_f: np.ndarray
    b_f: np.ndarray
    w_i: np.ndarray
    b_i: np.ndarray
    w_g: np.ndarray
    b_g: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray
    w_y: np.ndarray
    b_y: np.ndarray
    hidden_units: int
    input_dim: int

    def param_arrays(self) -> dict:
        return {
            "w_f": self.w_f, "b_f": self.b_f, "w_i": self.w_i, "b_i": self.b_i,
            "w_g": self.w_g, "b_g": self.b_g, "w_o": self.w_o, "b_o": self.b_o,
            "w_y": self.w_y, "b_y": self.b_y,
        }

    def forward_batch(self, windows, need_cache: bool = False, unitaries=None):
        """Run full sequences; ``unitaries`` is :func:`compile_model`'s None."""
        windows = _check_windows(windows, self.input_dim)
        batch, seq = windows.shape[0], windows.shape[1]
        h = np.zeros((batch, self.hidden_units))
        c = np.zeros((batch, self.hidden_units))
        caches = []
        for t in range(seq):
            concat = np.concatenate([h, windows[:, t, :]], axis=1)
            f = _sigmoid(concat @ self.w_f.T + self.b_f)
            i = _sigmoid(concat @ self.w_i.T + self.b_i)
            g = np.tanh(concat @ self.w_g.T + self.b_g)
            o = _sigmoid(concat @ self.w_o.T + self.b_o)
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            h_new = o * tc
            if need_cache:
                caches.append(
                    {"concat": concat, "f": f, "i": i, "g": g, "o": o,
                     "c_prev": c, "c": c_new, "tc": tc, "h": h_new}
                )
            h, c = h_new, c_new
        y = h @ self.w_y.T + self.b_y
        if need_cache:
            caches[-1]["h_final"] = h
        return y[:, 0], caches

    def backward(self, caches, dpred):
        grads = {k: np.zeros_like(v) for k, v in self.param_arrays().items()}
        dy = dpred[:, None]
        grads["w_y"] += dy.T @ caches[-1]["h_final"]
        grads["b_y"] += dy.sum(axis=0)
        dh = dy @ self.w_y
        batch = dpred.shape[0]
        dc_carry = np.zeros((batch, self.hidden_units))
        for t in range(len(caches) - 1, -1, -1):
            cache = caches[t]
            f, i, g, o, tc = cache["f"], cache["i"], cache["g"], cache["o"], cache["tc"]
            dc = dc_carry + dh * o * (1.0 - tc * tc)
            do = dh * tc
            dzo = do * o * (1.0 - o)
            df = dc * cache["c_prev"]
            dzf = df * f * (1.0 - f)
            di = dc * g
            dzi = di * i * (1.0 - i)
            dg = dc * i
            dzg = dg * (1.0 - g * g)
            dc_carry = dc * f
            concat = cache["concat"]
            grads["w_f"] += dzf.T @ concat
            grads["b_f"] += dzf.sum(axis=0)
            grads["w_i"] += dzi.T @ concat
            grads["b_i"] += dzi.sum(axis=0)
            grads["w_g"] += dzg.T @ concat
            grads["b_g"] += dzg.sum(axis=0)
            grads["w_o"] += dzo.T @ concat
            grads["b_o"] += dzo.sum(axis=0)
            da = dzf @ self.w_f + dzi @ self.w_i + dzg @ self.w_g + dzo @ self.w_o
            dh = da[:, : self.hidden_units]
        return grads


def init_classical_lstm(config: HyperConfig, input_dim: int, seed):
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    hidden = config.hidden_units
    shape = (hidden, hidden + input_dim)

    def w():
        return rng.uniform(-0.1, 0.1, size=shape)

    return ClassicalLSTMParams(
        w_f=w(), b_f=np.zeros(hidden),
        w_i=w(), b_i=np.zeros(hidden),
        w_g=w(), b_g=np.zeros(hidden),
        w_o=w(), b_o=np.zeros(hidden),
        w_y=rng.uniform(-0.1, 0.1, size=(1, hidden)),
        b_y=np.zeros(1),
        hidden_units=hidden,
        input_dim=input_dim,
    )


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


class Adam:
    """Adam with the conventional moment settings ``BETA1``, ``BETA2``, ``EPS``.

    The moments of all parameter arrays live in one flat vector, so a step
    is a few whole-vector operations and one in-place update per array;
    each element's arithmetic is the same as array by array."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, learning_rate: float):
        self.params = params
        self.lr = learning_rate
        self.bounds = np.cumsum([0] + [value.size for value in params.values()])
        self.m = np.zeros(self.bounds[-1])
        self.v = np.zeros(self.bounds[-1])
        self.t = 0

    def step(self, grads: dict) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        grad = np.concatenate([grads[key].ravel() for key in self.params])
        self.m = b1 * self.m + (1 - b1) * grad
        self.v = b2 * self.v + (1 - b2) * grad * grad
        m_hat = self.m / (1 - b1**self.t)
        v_hat = self.v / (1 - b2**self.t)
        update = self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)
        for param, lo, hi in zip(self.params.values(), self.bounds, self.bounds[1:]):
            param -= update[lo:hi].reshape(param.shape)


def train(model, config: HyperConfig, train_set, test_set, seed) -> TrainReport:
    """Minimize MSE by minibatch Adam over ``config.epochs`` epochs on the
    windows of ``train_set``, scored on ``test_set`` (``WindowedDataset``s).

    Deterministic for a fixed seed: batch shuffling is the only source of
    randomness.  A non-finite loss raises
    :class:`~qforecast.errors.NumericDivergenceError` with the offending
    epoch in the message.
    """
    config.validate()
    x_train, y_train = train_set.inputs, train_set.targets
    x_test, y_test = test_set.inputs, test_set.targets
    if len(x_train) == 0 or len(x_test) == 0:
        raise ConfigurationError("train and test sets must be non-empty")
    if x_train.shape[1] != config.sequence_length:
        raise ConfigurationError(
            f"dataset windows have length {x_train.shape[1]}, "
            f"config expects {config.sequence_length}"
        )
    rng = np.random.default_rng(seed)
    opt = Adam(model.param_arrays(), config.learning_rate)
    n = len(x_train)
    batch_size = min(config.batch_size, n)

    start = time.perf_counter()
    train_losses, test_losses = [], []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        # per-window squared errors are summed in window order, so the
        # epoch loss does not depend on the shuffle
        sq_errors = np.empty(n)
        try:
            for lo in range(0, n, batch_size):
                idx = order[lo : lo + batch_size]
                xb, yb = x_train[idx], y_train[idx]
                preds, caches = model.forward_batch(xb, need_cache=True)
                err = preds - yb
                sq_errors[idx] = err * err
                grads = model.backward(caches, 2.0 * err / len(idx))
                opt.step(grads)
        except NumericError as exc:
            # exploded parameters feed non-finite values back into the cell
            raise NumericDivergenceError(f"training diverged at epoch {epoch}: {exc}") from exc
        epoch_train = float(np.sum(sq_errors)) / n
        if not np.isfinite(epoch_train):
            raise NumericDivergenceError(f"training loss diverged at epoch {epoch}")
        test_preds = predict_batch(model, x_test)
        epoch_test = float(np.mean((test_preds - y_test) ** 2))
        if not np.isfinite(epoch_test):
            raise NumericDivergenceError(f"test loss diverged at epoch {epoch}")
        train_losses.append(epoch_train)
        test_losses.append(epoch_test)
    return TrainReport(
        train_losses=train_losses,
        test_losses=test_losses,
        wall_seconds=time.perf_counter() - start,
        val_predictions=test_preds,
    )


# ---------------------------------------------------------------------------
# Model codec and checkpoints
# ---------------------------------------------------------------------------


def _qlstm_layout(config: HyperConfig, input_dim: int, output_dim: int) -> dict:
    n, hidden = config.n_qubits, config.hidden_units
    layout = {f"theta_{name}": (config.n_layers, n, 3) for name in GATE_NAMES}
    layout.update(w_in=(n, hidden + input_dim), b_in=(n,), w_h=(hidden, n), b_h=(hidden,),
                  w_y=(output_dim, n), b_y=(output_dim,))
    return layout


def _qlstm_build(arrays: dict, config: HyperConfig, input_dim: int) -> QLSTMParams:
    blocks = tuple(VQCBlock(config.n_qubits, config.n_layers, arrays.pop(f"theta_{name}"))
                   for name in GATE_NAMES)
    return QLSTMParams(vqc=blocks, **arrays, hidden_units=config.hidden_units,
                       input_dim=input_dim)


def _lstm_layout(config: HyperConfig, input_dim: int, output_dim: int) -> dict:
    hidden = config.hidden_units
    layout = {}
    for gate in "figo":
        layout[f"w_{gate}"] = (hidden, hidden + input_dim)
        layout[f"b_{gate}"] = (hidden,)
    layout.update(w_y=(output_dim, hidden), b_y=(output_dim,))
    return layout


# kind -> (model class, stored arrays and their shapes, constructor from those arrays)
MODEL_KINDS = {
    "qlstm": (QLSTMParams, _qlstm_layout, _qlstm_build),
    "lstm": (ClassicalLSTMParams, _lstm_layout,
             lambda arrays, config, input_dim: ClassicalLSTMParams(
                 **arrays, hidden_units=config.hidden_units, input_dim=input_dim)),
}


def model_to_arrays(model) -> tuple[str, dict]:
    """``(kind, arrays)``: the model's kind and its parameter arrays, in stored order."""
    for kind, (cls, _, _) in MODEL_KINDS.items():
        if type(model) is cls:
            return kind, model.param_arrays()
    raise ConfigurationError(f"cannot checkpoint model of type {type(model).__name__}")


def checked_array(name: str, value, shape: tuple) -> np.ndarray:
    """A stored float array of the given shape with finite values, else DataError."""
    if value is None:
        raise DataError(f"no {name!r} array stored")
    if value.shape != shape:
        raise DataError(f"{name} has shape {value.shape}, expected {shape}")
    if value.dtype.kind != "f" or not np.all(np.isfinite(value)):
        raise DataError(f"{name} holds non-finite or non-float values")
    return value


def model_from_arrays(kind: str, config: HyperConfig, input_dim: int, arrays: dict):
    """Rebuild a ``model_to_arrays`` model, checking every array it reads."""
    if kind not in MODEL_KINDS:
        raise CheckpointVersionError(f"unknown model kind {kind!r}")
    _, layout, build = MODEL_KINDS[kind]
    # the output width is whatever b_y stores; w_y must agree with it
    output_dim = int(np.size(arrays.get("b_y")))
    shapes = layout(config, input_dim, output_dim)
    return build({name: checked_array(name, arrays.get(name), shape)
                  for name, shape in shapes.items()}, config, input_dim)


def save_checkpoint(path, model, config: HyperConfig) -> None:
    """Write a versioned checkpoint; the write/read round-trip is exact."""
    kind, arrays = model_to_arrays(model)
    payload = {"version": np.array(CHECKPOINT_VERSION), "kind": np.array(kind), **arrays,
               "config_json": np.array(config.to_json()),
               "input_dim": np.array(model.input_dim)}
    write_npz(path, payload)


def load_checkpoint(path):
    """Read a checkpoint back; returns ``(model, config)``.  No command calls
    it, but it is the one reader of the ``checkpoint.npz`` ``train`` publishes."""
    data = read_npz(path, "checkpoint", CHECKPOINT_VERSION)
    config = HyperConfig.from_json(data["config_json"])
    model = model_from_arrays(str(data["kind"]), config, data.integer("input_dim"), data)
    return model, config
