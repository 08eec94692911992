"""Exact statevector simulation of small variational quantum circuits.

Pure-numpy simulator for the circuit blocks used inside the quantum LSTM
cell: an angle-encoding layer, ring entanglement, trainable single-qubit
rotations, and Pauli-Z expectation readout.  Gradients with respect to the
rotation angles and the inputs come from one adjoint reverse sweep over the
block's gates, which is exact for this gate set.

Conventions
-----------
* Qubit 0 is the least-significant bit of the amplitude index.
* States are always normalized; every public gate application checks the
  norm to 1e-10.
* Simulation is exact (no shot sampling), so all outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidGateError, NumericError, ShapeError

MAX_QUBITS = 10
NORM_TOL = 1e-10

ROTATION_KINDS = ("rx", "ry", "rz")
GATE_KINDS = ROTATION_KINDS + ("h", "cnot")


@dataclass(frozen=True)
class StateVector:
    """An n-qubit pure state as 2**n complex amplitudes."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ShapeError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.n_qubits,):
            raise ShapeError(
                f"expected {2**self.n_qubits} amplitudes for {self.n_qubits} qubits, "
                f"got shape {amps.shape}"
            )
        norm_sq = float(np.sum(amps.real**2 + amps.imag**2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise NumericError(f"state norm**2 = {norm_sq!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    def probabilities(self) -> np.ndarray:
        a = self.amplitudes
        return a.real**2 + a.imag**2


def zero_state(n_qubits: int) -> StateVector:
    """|0...0> on ``n_qubits`` qubits."""
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


@dataclass(frozen=True)
class Gate:
    """A single circuit gate.

    ``kind`` is one of ``rx``/``ry``/``rz`` (needs ``angle``), ``h``, or
    ``cnot`` (needs ``control``).
    """

    kind: str
    target: int
    control: int | None = None
    angle: float | None = None

    def validate_for(self, n_qubits: int) -> None:
        if self.kind not in GATE_KINDS:
            raise InvalidGateError(f"unknown gate kind {self.kind!r}")
        if not 0 <= self.target < n_qubits:
            raise InvalidGateError(f"target {self.target} out of range for {n_qubits} qubits")
        if self.kind == "cnot":
            if self.control is None:
                raise InvalidGateError("cnot requires a control qubit")
            if not 0 <= self.control < n_qubits:
                raise InvalidGateError(
                    f"control {self.control} out of range for {n_qubits} qubits"
                )
            if self.control == self.target:
                raise InvalidGateError("cnot control and target must differ")
        elif self.control is not None:
            raise InvalidGateError(f"{self.kind} gate takes no control qubit")
        if self.kind in ROTATION_KINDS:
            if self.angle is None or not np.isfinite(self.angle):
                raise InvalidGateError(f"{self.kind} gate requires a finite angle")
        elif self.angle is not None:
            raise InvalidGateError(f"{self.kind} gate takes no angle")


# ---------------------------------------------------------------------------
# Batched kernels.  All operate on arrays of shape (batch, 2**n) and return
# new arrays; the batch axis lets one call simulate many circuits at once.
# ---------------------------------------------------------------------------


def _as_broadcast(angle_term, batched: bool):
    # scalar stays scalar; per-batch (B,) vectors broadcast over (B, pre, post)
    if batched:
        return angle_term[:, None, None]
    return angle_term


def _apply_rotation(amps: np.ndarray, n: int, kind: str, target: int, angle) -> np.ndarray:
    batch = amps.shape[0]
    pre = 2 ** (n - 1 - target)
    post = 2**target
    a = amps.reshape(batch, pre, 2, post)
    a0 = a[:, :, 0, :]
    a1 = a[:, :, 1, :]
    angle = np.asarray(angle, dtype=np.float64)
    batched = angle.ndim == 1
    half = angle * 0.5
    c = _as_broadcast(np.cos(half), batched)
    s = _as_broadcast(np.sin(half), batched)
    out = np.empty_like(a)
    if kind == "rx":
        out[:, :, 0, :] = c * a0 - 1j * s * a1
        out[:, :, 1, :] = -1j * s * a0 + c * a1
    elif kind == "ry":
        out[:, :, 0, :] = c * a0 - s * a1
        out[:, :, 1, :] = s * a0 + c * a1
    elif kind == "rz":
        out[:, :, 0, :] = (c - 1j * s) * a0
        out[:, :, 1, :] = (c + 1j * s) * a1
    else:  # pragma: no cover - guarded by callers
        raise InvalidGateError(f"not a rotation gate: {kind!r}")
    return out.reshape(batch, -1)


def _apply_h(amps: np.ndarray, n: int, target: int) -> np.ndarray:
    batch = amps.shape[0]
    pre = 2 ** (n - 1 - target)
    post = 2**target
    a = amps.reshape(batch, pre, 2, post)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    out = np.empty_like(a)
    out[:, :, 0, :] = (a[:, :, 0, :] + a[:, :, 1, :]) * inv_sqrt2
    out[:, :, 1, :] = (a[:, :, 0, :] - a[:, :, 1, :]) * inv_sqrt2
    return out.reshape(batch, -1)


@lru_cache(maxsize=None)
def _cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(2**n)
    return idx ^ (((idx >> control) & 1) << target)


def _apply_cnot(amps: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    return amps[:, _cnot_perm(n, control, target)]


@lru_cache(maxsize=None)
def _z_signs(n: int) -> np.ndarray:
    # row q holds +1/-1 for bit q of each basis index
    idx = np.arange(2**n)
    bits = (idx[None, :] >> np.arange(n)[:, None]) & 1
    return (1.0 - 2.0 * bits).astype(np.float64)


def _z_expectations(amps: np.ndarray, n: int) -> np.ndarray:
    probs = amps.real**2 + amps.imag**2
    return probs @ _z_signs(n).T


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate, returning the unitarily evolved state.

    Pure: the input state is never mutated.  Raises
    :class:`~qforecast.errors.InvalidGateError` on bad qubit indices and
    :class:`~qforecast.errors.NumericError` if the norm drifts beyond 1e-10
    (cannot happen for valid gates; kept as a hard guard).
    """
    gate.validate_for(state.n_qubits)
    amps = state.amplitudes[None, :]
    if gate.kind in ROTATION_KINDS:
        amps = _apply_rotation(amps, state.n_qubits, gate.kind, gate.target, gate.angle)
    elif gate.kind == "h":
        amps = _apply_h(amps, state.n_qubits, gate.target)
    else:
        amps = _apply_cnot(amps, state.n_qubits, gate.control, gate.target)
    return StateVector(state.n_qubits, amps[0])


def inverse_gate(gate: Gate) -> Gate:
    """The inverse of ``gate`` (rotations negate their angle; H and CNOT are involutions)."""
    if gate.kind in ROTATION_KINDS:
        return Gate(gate.kind, gate.target, angle=-gate.angle)
    return gate


# ---------------------------------------------------------------------------
# Variational block: encoding + entangling/rotation layers + <Z> readout.
# ---------------------------------------------------------------------------


@dataclass
class VQCBlock:
    """A parameterized circuit block with trainable rotation angles.

    Structure: per-qubit angle encoding RY(arctan x_i) then RZ(arctan x_i^2),
    followed by ``n_layers`` of [CNOT ring entangler + per-qubit RX, RY, RZ
    with trainable angles].  Readout is the per-qubit Pauli-Z expectation,
    so outputs live in [-1, 1].  The expected input length is ``n_qubits``.
    """

    n_qubits: int
    n_layers: int
    thetas: np.ndarray  # shape (n_layers, n_qubits, 3)

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ShapeError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        if self.n_layers < 1:
            raise ShapeError(f"n_layers must be >= 1, got {self.n_layers}")
        thetas = np.asarray(self.thetas, dtype=np.float64)
        expected = (self.n_layers, self.n_qubits, 3)
        if thetas.shape != expected:
            raise ShapeError(f"thetas must have shape {expected}, got {thetas.shape}")
        if not np.all(np.isfinite(thetas)):
            raise NumericError("theta angles must all be finite")
        self.thetas = thetas

    @property
    def n_params(self) -> int:
        return self.thetas.size

    @classmethod
    def random(cls, n_qubits: int, n_layers: int, rng: np.random.Generator) -> "VQCBlock":
        thetas = rng.uniform(-np.pi, np.pi, size=(n_layers, n_qubits, 3))
        return cls(n_qubits, n_layers, thetas)

    @classmethod
    def zeros(cls, n_qubits: int, n_layers: int) -> "VQCBlock":
        return cls(n_qubits, n_layers, np.zeros((n_layers, n_qubits, 3)))


def encoding_angles(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map raw inputs to the (RY, RZ) encoding angles, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    return np.arctan(x), np.arctan(x * x)


def _check_inputs(block: VQCBlock, x: np.ndarray, batched: bool) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    ok = x.shape == (x.shape[0], block.n_qubits) if batched and x.ndim == 2 else (
        not batched and x.shape == (block.n_qubits,)
    )
    if not ok:
        raise ShapeError(
            f"input must have {block.n_qubits} entries per circuit, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise NumericError("circuit inputs must be finite")
    return x


def _apply_block_gate(amps: np.ndarray, n: int, kind: str, qubit: int, angle) -> np.ndarray:
    if kind == "cnot":  # ring entangler: the target is the next qubit
        return _apply_cnot(amps, n, qubit, (qubit + 1) % n)
    return _apply_rotation(amps, n, kind, qubit, angle)


def _run_block(block: VQCBlock, inputs: np.ndarray) -> tuple[np.ndarray, list]:
    """Simulate the block on a batch of inputs; returns the final amplitudes
    and the gate sequence, which is written down only here.

    Each gate is (kind, qubit, angle, slot): encoding angles are per-row
    vectors, trainable angles scalars, and ``slot`` indexes the per-qubit
    angle axis of the gradient (0/1 for the RY/RZ encoding,
    ``2 + 3 * layer + k`` for ``thetas[layer, qubit, k]``, None for a CNOT).
    """
    n = block.n_qubits
    enc_ry, enc_rz = encoding_angles(inputs)
    gates = []
    for q in range(n):
        gates += [("ry", q, enc_ry[:, q], 0), ("rz", q, enc_rz[:, q], 1)]
    for layer in range(block.n_layers):
        if n >= 2:
            gates += [("cnot", q, None, None) for q in range(n)]
        for q in range(n):
            gates += [(kind, q, block.thetas[layer, q, k], 2 + 3 * layer + k)
                      for k, kind in enumerate(ROTATION_KINDS)]
    amps = np.zeros((inputs.shape[0], 2**n), dtype=np.complex128)
    amps[:, 0] = 1.0
    for kind, q, angle, _ in gates:
        amps = _apply_block_gate(amps, n, kind, q, angle)
    return amps, gates


def run_vqc_batch(block: VQCBlock, inputs: np.ndarray) -> np.ndarray:
    """Run the block on a (batch, n_qubits) input matrix; returns (batch, n_qubits) <Z> values."""
    inputs = _check_inputs(block, inputs, batched=True)
    amps, _ = _run_block(block, inputs)
    return _z_expectations(amps, block.n_qubits)


def run_vqc(block: VQCBlock, x: np.ndarray) -> np.ndarray:
    """Per-qubit Pauli-Z expectations of the block applied to one input vector."""
    x = _check_inputs(block, x, batched=False)
    return run_vqc_batch(block, x[None, :])[0]


# ---------------------------------------------------------------------------
# Adjoint gradients (Jones & Gacon, arXiv:2009.02823).
#
# psi is the final state and lambda = O psi for the diagonal observable
# O = sum_q u_q Z_q.  A reverse sweep un-applies each gate to both; at a
# rotation R(theta) they hold the states just after it, and as dR/dtheta =
# R(theta + pi) / 2 = R(pi) R(theta) / 2, d<psi|O|psi>/dtheta = Re<lambda|R(pi) psi>.
# ---------------------------------------------------------------------------


def vqc_gradients_batch(block: VQCBlock, inputs: np.ndarray,
                        upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint gradients of ``sum_b upstream_b . output_b``.

    Parameters
    ----------
    inputs : (batch, n_qubits) raw input matrix.
    upstream : (batch, n_qubits) cotangent for each circuit's output.

    Returns
    -------
    theta_grad : array with the shape of ``block.thetas`` (summed over batch).
    input_grad : (batch, n_qubits) gradient with respect to the raw inputs,
        from the per-row encoding-angle gradients and the chain rule of the
        arctan encoding.
    """
    inputs = _check_inputs(block, inputs, batched=True)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != inputs.shape:
        raise ShapeError(f"upstream must match inputs shape {inputs.shape}, got {upstream.shape}")

    n, layers = block.n_qubits, block.n_layers
    batch = inputs.shape[0]
    psi, gates = _run_block(block, inputs)
    # rows [:batch] hold psi and rows [batch:] lambda, so one kernel call moves both
    pair = np.concatenate([psi, psi * (upstream @ _z_signs(n))])
    grad = np.empty((batch, 2 + 3 * layers, n))  # per row: d/d(angle slot, qubit)
    for kind, q, angle, slot in reversed(gates):
        if kind != "cnot":
            kicked = _apply_rotation(pair[:batch], n, kind, q, np.pi)
            lam = pair[batch:]
            grad[:, slot, q] = np.sum(lam.real * kicked.real + lam.imag * kicked.imag, axis=1)
            angle = -np.concatenate([angle, angle]) if np.ndim(angle) else -angle
        pair = _apply_block_gate(pair, n, kind, q, angle)

    theta_grad = grad[:, 2:].sum(axis=0).reshape(layers, 3, n).transpose(0, 2, 1)
    # chain rule through the encoding: a = arctan(x), b = arctan(x^2)
    x = inputs
    input_grad = grad[:, 0] / (1.0 + x * x) + grad[:, 1] * (2.0 * x) / (1.0 + x**4)
    return theta_grad, input_grad


def vqc_gradient(block: VQCBlock, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient of ``upstream . run_vqc(block, x)`` with respect to the thetas."""
    x = _check_inputs(block, x, batched=False)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (block.n_qubits,):
        raise ShapeError(f"upstream must have {block.n_qubits} entries, got {upstream.shape}")
    theta_grad, _ = vqc_gradients_batch(block, x[None, :], upstream[None, :])
    return theta_grad


def vqc_input_gradient(block: VQCBlock, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient of ``upstream . run_vqc(block, x)`` with respect to the input vector."""
    x = _check_inputs(block, x, batched=False)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (block.n_qubits,):
        raise ShapeError(f"upstream must have {block.n_qubits} entries, got {upstream.shape}")
    _, input_grad = vqc_gradients_batch(block, x[None, :], upstream[None, :])
    return input_grad[0]
