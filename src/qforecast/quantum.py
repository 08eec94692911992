"""Exact statevector simulation of small variational quantum circuits.

Pure-numpy simulator for the circuit blocks used inside the quantum LSTM
cell: an angle-encoding layer, ring entanglement, trainable single-qubit
rotations, and Pauli-Z expectation readout.  Every block computation is
built from three pieces: the encoding as a closed-form product state, one
function that applies the trainable gates to any stack of rows, and one
adjoint reverse sweep over those gates, which gives exact gradients with
respect to the rotation angles and the inputs.

Between optimizer steps the angles are fixed, so the trainable part of a
block is one 2**n x 2**n unitary W.  ``compile_blocks`` builds W^T by
applying the gates to the basis rows; a batch's output states are then one
matrix product, and ``compiled_theta_gradients`` runs the sweep once over
W^T's rows to give the angle gradients of every row and step that fed the
block.

Conventions
-----------
* Qubit 0 is the least-significant bit of the amplitude index.
* Simulation is exact (no shot sampling), so all outputs are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError, ShapeError

MAX_QUBITS = 10

ROTATION_KINDS = ("rx", "ry", "rz")


# ---------------------------------------------------------------------------
# Batched kernels.  All operate on arrays of shape (batch, 2**n) and return
# new arrays; the batch axis lets one call simulate many circuits at once.
# ---------------------------------------------------------------------------


def _halves(amps: np.ndarray, n: int, target: int):
    # each row viewed as (pre, 2, post), split on the target qubit's bit
    a = amps.reshape(amps.shape[0], 2 ** (n - 1 - target), 2, 2**target)
    return a, a[:, :, 0, :], a[:, :, 1, :]


def _apply_rotation(amps: np.ndarray, n: int, kind: str, target: int, angle) -> np.ndarray:
    _, a0, a1 = _halves(amps, n, target)
    c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
    # each half is written in place: one temporary per half, not three
    out, out0, out1 = _halves(np.empty_like(amps), n, target)
    if kind == "rx":
        np.multiply(c, a0, out=out0)
        out0 -= 1j * s * a1
        np.multiply(-1j * s, a0, out=out1)
        out1 += c * a1
    elif kind == "ry":
        np.multiply(c, a0, out=out0)
        out0 -= s * a1
        np.multiply(s, a0, out=out1)
        out1 += c * a1
    else:  # rz
        np.multiply(c - 1j * s, a0, out=out0)
        np.multiply(c + 1j * s, a1, out=out1)
    return out.reshape(amps.shape)


def _generator_overlap(lam: np.ndarray, phi: np.ndarray, n: int, kind: str, target: int) -> float:
    """Im<lam|P phi> summed over rows, for the Pauli P with R(theta) = exp(-i theta P / 2)."""
    _, l0, l1 = _halves(lam.conj(), n, target)
    _, p0, p1 = _halves(phi, n, target)
    if kind == "rx":
        return float(np.sum(l0 * p1 + l1 * p0).imag)
    if kind == "ry":
        return float(np.sum(l1 * p0 - l0 * p1).real)
    return float(np.sum(l0 * p0 - l1 * p1).imag)


@lru_cache(maxsize=None)
def _cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(2**n)
    return idx ^ (((idx >> control) & 1) << target)


def _apply_cnot(amps: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    return amps[:, _cnot_perm(n, control, target)]


@lru_cache(maxsize=None)
def z_signs(n: int) -> np.ndarray:
    """``(n, 2**n)``: row q holds the +1/-1 eigenvalue of Z_q at each basis index."""
    idx = np.arange(2**n)
    bits = (idx[None, :] >> np.arange(n)[:, None]) & 1
    return (1.0 - 2.0 * bits).astype(np.float64)


def z_expectations(amps: np.ndarray) -> np.ndarray:
    """Per-qubit <Z> of states stacked along the last axis: ``(..., 2**n)`` -> ``(..., n)``."""
    probs = amps.real**2 + amps.imag**2
    return probs @ z_signs(amps.shape[-1].bit_length() - 1).T


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

    @classmethod
    def random(cls, n_qubits: int, n_layers: int, rng: np.random.Generator) -> "VQCBlock":
        thetas = rng.uniform(-np.pi, np.pi, size=(n_layers, n_qubits, 3))
        return cls(n_qubits, n_layers, thetas)


def encoding_angles(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map raw inputs to the (RY, RZ) encoding angles, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    return np.arctan(x), np.arctan(x * x)


def _check_inputs(block: VQCBlock, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != block.n_qubits:
        raise ShapeError(
            f"input must have {block.n_qubits} entries per circuit, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise NumericError("circuit inputs must be finite")
    return x


# ---------------------------------------------------------------------------
# The three building blocks.  Encoding: RY(a) then RZ(b) on |0> is
# (cos(a/2) e^{-ib/2}, sin(a/2) e^{ib/2}), so an encoded row is a product
# state.  Gates: the trainable part W(theta) applied to any stack of rows.
# Adjoint sweep (Jones & Gacon, arXiv:2009.02823): un-applying the gates to
# output pairs (phi, lambda) gives the theta gradient and mu = W^dagger lambda.
# ---------------------------------------------------------------------------


def _kron_rows(factors: np.ndarray) -> np.ndarray:
    """Product states of per-qubit 2-vectors ``(..., n, 2)``: ``(..., 2**n)``."""
    out = factors[..., 0, :]
    for q in range(1, factors.shape[-2]):
        out = (factors[..., q, :, None] * out[..., None, :]).reshape(*out.shape[:-1], -1)
    return out


def _encoding_factors(x: np.ndarray, derivatives: bool):
    """Each qubit's RZ(b) RY(a) |0> as ``(batch, n, 2)``; with ``derivatives``
    also RZ(b) RY(a) |1>, which is twice the first one's derivative in a."""
    a, b = encoding_angles(x)
    c, s = np.cos(0.5 * a), np.sin(0.5 * a)
    ph = np.exp(-0.5j * b)
    zero = np.empty(x.shape + (2,), dtype=np.complex128)
    np.multiply(c, ph, out=zero[..., 0])
    np.multiply(s, ph.conj(), out=zero[..., 1])
    if not derivatives:
        return zero
    one = np.empty_like(zero)
    np.multiply(-s, ph, out=one[..., 0])
    np.multiply(c, ph.conj(), out=one[..., 1])
    return zero, one


def product_state(x: np.ndarray) -> np.ndarray:
    """The encoded states of a ``(batch, n)`` input matrix: ``(batch, 2**n)``."""
    return _kron_rows(_encoding_factors(x, derivatives=False))


def encoding_gradient(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``d/dx 2 Re<mu|psi(x)>`` row by row, for ``mu = W^dagger lambda``.

    With E = prod_q RZ(b_q) RY(a_q), psi = E|0> and d psi/d a_q = E|2^q> / 2,
    the product state with qubit q's factor swapped for RZ RY |1>; and
    d psi/d b_q = -i Z_q psi / 2.  The arctan chain rule then maps the angle
    gradients to the inputs.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[1]
    zero, one = _encoding_factors(x, derivatives=True)
    # state 0 is psi, state 1 + q is E|2^q>
    variants = np.repeat(zero[:, None], n + 1, axis=1)
    q = np.arange(n)
    variants[:, 1 + q, q] = one
    states, mu_c = _kron_rows(variants), mu.conj()
    grad_a = (states[:, 1:] @ mu_c[:, :, None])[:, :, 0].real
    grad_b = (states[:, 0] * mu_c).imag @ z_signs(n).T
    return grad_a / (1.0 + x * x) + grad_b * (2.0 * x) / (1.0 + x**4)


@lru_cache(maxsize=None)
def _trainable_gates(n: int, n_layers: int) -> tuple:
    """The block's trainable gates in circuit order, written down only here:
    per layer a CNOT ring (control q, target q + 1 mod n) then RX, RY, RZ on
    each qubit.  Each gate is ``(kind, qubit, index)``, where ``index`` is
    ``(layer, qubit, k)`` of ``thetas[layer, qubit, k]`` (None for a CNOT)."""
    gates = []
    for layer in range(n_layers):
        if n >= 2:
            gates += [("cnot", q, None) for q in range(n)]
        for q in range(n):
            gates += [(kind, q, (layer, q, k)) for k, kind in enumerate(ROTATION_KINDS)]
    return tuple(gates)


def _apply_gates(rows: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """W(thetas) applied to every row of ``rows`` (each row is a state)."""
    n_layers, n, _ = thetas.shape
    for kind, q, index in _trainable_gates(n, n_layers):
        if kind == "cnot":
            rows = _apply_cnot(rows, n, q, (q + 1) % n)
        else:
            rows = _apply_rotation(rows, n, kind, q, thetas[index])
    return rows


def _adjoint_sweep(phi: np.ndarray, lam: np.ndarray,
                   thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reverse sweep over the trainable gates from the output pairs ``(phi_r, lam_r)``.

    Returns the sum over rows of ``2 Re<lam_r| dW/dtheta W^dagger phi_r>``,
    shaped like ``thetas``, and ``mu = W^dagger lam``.  At a rotation
    R(theta) = exp(-i theta P / 2) both states are the ones just after it,
    and as dR/dtheta = -i P R / 2 the row's term is Im<lam|P phi>.
    """
    n_layers, n, _ = thetas.shape
    rows = phi.shape[0]
    grad = np.empty_like(thetas)
    # rows [:rows] hold phi and rows [rows:] lambda, so one kernel call moves both
    pair = np.concatenate([phi, lam])
    for kind, q, index in reversed(_trainable_gates(n, n_layers)):
        if kind == "cnot":
            pair = _apply_cnot(pair, n, q, (q + 1) % n)
            continue
        grad[index] = _generator_overlap(pair[rows:], pair[:rows], n, kind, q)
        pair = _apply_rotation(pair, n, kind, q, -thetas[index])
    return grad, pair[rows:]


# ---------------------------------------------------------------------------
# Compiled blocks: the unitaries of several blocks of one shape, side by side.
# ---------------------------------------------------------------------------


def compile_blocks(blocks) -> np.ndarray:
    """``[W_0^T | W_1^T | ...]``: the ``(2**n, len(blocks) * 2**n)`` unitaries
    of blocks sharing ``n_qubits`` and ``n_layers``, side by side.

    A product state ``psi`` times it gives every block's output state side
    by side.  It is built from the angles at the time of the call, so it is
    stale once any ``thetas`` change.
    """
    dim = 2 ** blocks[0].n_qubits
    basis = np.eye(dim, dtype=np.complex128)
    out = np.empty((dim, len(blocks) * dim), dtype=np.complex128)
    for k, blk in enumerate(blocks):
        out[:, k * dim:(k + 1) * dim] = _apply_gates(basis, blk.thetas)
    return out


def compiled_theta_gradients(blocks, unitaries: np.ndarray, gram: np.ndarray) -> list:
    """Each block's theta gradient, from one sweep per block.

    ``unitaries`` is :func:`compile_blocks` of ``blocks`` and ``gram`` holds,
    in the same column blocks, ``G_k = sum psi^H lambda_k`` over every row
    and step that fed block k.  Row r of W_k^T is W_k applied to basis state
    r, and sum_r e_r (row r of G_k)^H = sum psi lambda_k^H, so a sweep over
    these rows gives what a sweep over every (psi, lambda) pair would.
    """
    dim = unitaries.shape[0]
    return [_adjoint_sweep(unitaries[:, k * dim:(k + 1) * dim], gram[:, k * dim:(k + 1) * dim],
                           blk.thetas)[0]
            for k, blk in enumerate(blocks)]


# ---------------------------------------------------------------------------
# One block on a batch of raw inputs.
# ---------------------------------------------------------------------------


def run_vqc_batch(block: VQCBlock, inputs: np.ndarray) -> np.ndarray:
    """Run the block on a (batch, n_qubits) input matrix; returns (batch, n_qubits) <Z> values."""
    inputs = _check_inputs(block, inputs)
    return z_expectations(_apply_gates(product_state(inputs), block.thetas))


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
    input_grad : (batch, n_qubits) gradient with respect to the raw inputs.
    """
    inputs = _check_inputs(block, inputs)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != inputs.shape:
        raise ShapeError(f"upstream must match inputs shape {inputs.shape}, got {upstream.shape}")
    phi = _apply_gates(product_state(inputs), block.thetas)
    # lambda = O phi for the diagonal observable O = sum_q upstream_q Z_q
    grad, mu = _adjoint_sweep(phi, phi * (upstream @ z_signs(block.n_qubits)), block.thetas)
    return grad, encoding_gradient(inputs, mu)
