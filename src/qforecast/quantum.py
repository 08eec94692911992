"""Exact statevector simulation of small variational quantum circuits.

Pure-numpy simulator for the circuit blocks of the quantum LSTM cell: an
angle-encoding layer, then layers of a CNOT ring and trainable RX, RY, RZ
rotations, and a Pauli-Z readout.  The encoding is a closed-form product
state of per-qubit factors; ``product_state_and_factors`` also hands back
those factors and their partners RZ RY |1>, so a training step builds them
once and ``encoding_gradient`` reads them.  Between optimizer steps the
angles are fixed, so the trainable part of a block is one 2**n x 2**n
unitary W = K_L P ... K_1 P: each layer's ring is one fixed permutation P
and its rotations one Kronecker product K = (x)_q RZ RY RX.
``compile_blocks`` builds W layer by layer for every block at once, so a
batch's output states are one matrix product; ``compiled_theta_gradients``
takes W's columns and their cotangents back through the same layers
(``layer_factors``, built once for both) and reads
each angle's gradient from a 2 x 2 per-qubit environment (Evenbly & Vidal,
PRB 79, 144108, 2009).

Qubit 0 is the least-significant bit of the amplitude index.  Simulation is
exact (no shot sampling), so all outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError, ShapeError

MAX_QUBITS = 10

# the most amplitudes a stack of states compiled or swept at once may hold
_CHUNK_AMPLITUDES = 2**14


@lru_cache(maxsize=None)
def z_signs(n: int) -> np.ndarray:
    """``(n, 2**n)``: row q holds the +1/-1 eigenvalue of Z_q at each basis index."""
    idx = np.arange(2**n)
    bits = (idx[None, :] >> np.arange(n)[:, None]) & 1
    return (1.0 - 2.0 * bits).astype(np.float64)


@lru_cache(maxsize=None)
def _sign_columns(n: int) -> np.ndarray:
    """``z_signs(n).T`` as a C-ordered copy, the layout matmul reads fastest."""
    return np.ascontiguousarray(z_signs(n).T)


def z_expectations(amps: np.ndarray) -> np.ndarray:
    """Per-qubit <Z> of states stacked along the last axis: ``(..., 2**n)`` -> ``(..., n)``.

    The magnitudes are squared in place, so the states get one real copy."""
    probs = np.abs(amps)
    probs *= probs
    return probs @ _sign_columns(amps.shape[-1].bit_length() - 1)


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


def _check_inputs(block: VQCBlock, x: np.ndarray) -> np.ndarray:
    """``x`` as a finite ``(batch, n_qubits)`` float matrix, else ShapeError
    or NumericError; kept, as the one-block wrappers it checks for, for ``perfbench/``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != block.n_qubits:
        raise ShapeError(
            f"input must have {block.n_qubits} entries per circuit, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise NumericError("circuit inputs must be finite")
    return x


# ---------------------------------------------------------------------------
# The encoding: RY(a) then RZ(b) on |0> is (cos(a/2) e^{-ib/2},
# sin(a/2) e^{ib/2}), so an encoded row is a product state, and its input
# gradient needs only mu = W^dagger lambda.
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
    a, b = np.arctan(x), np.arctan(x * x)
    c, s = np.cos(0.5 * a), np.sin(0.5 * a)
    ph = np.exp(-0.5j * b)
    ph_c = ph.conj()
    zero = np.empty(x.shape + (2,), dtype=np.complex128)
    np.multiply(c, ph, out=zero[..., 0])
    np.multiply(s, ph_c, out=zero[..., 1])
    if not derivatives:
        return zero
    one = np.empty_like(zero)
    np.multiply(-s, ph, out=one[..., 0])
    np.multiply(c, ph_c, out=one[..., 1])
    return zero, one


def product_state(x: np.ndarray) -> np.ndarray:
    """The encoded states of a ``(batch, n)`` input matrix: ``(batch, 2**n)``."""
    return _kron_rows(_encoding_factors(x, derivatives=False))


def product_state_and_factors(x: np.ndarray) -> tuple:
    """``(psi, factors)``: :func:`product_state` of ``x`` and the per-qubit
    factors ``(RZ RY |0>, RZ RY |1>)`` it was built from, which
    :func:`encoding_gradient` reads, so training computes them once."""
    factors = _encoding_factors(x, derivatives=True)
    return _kron_rows(factors[0]), factors


def encoding_gradient(x: np.ndarray, factors: tuple, psi: np.ndarray,
                      mu: np.ndarray) -> np.ndarray:
    """``d/dx 2 Re<mu|psi(x)>`` row by row, for ``mu = W^dagger lambda``, from
    the ``product_state_and_factors(x)`` pair ``(psi, factors)``.

    With E = prod_q RZ(b_q) RY(a_q), psi = E|0> and d psi/d a_q = E|2^q> / 2,
    the product state with qubit q's factor swapped for RZ RY |1>; and
    d psi/d b_q = -i Z_q psi / 2.  The arctan chain rule then maps the angle
    gradients to the inputs.
    """
    zero, one = factors
    n = x.shape[1]
    # variant q is E|2^q>
    variants = zero[:, None].repeat(n, axis=1)
    q = np.arange(n)
    variants[:, q, q] = one
    mu_c = mu.conj()
    grad_a = (_kron_rows(variants) @ mu_c[:, :, None])[:, :, 0].real
    grad_b = (psi * mu_c).imag @ _sign_columns(n)
    x2 = x * x
    return grad_a / (1.0 + x2) + grad_b * (2.0 * x) / (1.0 + x2 * x2)


# ---------------------------------------------------------------------------
# The trainable part, one layer at a time.  K is applied as two dense factors,
# K = K_high (x) K_low over the upper and lower halves of the qubits, so a
# layer of every block in a ``(blocks, 2**n, columns)`` stack of states is
# one permutation and two matmuls.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _ring(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The CNOT ring (control q, target q + 1 mod n, for q = 0, ..., n - 1) as
    an index map and its inverse: the ring moves amplitude ``ring[k]`` to k.
    A lone qubit has no ring."""
    idx = np.arange(2**n)
    ring = idx
    for q in range(n if n >= 2 else 0):
        ring = ring[idx ^ (((idx >> q) & 1) << ((q + 1) % n))]
    return ring, np.argsort(ring)


def _rotations(thetas: np.ndarray) -> np.ndarray:
    """Each qubit's RZ(t_z) RY(t_y) RX(t_x) as one matrix: ``(..., 3) -> (..., 2, 2)``.

    The product is [[a, -b*], [b, a*]] with a = e^{-i t_z/2} (cy cx + i sy sx)
    and b = e^{i t_z/2} (sy cx - i cy sx), where c_k, s_k = cos, sin(t_k / 2).
    """
    c, s = np.cos(0.5 * thetas), np.sin(0.5 * thetas)
    cx, cy, sx, sy = c[..., 0], c[..., 1], s[..., 0], s[..., 1]
    phase = np.exp(-0.5j * thetas[..., 2])
    a = phase * (cy * cx + 1j * (sy * sx))
    b = phase.conj() * (sy * cx - 1j * (cy * sx))
    return np.stack([a, -b.conj(), b, a.conj()], axis=-1).reshape(thetas.shape[:-1] + (2, 2))


def _kron(factors: np.ndarray) -> np.ndarray:
    """``(blocks, k, 2, 2)`` per-qubit matrices to their ``(blocks, 2**k, 2**k)``
    Kronecker product, qubit 0 least significant (k = 0 gives the identity)."""
    out = np.ones((len(factors), 1, 1), dtype=np.complex128)
    for u in factors.swapaxes(0, 1):
        size = 2 * out.shape[1]
        out = (u[:, :, None, :, None] * out[:, None, :, None, :]).reshape(len(u), size, size)
    return out


def layer_factors(blocks) -> list:
    """``(K_low, K_high)`` of every layer of blocks sharing ``n_qubits`` and
    ``n_layers``: K_low over qubits 0 .. ceil(n/2) - 1, K_high over the rest.
    :func:`compile_blocks` and :func:`compiled_theta_gradients` both read
    them, so a training minibatch builds them once and hands them to both."""
    thetas = np.stack([blk.thetas for blk in blocks])
    split = (thetas.shape[2] + 1) // 2
    return [(_kron(rot[:, :split]), _kron(rot[:, split:]))
            for rot in _rotations(thetas).swapaxes(0, 1)]


def _apply_layer(states: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """``(K_high (x) K_low) states`` for a ``(blocks, 2**n, columns)`` stack."""
    blocks, dim, cols = states.shape
    n_low, n_high = low.shape[-1], high.shape[-1]
    states = low[:, None] @ states.reshape(blocks, n_high, n_low, cols)
    return (high @ states.reshape(blocks, n_high, n_low * cols)).reshape(blocks, dim, cols)


def _layer_gradients(phi: np.ndarray, lam_c: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """One layer's theta gradients, ``(blocks, n, 3)``, from the stacked states
    ``phi`` just after it and the conjugates ``lam_c`` of their cotangents.

    An angle of qubit q moves phi by H phi, H = dU/dtheta U^dagger for the
    qubit's fused rotation U, so its gradient is 2 Re sum H * rho over the
    qubit's environment rho[a, c]: conj(lam) phi summed over the columns and
    the other qubits.  Each half's environment is one matmul, and each
    qubit's a partial trace of its half's.
    """
    (blocks, dim, cols), n = phi.shape, thetas.shape[1]
    split = (n + 1) // 2  # the qubits of K_low
    n_low, n_high = 2**split, dim >> split
    env_low = (lam_c.reshape(blocks, n_high, n_low, cols)
               @ phi.reshape(blocks, n_high, n_low, cols).swapaxes(2, 3)).sum(axis=1)
    env_high = (lam_c.reshape(blocks, n_high, n_low * cols)
                @ phi.reshape(blocks, n_high, n_low * cols).swapaxes(1, 2))
    rho = np.empty((blocks, n, 2, 2), dtype=np.complex128)
    for q in range(n):
        env, k, size = (env_low, q, split) if q < split else (env_high, q - split, n - split)
        hi, lo = 2 ** (size - 1 - k), 2**k
        # a qubit alone in its half has its half's environment
        rho[:, q] = env if size == 1 else np.einsum(
            "bhalhcl->bac", env.reshape(blocks, hi, 2, lo, hi, 2, lo))
    # the closed forms H_z = -iZ/2, H_y = RZ (-iY/2) RZ^dagger and
    # H_x = RZ RY (-iX/2) RY^dagger RZ^dagger, contracted with rho
    diff = rho[..., 0, 0] - rho[..., 1, 1]
    phase = np.exp(1j * thetas[..., 2])
    up, down = rho[..., 0, 1] * phase.conj(), rho[..., 1, 0] * phase
    grad = np.empty(thetas.shape)
    grad[..., 0] = (np.cos(thetas[..., 1]) * (up + down) - np.sin(thetas[..., 1]) * diff).imag
    grad[..., 1] = (down - up).real
    grad[..., 2] = diff.imag
    return grad


def _column_chunks(n_blocks: int, dim: int) -> list:
    """Slices of the 2**n columns, each an independent state, to take at once
    for every block: up to ``_CHUNK_AMPLITUDES`` amplitudes, or one column."""
    step = max(1, _CHUNK_AMPLITUDES // (n_blocks * dim))
    return [slice(c, c + step) for c in range(0, dim, step)]


# ---------------------------------------------------------------------------
# Compiled blocks: the unitaries of several blocks of one shape, side by side.
# ---------------------------------------------------------------------------


def compile_blocks(blocks, factors=None) -> np.ndarray:
    """``[W_0^T | W_1^T | ...]``: the ``(2**n, len(blocks) * 2**n)`` unitaries
    of blocks sharing ``n_qubits`` and ``n_layers``, side by side.

    A product state ``psi`` times it gives every block's output state side
    by side.  It is built from the angles at the time of the call, or from
    ``factors``, their :func:`layer_factors`, so it is stale once any
    ``thetas`` change.
    """
    n = blocks[0].n_qubits
    dim, (ring, inverse) = 2**n, _ring(n)
    (low, high), *later = layer_factors(blocks) if factors is None else factors
    out = np.empty((dim, len(blocks), dim), dtype=np.complex128)
    for cols in _column_chunks(len(blocks), dim):
        # the first ring takes basis column e_r to e_k, k = inverse[r], and the
        # first rotations take that to column k of K_high (x) K_low
        k_high, k_low = np.divmod(inverse[cols], low.shape[-1])
        states = (high[:, :, None, k_high] * low[:, None, :, k_low]).reshape(len(blocks), dim, -1)
        for layer in later:
            states = _apply_layer(states[:, ring], *layer)
        out[cols] = states.transpose(2, 0, 1)  # column r of W is row r of W^T
    return out.reshape(dim, -1)


def compiled_theta_gradients(blocks, unitaries: np.ndarray, gram: np.ndarray,
                             factors=None) -> list:
    """Each block's theta gradient, from one sweep back over the layers.

    ``unitaries`` is :func:`compile_blocks` of ``blocks`` and ``gram`` holds,
    in the same column blocks, ``G_k = sum psi^H lambda_k`` over every row
    and step that fed block k.  As sum_r e_r (row r of G_k)^H equals
    sum psi lambda_k^H, the rows of W_k^T and G_k, as output states and
    their cotangents, give what every (psi, lambda) pair would.  ``factors``
    is the :func:`layer_factors` the unitaries were compiled from, when the
    caller kept them.
    """
    thetas = np.stack([blk.thetas for blk in blocks])
    n_blocks, dim, inverse = len(blocks), unitaries.shape[0], _ring(thetas.shape[2])[1]
    if factors is None:
        factors = layer_factors(blocks)
    # K^dagger takes the states back through a layer, K^T their conjugated
    # cotangents; the sweep stops at the first layer, so it never undoes it
    undo = [None] + [[np.concatenate([f.conj().swapaxes(1, 2), f.swapaxes(1, 2)])
                      for f in low_high] for low_high in factors[1:]]
    grads = np.zeros(thetas.shape)
    for cols in _column_chunks(n_blocks, dim):
        pair = np.concatenate([unitaries.reshape(dim, n_blocks, dim)[cols].transpose(1, 2, 0),
                               gram.reshape(dim, n_blocks, dim)[cols].transpose(1, 2, 0)])
        np.conjugate(pair[n_blocks:], out=pair[n_blocks:])
        for layer in reversed(range(len(factors))):
            grads[:, layer] += _layer_gradients(pair[:n_blocks], pair[n_blocks:], thetas[:, layer])
            if layer:
                pair = _apply_layer(pair, *undo[layer])[:, inverse]
    return list(grads)


# ---------------------------------------------------------------------------
# One block on a batch of raw inputs: the compiled path with one block.
# ---------------------------------------------------------------------------


def run_vqc_batch(block: VQCBlock, inputs: np.ndarray) -> np.ndarray:
    """Run the block on a (batch, n_qubits) input matrix; returns (batch, n_qubits) <Z> values.
    No command calls it; ``perfbench/layers.py`` and ``tracer.py`` do."""
    inputs = _check_inputs(block, inputs)
    return z_expectations(product_state(inputs) @ compile_blocks([block]))


def vqc_gradients_batch(block: VQCBlock, inputs: np.ndarray,
                        upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``sum_b upstream_b . output_b`` for ``(batch, n_qubits)``
    inputs and upstream cotangents: the theta gradient, shaped like
    ``block.thetas`` and summed over the batch, and the input gradient.
    No command calls it; ``perfbench/layers.py`` and ``tracer.py`` do."""
    inputs = _check_inputs(block, inputs)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != inputs.shape:
        raise ShapeError(f"upstream must match inputs shape {inputs.shape}, got {upstream.shape}")
    unitary = compile_blocks([block])
    psi, factors = product_state_and_factors(inputs)
    phi = psi @ unitary
    # lambda = O phi for the diagonal observable O = sum_q upstream_q Z_q
    lam = phi * (upstream @ z_signs(block.n_qubits))
    grad = compiled_theta_gradients([block], unitary, psi.conj().T @ lam)[0]
    # mu = W^dagger lambda, as rows lambda conj(W)
    return grad, encoding_gradient(inputs, factors, psi, lam @ unitary.conj().T)
