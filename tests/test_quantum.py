import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforecast import quantum
from qforecast.errors import ShapeError
from qforecast.quantum import (
    VQCBlock,
    _ring,
    compile_blocks,
    compiled_theta_gradients,
    product_state,
    run_vqc_batch,
    vqc_gradients_batch,
    z_signs,
)

from oracles import (
    central_difference,
    dense_angle_unitary,
    dense_cnot,
    dense_vqc_expectations,
    parameter_shift_gradients,
)


def random_block(rng, max_qubits=4, max_layers=2):
    n = int(rng.integers(1, max_qubits + 1))
    layers = int(rng.integers(1, max_layers + 1))
    return VQCBlock.random(n, layers, rng)


def test_ry_pi_flips_qubit():
    # zero input encodes |0>; thetas [0, pi, 0] compile to a lone RY(pi): |0> -> |1>
    psi = product_state(np.zeros((1, 1)))
    np.testing.assert_allclose(psi, [[1.0, 0.0]], atol=1e-12)
    unitary = compile_blocks([VQCBlock(1, 1, np.array([[[0.0, np.pi, 0.0]]]))])
    np.testing.assert_allclose(psi @ unitary, [[0.0, 1.0]], atol=1e-12)


def test_cnot_ring_matches_dense_cnots():
    for n in (2, 3, 4):
        # the ring CNOT(0, 1), CNOT(1, 2), ..., CNOT(n - 1, 0) in circuit order
        want = np.eye(2**n)
        for q in range(n):
            want = dense_cnot(q, (q + 1) % n, n) @ want
        ring, inverse = _ring(n)
        # after the ring, amplitude k holds what amplitude ring[k] held
        np.testing.assert_array_equal(np.eye(2**n)[ring], want)
        np.testing.assert_array_equal(ring[inverse], np.arange(2**n))


# ---------------------------------------------------------------------------
# Variational block forward pass
# ---------------------------------------------------------------------------


def test_all_zero_block_gives_unit_expectations():
    block = VQCBlock(3, 2, np.zeros((2, 3, 3)))
    out = run_vqc_batch(block, np.zeros((1, 3)))[0]
    np.testing.assert_allclose(out, np.ones(3), atol=1e-12)


def test_single_ry_half_pi_expectation():
    # thetas [rx, ry, rz] = [0, theta, 0] with zero input is a lone RY(theta):
    # RY(pi/2) leaves <Z> = 0 and RY(pi) flips |0> to |1>, <Z> = -1
    for theta, want in ((np.pi / 2, 0.0), (np.pi, -1.0)):
        block = VQCBlock(1, 1, np.array([[[0.0, theta, 0.0]]]))
        out = run_vqc_batch(block, np.zeros((1, 1)))[0]
        assert abs(out[0] - want) < 1e-12


def test_matches_dense_unitary_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        block = random_block(rng, max_qubits=4, max_layers=2)
        x = rng.normal(size=block.n_qubits)
        got = run_vqc_batch(block, x[None])[0]
        want = dense_vqc_expectations(block.n_qubits, block.n_layers, block.thetas, x)
        np.testing.assert_allclose(got, want, atol=1e-9)
        assert np.all(np.abs(got) <= 1.0 + 1e-12)


def test_batch_agrees_with_single_runs():
    rng = np.random.default_rng(3)
    block = VQCBlock.random(3, 2, rng)
    xs = rng.normal(size=(7, 3))
    batch = run_vqc_batch(block, xs)
    for i, x in enumerate(xs):
        np.testing.assert_allclose(batch[i], run_vqc_batch(block, x[None])[0], atol=1e-12)


def test_input_dimension_mismatch():
    block = VQCBlock(2, 1, np.zeros((1, 2, 3)))
    with pytest.raises(ShapeError):
        run_vqc_batch(block, np.zeros(2))
    with pytest.raises(ShapeError):
        run_vqc_batch(block, np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def test_zero_upstream_gives_zero_gradient():
    rng = np.random.default_rng(0)
    block = VQCBlock.random(2, 1, rng)
    grad, _ = vqc_gradients_batch(block, rng.normal(size=(1, 2)), np.zeros((1, 2)))
    np.testing.assert_array_equal(grad, np.zeros_like(block.thetas))


def test_single_qubit_ry_analytic_gradient():
    # lone RY(theta): <Z> = cos(theta), d<Z>/dtheta = -sin(theta)
    for theta in (0.0, 0.3, -1.2, np.pi / 2):
        block = VQCBlock(1, 1, np.array([[[0.0, theta, 0.0]]]))
        grad, _ = vqc_gradients_batch(block, np.zeros((1, 1)), np.ones((1, 1)))
        assert abs(grad[0, 0, 1] - (-np.sin(theta))) < 1e-12
        assert abs(grad[0, 0, 0]) < 1e-12  # rx at zero has no first-order effect here


def test_parameter_shift_matches_finite_difference():
    rng = np.random.default_rng(7)
    for _ in range(100):
        block = random_block(rng, max_qubits=3, max_layers=2)
        x = rng.normal(size=block.n_qubits)
        upstream = rng.normal(size=block.n_qubits)
        got, _ = vqc_gradients_batch(block, x[None], upstream[None])

        def loss(thetas):
            probe = VQCBlock(block.n_qubits, block.n_layers, thetas)
            return float(upstream @ run_vqc_batch(probe, x[None])[0])

        want = central_difference(loss, block.thetas, h=1e-5)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-8)


def test_input_gradient_matches_finite_difference():
    rng = np.random.default_rng(19)
    for _ in range(40):
        block = random_block(rng, max_qubits=3, max_layers=2)
        x = rng.normal(size=block.n_qubits)
        upstream = rng.normal(size=block.n_qubits)
        got = vqc_gradients_batch(block, x[None], upstream[None])[1][0]

        def loss(xv):
            return float(upstream @ run_vqc_batch(block, xv[None])[0])

        want = central_difference(loss, x, h=1e-6)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-8)


def test_batched_gradient_sums_over_batch():
    rng = np.random.default_rng(23)
    block = VQCBlock.random(2, 2, rng)
    xs = rng.normal(size=(5, 2))
    ups = rng.normal(size=(5, 2))
    theta_grad, input_grad = vqc_gradients_batch(block, xs, ups)
    singles = [vqc_gradients_batch(block, xs[i:i + 1], ups[i:i + 1]) for i in range(5)]
    theta_sum = sum(theta for theta, _ in singles)
    np.testing.assert_allclose(theta_grad, theta_sum, atol=1e-10)
    for i, (_, row_grad) in enumerate(singles):
        np.testing.assert_allclose(input_grad[i], row_grad[0], atol=1e-10)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(n=st.integers(1, 4), layers=st.integers(1, 3), batch=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_adjoint_gradients_match_shift_and_dense_oracles(n, layers, batch, seed):
    rng = np.random.default_rng(seed)
    block = VQCBlock.random(n, layers, rng)
    xs = rng.normal(size=(batch, n))
    ups = rng.normal(size=(batch, n))
    theta_grad, input_grad = vqc_gradients_batch(block, xs, ups)

    shift_theta, shift_input = parameter_shift_gradients(block, xs, ups)
    scale = max(1.0, np.abs(shift_theta).max(), np.abs(shift_input).max())
    np.testing.assert_allclose(theta_grad, shift_theta, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(input_grad, shift_input, rtol=0, atol=1e-12 * scale)

    def dense_loss(thetas, inputs, upstream=ups):
        return sum(float(u @ dense_vqc_expectations(n, layers, thetas, x))
                   for x, u in zip(inputs, upstream))

    fd_theta = central_difference(lambda t: dense_loss(t, xs), block.thetas, h=1e-5)
    # each row's output depends on that row's input only
    fd_input = np.array([
        central_difference(lambda x: dense_loss(block.thetas, [x], [u]), x_row, h=1e-6)
        for x_row, u in zip(xs, ups)
    ])
    np.testing.assert_allclose(theta_grad, fd_theta, rtol=1e-4, atol=1e-8)
    np.testing.assert_allclose(input_grad, fd_input, rtol=1e-4, atol=1e-8)


# ---------------------------------------------------------------------------
# Compiled blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compiled_blocks_match_dense_unitary_and_adjoint(n, layers):
    rng = np.random.default_rng(10 * n + layers)
    dim = 2**n
    # two blocks, and the cell's six
    for count in (2, 6):
        blocks = [VQCBlock.random(n, layers, rng) for _ in range(count)]
        unitaries = compile_blocks(blocks)
        assert unitaries.shape == (dim, count * dim)
        xs = rng.normal(size=(6, n))
        ups = rng.normal(size=(count, 6, n))
        psi = product_state(xs)
        gram = np.empty_like(unitaries)
        for k, blk in enumerate(blocks):
            cols = slice(k * dim, (k + 1) * dim)
            # zero encoding angles leave only the trainable part W of the block
            want = dense_angle_unitary(n, layers, blk.thetas, np.zeros(n), np.zeros(n)).T
            np.testing.assert_allclose(unitaries[:, cols], want, rtol=0, atol=1e-12)
            phi = psi @ unitaries[:, cols]
            gram[:, cols] = psi.conj().T @ (phi * (ups[k] @ z_signs(n)))
        grads = compiled_theta_gradients(blocks, unitaries, gram)
        for k, blk in enumerate(blocks):
            want, _ = parameter_shift_gradients(blk, xs, ups[k])
            scale = max(1.0, np.abs(want).max())
            np.testing.assert_allclose(grads[k], want, rtol=0, atol=1e-12 * scale)


def test_column_chunks_give_the_same_unitaries_and_gradients(monkeypatch):
    # at large n the columns are compiled and swept a few at a time; one
    # column per chunk does the same at small n
    rng = np.random.default_rng(5)
    blocks = [VQCBlock.random(3, 2, rng) for _ in range(6)]
    unitaries = compile_blocks(blocks)
    gram = rng.normal(size=unitaries.shape) + 1j * rng.normal(size=unitaries.shape)
    grads = compiled_theta_gradients(blocks, unitaries, gram)
    monkeypatch.setattr(quantum, "_CHUNK_AMPLITUDES", 1)
    np.testing.assert_allclose(compile_blocks(blocks), unitaries, rtol=0, atol=1e-12)
    for got, want in zip(compiled_theta_gradients(blocks, unitaries, gram), grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
