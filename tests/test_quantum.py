import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforecast.errors import InvalidGateError, ShapeError
from qforecast.quantum import (
    Gate,
    StateVector,
    VQCBlock,
    apply_gate,
    inverse_gate,
    run_vqc,
    run_vqc_batch,
    vqc_gradient,
    vqc_gradients_batch,
    vqc_input_gradient,
    zero_state,
)

from oracles import central_difference, dense_vqc_expectations, parameter_shift_gradients


def random_block(rng, max_qubits=4, max_layers=2):
    n = int(rng.integers(1, max_qubits + 1))
    layers = int(rng.integers(1, max_layers + 1))
    return VQCBlock.random(n, layers, rng)


# ---------------------------------------------------------------------------
# Gate application
# ---------------------------------------------------------------------------


def test_hadamard_on_zero():
    state = apply_gate(zero_state(1), Gate("h", 0))
    np.testing.assert_allclose(state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_ry_pi_flips_qubit():
    state = apply_gate(zero_state(1), Gate("ry", 0, angle=np.pi))
    np.testing.assert_allclose(state.amplitudes, [0.0, 1.0], atol=1e-12)


def test_cnot_truth_table():
    # (|q0=1,q1=0> + |q0=0,q1=0>)/sqrt(2) --CNOT(c=0,t=1)--> (|11> + |00>)/sqrt(2)
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[1] = 1 / np.sqrt(2)
    state = StateVector(2, amps)
    out = apply_gate(state, Gate("cnot", target=1, control=0))
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1 / np.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


def test_invalid_gate_indices():
    with pytest.raises(InvalidGateError):
        apply_gate(zero_state(2), Gate("ry", 2, angle=0.1))
    with pytest.raises(InvalidGateError):
        apply_gate(zero_state(2), Gate("cnot", target=1, control=1))
    with pytest.raises(InvalidGateError):
        apply_gate(zero_state(2), Gate("cnot", target=0, control=5))


def random_gate(rng, n):
    kind = rng.choice(["rx", "ry", "rz", "h", "cnot"]) if n > 1 else rng.choice(["rx", "ry", "rz", "h"])
    target = int(rng.integers(n))
    if kind == "cnot":
        control = int(rng.integers(n - 1))
        if control >= target:
            control += 1
        return Gate("cnot", target=target, control=control)
    if kind == "h":
        return Gate("h", target)
    return Gate(kind, target, angle=float(rng.uniform(-np.pi, np.pi)))


def test_norm_conserved_over_random_sequences():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        state = apply_gate(zero_state(n), Gate("h", 0))
        for _ in range(30):
            state = apply_gate(state, random_gate(rng, n))
        assert abs(np.sum(state.probabilities()) - 1.0) < 1e-10


def test_gate_then_inverse_restores_state():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        state = zero_state(n)
        for _ in range(5):
            state = apply_gate(state, random_gate(rng, n))
        gate = random_gate(rng, n)
        back = apply_gate(apply_gate(state, gate), inverse_gate(gate))
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-10)


# ---------------------------------------------------------------------------
# Variational block forward pass
# ---------------------------------------------------------------------------


def test_all_zero_block_gives_unit_expectations():
    block = VQCBlock.zeros(3, 2)
    out = run_vqc(block, np.zeros(3))
    np.testing.assert_allclose(out, np.ones(3), atol=1e-12)


def test_single_ry_half_pi_expectation():
    # thetas [rx, ry, rz] = [0, pi/2, 0] with zero input is a lone RY(pi/2)
    block = VQCBlock(1, 1, np.array([[[0.0, np.pi / 2, 0.0]]]))
    out = run_vqc(block, np.zeros(1))
    assert abs(out[0] - np.cos(np.pi / 2)) < 1e-12


def test_matches_dense_unitary_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        block = random_block(rng, max_qubits=4, max_layers=2)
        x = rng.normal(size=block.n_qubits)
        got = run_vqc(block, x)
        want = dense_vqc_expectations(block.n_qubits, block.n_layers, block.thetas, x)
        np.testing.assert_allclose(got, want, atol=1e-9)
        assert np.all(np.abs(got) <= 1.0 + 1e-12)


def test_batch_agrees_with_single_runs():
    rng = np.random.default_rng(3)
    block = VQCBlock.random(3, 2, rng)
    xs = rng.normal(size=(7, 3))
    batch = run_vqc_batch(block, xs)
    for i, x in enumerate(xs):
        np.testing.assert_allclose(batch[i], run_vqc(block, x), atol=1e-12)


def test_input_dimension_mismatch():
    block = VQCBlock.zeros(2, 1)
    with pytest.raises(ShapeError):
        run_vqc(block, np.zeros(3))
    with pytest.raises(ShapeError):
        run_vqc_batch(block, np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def test_zero_upstream_gives_zero_gradient():
    rng = np.random.default_rng(0)
    block = VQCBlock.random(2, 1, rng)
    grad = vqc_gradient(block, rng.normal(size=2), np.zeros(2))
    np.testing.assert_array_equal(grad, np.zeros_like(block.thetas))


def test_single_qubit_ry_analytic_gradient():
    # lone RY(theta): <Z> = cos(theta), d<Z>/dtheta = -sin(theta)
    for theta in (0.0, 0.3, -1.2, np.pi / 2):
        block = VQCBlock(1, 1, np.array([[[0.0, theta, 0.0]]]))
        grad = vqc_gradient(block, np.zeros(1), np.ones(1))
        assert abs(grad[0, 0, 1] - (-np.sin(theta))) < 1e-12
        assert abs(grad[0, 0, 0]) < 1e-12  # rx at zero has no first-order effect here


def test_parameter_shift_matches_finite_difference():
    rng = np.random.default_rng(7)
    for _ in range(100):
        block = random_block(rng, max_qubits=3, max_layers=2)
        x = rng.normal(size=block.n_qubits)
        upstream = rng.normal(size=block.n_qubits)
        got = vqc_gradient(block, x, upstream)

        def loss(thetas):
            probe = VQCBlock(block.n_qubits, block.n_layers, thetas)
            return float(upstream @ run_vqc(probe, x))

        want = central_difference(loss, block.thetas, h=1e-5)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-8)


def test_input_gradient_matches_finite_difference():
    rng = np.random.default_rng(19)
    for _ in range(40):
        block = random_block(rng, max_qubits=3, max_layers=2)
        x = rng.normal(size=block.n_qubits)
        upstream = rng.normal(size=block.n_qubits)
        got = vqc_input_gradient(block, x, upstream)

        def loss(xv):
            return float(upstream @ run_vqc(block, xv))

        want = central_difference(loss, x, h=1e-6)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-8)


def test_batched_gradient_sums_over_batch():
    rng = np.random.default_rng(23)
    block = VQCBlock.random(2, 2, rng)
    xs = rng.normal(size=(5, 2))
    ups = rng.normal(size=(5, 2))
    theta_grad, input_grad = vqc_gradients_batch(block, xs, ups)
    theta_sum = sum(vqc_gradient(block, xs[i], ups[i]) for i in range(5))
    np.testing.assert_allclose(theta_grad, theta_sum, atol=1e-10)
    for i in range(5):
        np.testing.assert_allclose(input_grad[i], vqc_input_gradient(block, xs[i], ups[i]), atol=1e-10)


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
