"""Walk through one QLSTM circuit block: encoding, unitary, readout, gradients.

Run:  python3 demos/circuit_basics.py
"""

import numpy as np

from qforecast.quantum import (
    VQCBlock,
    compile_blocks,
    product_state,
    run_vqc_batch,
    vqc_gradients_batch,
    z_expectations,
)

rng = np.random.default_rng(0)

# --- the angle encoding of one input is a product state ---------------------
x = rng.normal(size=(1, 3))
psi = product_state(x)
print("input x                 :", np.round(x[0], 6))
print("encoded |psi(x)> (8 amps):", np.round(psi[0], 4))
print("<Z_i> of |psi(x)>       :", np.round(z_expectations(psi)[0], 6),
      "= cos(arctan x_i)")

# --- the trainable part of a block is one unitary W ------------------------
# compile_blocks builds W a layer at a time: each layer is a CNOT ring (one
# permutation of the 8 amplitudes) then one Kronecker product of per-qubit
# RZ RY RX matrices
block = VQCBlock.random(n_qubits=3, n_layers=2, rng=rng)
w_t = compile_blocks([block])
print("\ncompiled W^T shape      :", w_t.shape)
print("max |W^H W - I|         :", float(np.max(np.abs(w_t @ w_t.conj().T - np.eye(8)))))

# --- readout: <Z_i> of W|psi(x)> -------------------------------------------
readout = run_vqc_batch(block, x)[0]
print("block readout <Z_i>     :", np.round(readout, 6))
print("same through W^T        :", np.round(z_expectations(psi @ w_t)[0], 6))

# --- adjoint gradient vs finite differences --------------------------------
# vqc_gradients_batch sweeps back over W's layers and reads each angle's
# gradient from a 2 x 2 environment of its qubit; its input gradient (the
# second result) comes from the per-qubit encoding factors that built psi
upstream = np.ones((1, 3))
adjoint, _ = vqc_gradients_batch(block, x, upstream)

h = 1e-5
fd = np.zeros_like(block.thetas)
for idx in np.ndindex(block.thetas.shape):
    up = block.thetas.copy()
    down = block.thetas.copy()
    up[idx] += h
    down[idx] -= h
    fd[idx] = np.sum(
        upstream * (run_vqc_batch(VQCBlock(3, 2, up), x) - run_vqc_batch(VQCBlock(3, 2, down), x))
    ) / (2 * h)

print("\nmax |adjoint - finite-difference| =", float(np.max(np.abs(adjoint - fd))))
print("(the adjoint gradient is exact; the residual is the finite-difference error)")
