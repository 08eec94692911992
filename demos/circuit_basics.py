"""Walk through the statevector simulator: gates, blocks, and gradients.

Run:  python3 demos/circuit_basics.py
"""

import numpy as np

from qforecast.quantum import (
    Gate,
    VQCBlock,
    apply_gate,
    run_vqc,
    vqc_gradient,
    zero_state,
)

rng = np.random.default_rng(0)

# --- single gates on small registers --------------------------------------
state = zero_state(1)
print("|0>              :", state.amplitudes)
print("H|0>             :", apply_gate(state, Gate("h", 0)).amplitudes)
print("RY(pi)|0>        :", apply_gate(state, Gate("ry", 0, angle=np.pi)).amplitudes)

bell = apply_gate(apply_gate(zero_state(2), Gate("h", 0)), Gate("cnot", target=1, control=0))
print("Bell amplitudes  :", np.round(bell.amplitudes, 6))
print("Bell probabilities:", np.round(bell.probabilities(), 6))

# --- a variational block ----------------------------------------------------
block = VQCBlock.random(n_qubits=3, n_layers=2, rng=rng)
x = rng.normal(size=3)
readout = run_vqc(block, x)
print("\n3-qubit block readout <Z_i>:", np.round(readout, 6))

# --- adjoint gradient vs finite differences --------------------------------
upstream = np.ones(3)
adjoint = vqc_gradient(block, x, upstream)

h = 1e-5
fd = np.zeros_like(block.thetas)
for idx in np.ndindex(block.thetas.shape):
    up = block.thetas.copy()
    down = block.thetas.copy()
    up[idx] += h
    down[idx] -= h
    fd[idx] = (
        upstream @ run_vqc(VQCBlock(3, 2, up), x)
        - upstream @ run_vqc(VQCBlock(3, 2, down), x)
    ) / (2 * h)

print("max |adjoint - finite-difference| =", float(np.max(np.abs(adjoint - fd))))
print("(the adjoint gradient is exact; the residual is the finite-difference error)")
