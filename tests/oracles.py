"""Independent reference implementations used only by the test suite.

Everything here is written the slow, obvious way (dense matrices, explicit
loops) so the fast library paths can be checked against a second route.
"""

from functools import lru_cache

import numpy as np

# ---------------------------------------------------------------------------
# Dense-unitary circuit oracle.  Builds the full 2^n x 2^n matrix of every
# gate by Kronecker placement and multiplies it out; qubit 0 is the
# least-significant bit of the amplitude index.
# ---------------------------------------------------------------------------


def dense_rotation(kind, angle):
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "rz":
        return np.array([[np.exp(-1j * angle / 2), 0], [0, np.exp(1j * angle / 2)]])
    raise ValueError(kind)


def kron(a, b):
    """Kronecker product of two matrices: block (i, j) is a[i, j] * b."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def place_single(gate2x2, target, n):
    high = np.eye(2 ** (n - 1 - target), dtype=complex)
    return kron(kron(high, gate2x2), np.eye(2**target, dtype=complex))


@lru_cache(maxsize=None)
def dense_cnot(control, target, n):
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        k = j ^ (((j >> control) & 1) << target)
        mat[k, j] = 1.0
    mat.flags.writeable = False  # cached: every caller gets this array
    return mat


def dense_block_unitary(n_qubits, n_layers, thetas, x):
    """Full unitary of the variational block for input vector ``x``."""
    x = np.asarray(x, dtype=float)
    return dense_angle_unitary(n_qubits, n_layers, thetas, np.arctan(x), np.arctan(x**2))


def dense_angle_unitary(n_qubits, n_layers, thetas, enc_ry, enc_rz):
    """Full unitary of the variational block given its encoding angles."""
    ops = []
    for q in range(n_qubits):
        ops.append(place_single(dense_rotation("ry", enc_ry[q]), q, n_qubits))
        ops.append(place_single(dense_rotation("rz", enc_rz[q]), q, n_qubits))
    for layer in range(n_layers):
        if n_qubits >= 2:
            for q in range(n_qubits):
                ops.append(dense_cnot(q, (q + 1) % n_qubits, n_qubits))
        for q in range(n_qubits):
            for k, kind in enumerate(("rx", "ry", "rz")):
                ops.append(place_single(dense_rotation(kind, thetas[layer, q, k]), q, n_qubits))
    unitary = np.eye(2**n_qubits, dtype=complex)
    for op in ops:
        unitary = op @ unitary
    return unitary


def dense_z_readout(psi, n_qubits):
    """<Z_q> of every qubit of the state vector ``psi``."""
    probs = np.abs(psi) ** 2
    out = np.empty(n_qubits)
    for q in range(n_qubits):
        signs = np.array([1.0 if ((j >> q) & 1) == 0 else -1.0 for j in range(2**n_qubits)])
        out[q] = float(probs @ signs)
    return out


def dense_vqc_expectations(n_qubits, n_layers, thetas, x):
    """<Z_q> readout computed from the dense unitary applied to |0...0>."""
    return dense_z_readout(dense_block_unitary(n_qubits, n_layers, thetas, x)[:, 0], n_qubits)


# ---------------------------------------------------------------------------
# Parameter-shift gradients (Schuld et al., arXiv:1811.11184) on the dense
# oracle: for every rotation angle, d<O>/dangle = (<O>(angle + pi/2) -
# <O>(angle - pi/2)) / 2, one angle and one input row at a time.
# ---------------------------------------------------------------------------


def parameter_shift_gradients(block, inputs, upstream):
    """(theta_grad, input_grad) of ``sum_b upstream_b . output_b``, as
    ``qforecast.quantum.vqc_gradients_batch`` returns them.

    The dense unitary of a block is its trainable part times its encoding
    layer, so each shifted theta builds the trainable part once for all rows
    and each shifted input angle builds one row's encoded state.
    """
    n, layers = block.n_qubits, block.n_layers
    inputs = np.asarray(inputs, dtype=float)
    zeros = np.zeros(n)
    shift = np.pi / 2

    def trainable(thetas):
        return dense_angle_unitary(n, layers, thetas, zeros, zeros)

    def encoded(enc_ry, enc_rz):
        return dense_angle_unitary(n, 0, None, enc_ry, enc_rz)[:, 0]

    def value(unitary, psi, u):
        return float(u @ dense_z_readout(unitary @ psi, n))

    encs = [[np.arctan(x), np.arctan(x * x)] for x in inputs]
    states = [encoded(*enc) for enc in encs]
    theta_grad = np.zeros_like(block.thetas)
    for idx in np.ndindex(block.thetas.shape):
        plus, minus = block.thetas.copy(), block.thetas.copy()
        plus[idx] += shift
        minus[idx] -= shift
        w_plus, w_minus = trainable(plus), trainable(minus)
        for psi, u in zip(states, upstream):
            theta_grad[idx] += (value(w_plus, psi, u) - value(w_minus, psi, u)) / 2
    unitary = trainable(block.thetas)
    input_grad = np.zeros_like(inputs)
    for b, (x, u, enc) in enumerate(zip(inputs, upstream, encs)):
        for slot, d_angle_dx in enumerate([1 / (1 + x * x), 2 * x / (1 + x**4)]):
            for q in range(n):
                plus, minus = [a.copy() for a in enc], [a.copy() for a in enc]
                plus[slot][q] += shift
                minus[slot][q] -= shift
                d_angle = (value(unitary, encoded(*plus), u)
                           - value(unitary, encoded(*minus), u)) / 2
                input_grad[b, q] += d_angle * d_angle_dx[q]
    return theta_grad, input_grad


# ---------------------------------------------------------------------------
# The quantum LSTM cell block by block: every step reads each circuit block
# from its dense unitary, row by row, and every backward step takes the
# block's gradients from ``parameter_shift_gradients``.
# ---------------------------------------------------------------------------


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def dense_block_outputs(block, inputs):
    """``(batch, n)`` <Z> readouts of a ``VQCBlock``, one dense unitary per input row."""
    return np.array([dense_vqc_expectations(block.n_qubits, block.n_layers, block.thetas, x)
                     for x in inputs])


def cell_oracle_step(params, x_t, h_prev, c_prev, want_y):
    """One cell step of a ``QLSTMParams``; returns (h, c, y, cache)."""
    concat = np.concatenate([h_prev, x_t], axis=1)
    v = concat @ params.w_in.T + params.b_in
    f = _sigmoid(dense_block_outputs(params.vqc[0], v))
    i = _sigmoid(dense_block_outputs(params.vqc[1], v))
    g = np.tanh(dense_block_outputs(params.vqc[2], v))
    o = _sigmoid(dense_block_outputs(params.vqc[3], v))
    c = f * c_prev + i * g
    tc = np.tanh(c)
    u = o * tc
    z5 = dense_block_outputs(params.vqc[4], u)
    h = z5 @ params.w_h.T + params.b_h
    y = z6 = None
    if want_y:
        z6 = dense_block_outputs(params.vqc[5], u)
        y = z6 @ params.w_y.T + params.b_y
    cache = {"concat": concat, "v": v, "f": f, "i": i, "g": g, "o": o,
             "c_prev": c_prev, "c": c, "tc": tc, "u": u, "z5": z5, "z6": z6}
    return h, c, y, cache


def cell_oracle_forward(params, windows):
    """Final predictions (batch,) and the per-step caches."""
    batch, seq = windows.shape[0], windows.shape[1]
    h = np.zeros((batch, params.hidden_units))
    c = np.zeros((batch, params.n_qubits))
    caches = []
    for t in range(seq):
        h, c, y, cache = cell_oracle_step(params, windows[:, t, :], h, c, want_y=(t == seq - 1))
        caches.append(cache)
    return y[:, 0], caches


def cell_oracle_backward(params, caches, dpred):
    """BPTT through ``cell_oracle_forward`` caches; gradients by parameter name."""
    seq = len(caches)
    grads = {k: np.zeros_like(v) for k, v in params.param_arrays().items()}
    dy = dpred[:, None]
    final = caches[-1]
    grads["w_y"] += dy.T @ final["z6"]
    grads["b_y"] += dy.sum(axis=0)
    dz6 = dy @ params.w_y

    batch = dpred.shape[0]
    dh = np.zeros((batch, params.hidden_units))
    dc_carry = np.zeros((batch, params.n_qubits))
    for t in range(seq - 1, -1, -1):
        cache = caches[t]
        du = np.zeros((batch, params.n_qubits))
        if t == seq - 1:
            tg, ig = parameter_shift_gradients(params.vqc[5], cache["u"], dz6)
            grads["theta_readout"] += tg
            du += ig
        if np.any(dh):
            dz5 = dh @ params.w_h
            grads["w_h"] += dh.T @ cache["z5"]
            grads["b_h"] += dh.sum(axis=0)
            tg, ig = parameter_shift_gradients(params.vqc[4], cache["u"], dz5)
            grads["theta_hidden"] += tg
            du += ig
        o, tc, f, i, g = cache["o"], cache["tc"], cache["f"], cache["i"], cache["g"]
        dc = dc_carry + du * o * (1.0 - tc * tc)
        do = du * tc
        dz4 = do * o * (1.0 - o)
        df = dc * cache["c_prev"]
        dz1 = df * f * (1.0 - f)
        di = dc * g
        dz2 = di * i * (1.0 - i)
        dg = dc * i
        dz3 = dg * (1.0 - g * g)
        dc_carry = dc * f

        dv = np.zeros((batch, params.n_qubits))
        for blk, key, dz in (
            (params.vqc[0], "theta_forget", dz1),
            (params.vqc[1], "theta_input", dz2),
            (params.vqc[2], "theta_update", dz3),
            (params.vqc[3], "theta_output", dz4),
        ):
            tg, ig = parameter_shift_gradients(blk, cache["v"], dz)
            grads[key] += tg
            dv += ig
        grads["w_in"] += dv.T @ cache["concat"]
        grads["b_in"] += dv.sum(axis=0)
        dh = (dv @ params.w_in)[:, : params.hidden_units]
    return grads


# ---------------------------------------------------------------------------
# Finite differences.
# ---------------------------------------------------------------------------


def central_difference(f, x0, h=1e-5):
    """Central finite-difference gradient of a scalar function of an array."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    flat = grad.reshape(-1)
    xf = x0.reshape(-1)
    for i in range(xf.size):
        xp = xf.copy()
        xm = xf.copy()
        xp[i] += h
        xm[i] -= h
        flat[i] = (f(xp.reshape(x0.shape)) - f(xm.reshape(x0.shape))) / (2 * h)
    return grad


# ---------------------------------------------------------------------------
# Textbook Gaussian-process regression on a fixed Matern-5/2 kernel.
# ---------------------------------------------------------------------------


def matern52_kernel(xa, xb, length_scales, signal_var):
    xa = np.atleast_2d(xa)
    xb = np.atleast_2d(xb)
    d = (xa[:, None, :] - xb[None, :, :]) / np.asarray(length_scales)
    r = np.sqrt(np.maximum((d**2).sum(-1), 0.0))
    sq5r = np.sqrt(5.0) * r
    return signal_var * (1.0 + sq5r + 5.0 * r**2 / 3.0) * np.exp(-sq5r)


def gp_posterior_oracle(x_train, y_train, x_query, length_scales, signal_var, noise_var, mean):
    """Closed-form GP posterior via direct matrix inversion."""
    k_tt = matern52_kernel(x_train, x_train, length_scales, signal_var)
    k_tt += noise_var * np.eye(len(x_train))
    k_qt = matern52_kernel(x_query, x_train, length_scales, signal_var)
    k_inv = np.linalg.inv(k_tt)
    resid = np.asarray(y_train) - mean
    post_mean = mean + k_qt @ k_inv @ resid
    k_qq = matern52_kernel(x_query, x_query, length_scales, signal_var)
    post_var = np.diag(k_qq - k_qt @ k_inv @ k_qt.T)
    return post_mean, np.maximum(post_var, 0.0)


def lml_oracle(x, y_centered, length_scales, signal_var, noise_var):
    """GP log marginal likelihood through a Cholesky factor; -inf without one."""
    k = matern52_kernel(x, x, length_scales, signal_var) + noise_var * np.eye(len(x))
    try:
        chol = np.linalg.cholesky(k)
    except np.linalg.LinAlgError:
        return -np.inf
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y_centered))
    return float(
        -0.5 * y_centered @ alpha
        - np.sum(np.log(np.diag(chol)))
        - 0.5 * len(x) * np.log(2.0 * np.pi)
    )


def lml_box(d, y_var):
    """gp_fit's search box over log10 (l_1..l_d, sf2, sn2)."""
    lo = np.concatenate([np.full(d, -2.0), [np.log10(max(y_var * 1e-3, 1e-12))], [-6.0]])
    hi = np.concatenate([np.full(d, 1.0), [np.log10(y_var * 10.0 + 1e-12)], [-1.0]])
    return lo, hi


def nelder_mead_gp_fit(x, y, seed, restarts=6, noise_floor=1e-6):
    """The gradient-free likelihood search: multi-start Nelder-Mead over
    gp_fit's log10 box, clipped into it.  Returns the best log10 parameters
    and their LML."""
    from scipy import optimize

    x = np.atleast_2d(np.asarray(x, dtype=float))
    y_centered = np.asarray(y, dtype=float) - np.mean(y)
    d = x.shape[1]
    y_var = max(float(np.var(y_centered)), 1e-12)
    lo, hi = lml_box(d, y_var)

    def neg_lml(log_params):
        p = np.clip(log_params, lo, hi)
        return -lml_oracle(x, y_centered, 10.0 ** p[:d], 10.0 ** p[d],
                           max(10.0 ** p[d + 1], noise_floor))

    rng = np.random.default_rng(seed)
    starts = [np.concatenate([np.full(d, np.log10(0.3)), [np.log10(y_var)], [-4.0]])]
    starts += [rng.uniform(lo, hi) for _ in range(restarts - 1)]
    best_params, best_val = None, np.inf
    for start in starts:
        res = optimize.minimize(neg_lml, start, method="Nelder-Mead",
                                options={"maxiter": 120 * (d + 2), "xatol": 1e-3,
                                         "fatol": 1e-6})
        if res.fun < best_val:
            best_val, best_params = res.fun, np.clip(res.x, lo, hi)
    return best_params, -best_val


def expected_improvement_oracle(mean, var, best):
    """Phi/phi closed form of EI for minimization, via scipy.stats."""
    from scipy.stats import norm

    mean = np.asarray(mean, dtype=float)
    sd = np.sqrt(np.maximum(np.asarray(var, dtype=float), 0.0))
    ei = np.zeros_like(mean)
    pos = sd > 0
    z = (best - mean[pos]) / sd[pos]
    ei[pos] = (best - mean[pos]) * norm.cdf(z) + sd[pos] * norm.pdf(z)
    ei[~pos] = np.maximum(best - mean[~pos], 0.0)
    return np.maximum(ei, 0.0)


# ---------------------------------------------------------------------------
# Adaptive ensemble weights, one model and one step at a time.
# ---------------------------------------------------------------------------


def loop_oracle(errors, lam, gamma, nu=None):
    """Straight-line reimplementation of the weight evolution equations.

    Each eps_m(k) is summed afresh over its window t = max(1, k-nu+1)..k and
    a zero sum is floored to 1e-12.  Returns the final simplex weights, the
    accumulated weights after each step and the floored eps of each step,
    the last two as (n_steps, n_models) arrays.
    """
    n_models, n_steps = errors.shape
    w = [1.0 / n_models] * n_models
    history, eps_history = [], []
    for k in range(1, n_steps + 1):
        first = 1 if nu is None else max(1, k - nu + 1)
        eps = []
        for m in range(n_models):
            total = 0.0
            for t in range(first, k + 1):
                total += gamma ** (k - t) * errors[m, t - 1]
            eps.append(total if total > 0.0 else 1e-12)
        inv_sum = sum(1.0 / e for e in eps)
        for m in range(n_models):
            w[m] = w[m] + lam * (1.0 / eps[m]) / inv_sum
        history.append(list(w))
        eps_history.append(eps)
    total = sum(w)
    final = np.array([wi / total for wi in w])
    shape = (n_steps, n_models)
    return final, np.array(history).reshape(shape), np.array(eps_history).reshape(shape)


# ---------------------------------------------------------------------------
# Two-stage scaler, written with whole-matrix temporaries and numpy's axis-0
# reductions: quartiles by np.percentile(axis=0), the stage-one mean and std
# by .mean(axis=0) / .std(axis=0).
# ---------------------------------------------------------------------------


def _stage_oracle(x, center, scale, skip):
    """(x - center) / scale, with the ``skip`` features copied unchanged."""
    return np.where(skip, x, (x - center) / np.where(skip, 1.0, scale))


def scaler_oracle(train):
    """The scaler's statistics as a dict of ScalerState field names."""
    q1, median, q3 = np.percentile(train, [25, 50, 75], axis=0)
    robust_skip = q3 - q1 == 0.0
    stage1 = _stage_oracle(train, median, q3 - q1, robust_skip)
    mean, std = stage1.mean(axis=0), stage1.std(axis=0)
    return {"median": median, "q1": q1, "q3": q3, "mean": mean, "std": std,
            "robust_skip": robust_skip, "z_skip": std == 0.0}


def standardize_oracle(matrix, stats):
    """Both stages of ``stats`` (a :func:`scaler_oracle` dict) on ``matrix``."""
    stage1 = _stage_oracle(matrix, stats["median"], stats["q3"] - stats["q1"], stats["robust_skip"])
    return _stage_oracle(stage1, stats["mean"], stats["std"], stats["z_skip"])


def inverse_transform(standardized, scaler):
    """Undo both stages of a fitted ``ScalerState``: Z-score, then robust,
    with each stage's skipped features passed through."""
    stage1 = np.where(scaler.z_skip, standardized, standardized * scaler.std + scaler.mean)
    return np.where(scaler.robust_skip, stage1, stage1 * scaler.iqr + scaler.median)
