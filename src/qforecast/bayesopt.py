"""Gaussian-process Bayesian optimization and K-best ensemble enumeration.

The surrogate is a Matern-5/2 kernel with per-dimension length scales over
inputs normalized to the unit cube.  Its hyperparameters maximize the log
marginal likelihood on the closed-form likelihood gradient (Rasmussen &
Williams, GPML, 2006, eq. 5.9), from several seeded starts.  Candidates are
proposed by maximizing Expected Improvement over a Latin hypercube (McKay,
Beckman & Conover, 1979), the best one refined on EI's closed-form gradient.
Both searches run ``box_minimize``, a projected quasi-Newton method on the
box, so the module needs numpy alone.

The BO loop runs until its ``ObjectiveTracker``'s budget is spent, and
like every tuner leaves its evaluations in the tracker's trace.
``KBestSet.from_trace`` ranks any tune's trace into the K lowest-scoring
distinct configurations; ``enumerate_ensembles`` scores every K^m tuple of
those sets with the adaptive-weight combiner and returns the argmin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import (
    EnsembleWeights,
    WeightParams,
    combine_predictions,
    finalize_weights,
    weights_from_predictions,
)
from .errors import ConfigurationError, NumericDivergenceError, ShapeError
from .metaheuristics import ObjectiveTracker
from .metrics import mse
from .qlstm import HyperConfig

NOISE_FLOOR = 1e-6
GP_RESTARTS = 12  # likelihood searches per fit: one fixed start plus random ones
EI_CANDIDATES = 1024  # Latin-hypercube points scored before the local EI refinement
# box_minimize's stopping rules, L-BFGS-B's defaults: projected-gradient and
# relative-decrease tolerances, iteration and backtrack limits
PG_TOL = 1e-5
F_TOL = 1e7 * np.finfo(float).eps
MAX_ITER = 15000
MAX_BACKTRACKS = 20
MAX_STEP = 1.0  # largest coordinate move of a first trial step (a log10 unit in the GP fit)
ARMIJO = 1e-4  # sufficient-decrease fraction of the backtrack


def _sq_diffs(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Per-dimension squared differences D, shape (len(xa), len(xb), d)."""
    return (xa[:, None, :] - xb[None, :, :]) ** 2


def _matern52(sq_diffs: np.ndarray, length_scales, signal_var: float):
    """Matern-5/2 kernel matrix and its slope s = sf2 (5/3)(1 + sqrt5 r) e^(-sqrt5 r).

    r^2 = sum_d D_d / l_d^2, and dk/d ln l_d = s * D_d / l_d^2.
    """
    r = np.sqrt(sq_diffs @ (1.0 / np.asarray(length_scales) ** 2))
    sq5r = math.sqrt(5.0) * r
    decay = signal_var * np.exp(-sq5r)
    return decay * (1.0 + sq5r + 5.0 / 3.0 * r * r), decay * (5.0 / 3.0) * (1.0 + sq5r)


def latin_hypercube(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n points in [0, 1)^d, one in each of the n equal strata of every axis."""
    strata = rng.permuted(np.tile(np.arange(n), (d, 1)), axis=1).T
    return (strata + rng.random((n, d))) / n


def box_minimize(fun, x0, lo, hi) -> tuple[np.ndarray, float]:
    """Minimize ``fun(x) -> (value, gradient)`` over the box lo <= x <= hi.

    Projected quasi-Newton (Bertsekas, SIAM J. Control Optim. 20(2), 1982):
    a variable on a bound whose gradient points out of the box is held
    there, the others take the Newton step of a damped BFGS Hessian
    (Nocedal & Wright, Numerical Optimization, 2006, procedure 18.2)
    restricted to them, and an Armijo backtrack runs along the projected
    path from a first trial move of at most MAX_STEP per coordinate.  A
    failed backtrack restarts the Hessian from the identity, or ends the
    search if it already was.  Returns the last point and its value; a
    start whose value is not finite comes back unchanged.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g = fun(x)
    eye = np.eye(len(x))
    hess = eye
    for _ in range(MAX_ITER):
        if not np.isfinite(f) or np.max(np.abs(np.clip(x - g, lo, hi) - x)) <= PG_TOL:
            break
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        step = np.zeros_like(x)
        step[free] = np.linalg.solve(hess[np.ix_(free, free)], -g[free])
        t = min(1.0, MAX_STEP / np.max(np.abs(step)))
        for _ in range(MAX_BACKTRACKS):
            x_new = np.clip(x + t * step, lo, hi)
            f_new, g_new = fun(x_new)
            if f_new <= f + ARMIJO * (g @ (x_new - x)):
                break
            t *= 0.5
        else:
            if hess is eye:
                break
            hess = eye
            continue
        if f - f_new <= F_TOL * max(abs(f), abs(f_new), 1.0):
            return x_new, float(f_new)
        s, y = x_new - x, g_new - g
        x, f, g = x_new, f_new, g_new
        hs = hess @ s
        shs = s @ hs
        if s @ y < 0.2 * shs:  # Powell's damping keeps hess positive definite
            theta = 0.8 * shs / (shs - s @ y)
            y = theta * y + (1.0 - theta) * hs
        hess = hess - np.outer(hs, hs) / shs + np.outer(y, y) / (s @ y)
    return x, float(f)


@dataclass
class GPSurrogate:
    """A fitted Gaussian-process posterior over the unit cube."""

    x: np.ndarray  # (n, d) observed points in [0, 1]^d
    y: np.ndarray  # (n,) observed scores
    length_scales: np.ndarray
    signal_var: float
    noise_var: float
    mean: float
    chol: np.ndarray
    alpha: np.ndarray

    @property
    def best_observed(self) -> float:
        return float(np.min(self.y))


def _chol_with_jitter(k: np.ndarray) -> np.ndarray:
    jitter = 0.0
    for attempt in range(8):
        try:
            return np.linalg.cholesky(k + jitter * np.eye(len(k)))
        except np.linalg.LinAlgError:
            jitter = 10.0 ** (attempt - 10)
    raise ConfigurationError("kernel matrix is not positive definite even with jitter")


def _neg_lml(log_params, sq_diffs, y_centered):
    """-LML and its gradient over log10 (l_1..l_d, sf2, sn2).

    dLML/d ln theta = 1/2 tr((alpha alpha^T - K^-1) dK/d ln theta)
    (GPML eq. 5.9).  A kernel matrix without a Cholesky factor gives +inf,
    which ``box_minimize``'s backtrack never accepts: a search keeps its
    last finite point, and a start of +inf ends its search at once.
    """
    n, d = sq_diffs.shape[1:]
    params = 10.0 ** log_params
    length_scales, signal_var, noise_var = params[:d], params[d], params[d + 1]
    k_signal, slope = _matern52(sq_diffs, length_scales, signal_var)
    try:
        chol = np.linalg.cholesky(k_signal + noise_var * np.eye(n))
    except np.linalg.LinAlgError:
        return np.inf, np.zeros_like(log_params)
    chol_inv = np.linalg.solve(chol, np.eye(n))
    alpha = chol_inv.T @ (chol_inv @ y_centered)
    outer = np.outer(alpha, alpha) - chol_inv.T @ chol_inv
    lml = (-0.5 * y_centered @ alpha - np.sum(np.log(np.diag(chol)))
           - 0.5 * n * math.log(2.0 * math.pi))
    grad = np.empty(d + 2)
    grad[:d] = (outer * slope).reshape(-1) @ sq_diffs.reshape(-1, d) / length_scales**2
    grad[d] = np.sum(outer * k_signal)
    grad[d + 1] = noise_var * np.trace(outer)
    return -float(lml), -0.5 * math.log(10.0) * grad


def gp_fit(observations_x, observations_y, *, seed) -> GPSurrogate:
    """Fit the surrogate to observed (point, score) pairs.

    Duplicate points do not break the fit while the noise bounds are not
    negligible against the scores' variance; where no search finds a
    positive-definite kernel matrix, ConfigurationError is raised.
    """
    x = np.atleast_2d(np.asarray(observations_x, dtype=float))
    y = np.asarray(observations_y, dtype=float).reshape(-1)
    if len(x) != len(y):
        raise ShapeError("one score per observed point required")
    if len(x) < 2:
        raise ConfigurationError("need at least two observations to fit")
    if np.any(x < -1e-9) or np.any(x > 1 + 1e-9):
        raise ConfigurationError("observed points must lie in the unit cube")
    d = x.shape[1]
    mean = float(np.mean(y))
    y_centered = y - mean
    y_var = max(float(np.var(y_centered)), 1e-12)

    # bounded likelihood search in log10 coordinates
    lo = np.concatenate([np.full(d, -2.0), [math.log10(max(y_var * 1e-3, 1e-12))], [-6.0]])
    hi = np.concatenate([np.full(d, 1.0), [math.log10(y_var * 10.0 + 1e-12)], [-1.0]])
    sq_diffs = _sq_diffs(x, x)
    rng = np.random.default_rng(seed)
    starts = [np.concatenate([np.full(d, math.log10(0.3)),
                              [math.log10(y_var)], [-4.0]])]
    starts += [rng.uniform(lo, hi) for _ in range(GP_RESTARTS - 1)]
    best_params, best_val = None, np.inf
    for start in starts:
        point, value = box_minimize(lambda p: _neg_lml(p, sq_diffs, y_centered), start, lo, hi)
        if value < best_val:
            best_val, best_params = value, point
    if best_params is None:
        raise ConfigurationError("no likelihood search found a positive-definite kernel matrix")
    params = 10.0 ** best_params  # as _neg_lml computed them, to the last bit
    return _finalize_fit(x, y, params[:d], float(params[d]),
                         max(float(params[d + 1]), NOISE_FLOOR), mean)


def _finalize_fit(x, y, length_scales, signal_var, noise_var, mean) -> GPSurrogate:
    k, _ = _matern52(_sq_diffs(x, x), length_scales, signal_var)
    chol = _chol_with_jitter(k + noise_var * np.eye(len(x)))
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y - mean))
    return GPSurrogate(x=x, y=y, length_scales=np.asarray(length_scales, float),
                       signal_var=float(signal_var), noise_var=float(noise_var),
                       mean=mean, chol=chol, alpha=alpha)


def gp_posterior(gp: GPSurrogate, query) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and (latent) variance at query points in the unit cube."""
    query = np.atleast_2d(np.asarray(query, dtype=float))
    k_star, _ = _matern52(_sq_diffs(query, gp.x), gp.length_scales, gp.signal_var)
    mean = gp.mean + k_star @ gp.alpha
    v = np.linalg.solve(gp.chol, k_star.T)
    var = gp.signal_var - np.sum(v * v, axis=0)
    return mean, np.maximum(var, 0.0)


_erf = np.frompyfunc(math.erf, 1, 1)


def _normal_cdf(z):
    return 0.5 * (1.0 + np.asarray(_erf(z / math.sqrt(2.0)), dtype=float))


def _normal_pdf(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def ei_from_moments(mean, var, best_so_far: float) -> np.ndarray:
    """Closed-form EI for minimization given posterior moments.

    With zero variance the improvement is deterministic:
    ``max(best - mean, 0)``.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.sqrt(np.maximum(np.asarray(var, dtype=float), 0.0))
    improve = best_so_far - mean
    pos = sd > 0.0
    z = np.where(pos, improve / np.where(pos, sd, 1.0), 0.0)
    ei = np.where(pos, improve * _normal_cdf(z) + sd * _normal_pdf(z),
                  np.maximum(improve, 0.0))
    return np.maximum(ei, 0.0)


def expected_improvement(gp: GPSurrogate, query, best_so_far: float) -> np.ndarray:
    """EI(x) = E[max(best - f(x), 0)] under the posterior (minimization)."""
    mean, var = gp_posterior(gp, query)
    return ei_from_moments(mean, var, best_so_far)


def _neg_ei(u, gp: GPSurrogate, best_so_far: float):
    """-EI at one unit-cube point and its gradient.

    dEI/dmean = -Phi(z) and dEI/dsd = phi(z), chained through the posterior:
    dk*_i/du_j = -slope_i (u_j - x_ij) / l_j^2, dmean = dk* . alpha and
    dsd = -(K^-1 k*) . dk* / sd.  Where sd = 0, EI = max(best - mean, 0).
    """
    diffs = u[None, :] - gp.x
    k_star, slope = _matern52(diffs**2, gp.length_scales, gp.signal_var)
    dk = -slope[:, None] * diffs / gp.length_scales**2
    v = np.linalg.solve(gp.chol, k_star)
    mean, var = gp.mean + k_star @ gp.alpha, gp.signal_var - v @ v
    ei = float(ei_from_moments(mean, var, best_so_far))
    d_mean = gp.alpha @ dk
    if var <= 0.0:
        return -ei, d_mean * (ei > 0.0)
    sd = math.sqrt(var)
    z = (best_so_far - mean) / sd
    d_sd = -(np.linalg.solve(gp.chol.T, v) @ dk) / sd
    return -ei, float(_normal_cdf(z)) * d_mean - float(_normal_pdf(z)) * d_sd


def acquire_next(gp: GPSurrogate, best_so_far: float, *, seed) -> np.ndarray:
    """Argmax of EI over ``EI_CANDIDATES`` Latin-hypercube points, refined
    by ``box_minimize`` on -EI from the best of them."""
    d = gp.x.shape[1]
    candidates = latin_hypercube(EI_CANDIDATES, d, np.random.default_rng(seed))
    ei = expected_improvement(gp, candidates, best_so_far)
    best_idx = int(np.argmax(ei))
    best_point, best_ei = candidates[best_idx], ei[best_idx]
    point, value = box_minimize(lambda u: _neg_ei(u, gp, best_so_far), best_point,
                                np.zeros(d), np.ones(d))
    if -value > best_ei:
        best_point = point
    return np.asarray(best_point, dtype=float)


def bo_minimize_unit(tracker: ObjectiveTracker, d: int, *, n_init: int, seed) -> None:
    """BO loop on the unit cube.

    Starts from a Latin-hypercube design of ``n_init`` points, then runs
    acquire-evaluate-refit rounds until the tracker's budget is spent.  The
    points and scores the GP is fitted to are the loop's own; its result is
    the tracker's trace.
    """
    if n_init < 2:
        raise ConfigurationError("n_init must be >= 2")
    if tracker.remaining() < n_init:
        raise ConfigurationError(f"the BO loop needs a budget of at least n_init = {n_init}")
    seed_seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    lhs_seed, fit_seed, acq_seed = seed_seq.spawn(3)
    xs = list(latin_hypercube(n_init, d, np.random.default_rng(lhs_seed)))
    ys = [tracker(x, "bo", 0) for x in xs]
    fit_rng = np.random.default_rng(fit_seed)
    acq_rng = np.random.default_rng(acq_seed)
    it = 0
    while tracker.remaining() > 0:
        it += 1
        finite = [i for i, v in enumerate(ys) if np.isfinite(v)]
        if len(finite) >= 2:
            gp = gp_fit(np.array([xs[i] for i in finite]), np.array([ys[i] for i in finite]),
                        seed=fit_rng.integers(2**31))
            nxt = acquire_next(gp, gp.best_observed, seed=acq_rng.integers(2**31))
        else:
            nxt = np.random.default_rng(acq_rng.integers(2**31)).random(d)
        xs.append(nxt)
        ys.append(tracker(nxt, "bo", it))


@dataclass
class KBestSet:
    """The K lowest-scoring distinct configurations one optimizer retained."""

    model_index: int
    configs: list
    scores: list

    def __post_init__(self):
        if len(self.configs) != len(self.scores):
            raise ShapeError("configs and scores must pair up")
        if any(b < a for a, b in zip(self.scores, self.scores[1:])):
            raise ConfigurationError("scores must be sorted ascending")
        if len(set(self.configs)) != len(self.configs):
            raise ConfigurationError("configs must be distinct")

    @property
    def k(self) -> int:
        return len(self.configs)

    def to_dict(self) -> dict:
        return {
            "model_index": self.model_index,
            "configs": [c.to_dict() for c in self.configs],
            "scores": list(map(float, self.scores)),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KBestSet":
        """A ``to_dict`` set, every configuration validated."""
        return cls(
            model_index=int(d["model_index"]),
            configs=[HyperConfig.from_dict(c) for c in d["configs"]],
            scores=[float(s) for s in d["scores"]],
        )

    @classmethod
    def from_trace(cls, model_index: int, trace: list, k: int) -> "KBestSet":
        """The K lowest-scoring distinct configurations of a tune's trace.

        Distinct search points can round to the same configuration; each
        configuration with a finite objective counts once, at its best
        score, and equal scores rank by the configuration's first finite
        evaluation.
        """
        if k < 1:
            raise ConfigurationError(f"K must be >= 1, got {k}")
        by_config: dict[HyperConfig, float] = {}
        for row in trace:
            config, score = HyperConfig.from_dict(row["config"]), row["objective"]
            if np.isfinite(score) and score < by_config.get(config, np.inf):
                by_config[config] = float(score)
        if k > len(by_config):
            raise ConfigurationError(
                f"asked for {k} best configs but only {len(by_config)} distinct ones were "
                f"evaluated"
            )
        ranked = sorted(by_config.items(), key=lambda item: item[1])[:k]
        return cls(model_index, [c for c, _ in ranked], [s for _, s in ranked])


# ---------------------------------------------------------------------------
# K^m ensemble enumeration
# ---------------------------------------------------------------------------


@dataclass
class EnsembleCandidate:
    """One tuple of per-model configurations with its combined-forecast score."""

    configs: tuple
    objective: float
    weights: np.ndarray
    state: EnsembleWeights  # the weight evolution that produced ``weights``


@dataclass
class EnumerationResult:
    best: EnsembleCandidate
    n_tuples: int
    objectives: list


def enumerate_ensembles(ksets: list, predict_fn, targets,
                        params: WeightParams = WeightParams()) -> EnumerationResult:
    """Evaluate every K^m tuple of per-model configurations.

    ``predict_fn(model_index, config)`` returns that model's predictions on
    the held-out segment whose truth is ``targets``.  For each tuple the
    adaptive weights are evolved on the prediction errors, and the weighted
    forecast's MSE is the tuple objective.  A NumericDivergenceError marks
    the tuple's objective +inf and enumeration continues; when every tuple
    diverges, the first tuple's error is raised again, so a single tuple
    fails exactly as its training did.
    """
    if not ksets:
        raise ConfigurationError("need at least one K-best set")
    k = ksets[0].k
    if any(ks.k != k for ks in ksets):
        raise ConfigurationError("all K-best sets must have equal K")
    targets = np.asarray(targets, dtype=float)

    best: EnsembleCandidate | None = None
    first_error: NumericDivergenceError | None = None
    objectives = []
    n_tuples = 0
    for combo in itertools.product(*[ks.configs for ks in ksets]):
        n_tuples += 1
        try:
            preds = np.vstack([predict_fn(m, config) for m, config in enumerate(combo)])
            state = weights_from_predictions(targets, preds, params)
            weights = finalize_weights(state)
            objective = mse(targets, combine_predictions(weights, preds))
        except NumericDivergenceError as exc:
            first_error = first_error or exc
            objectives.append(float("inf"))
            continue
        objectives.append(objective)
        if best is None or objective < best.objective:
            best = EnsembleCandidate(combo, objective, weights, state)
    if best is None:
        raise first_error
    assert n_tuples == k ** len(ksets)
    return EnumerationResult(best=best, n_tuples=n_tuples, objectives=objectives)
