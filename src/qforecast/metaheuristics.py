"""Population-based hyperparameter tuners.

Three minimizers over a continuous box, each holding its population as
arrays:

* ``pso_minimize`` -- a particle swarm kept as ``(P, d)`` matrices of
  positions, velocities and per-particle bests.  Each sweep updates every
  particle at once, ``v <- INERTIA*v + COGNITIVE*r1*(pbest - x)
  + SOCIAL*r2*(gbest - x)`` and ``x <- x + v`` clamped to the box (with the
  velocity zeroed on a violated dimension), then evaluates the particles in
  order; a best moves only on a strict improvement.
* ``qga_minimize`` -- a genetic search over qubit amplitudes: the population
  is two ``(pop, n_bits)`` arrays alpha and beta with alpha^2 + beta^2 = 1,
  each bit measured to 1 with probability beta^2.  A 2x2 rotation gate
  turns each disagreeing bit toward the generation best's bit by
  ``TOWARD_BEST``, or, for an individual at least as fit, toward its own
  bit by ``TOWARD_OWN``; each bit's amplitudes then swap with probability
  ``P_MUTATION``.  The caller's decoder maps measured bits to a point.
* ``hybrid_minimize`` -- the genetic phase's best points, decoded by the
  caller's decoder, seed the swarm's initial positions; the remaining
  evaluation budget goes to the swarm.

Every evaluation flows through an ``ObjectiveTracker``, the one holder of
the evaluation budget and the trace: it maps non-finite objective values to
+inf (flagged) and records one trace row per call.  The swarm and the
hybrid run until its budget is spent, so they refuse a tracker without one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

INERTIA = 0.729
COGNITIVE = 1.49445
SOCIAL = 1.49445
TOWARD_BEST = 0.05 * np.pi  # rotation of a worse individual's bits toward the best's
TOWARD_OWN = 0.01 * np.pi  # rotation of an at-least-as-fit individual toward its own bits
P_MUTATION = 0.02
HYBRID_POP_SIZE = 20  # genetic population, in the hybrid and by default
HYBRID_PARTICLES = 20  # swarm size, in the hybrid and by default
HYBRID_SEEDS = 3  # distinct genetic-phase bests that seed the swarm


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class BudgetExhausted(Exception):
    """Internal control flow: the evaluation budget ran out."""


class ObjectiveTracker:
    """Counts, caps, traces, and sanitizes objective evaluations.

    ``describe`` turns a query point into the value stored in the trace
    (the tuning pipelines put decoded configurations there).
    """

    def __init__(self, objective, budget: int | None = None, trace: list | None = None,
                 describe=None):
        self.objective = objective
        self.budget = budget
        self.trace = trace
        self.describe = describe or (lambda x: np.asarray(x, dtype=float).tolist())
        self.n_evals = 0
        self.n_non_finite = 0

    def remaining(self) -> int:
        return self.budget - self.n_evals

    def __call__(self, x, phase: str, iteration: int) -> float:
        if self.budget is not None and self.n_evals >= self.budget:
            raise BudgetExhausted
        self.n_evals += 1
        value = float(self.objective(x))
        if not np.isfinite(value):
            self.n_non_finite += 1
            value = float("inf")
        if self.trace is not None:
            self.trace.append(
                {"phase": phase, "iteration": iteration,
                 "config": self.describe(x), "objective": value}
            )
        return value


# ---------------------------------------------------------------------------
# Particle swarm
# ---------------------------------------------------------------------------


@dataclass
class Swarm:
    """Row i of each matrix is particle i; the swarm best is tracked apart."""

    position: np.ndarray  # (P, d)
    velocity: np.ndarray  # (P, d)
    pbest: np.ndarray  # (P, d) each particle's best position
    pbest_value: np.ndarray  # (P,) +inf until a particle has a finite value
    best_position: np.ndarray  # (d,)
    best_value: float


@dataclass
class TunerResult:
    best_position: np.ndarray
    best_value: float
    history: list  # best value after each iteration/generation
    n_evals: int
    n_non_finite: int


def _check_bounds(bounds) -> tuple[np.ndarray, np.ndarray]:
    lows = np.array([b[0] for b in bounds], dtype=float)
    highs = np.array([b[1] for b in bounds], dtype=float)
    if np.any(lows > highs):
        raise ConfigurationError("every bound must satisfy low <= high")
    return lows, highs


def _evaluate(swarm: Swarm, tracker: ObjectiveTracker, iteration: int) -> None:
    """Score the particles in order.  The swarm best moves on a strict
    improvement only, so among tied values the first evaluated stays best."""
    for i, x in enumerate(swarm.position):
        value = tracker(x, "pso", iteration)
        if value < swarm.pbest_value[i]:
            swarm.pbest_value[i] = value
            swarm.pbest[i] = x
        if value < swarm.best_value:
            swarm.best_value = value
            swarm.best_position = x.copy()


def init_swarm(tracker: ObjectiveTracker, bounds, n_particles: int, rng,
               init_positions=None) -> Swarm:
    """Seeded swarm; the first particles can start at supplied positions."""
    lows, highs = _check_bounds(bounds)
    d = len(lows)
    seeded = [] if init_positions is None else [np.clip(np.asarray(p, float), lows, highs)
                                                for p in init_positions[:n_particles]]
    n_random = n_particles - len(seeded)
    randoms = rng.uniform(lows, highs, size=(n_random, d))
    positions = np.vstack([seeded, randoms]) if seeded else randoms
    span = highs - lows
    velocities = rng.uniform(-0.1 * span, 0.1 * span, size=(n_particles, d))
    # injected positions are known good points: let them start at rest so the
    # first sweep exploits their basin instead of jumping away
    velocities[: len(seeded)] = 0.0

    swarm = Swarm(positions, velocities, positions.copy(), np.full(n_particles, np.inf),
                  positions[0].copy(), np.inf)
    try:
        _evaluate(swarm, tracker, 0)
    except BudgetExhausted:
        pass  # unevaluated stragglers keep an infinite pbest
    return swarm


def pso_step(swarm: Swarm, tracker: ObjectiveTracker, bounds, rng,
             iteration: int = 0) -> Swarm:
    """One velocity/position/evaluation sweep; the swarm best never worsens.

    ``r[i, 0]`` and ``r[i, 1]`` are particle i's r1 and r2.
    """
    lows, highs = _check_bounds(bounds)
    x = swarm.position
    r = rng.uniform(size=(len(x), 2, x.shape[1]))
    velocity = (INERTIA * swarm.velocity
                + COGNITIVE * r[:, 0] * (swarm.pbest - x)
                + SOCIAL * r[:, 1] * (swarm.best_position - x))
    position = x + velocity
    velocity[(position < lows) | (position > highs)] = 0.0
    swarm.position = np.clip(position, lows, highs)
    swarm.velocity = velocity
    _evaluate(swarm, tracker, iteration)
    return swarm


def pso_minimize(tracker: ObjectiveTracker, bounds, *, n_particles: int = HYBRID_PARTICLES,
                 seed=0, init_positions=None) -> TunerResult:
    """Particle-swarm minimization over a box.

    Sweeps the swarm until the tracker's evaluation budget is spent; a
    sweep the budget cuts short adds no history entry.
    """
    if n_particles < 1:
        raise ConfigurationError("need at least one particle")
    if tracker.budget is None:
        raise ConfigurationError("the swarm needs a tracker with an evaluation budget")
    rng = _as_rng(seed)
    swarm = init_swarm(tracker, bounds, n_particles, rng, init_positions=init_positions)
    history = [swarm.best_value]
    it = 0
    while tracker.remaining() > 0:
        it += 1
        try:
            pso_step(swarm, tracker, bounds, rng, iteration=it)
        except BudgetExhausted:
            break
        history.append(swarm.best_value)
    return TunerResult(swarm.best_position.copy(), float(swarm.best_value), history,
                       tracker.n_evals, tracker.n_non_finite)


# ---------------------------------------------------------------------------
# Quantum-amplitude genetic search
# ---------------------------------------------------------------------------


def rotate(alpha, beta, angles):
    """Per-bit 2x2 rotations [[cos,-sin],[sin,cos]]; exactly norm-preserving."""
    c, s = np.cos(angles), np.sin(angles)
    return c * alpha - s * beta, s * alpha + c * beta


def swap_mutate(alpha, beta, mask):
    return np.where(mask, beta, alpha), np.where(mask, alpha, beta)


def rotation_angles(bits, values) -> np.ndarray:
    """Signed angles for a generation's measured ``(pop, n_bits)`` bits.

    Positive angles push amplitude toward |1>.  A bit that disagrees with
    the generation best's turns toward the best's bit by ``TOWARD_BEST``
    when its individual scored worse than the best, and toward its own bit
    by ``TOWARD_OWN`` when at least as good.  Agreeing bits stay put.
    """
    values = np.asarray(values)
    best = int(np.argmin(values))
    at_least_as_fit = (values <= values[best])[:, None]
    target = np.where(at_least_as_fit, bits, bits[best])
    magnitude = np.where(at_least_as_fit, TOWARD_OWN, TOWARD_BEST)
    direction = np.where(target == 1, 1.0, -1.0)
    return np.where(bits != bits[best], direction * magnitude, 0.0)


@dataclass
class QGAResult:
    best_bits: np.ndarray
    best_value: float
    best_decoded: object
    history: list
    n_evals: int
    archive: list  # (value, decoded) per evaluation


def qga_minimize(tracker: ObjectiveTracker, n_bits: int, *, decode,
                 pop_size: int = HYBRID_POP_SIZE, n_generations: int = 50, seed=0) -> QGAResult:
    """Genetic minimization on qubit-amplitude chromosomes.

    Stops after ``n_generations``, or at the first generation the tracker's
    budget cuts short.  ``decode`` maps a measured bit array to the
    objective's argument (and to the archive/result payload).
    """
    if pop_size < 1:
        raise ConfigurationError("population must be non-empty")
    if n_bits < 1:
        raise ConfigurationError("genome needs at least one bit")
    rng = _as_rng(seed)
    alpha = np.full((pop_size, n_bits), 1.0 / np.sqrt(2.0))
    beta = alpha.copy()

    best_bits, best_value, best_decoded = None, np.inf, None
    history = []
    archive = []
    for gen in range(n_generations):
        measured = (rng.random((pop_size, n_bits)) < beta**2).astype(int)
        values = []
        for bits in measured:
            decoded = decode(bits)
            try:
                value = tracker(decoded, "qga", gen)
            except BudgetExhausted:
                break
            values.append(value)
            archive.append((value, decoded))
            if value < best_value:
                best_bits, best_value, best_decoded = bits.copy(), value, decoded
        if len(values) < pop_size:
            break
        alpha, beta = rotate(alpha, beta, rotation_angles(measured, values))
        alpha, beta = swap_mutate(alpha, beta, rng.random((pop_size, n_bits)) < P_MUTATION)
        history.append(best_value)
    return QGAResult(best_bits, float(best_value), best_decoded, history,
                     tracker.n_evals, archive)


# ---------------------------------------------------------------------------
# Hybrid: genetic exploration seeds the swarm
# ---------------------------------------------------------------------------


@dataclass
class HybridResult:
    best_position: np.ndarray
    best_value: float
    qga: QGAResult | None
    pso: TunerResult | None
    n_evals: int


def hybrid_minimize(tracker: ObjectiveTracker, bounds, *, decode_bits, n_bits: int, seed=0,
                    qga_fraction: float = 0.4) -> HybridResult:
    """Genetic phase then swarm phase under the tracker's evaluation budget.

    The first ``qga_fraction`` of the remaining budget funds whole genetic
    generations of ``HYBRID_POP_SIZE``; a swarm of ``HYBRID_PARTICLES``,
    seeded with the genetic phase's ``HYBRID_SEEDS`` distinct best points,
    consumes exactly the remainder.  The caller's ``decode_bits`` maps a
    genome of ``n_bits`` onto the box.  Returns the better of the two phases.
    """
    if not 0.0 <= qga_fraction <= 1.0:
        raise ConfigurationError("qga_fraction must lie in [0, 1]")
    if tracker.budget is None:
        raise ConfigurationError("the hybrid search needs a tracker with an evaluation budget")
    _check_bounds(bounds)
    rng = _as_rng(seed)

    qga_evals = int(round(qga_fraction * tracker.remaining()))
    n_generations = qga_evals // HYBRID_POP_SIZE
    qga_result = None
    seeds = None
    if n_generations > 0:
        qga_result = qga_minimize(
            tracker, n_bits, pop_size=HYBRID_POP_SIZE, n_generations=n_generations,
            seed=rng, decode=decode_bits,
        )
        ranked = sorted(qga_result.archive, key=lambda pair: pair[0])
        seeds, seen = [], set()
        for value, vector in ranked:
            key = tuple(np.round(np.asarray(vector, float), 12))
            if key not in seen:
                seen.add(key)
                seeds.append(np.asarray(vector, float))
            if len(seeds) == HYBRID_SEEDS:
                break

    pso_result = None
    if tracker.remaining() > 0:
        pso_result = pso_minimize(tracker, bounds, n_particles=HYBRID_PARTICLES, seed=rng,
                                  init_positions=seeds)

    candidates = []
    if qga_result is not None and qga_result.best_decoded is not None:
        candidates.append((qga_result.best_value, np.asarray(qga_result.best_decoded, float)))
    if pso_result is not None and np.isfinite(pso_result.best_value):
        candidates.append((pso_result.best_value, pso_result.best_position))
    if not candidates:
        raise ConfigurationError("budget too small: no evaluation completed")
    best_value, best_position = min(candidates, key=lambda pair: pair[0])
    return HybridResult(best_position, float(best_value), qga_result, pso_result,
                        tracker.n_evals)
