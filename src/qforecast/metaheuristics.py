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
+inf (flagged) and records one trace row per call.  Every tracker has a
budget, and the swarm and the hybrid run until it is spent.  The trace is a
search's only result: the swarm and the hybrid return nothing, and the
genetic search returns only the archive that seeds the hybrid's swarm.
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
HYBRID_POP_SIZE = 20  # genetic population of the hybrid
HYBRID_PARTICLES = 20  # swarm size of the hybrid
HYBRID_SEEDS = 3  # distinct genetic-phase bests that seed the swarm
HYBRID_QGA_FRACTION = 0.4  # share of the hybrid's budget that funds genetic generations


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class BudgetExhausted(Exception):
    """Internal control flow: the evaluation budget ran out."""


class ObjectiveTracker:
    """Counts, caps, traces, and sanitizes objective evaluations.

    Each call appends one row to ``trace``: the phase, the iteration, the
    query point as ``describe`` gives it (the tune command stores decoded
    configurations) and the sanitized objective value.
    """

    def __init__(self, objective, budget: int, describe):
        self.objective = objective
        self.budget = budget
        self.trace: list = []
        self.describe = describe
        self.n_evals = 0
        self.n_non_finite = 0

    def remaining(self) -> int:
        return self.budget - self.n_evals

    def __call__(self, x, phase: str, iteration: int) -> float:
        if self.n_evals >= self.budget:
            raise BudgetExhausted
        self.n_evals += 1
        value = float(self.objective(x))
        if not np.isfinite(value):
            self.n_non_finite += 1
            value = float("inf")
        self.trace.append({"phase": phase, "iteration": iteration,
                           "config": self.describe(x), "objective": value})
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
               init_positions) -> Swarm:
    """Seeded swarm; the first particles start at ``init_positions`` (None
    for none)."""
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
             iteration: int) -> Swarm:
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


def pso_minimize(tracker: ObjectiveTracker, bounds, *, n_particles: int, seed,
                 init_positions) -> None:
    """Particle-swarm minimization over a box: sweeps the swarm until the
    tracker's evaluation budget is spent."""
    if n_particles < 1:
        raise ConfigurationError("need at least one particle")
    rng = _as_rng(seed)
    swarm = init_swarm(tracker, bounds, n_particles, rng, init_positions=init_positions)
    it = 0
    while tracker.remaining() > 0:
        it += 1
        try:
            pso_step(swarm, tracker, bounds, rng, iteration=it)
        except BudgetExhausted:
            break


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


def qga_minimize(tracker: ObjectiveTracker, n_bits: int, *, decode,
                 pop_size: int, n_generations: int, seed) -> list:
    """Genetic minimization on qubit-amplitude chromosomes.

    Stops after ``n_generations``, or at the first generation the tracker's
    budget cuts short.  ``decode`` maps a measured bit array to the
    objective's argument.  Returns the archive, one ``(value, decoded)``
    pair per evaluation in order.
    """
    if pop_size < 1:
        raise ConfigurationError("population must be non-empty")
    if n_bits < 1:
        raise ConfigurationError("genome needs at least one bit")
    rng = _as_rng(seed)
    alpha = np.full((pop_size, n_bits), 1.0 / np.sqrt(2.0))
    beta = alpha.copy()

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
        if len(values) < pop_size:
            break
        alpha, beta = rotate(alpha, beta, rotation_angles(measured, values))
        alpha, beta = swap_mutate(alpha, beta, rng.random((pop_size, n_bits)) < P_MUTATION)
    return archive


# ---------------------------------------------------------------------------
# Hybrid: genetic exploration seeds the swarm
# ---------------------------------------------------------------------------


def hybrid_minimize(tracker: ObjectiveTracker, bounds, *, decode_bits, n_bits: int,
                    seed) -> None:
    """Genetic phase then swarm phase under the tracker's evaluation budget.

    ``HYBRID_QGA_FRACTION`` of the remaining budget funds whole genetic
    generations of ``HYBRID_POP_SIZE``, and at least one whenever the budget
    holds a generation and a swarm sweep; a swarm of ``HYBRID_PARTICLES``,
    seeded with the genetic phase's ``HYBRID_SEEDS`` distinct best points,
    consumes exactly the remainder.  The caller's ``decode_bits`` maps a
    genome of ``n_bits`` onto the box.
    """
    _check_bounds(bounds)
    rng = _as_rng(seed)

    n_generations = int(round(HYBRID_QGA_FRACTION * tracker.remaining())) // HYBRID_POP_SIZE
    if tracker.remaining() >= HYBRID_POP_SIZE + HYBRID_PARTICLES:
        n_generations = max(n_generations, 1)
    seeds = None
    if n_generations > 0:
        archive = qga_minimize(
            tracker, n_bits, pop_size=HYBRID_POP_SIZE, n_generations=n_generations,
            seed=rng, decode=decode_bits,
        )
        ranked = sorted(archive, key=lambda pair: pair[0])
        seeds, seen = [], set()
        for value, vector in ranked:
            key = tuple(np.round(np.asarray(vector, float), 12))
            if key not in seen:
                seen.add(key)
                seeds.append(np.asarray(vector, float))
            if len(seeds) == HYBRID_SEEDS:
                break

    if tracker.remaining() > 0:
        pso_minimize(tracker, bounds, n_particles=HYBRID_PARTICLES, seed=rng,
                     init_positions=seeds)
