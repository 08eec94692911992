"""Population-based hyperparameter tuners.

Three minimizers over a continuous box:

* ``pso_minimize`` -- particle swarm with inertia ``w`` and cognitive/social
  pulls ``c1``/``c2``: velocities update as
  ``v <- w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x)``, positions as
  ``x <- x + v`` with clamping to the box (and velocity zeroing on the
  violated dimension).
* ``qga_minimize`` -- a genetic search over qubit-amplitude chromosomes:
  each genome bit is a normalized (alpha, beta) pair measured to a classical
  bit with probability beta^2, steered by 2x2 rotation gates toward the
  generation best, with amplitude-swap mutation.
* ``hybrid_minimize`` -- the genetic phase's best decoded points seed the
  swarm's initial positions; the remaining evaluation budget goes to the
  swarm.

Every evaluation flows through a tracker that enforces the evaluation
budget, maps non-finite objective values to +inf (flagged), and records one
trace row per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

DEFAULT_INERTIA = 0.729
DEFAULT_COGNITIVE = 1.49445
DEFAULT_SOCIAL = 1.49445
MAX_ROTATION = 0.05 * np.pi
P_MUTATION = 0.02
HYBRID_POP_SIZE = 20
HYBRID_PARTICLES = 20
HYBRID_BITS_PER_DIM = 12  # genome resolution per box dimension without a custom decoder
HYBRID_SEEDS = 3  # distinct genetic-phase bests that seed the swarm


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class BudgetExhausted(Exception):
    """Internal control flow: the evaluation budget ran out."""


class ObjectiveTracker:
    """Counts, traces, and sanitizes objective evaluations.

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

    def remaining(self) -> int | None:
        if self.budget is None:
            return None
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


def _ensure_tracker(objective, budget, trace) -> ObjectiveTracker:
    if isinstance(objective, ObjectiveTracker):
        return objective
    return ObjectiveTracker(objective, budget=budget, trace=trace)


# ---------------------------------------------------------------------------
# Particle swarm
# ---------------------------------------------------------------------------


@dataclass
class Particle:
    position: np.ndarray
    velocity: np.ndarray
    best_position: np.ndarray
    best_value: float


@dataclass
class Swarm:
    particles: list
    best_position: np.ndarray
    best_value: float
    w: float = DEFAULT_INERTIA
    c1: float = DEFAULT_COGNITIVE
    c2: float = DEFAULT_SOCIAL


@dataclass
class TunerResult:
    best_position: np.ndarray
    best_value: float
    history: list  # best value after each iteration/generation
    n_evals: int
    n_non_finite: int = 0


def _check_bounds(bounds) -> tuple[np.ndarray, np.ndarray]:
    lows = np.array([b[0] for b in bounds], dtype=float)
    highs = np.array([b[1] for b in bounds], dtype=float)
    if np.any(lows > highs):
        raise ConfigurationError("every bound must satisfy low <= high")
    return lows, highs


def init_swarm(tracker: ObjectiveTracker, bounds, n_particles: int, rng,
               init_positions=None, w=DEFAULT_INERTIA, c1=DEFAULT_COGNITIVE,
               c2=DEFAULT_SOCIAL) -> Swarm:
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

    particles = []
    best_position, best_value = None, np.inf
    for i in range(n_particles):
        try:
            value = tracker(positions[i], "pso", 0)
        except BudgetExhausted:
            value = np.inf  # unevaluated stragglers keep an infinite pbest
        particles.append(Particle(positions[i].copy(), velocities[i].copy(),
                                  positions[i].copy(), value))
        if value < best_value:
            best_position, best_value = positions[i].copy(), value
    if best_position is None:
        best_position = positions[0].copy()
    return Swarm(particles, best_position, best_value, w=w, c1=c1, c2=c2)


def pso_step(swarm: Swarm, tracker: ObjectiveTracker, bounds, rng,
             iteration: int = 0) -> Swarm:
    """One velocity/position/evaluation sweep; the swarm best never worsens."""
    lows, highs = _check_bounds(bounds)
    for particle in swarm.particles:
        r1 = rng.uniform(size=particle.position.shape)
        r2 = rng.uniform(size=particle.position.shape)
        particle.velocity = (
            swarm.w * particle.velocity
            + swarm.c1 * r1 * (particle.best_position - particle.position)
            + swarm.c2 * r2 * (swarm.best_position - particle.position)
        )
        particle.position = particle.position + particle.velocity
        below = particle.position < lows
        above = particle.position > highs
        if below.any() or above.any():
            particle.position = np.clip(particle.position, lows, highs)
            particle.velocity[below | above] = 0.0
    for particle in swarm.particles:
        value = tracker(particle.position, "pso", iteration)
        if value < particle.best_value:
            particle.best_value = value
            particle.best_position = particle.position.copy()
        if value < swarm.best_value:
            swarm.best_value = value
            swarm.best_position = particle.position.copy()
    return swarm


def pso_minimize(objective, bounds, *, n_particles: int = 20, n_iterations: int = 100,
                 seed=0, init_positions=None, budget: int | None = None,
                 trace: list | None = None) -> TunerResult:
    """Particle-swarm minimization over a box.

    Stops after ``n_iterations`` sweeps or when the evaluation ``budget``
    runs out, whichever comes first.
    """
    if n_particles < 1:
        raise ConfigurationError("need at least one particle")
    rng = _as_rng(seed)
    tracker = _ensure_tracker(objective, budget, trace)
    swarm = init_swarm(tracker, bounds, n_particles, rng, init_positions=init_positions)
    history = [swarm.best_value]
    for it in range(1, n_iterations + 1):
        if tracker.remaining() is not None and tracker.remaining() <= 0:
            break
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


@dataclass
class QuantumChromosome:
    """Per-bit (alpha, beta) amplitude pairs with |alpha|^2 + |beta|^2 = 1."""

    alpha: np.ndarray
    beta: np.ndarray

    @classmethod
    def uniform(cls, n_bits: int) -> "QuantumChromosome":
        amp = np.full(n_bits, 1.0 / np.sqrt(2.0))
        return cls(amp.copy(), amp.copy())

    def normalization_error(self) -> float:
        return float(np.max(np.abs(self.alpha**2 + self.beta**2 - 1.0)))

    def measure(self, rng) -> np.ndarray:
        return (rng.random(self.alpha.shape) < self.beta**2).astype(int)

    def rotate(self, angles) -> None:
        """Apply per-bit 2x2 rotations [[cos,-sin],[sin,cos]]; exactly norm-preserving."""
        c, s = np.cos(angles), np.sin(angles)
        alpha = c * self.alpha - s * self.beta
        beta = s * self.alpha + c * self.beta
        self.alpha, self.beta = alpha, beta

    def swap_mutate(self, mask) -> None:
        alpha = np.where(mask, self.beta, self.alpha)
        beta = np.where(mask, self.alpha, self.beta)
        self.alpha, self.beta = alpha, beta


@dataclass(frozen=True)
class RotationPolicy:
    """Signed rotation magnitudes steering measured bits toward the best bits.

    Positive angles push amplitude toward |1>.  When a candidate is worse
    than the generation best it is pulled toward the best individual's bit
    with the large magnitude; when at least as good, it is nudged toward its
    own bit with the small one.  Bits that already agree stay put.
    """

    toward_best: float = 0.05 * np.pi
    toward_own: float = 0.01 * np.pi

    def __post_init__(self):
        if not (0 <= self.toward_best <= MAX_ROTATION and 0 <= self.toward_own <= MAX_ROTATION):
            raise ConfigurationError(f"rotation magnitudes must lie in [0, {MAX_ROTATION}]")

    def angles(self, bits, best_bits, at_least_as_fit: bool) -> np.ndarray:
        bits = np.asarray(bits)
        best_bits = np.asarray(best_bits)
        disagree = bits != best_bits
        if at_least_as_fit:
            direction = np.where(bits == 1, 1.0, -1.0)
            return np.where(disagree, direction * self.toward_own, 0.0)
        direction = np.where(best_bits == 1, 1.0, -1.0)
        return np.where(disagree, direction * self.toward_best, 0.0)


@dataclass
class QGAResult:
    best_bits: np.ndarray
    best_value: float
    best_decoded: object
    history: list
    n_evals: int
    archive: list = field(default_factory=list)  # (value, decoded) per evaluation


def qga_minimize(objective, n_bits: int, *, pop_size: int = 20, n_generations: int = 50,
                 seed=0, policy: RotationPolicy | None = None,
                 p_mutation: float = P_MUTATION, decode=None) -> QGAResult:
    """Genetic minimization on qubit-amplitude chromosomes.

    ``decode`` maps a measured bit array to the objective's argument (and to
    the archive/result payload); without it the objective sees raw bits.
    """
    if pop_size < 1:
        raise ConfigurationError("population must be non-empty")
    if n_bits < 1:
        raise ConfigurationError("genome needs at least one bit")
    policy = policy or RotationPolicy()
    rng = _as_rng(seed)
    tracker = _ensure_tracker(objective, None, None)
    population = [QuantumChromosome.uniform(n_bits) for _ in range(pop_size)]

    best_bits, best_value, best_decoded = None, np.inf, None
    history = []
    archive = []
    for gen in range(n_generations):
        measured = [chrom.measure(rng) for chrom in population]
        values = []
        exhausted = False
        for bits in measured:
            decoded = decode(bits) if decode is not None else bits.copy()
            try:
                value = tracker(decoded, "qga", gen)
            except BudgetExhausted:
                exhausted = True
                break
            values.append(value)
            archive.append((value, decoded))
            if value < best_value:
                best_bits, best_value, best_decoded = bits.copy(), value, decoded
        if exhausted or not values:
            break
        gen_best = int(np.argmin(values))
        gen_best_bits = measured[gen_best]
        gen_best_value = values[gen_best]
        for chrom, bits, value in zip(population, measured, values):
            angles = policy.angles(bits, gen_best_bits, value <= gen_best_value)
            chrom.rotate(angles)
        if p_mutation > 0.0:
            for chrom in population:
                chrom.swap_mutate(rng.random(n_bits) < p_mutation)
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


def hybrid_minimize(objective, bounds, *, budget: int = 200, seed=0,
                    qga_fraction: float = 0.4, trace: list | None = None,
                    decode_bits=None, n_bits: int | None = None) -> HybridResult:
    """Genetic phase then swarm phase under one evaluation budget.

    The first ``qga_fraction`` of the budget funds whole genetic
    generations of ``HYBRID_POP_SIZE``; a swarm of ``HYBRID_PARTICLES``,
    seeded with the genetic phase's ``HYBRID_SEEDS`` distinct best points,
    consumes exactly the remainder.  ``decode_bits`` maps a genome of
    ``n_bits`` onto the box; without it each dimension gets
    ``HYBRID_BITS_PER_DIM`` Gray-coded bits.  Returns the better of the two
    phases.
    """
    if not 0.0 <= qga_fraction <= 1.0:
        raise ConfigurationError("qga_fraction must lie in [0, 1]")
    lows, highs = _check_bounds(bounds)
    d = len(lows)
    rng = _as_rng(seed)
    tracker = _ensure_tracker(objective, budget, trace)

    if decode_bits is None:
        from .hyperspace import gray_fraction

        spans = highs - lows

        def decode_bits(bits):
            vector = np.empty(d)
            for j in range(d):
                chunk = bits[j * HYBRID_BITS_PER_DIM : (j + 1) * HYBRID_BITS_PER_DIM]
                vector[j] = lows[j] + spans[j] * gray_fraction(chunk)
            return vector

        n_bits = d * HYBRID_BITS_PER_DIM
    elif n_bits is None:
        raise ConfigurationError("a custom decode_bits needs an explicit n_bits")

    qga_evals = int(round(qga_fraction * budget))
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
    if tracker.remaining() is None or tracker.remaining() > 0:
        pso_result = pso_minimize(
            tracker, bounds, n_particles=HYBRID_PARTICLES, n_iterations=10**9,
            seed=rng, init_positions=seeds,
        )

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
