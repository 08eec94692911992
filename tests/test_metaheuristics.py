import numpy as np
import pytest

from qforecast.errors import ConfigurationError
from qforecast.hyperspace import SearchSpace, gray_fraction
from qforecast.metaheuristics import (
    COGNITIVE,
    HYBRID_PARTICLES,
    HYBRID_POP_SIZE,
    INERTIA,
    SOCIAL,
    TOWARD_BEST,
    TOWARD_OWN,
    hybrid_minimize,
    init_swarm,
    pso_minimize,
    pso_step,
    qga_minimize,
    rotate,
    rotation_angles,
    swap_mutate,
)

from objectives import (
    RASTRIGIN_BOUNDS,
    SPHERE_BOUNDS,
    best_row,
    gray_genome,
    make_tracker,
    one_max,
    rastrigin,
    sphere,
)


# ---------------------------------------------------------------------------
# Particle swarm
# ---------------------------------------------------------------------------


def test_pso_step_matches_hand_computed_update():
    rng = np.random.default_rng(0)
    tracker = make_tracker(sphere, budget=5 + 5)  # the initial sweep and one step
    bounds = [(-100.0, 100.0)] * 3
    swarm = init_swarm(tracker, bounds, 5, rng, init_positions=None)
    swarm.velocity = rng.normal(scale=60.0, size=(5, 3))  # some particles leave the box
    swarm.pbest = rng.uniform(-100.0, 100.0, size=(5, 3))
    x, v, pbest, gbest = (swarm.position.copy(), swarm.velocity.copy(), swarm.pbest.copy(),
                          swarm.best_position.copy())
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    pso_step(swarm, tracker, bounds, rng, iteration=0)
    clamped = 0
    for i in range(5):
        r1, r2 = twin.uniform(size=3), twin.uniform(size=3)
        vel = INERTIA * v[i] + COGNITIVE * r1 * (pbest[i] - x[i]) + SOCIAL * r2 * (gbest - x[i])
        pos = x[i] + vel
        outside = np.abs(pos) > 100.0
        clamped += outside.sum()
        vel[outside] = 0.0
        np.testing.assert_array_equal(swarm.velocity[i], vel)
        np.testing.assert_array_equal(swarm.position[i], np.clip(pos, -100.0, 100.0))
    assert clamped > 0


def test_particle_at_global_best_with_zero_velocity_stays():
    rng = np.random.default_rng(1)
    tracker = make_tracker(sphere, budget=1 + 10)  # the initial sweep and ten steps
    bounds = [SPHERE_BOUNDS] * 2
    start = np.array([0.5, -0.5])
    swarm = init_swarm(tracker, bounds, 1, rng, init_positions=[start])
    assert np.array_equal(swarm.best_position, start)
    for it in range(10):
        pso_step(swarm, tracker, bounds, rng, iteration=it)
        np.testing.assert_array_equal(swarm.position[0], start)
        np.testing.assert_array_equal(swarm.velocity[0], np.zeros(2))


def test_sphere_benchmark_criterion():
    # 200 sweeps of 20 particles after the initial one
    tracker = make_tracker(sphere, budget=20 * 201)
    pso_minimize(tracker, [SPHERE_BOUNDS] * 4, n_particles=20, seed=42, init_positions=None)
    assert best_row(tracker)["objective"] < 1e-3


def test_gbest_monotone_and_in_bounds():
    # pso_minimize's sweeps one at a time: the swarm best never worsens, and
    # it ends at the trace's lowest objective
    rng = np.random.default_rng(3)
    tracker = make_tracker(rastrigin, budget=10 * 41)
    bounds = [RASTRIGIN_BOUNDS] * 3
    swarm = init_swarm(tracker, bounds, 10, rng, init_positions=None)
    bests = [swarm.best_value]
    for it in range(1, 41):
        pso_step(swarm, tracker, bounds, rng, iteration=it)
        bests.append(swarm.best_value)
    assert all(b <= a + 1e-15 for a, b in zip(bests, bests[1:]))
    assert bests[-1] == best_row(tracker)["objective"]
    for row in tracker.trace:
        assert all(RASTRIGIN_BOUNDS[0] <= v <= RASTRIGIN_BOUNDS[1] for v in row["config"])


def test_nan_objective_becomes_inf_and_is_flagged():
    calls = {"n": 0}

    def sometimes_nan(x):
        calls["n"] += 1
        return float("nan") if calls["n"] % 3 == 0 else sphere(x)

    tracker = make_tracker(sometimes_nan, budget=6 * 6)
    pso_minimize(tracker, [SPHERE_BOUNDS] * 2, n_particles=6, seed=0, init_positions=None)
    assert tracker.n_non_finite > 0
    assert np.isfinite(best_row(tracker)["objective"])


def test_pso_deterministic():
    a, b = (make_tracker(rastrigin, budget=8 * 31) for _ in range(2))
    for tracker in (a, b):
        pso_minimize(tracker, [RASTRIGIN_BOUNDS] * 3, n_particles=8, seed=9,
                     init_positions=None)
    assert a.trace == b.trace


def test_budget_caps_evaluations():
    tracker = make_tracker(sphere, budget=50)
    pso_minimize(tracker, [SPHERE_BOUNDS] * 2, n_particles=7, seed=2, init_positions=None)
    assert tracker.n_evals == 50
    assert len(tracker.trace) == 50


# ---------------------------------------------------------------------------
# Genetic search on qubit amplitudes
# ---------------------------------------------------------------------------


def test_rotation_is_orthogonal():
    rng = np.random.default_rng(5)
    alpha = np.full((4, 12), 1.0 / np.sqrt(2.0))
    beta = alpha.copy()
    for _ in range(500):
        alpha, beta = rotate(alpha, beta, rng.uniform(-TOWARD_BEST, TOWARD_BEST, size=(4, 12)))
        alpha, beta = swap_mutate(alpha, beta, rng.random((4, 12)) < 0.1)
        assert np.max(np.abs(alpha**2 + beta**2 - 1.0)) < 1e-12
    # zero angles are exactly the identity
    still = rotate(alpha, beta, np.zeros((4, 12)))
    np.testing.assert_array_equal(still[0], alpha)
    np.testing.assert_array_equal(still[1], beta)


def test_rotation_angles_steer_toward_best_or_own_bits():
    bits = np.array([[1, 0, 1], [0, 0, 1], [0, 1, 1], [1, 1, 0]])
    values = [2.0, 1.0, 3.0, 1.0]  # row 1 is the generation best; row 3 ties it
    expected = np.array([
        [-TOWARD_BEST, 0.0, 0.0],  # worse: pulled toward the best's bits
        [0.0, 0.0, 0.0],
        [0.0, -TOWARD_BEST, 0.0],
        [TOWARD_OWN, TOWARD_OWN, -TOWARD_OWN],  # as fit: nudged toward its own bits
    ])
    np.testing.assert_array_equal(rotation_angles(bits, values), expected)


def test_qga_spends_pop_times_generations_evaluations():
    tracker = make_tracker(one_max, budget=6 * 5)
    archive = qga_minimize(tracker, 8, pop_size=6, n_generations=5, seed=4, decode=np.copy)
    assert tracker.n_evals == len(archive) == 30


def test_one_max_criterion():
    archive = qga_minimize(make_tracker(one_max, budget=20 * 50), 16, pop_size=20,
                           n_generations=50, seed=7, decode=np.copy)
    best_value, best_decoded = min(archive, key=lambda pair: pair[0])
    assert best_value == -16.0
    assert np.all(best_decoded == 1)  # decode=np.copy: the best measured bits


def test_qga_deterministic():
    a, b = (make_tracker(one_max, budget=10 * 20) for _ in range(2))
    for tracker in (a, b):
        qga_minimize(tracker, 12, pop_size=10, n_generations=20, seed=11, decode=np.copy)
    assert a.trace == b.trace


def test_empty_population_rejected():
    with pytest.raises(ConfigurationError):
        qga_minimize(make_tracker(one_max, budget=5), 8, pop_size=0, n_generations=5, seed=0,
                     decode=np.copy)


# ---------------------------------------------------------------------------
# Hybrid
# ---------------------------------------------------------------------------


def test_zero_genetic_budget_equals_plain_swarm():
    # a budget below one generation and one swarm sweep funds no generation
    budget = HYBRID_POP_SIZE + HYBRID_PARTICLES - 1
    bounds = [RASTRIGIN_BOUNDS] * 3
    hybrid, plain = (make_tracker(rastrigin, budget=budget) for _ in range(2))
    hybrid_minimize(hybrid, bounds, seed=13, **gray_genome(bounds))
    pso_minimize(plain, bounds, n_particles=20, seed=13, init_positions=None)
    assert "qga" not in {row["phase"] for row in hybrid.trace}
    assert hybrid.trace == plain.trace


@pytest.mark.parametrize("budget, generations", [(39, 0), (40, 1), (48, 1), (49, 1), (100, 2)])
def test_hybrid_runs_a_generation_once_the_budget_holds_one_and_a_sweep(budget, generations):
    tracker = make_tracker(rastrigin, budget=budget)
    bounds = [RASTRIGIN_BOUNDS] * 2
    hybrid_minimize(tracker, bounds, seed=2, **gray_genome(bounds))
    phases = [row["phase"] for row in tracker.trace]
    assert phases.count("qga") == generations * HYBRID_POP_SIZE
    assert phases.count("pso") == budget - generations * HYBRID_POP_SIZE


def test_hybrid_budget_is_exact():
    tracker = make_tracker(sphere, budget=137)
    bounds = [SPHERE_BOUNDS] * 3
    hybrid_minimize(tracker, bounds, seed=1, **gray_genome(bounds))
    assert tracker.n_evals == 137
    assert len(tracker.trace) == 137
    phases = {row["phase"] for row in tracker.trace}
    assert phases == {"qga", "pso"}


def test_hybrid_splits_the_tracker_budget():
    # 0.4 * 60 evaluations fund one genetic generation of 20; the swarm gets the other 40
    tracker = make_tracker(rastrigin, budget=60)
    bounds = [RASTRIGIN_BOUNDS] * 3
    hybrid_minimize(tracker, bounds, seed=1, **gray_genome(bounds))
    phases = [row["phase"] for row in tracker.trace]
    assert (phases.count("qga"), phases.count("pso")) == (20, 40)
    # the genetic phase ran first and ended after 20 evaluations
    assert phases[:20] == ["qga"] * 20 and tracker.n_evals == 60


def test_hybrid_not_worse_than_plain_on_rastrigin_medians():
    budget = 2000
    bounds = [RASTRIGIN_BOUNDS] * 4
    hybrid_finals, plain_finals = [], []
    for seed in range(10):
        hybrid, plain = (make_tracker(rastrigin, budget=budget) for _ in range(2))
        hybrid_minimize(hybrid, bounds, seed=seed, **gray_genome(bounds))
        pso_minimize(plain, bounds, n_particles=20, seed=seed, init_positions=None)
        hybrid_finals.append(best_row(hybrid)["objective"])
        plain_finals.append(best_row(plain)["objective"])
    assert np.median(hybrid_finals) <= np.median(plain_finals)


def test_hybrid_deterministic():
    bounds = [RASTRIGIN_BOUNDS] * 2
    a, b = (make_tracker(rastrigin, budget=400) for _ in range(2))
    for tracker in (a, b):
        hybrid_minimize(tracker, bounds, seed=21, **gray_genome(bounds))
    assert a.trace == b.trace


# ---------------------------------------------------------------------------
# Search-space codec
# ---------------------------------------------------------------------------


def test_every_bitstring_decodes_to_a_valid_config():
    space = SearchSpace.default(sequence_length=3, epochs=5, qubit_bounds=(2, 6),
                                 layer_bounds=(1, 3))
    rng = np.random.default_rng(17)
    for _ in range(200):
        bits = rng.integers(0, 2, size=space.total_bits)
        config = space.decode_vector(space.decode_bits(bits))
        assert 1e-4 <= config.learning_rate <= 0.2
        assert 1 <= config.n_layers <= 3
        assert 2 <= config.n_qubits <= 6
        assert 2 <= config.hidden_units <= 8
        assert 16 <= config.batch_size <= 256
        assert config.sequence_length == 3 and config.epochs == 5


def test_integer_rounding_half_up():
    space = SearchSpace.default(sequence_length=3, epochs=5, qubit_bounds=(2, 6),
                                 layer_bounds=(1, 3))
    dim = space.dimensions[1]  # n_layers in [1, 3]
    assert dim.decode(1.5) == 2
    assert dim.decode(2.49) == 2
    assert dim.decode(2.5) == 3


def test_gray_fraction_endpoints():
    assert gray_fraction([0, 0, 0, 0]) == 0.0
    assert gray_fraction([1, 0, 0, 0]) == 1.0  # gray 1000 -> binary 1111
