import numpy as np
import pytest

from qforecast.errors import ConfigurationError
from qforecast.hyperspace import SearchSpace, gray_fraction
from qforecast.metaheuristics import (
    COGNITIVE,
    INERTIA,
    SOCIAL,
    TOWARD_BEST,
    TOWARD_OWN,
    ObjectiveTracker,
    hybrid_minimize,
    init_swarm,
    pso_minimize,
    pso_step,
    qga_minimize,
    rotate,
    rotation_angles,
    swap_mutate,
)

from objectives import RASTRIGIN_BOUNDS, SPHERE_BOUNDS, gray_genome, one_max, rastrigin, sphere


# ---------------------------------------------------------------------------
# Particle swarm
# ---------------------------------------------------------------------------


def test_pso_step_matches_hand_computed_update():
    rng = np.random.default_rng(0)
    tracker = ObjectiveTracker(sphere)
    bounds = [(-100.0, 100.0)] * 3
    swarm = init_swarm(tracker, bounds, 5, rng)
    swarm.velocity = rng.normal(scale=60.0, size=(5, 3))  # some particles leave the box
    swarm.pbest = rng.uniform(-100.0, 100.0, size=(5, 3))
    x, v, pbest, gbest = (swarm.position.copy(), swarm.velocity.copy(), swarm.pbest.copy(),
                          swarm.best_position.copy())
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    pso_step(swarm, tracker, bounds, rng)
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
    tracker = ObjectiveTracker(sphere)
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
    result = pso_minimize(ObjectiveTracker(sphere, budget=20 * 201), [SPHERE_BOUNDS] * 4,
                          n_particles=20, seed=42)
    assert result.best_value < 1e-3


def test_gbest_monotone_and_in_bounds():
    trace = []
    result = pso_minimize(ObjectiveTracker(rastrigin, budget=10 * 41, trace=trace),
                          [RASTRIGIN_BOUNDS] * 3, n_particles=10, seed=3)
    assert all(b <= a + 1e-15 for a, b in zip(result.history, result.history[1:]))
    for row in trace:
        assert all(RASTRIGIN_BOUNDS[0] <= v <= RASTRIGIN_BOUNDS[1] for v in row["config"])


def test_nan_objective_becomes_inf_and_is_flagged():
    calls = {"n": 0}

    def sometimes_nan(x):
        calls["n"] += 1
        return float("nan") if calls["n"] % 3 == 0 else sphere(x)

    result = pso_minimize(ObjectiveTracker(sometimes_nan, budget=6 * 6), [SPHERE_BOUNDS] * 2,
                          n_particles=6, seed=0)
    assert result.n_non_finite > 0
    assert np.isfinite(result.best_value)


def test_pso_deterministic():
    a, b = (pso_minimize(ObjectiveTracker(rastrigin, budget=8 * 31), [RASTRIGIN_BOUNDS] * 3,
                         n_particles=8, seed=9) for _ in range(2))
    assert a.best_value == b.best_value
    np.testing.assert_array_equal(a.best_position, b.best_position)


def test_budget_caps_evaluations():
    trace = []
    result = pso_minimize(ObjectiveTracker(sphere, budget=50, trace=trace), [SPHERE_BOUNDS] * 2,
                          n_particles=7, seed=2)
    assert result.n_evals == 50
    assert len(trace) == 50


@pytest.mark.parametrize("search", [pso_minimize, hybrid_minimize])
def test_unbudgeted_tracker_is_refused(search):
    def objective(x):
        raise AssertionError("the objective must not run")

    bounds = [SPHERE_BOUNDS] * 2
    decoder = gray_genome(bounds) if search is hybrid_minimize else {}
    with pytest.raises(ConfigurationError, match="evaluation budget"):
        search(ObjectiveTracker(objective), bounds, seed=0, **decoder)


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
    result = qga_minimize(ObjectiveTracker(one_max), 8, pop_size=6, n_generations=5, seed=4,
                          decode=np.copy)
    assert result.n_evals == 30


def test_one_max_criterion():
    result = qga_minimize(ObjectiveTracker(one_max), 16, pop_size=20, n_generations=50, seed=7,
                          decode=np.copy)
    assert result.best_value == -16.0
    assert np.all(result.best_bits == 1)


def test_qga_deterministic():
    a, b = (qga_minimize(ObjectiveTracker(one_max), 12, pop_size=10, n_generations=20, seed=11,
                         decode=np.copy)
            for _ in range(2))
    assert a.best_value == b.best_value
    np.testing.assert_array_equal(a.best_bits, b.best_bits)


def test_empty_population_rejected():
    with pytest.raises(ConfigurationError):
        qga_minimize(ObjectiveTracker(one_max), 8, pop_size=0, n_generations=5, seed=0,
                     decode=np.copy)


# ---------------------------------------------------------------------------
# Hybrid
# ---------------------------------------------------------------------------


def test_full_genetic_budget_returns_its_best_exactly():
    bounds = [SPHERE_BOUNDS] * 2
    result = hybrid_minimize(ObjectiveTracker(sphere, budget=200), bounds, seed=6,
                             qga_fraction=1.0, **gray_genome(bounds))
    assert result.pso is None
    assert result.best_value == result.qga.best_value
    np.testing.assert_array_equal(result.best_position, np.asarray(result.qga.best_decoded))


def test_zero_genetic_budget_equals_plain_swarm():
    budget = 300
    bounds = [RASTRIGIN_BOUNDS] * 3
    hybrid = hybrid_minimize(ObjectiveTracker(rastrigin, budget=budget), bounds,
                             seed=13, qga_fraction=0.0, **gray_genome(bounds))
    plain = pso_minimize(ObjectiveTracker(rastrigin, budget=budget), [RASTRIGIN_BOUNDS] * 3,
                         n_particles=20, seed=13)
    assert hybrid.qga is None
    assert hybrid.best_value == plain.best_value
    np.testing.assert_array_equal(hybrid.best_position, plain.best_position)


def test_hybrid_budget_is_exact():
    trace = []
    bounds = [SPHERE_BOUNDS] * 3
    result = hybrid_minimize(ObjectiveTracker(sphere, budget=137, trace=trace), bounds,
                             seed=1, **gray_genome(bounds))
    assert result.n_evals == 137
    assert len(trace) == 137
    phases = {row["phase"] for row in trace}
    assert phases == {"qga", "pso"}


def test_hybrid_splits_the_tracker_budget():
    # 0.4 * 60 evaluations fund one genetic generation of 20; the swarm gets the other 40
    trace = []
    bounds = [RASTRIGIN_BOUNDS] * 3
    result = hybrid_minimize(ObjectiveTracker(rastrigin, budget=60, trace=trace), bounds,
                             seed=1, **gray_genome(bounds))
    phases = [row["phase"] for row in trace]
    assert (phases.count("qga"), phases.count("pso")) == (20, 40)
    assert result.qga.n_evals == 20 and result.n_evals == 60


def test_hybrid_not_worse_than_plain_on_rastrigin_medians():
    budget = 2000
    bounds = [RASTRIGIN_BOUNDS] * 4
    hybrid_finals, plain_finals = [], []
    for seed in range(10):
        hybrid_finals.append(
            hybrid_minimize(ObjectiveTracker(rastrigin, budget=budget), bounds,
                            seed=seed, **gray_genome(bounds)).best_value
        )
        plain_finals.append(
            pso_minimize(ObjectiveTracker(rastrigin, budget=budget), bounds, n_particles=20,
                         seed=seed).best_value
        )
    assert np.median(hybrid_finals) <= np.median(plain_finals)


def test_hybrid_deterministic():
    bounds = [RASTRIGIN_BOUNDS] * 2
    a, b = (hybrid_minimize(ObjectiveTracker(rastrigin, budget=400), bounds, seed=21,
                            **gray_genome(bounds)) for _ in range(2))
    assert a.best_value == b.best_value
    np.testing.assert_array_equal(a.best_position, b.best_position)


# ---------------------------------------------------------------------------
# Search-space codec
# ---------------------------------------------------------------------------


def test_every_bitstring_decodes_to_a_valid_config():
    space = SearchSpace.default(sequence_length=3, epochs=5)
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
    space = SearchSpace.default(sequence_length=3, epochs=5)
    dim = space.dimensions[1]  # n_layers in [1, 3]
    assert dim.decode(1.5) == 2
    assert dim.decode(2.49) == 2
    assert dim.decode(2.5) == 3


def test_gray_fraction_endpoints():
    assert gray_fraction([0, 0, 0, 0]) == 0.0
    assert gray_fraction([1, 0, 0, 0]) == 1.0  # gray 1000 -> binary 1111
