"""Pinned tuner outputs: any change to a random stream or update order shows here.

Each case hashes everything a tuner run yields -- its tracker's trace rows
and counts, and the genetic search's archive -- as JSON, whose float repr
round-trips exactly, so the digests hold only for bit-identical runs.  A
hybrid run's genetic and swarm phases show in its trace rows, tagged by
phase; below 40 evaluations it runs no generation.  The BO case also pins
the GP path's rounding: its Cholesky factors, solves and minimizer steps.
"""

import hashlib
import json

import numpy as np
import pytest

from qforecast.bayesopt import bo_minimize_unit
from qforecast.hyperspace import SearchSpace
from qforecast.metaheuristics import ObjectiveTracker, hybrid_minimize, pso_minimize, qga_minimize

from objectives import (
    RASTRIGIN_BOUNDS,
    SPHERE_BOUNDS,
    gray_genome,
    make_tracker,
    one_max,
    rastrigin,
    sphere,
)


def plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, np.generic):
        return value.item()
    return value


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(plain(payload), sort_keys=True).encode()).hexdigest()


def tracked(tracker):
    return [tracker.trace, tracker.n_evals, tracker.n_non_finite]


def pso_free():
    # the initial sweep and 15 more of 8 particles
    tracker = make_tracker(rastrigin, budget=8 * 16)
    pso_minimize(tracker, [RASTRIGIN_BOUNDS] * 3, n_particles=8, seed=9, init_positions=None)
    return tracked(tracker)


def pso_budget():
    # 50 evaluations end mid-sweep; 5 end inside the initial sweep
    runs = []
    for budget in (50, 5):
        tracker = make_tracker(sphere, budget=budget)
        pso_minimize(tracker, [SPHERE_BOUNDS] * 2, n_particles=7, seed=2, init_positions=None)
        runs.append(tracked(tracker))
    return runs


def qga():
    tracker = make_tracker(one_max, budget=10 * 20)  # every generation
    archive = qga_minimize(tracker, 12, pop_size=10, n_generations=20, seed=11, decode=np.copy)
    return [tracked(tracker), archive]


def hybrid(budget):
    tracker = make_tracker(rastrigin, budget=budget)
    bounds = [RASTRIGIN_BOUNDS] * 3
    hybrid_minimize(tracker, bounds, seed=1, **gray_genome(bounds))
    return tracked(tracker)


def hybrid_search_space():
    """The CLI's form: genomes decoded by a SearchSpace, scores tied across configurations."""
    space = SearchSpace.default(sequence_length=3, epochs=2, qubit_bounds=(2, 4),
                                layer_bounds=(1, 2))

    def score(config):
        return config.n_layers + abs(config.n_qubits - 3) + (config.batch_size > 64)

    tracker = ObjectiveTracker(lambda v: score(space.decode_vector(v)), budget=60,
                               describe=lambda v: space.decode_vector(v).to_dict())
    hybrid_minimize(tracker, space.bounds(), seed=5, decode_bits=space.decode_bits,
                    n_bits=space.total_bits)
    genomes = np.random.default_rng(3).integers(0, 2, size=(20, space.total_bits))
    return [tracked(tracker), [space.decode_bits(g) for g in genomes]]


def bo_sphere():
    lo, hi = SPHERE_BOUNDS
    tracker = make_tracker(lambda u: sphere(lo + (hi - lo) * u), budget=15)
    bo_minimize_unit(tracker, 3, n_init=5, seed=6)
    return tracked(tracker)


CASES = {
    "pso": (pso_free,
        "05b9e64fc8e74dbe13ac520dde36c04472d5ddaab372a2d886605cbcd9eedb9f"),
    "pso_budget": (pso_budget,
        "607e222f47c5c4e1b5810b69d1cce9c31b5b072473eab0aa567e6181c14e87c5"),
    "qga": (qga,
        "0df3653d975b07fed914abc5b16301b80bb7d73f247b40cb59e07fc8940af76a"),
    "hybrid_0": (lambda: hybrid(39),
        "408ae4684324ee41f9237f7d007d140258bad190be988235dca7d06effaa2865"),
    "hybrid_04": (lambda: hybrid(137),
        "d1a423e347c9ecd93c25a7edc4e38fb2ab39d5463d0306b4b40281dd75d37669"),
    "bo_sphere": (bo_sphere,
        "ae98a267a5d04408b827aa43eb2073bed42382881c9d6a7df438236c13c23613"),
    "hybrid_search_space": (hybrid_search_space,
        "a167a40a8d65291829293bbaa310c157d9367f9f94a24bcf80eda4705a507609"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_tuner_outputs_are_pinned(name):
    run, expected = CASES[name]
    assert digest(run()) == expected
