"""Pinned tuner outputs: any change to a random stream or update order shows here.

Each case hashes everything a tuner run yields (trace rows, best point and
value, histories, evaluation counts) as JSON, whose float repr round-trips
exactly, so the digests hold only for bit-identical runs.  A hybrid run's
genetic and swarm phases show in its trace rows, tagged by phase.  The BO case also
pins the GP path's rounding: its Cholesky factors, solves and minimizer steps.
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


def swarm_run(result, trace):
    return [trace, result.best_position, result.best_value, result.history,
            result.n_evals, result.n_non_finite]


def genetic_run(result):
    return [result.best_value, result.best_decoded, result.history, result.n_evals,
            result.archive]


def hybrid_run(result, trace):
    return [trace, result.best_position, result.best_value, result.n_evals]


def pso_free():
    trace = []
    # the initial sweep and 15 more of 8 particles
    result = pso_minimize(make_tracker(rastrigin, budget=8 * 16, trace=trace),
                          [RASTRIGIN_BOUNDS] * 3, n_particles=8, seed=9, init_positions=None)
    return swarm_run(result, trace)


def pso_budget():
    # 50 evaluations end mid-sweep; 5 end inside the initial sweep
    runs = []
    for budget in (50, 5):
        trace = []
        result = pso_minimize(make_tracker(sphere, budget=budget, trace=trace),
                              [SPHERE_BOUNDS] * 2, n_particles=7, seed=2, init_positions=None)
        runs.append(swarm_run(result, trace))
    return runs


def qga():
    trace = []
    tracker = make_tracker(one_max, budget=10 * 20, trace=trace)  # every generation
    return [trace, genetic_run(qga_minimize(tracker, 12, pop_size=10, n_generations=20,
                                            seed=11, decode=np.copy))]


def hybrid(fraction):
    trace = []
    bounds = [RASTRIGIN_BOUNDS] * 3
    result = hybrid_minimize(make_tracker(rastrigin, budget=137, trace=trace), bounds,
                             seed=1, qga_fraction=fraction, **gray_genome(bounds))
    return hybrid_run(result, trace)


def hybrid_search_space():
    """The CLI's form: genomes decoded by a SearchSpace, scores tied across configurations."""
    space = SearchSpace.default(sequence_length=3, epochs=2, qubit_bounds=(2, 4),
                                layer_bounds=(1, 2))

    def score(config):
        return config.n_layers + abs(config.n_qubits - 3) + (config.batch_size > 64)

    trace = []
    tracker = ObjectiveTracker(lambda v: score(space.decode_vector(v)), budget=60, trace=trace,
                               describe=lambda v: space.decode_vector(v).to_dict())
    result = hybrid_minimize(tracker, space.bounds(), seed=5, decode_bits=space.decode_bits,
                             n_bits=space.total_bits)
    genomes = np.random.default_rng(3).integers(0, 2, size=(20, space.total_bits))
    return [hybrid_run(result, trace), [space.decode_bits(g) for g in genomes]]


def bo_sphere():
    lo, hi = SPHERE_BOUNDS
    return bo_minimize_unit(make_tracker(lambda u: sphere(lo + (hi - lo) * u), budget=15), 3,
                            n_init=5, seed=6)


CASES = {
    "pso": (pso_free,
        "0cbc38806001c4091bc59634874bd5aec32ecaf2b47fdf08f70f4707c44a3350"),
    "pso_budget": (pso_budget,
        "0c8eb370b8b2a39ab76b9792386fff06dc86dcd83767d9398785efe066549a85"),
    "qga": (qga,
        "8494c9b093c97c6f6f527c96c7bf7c614e23315cc766b3c96cb7e868d862baea"),
    "hybrid_0": (lambda: hybrid(0.0),
        "cb7ed22cd9446621540adde8c0419cb301b57237594e3d0f98cd0de71b9eb4eb"),
    "hybrid_04": (lambda: hybrid(0.4),
        "89ebc2f2089392461024cf911b4e146be17b72433f69f194b4cfc43c539eab19"),
    "hybrid_1": (lambda: hybrid(1.0),
        "03df804226cb4e6847912bd356395029164881290f1bcba876f70d9ac87dbe96"),
    "bo_sphere": (bo_sphere,
        "4e5f740c7067a9353ab376927d43fd696e786224d0192d32fa592d0f0acf5d55"),
    "hybrid_search_space": (hybrid_search_space,
        "71734cc59593522f1d4421c6396d4a170a969a62d0149cdd8e62b008bc762f30"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_tuner_outputs_are_pinned(name):
    run, expected = CASES[name]
    assert digest(run()) == expected
