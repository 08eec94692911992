"""The GP likelihood search against the gradient-free reference fit, and the
box-constrained minimizer it runs."""

import numpy as np
import pytest

import qforecast.bayesopt as bayesopt
from qforecast.bayesopt import _neg_lml, _sq_diffs, box_minimize, gp_fit, latin_hypercube
from qforecast.errors import ConfigurationError

from oracles import central_difference, lml_box, lml_oracle, nelder_mead_gp_fit

# The six fits of `tune --tuner bayes --budget 8 --k 2 --seq 3 5 --max-qubits 2
# --max-layers 1 --probe-epochs 1 --seed 0` on perfbench/inputs.py's 240-hour
# CSV with seed 901: per sequence length, the first 5, 6 and 7 points of one
# trajectory, each fit with its own seed.
DESK_X3 = np.array([
    [0.8796954157939195, 0.24849073543821493, 0.6404283697574045, 0.7280073561694282,
     0.30652444029614034],
    [0.553591909946873, 0.9043618064720779, 0.24595432670326942, 0.11259620474078942,
     0.5473853735372931],
    [0.7854413516432357, 0.10059306995412702, 0.5048193265164985, 0.8163145306992321,
     0.14566718701908427],
    [0.1632781090740581, 0.4774446718063139, 0.8061753206454938, 0.48891614260392935,
     0.9282920761669743],
    [0.23889540379376611, 0.7257503322916612, 0.022426398527203385, 0.31200175622617443,
     0.7463790194968152],
    [0.3103005102834454, 0.0, 1.0, 0.0, 1.0],
    [0.17897960934356502, 0.6950857758849729, 1.0, 0.4735285382719435, 0.8158656890207215],
])
DESK_Y3 = np.array([0.8806279657520243, 0.8655043005551672, 0.8658192446652645,
                    0.8465759610034228, 0.8439770765064317, 0.8745020381467501,
                    0.8445268696000918])
DESK_X5 = np.array([
    [0.7471188166609803, 0.34953934867285763, 0.14694254945618376, 0.3966760680125664,
     0.7229785989612305],
    [0.9694137384781433, 0.09667653527364987, 0.7129324893410767, 0.4922199861774857,
     0.9063083049958929],
    [0.3405668388536136, 0.7307266821953895, 0.3947794756124354, 0.003255915171991708,
     0.04666716771696113],
    [0.144398506512678, 0.9556737259355377, 0.9766980441724536, 0.8204689609564418,
     0.2716422376839841],
    [0.5919375891022992, 0.5703796845885993, 0.5063626570944312, 0.7695420868230424,
     0.5533242049814702],
    [1.0, 0.5807164839130847, 0.0, 1.0, 1.0],
    [0.6779788558112197, 1.0, 0.0, 0.0, 0.0],
])
DESK_Y5 = np.array([0.8416330367186262, 1.0633501467143944, 0.833900851014637,
                    0.8533518549085972, 0.8410573316495571, 1.080689772242647,
                    0.8621538353873237])
DESK_FITS = [
    (DESK_X3, DESK_Y3, 5, 1740770615), (DESK_X3, DESK_Y3, 6, 2079050005),
    (DESK_X3, DESK_Y3, 7, 174618839), (DESK_X5, DESK_Y5, 5, 1833423273),
    (DESK_X5, DESK_Y5, 6, 600022275), (DESK_X5, DESK_Y5, 7, 1160376825),
]
SIN_X = np.array([[0.05], [0.3], [0.5], [0.75], [0.95]])


def _random_panel(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 5))
    return x, np.sin(3.0 * x).sum(axis=1) + 0.05 * rng.normal(size=n)


PANEL = (
    [pytest.param(x[:n], y[:n], seed, id=f"desk{i}") for i, (x, y, n, seed)
     in enumerate(DESK_FITS, 1)]
    + [pytest.param(SIN_X, np.sin(6 * SIN_X[:, 0]), 0, id="sine")]
    + [pytest.param(*_random_panel(n, 10 * n + i), i, id=f"n{n}-{i}")
       for n in (10, 20, 40) for i in range(3)]
)


def _fitted_lml(gp):
    return lml_oracle(gp.x, gp.y - gp.mean, gp.length_scales, gp.signal_var, gp.noise_var)


@pytest.mark.parametrize("x, y, seed", PANEL)
def test_fit_reaches_the_gradient_free_likelihood(x, y, seed):
    _, want = nelder_mead_gp_fit(x, y, seed)
    assert _fitted_lml(gp_fit(x, y, seed=seed)) >= want - 1e-6


@pytest.mark.parametrize("n, d", [(7, 5), (10, 5), (30, 3), (5, 1)])
def test_likelihood_gradient_matches_central_differences(n, d):
    rng = np.random.default_rng(100 * n + d)
    x = rng.random((n, d))
    y_centered = rng.normal(size=n)
    y_centered -= y_centered.mean()
    lo, hi = lml_box(d, float(np.var(y_centered)))

    def lml(p):
        return lml_oracle(x, y_centered, 10.0 ** p[:d], 10.0 ** p[d], 10.0 ** p[d + 1])

    for _ in range(5):
        point = rng.uniform(lo, hi)
        value, grad = _neg_lml(point, _sq_diffs(x, x), y_centered)
        assert value == pytest.approx(-lml(point), rel=1e-12)
        want = -central_difference(lml, point)
        # relative to the gradient's scale: along a flat length scale a
        # component can sit below the differences' own rounding error
        np.testing.assert_allclose(grad, want, rtol=1e-6, atol=1e-6 * np.max(np.abs(want)))


@pytest.mark.parametrize("seed", range(5))
def test_box_minimize_reaches_the_projected_quadratic_minimum(seed):
    # f = (x - x*)' A (x - x*) / 2 + g*' (x - x*) on the unit cube, with g* = 0
    # on the free coordinates and pointing out of the box on the bounded
    # ones, so x* (two coordinates on 0, one on 1) is the minimizer by the KKT
    # conditions.  The stopping rules are absolute in the gradient, so the
    # curvature (1e4..1e5) makes PG_TOL stand for well under 1e-8 in x.
    rng = np.random.default_rng(seed)
    d = 6
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    a = 1e4 * q @ np.diag(rng.uniform(1.0, 10.0, d)) @ q.T
    want = rng.uniform(0.2, 0.8, d)
    want[:2], want[2] = 0.0, 1.0
    g_star = np.zeros(d)
    g_star[:2] = 1e4 * rng.uniform(0.5, 2.0, 2)
    g_star[2] = -1e4 * rng.uniform(0.5, 2.0)

    def quadratic(x):
        r = x - want
        return 0.5 * r @ a @ r + g_star @ r, a @ r + g_star

    point, value = box_minimize(quadratic, rng.random(d), np.zeros(d), np.ones(d))
    np.testing.assert_allclose(point, want, rtol=0.0, atol=1e-8)
    assert value == quadratic(point)[0]


def test_box_minimize_returns_a_start_without_a_cholesky_factor():
    # the first start of gp_fit on three equal points at scores of order 1e10
    x = np.array([[0.4], [0.4], [0.4], [0.8]])
    y = np.array([1.0, 2.0, 3.0, 0.5]) * 1e10
    y_centered = y - y.mean()
    lo, hi = lml_box(1, float(np.var(y_centered)))
    start = np.array([np.log10(0.3), np.log10(np.var(y_centered)), -4.0])
    point, value = box_minimize(lambda p: _neg_lml(p, _sq_diffs(x, x), y_centered),
                                start, lo, hi)
    np.testing.assert_array_equal(point, start)
    assert value == np.inf


def test_search_that_meets_a_singular_kernel_is_never_the_fit(monkeypatch):
    # duplicate points at a large score scale: the box's noise floor is too
    # small for some starts' signal variance, and their Cholesky fails
    x = np.array([[0.4], [0.4], [0.8], [0.41]])
    y = np.array([1.0, 2.0, 0.5, 1.5]) * 1e8
    values = []

    def recording(*args):
        result = _neg_lml(*args)
        values.append(result[0])
        return result

    monkeypatch.setattr(bayesopt, "_neg_lml", recording)
    gp = gp_fit(x, y, seed=1)
    assert np.isinf(values).any() and np.isfinite(values).any()
    assert np.isfinite(_fitted_lml(gp))


def test_fit_without_a_finite_search_is_a_configuration_error():
    # three equal points at scores of order 1e10: every start's kernel matrix
    # is singular to working precision
    x = np.array([[0.4], [0.4], [0.4], [0.8]])
    y = np.array([1.0, 2.0, 3.0, 0.5]) * 1e10
    with pytest.raises(ConfigurationError, match="positive-definite"):
        gp_fit(x, y, seed=0)


@pytest.mark.parametrize("n, d", [(1, 3), (5, 1), (7, 5), (1024, 4)])
def test_latin_hypercube_fills_each_stratum_once(n, d):
    points = latin_hypercube(n, d, np.random.default_rng(n + d))
    assert points.shape == (n, d)
    assert np.all((points >= 0.0) & (points < 1.0))
    for axis in points.T:
        np.testing.assert_array_equal(np.sort(np.floor(axis * n)), np.arange(n))
    again = latin_hypercube(n, d, np.random.default_rng(n + d))
    np.testing.assert_array_equal(points, again)
