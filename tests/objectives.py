"""Analytic objectives with known optima for exercising the tuners.

Sphere and rastrigin reach 0 at the origin; one_max counts down from 0 at
the all-ones bitstring.  ``gray_genome`` gives the genetic and hybrid
searches a decoder onto a box, as the tune command gives them
``SearchSpace.decode_bits``.
"""

import functools

import numpy as np

from qforecast.hyperspace import gray_decode

SPHERE_BOUNDS = (-5.12, 5.12)
RASTRIGIN_BOUNDS = (-5.12, 5.12)


def sphere(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(x @ x)


def rastrigin(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


def one_max(bits) -> float:
    """Negated count of ones, so the all-ones string is the minimum."""
    return -float(np.sum(np.asarray(bits, dtype=int)))


def quadratic_1d(center: float):
    """A convex 1-D parabola with its minimum at ``center``."""

    def objective(x) -> float:
        x = np.asarray(x, dtype=float).reshape(-1)
        return float((x[0] - center) ** 2)

    return objective


def gray_genome(bounds, bits_per_dim: int = 12) -> dict:
    """``hybrid_minimize``'s ``decode_bits`` and ``n_bits`` for a box: each
    dimension a Gray-coded field of ``bits_per_dim`` bits."""
    lows, highs = (list(edge) for edge in zip(*bounds))
    widths = [bits_per_dim] * len(bounds)
    return {"decode_bits": functools.partial(gray_decode, lows=lows, highs=highs, widths=widths),
            "n_bits": sum(widths)}
