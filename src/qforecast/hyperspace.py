"""Hyperparameter search space shared by every tuner.

Tuners move through a continuous box; integer dimensions are rounded
half-up at decode time and the learning rate is searched in log10
coordinates.  A fixed-width binary codec maps genomes onto the same box so
the genetic and swarm phases optimize over identical territory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .qlstm import HyperConfig

LR_BOUNDS = (1e-4, 0.2)
HIDDEN_BOUNDS = (2, 8)
BATCH_BOUNDS = (16, 256)


@dataclass(frozen=True)
class Dimension:
    name: str
    low: float  # box coordinate (log10 domain when log10=True)
    high: float
    bits: int  # genome bits of the binary codec
    integer: bool = False
    log10: bool = False

    def decode(self, coord: float) -> float | int:
        coord = min(max(coord, self.low), self.high)
        value = 10.0**coord if self.log10 else coord
        if self.integer:
            return int(math.floor(value + 0.5))
        return float(value)


def default_dimensions(qubit_bounds: tuple[int, int],
                       layer_bounds: tuple[int, int]) -> tuple[Dimension, ...]:
    return (
        Dimension("learning_rate", math.log10(LR_BOUNDS[0]), math.log10(LR_BOUNDS[1]),
                  log10=True, bits=10),
        Dimension("n_layers", *layer_bounds, integer=True, bits=4),
        Dimension("n_qubits", *qubit_bounds, integer=True, bits=4),
        Dimension("hidden_units", *HIDDEN_BOUNDS, integer=True, bits=4),
        Dimension("batch_size", *BATCH_BOUNDS, integer=True, bits=8),
    )


@dataclass(frozen=True)
class SearchSpace:
    """A box over tunable model settings, with fixed sequence length/epochs."""

    dimensions: tuple
    sequence_length: int
    epochs: int

    @classmethod
    def default(cls, sequence_length: int, epochs: int, *, qubit_bounds: tuple[int, int],
                layer_bounds: tuple[int, int]) -> "SearchSpace":
        return cls(default_dimensions(qubit_bounds, layer_bounds), sequence_length, epochs)

    @property
    def n_dims(self) -> int:
        return len(self.dimensions)

    def bounds(self) -> list[tuple[float, float]]:
        return [(d.low, d.high) for d in self.dimensions]

    @property
    def total_bits(self) -> int:
        return sum(d.bits for d in self.dimensions)

    def decode_vector(self, vector) -> HyperConfig:
        """Any point of R^d maps (after clamping) to a valid configuration."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.n_dims,):
            raise ConfigurationError(f"expected a {self.n_dims}-dimensional point")
        values = {d.name: d.decode(v) for d, v in zip(self.dimensions, vector)}
        return HyperConfig(**values, sequence_length=self.sequence_length, epochs=self.epochs)

    def decode_bits(self, bits) -> np.ndarray:
        """Gray-coded fixed-point decoding onto the box (MSB first per dimension).

        Gray coding keeps single-bit genome changes local in the box, which
        matters for rotation-driven updates.
        """
        return gray_decode(bits, [d.low for d in self.dimensions],
                           [d.high for d in self.dimensions], [d.bits for d in self.dimensions])

    def from_unit(self, unit) -> np.ndarray:
        """Map [0,1]^d coordinates onto the box."""
        unit = np.clip(np.asarray(unit, dtype=float), 0.0, 1.0)
        lows = np.array([d.low for d in self.dimensions])
        highs = np.array([d.high for d in self.dimensions])
        return lows + unit * (highs - lows)


def gray_fraction(bits) -> float:
    """Decode a Gray-coded bit chunk to a fraction in [0, 1]."""
    value = 0
    acc = 0
    for b in bits:
        acc ^= int(b)
        value = (value << 1) | acc
    return value / float(2 ** len(bits) - 1)


def gray_decode(bits, lows, highs, widths) -> np.ndarray:
    """Coordinate j is ``lows[j] + span_j * gray_fraction(chunk_j)``, where
    chunk j is the next ``widths[j]`` bits of the genome."""
    bits = np.asarray(bits).astype(int).reshape(-1)
    if bits.shape != (sum(widths),):
        raise ConfigurationError(f"expected {sum(widths)} genome bits, got {bits.shape}")
    vector = np.empty(len(widths))
    offset = 0
    for j, width in enumerate(widths):
        vector[j] = lows[j] + (highs[j] - lows[j]) * gray_fraction(bits[offset : offset + width])
        offset += width
    return vector
