"""Seeded hourly weather CSV in the schema ``qforecast preprocess --csv`` reads.

Standard library only, so the benchmark process itself imports no numeric
library (and starts no BLAS threads).  The same seed gives the same bytes.
"""

from __future__ import annotations

import datetime as dt
import math
import random

HEADER = ("date,time,temperature,dew_point_temp,rel_humidity,wind_speed,"
          "visibility,pressure,precipitation")
START = dt.datetime(2011, 1, 1, 0)
HOURS_PER_YEAR = 8766.0
MISSING_FRACTION = 0.003  # empty cells, never in the temperature column


def write_weather_csv(path, hours: int, seed: int) -> None:
    """Daily and annual temperature cycles plus AR(1) weather noise, with
    correlated humidity, wind, visibility, pressure and showers."""
    rng = random.Random(seed)
    gauss, uniform = rng.gauss, rng.random
    phase = uniform() * 2.0 * math.pi
    anomaly = 0.0
    pressure_walk = 0.0
    lines = [HEADER]
    for i in range(hours):
        ts = START + dt.timedelta(hours=i)
        day = math.sin(2.0 * math.pi * (i % 24) / 24.0 - 2.0)
        year = math.sin(2.0 * math.pi * i / HOURS_PER_YEAR + phase)
        anomaly = 0.95 * anomaly + gauss(0.0, 0.6)
        pressure_walk = 0.99 * pressure_walk + gauss(0.0, 0.08)
        temp = 11.0 + 5.0 * day + 9.0 * year + anomaly
        dew = temp - 4.0 - 1.5 * day + gauss(0.0, 0.5)
        humidity = min(100.0, max(5.0, 70.0 - 2.0 * (temp - dew - 4.0) + gauss(0.0, 3.0)))
        wind = max(0.0, 11.0 + 3.0 * day + gauss(0.0, 2.5))
        visibility = max(0.1, 25.0 - 0.08 * humidity + 3.0 * year + gauss(0.0, 1.5))
        pressure = 101.2 + pressure_walk + 0.1 * gauss(0.0, 1.0)
        rain = rng.gammavariate(2.0, 0.8) if uniform() < 0.08 else 0.0
        cells = [f"{temp:.2f}"]
        for value in (dew, humidity, wind, visibility, pressure, rain):
            cells.append("" if uniform() < MISSING_FRACTION else f"{value:.2f}")
        lines.append(f"{ts:%Y-%m-%d},{ts:%H}:00," + ",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
