"""Metric collection with the benchmark's percentile rule."""

from __future__ import annotations

import math
import statistics

#: a percentile is emitted only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values: list[float]) -> float:
    return statistics.median(values)


def percentile(samples: list[float], q: float) -> float:
    """The ``q`` quantile of ``samples``; refuses (ValueError) unless at
    least :data:`MIN_BEYOND` samples lie beyond it."""
    beyond = len(samples) - math.ceil(q * len(samples) - 1e-9)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} over {len(samples)} samples has {beyond} beyond "
            f"it; the benchmark needs {MIN_BEYOND}"
        )
    if q == 0.5:
        return statistics.median(samples)
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


class Report:
    """Named metrics, each with its unit and the sample count behind it."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str, int | None]] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, value: float, unit: str,
            samples: int | None = None) -> None:
        self.metrics[name] = (float(value), unit, samples)

    def add_percentile(self, name: str, samples: list[float], q: float,
                       scale: float, unit: str) -> None:
        self.add(name, percentile(samples, q) * scale, unit, len(samples))
