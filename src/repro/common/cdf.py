"""Weighted empirical cumulative distribution functions.

Figures 1--4 of the paper are all CDFs, each drawn twice: once weighted
by event count ("number of runs", "number of files") and once weighted
by bytes.  :class:`Cdf` supports both by accepting a weight per sample.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class CdfPoint:
    """One point of an empirical CDF: fraction of mass <= value."""

    value: float
    fraction: float


class Cdf:
    """An empirical, optionally weighted CDF.

    Samples are buffered and the CDF is materialized lazily on first
    query; adding more samples afterwards invalidates and rebuilds it.
    """

    def __init__(self) -> None:
        self._samples: list[tuple[float, float]] = []
        self._values: list[float] | None = None
        self._cum: list[float] | None = None
        self._total: float = 0.0

    def add(self, value: float, weight: float = 1.0) -> None:
        """Add one sample with the given non-negative weight."""
        if weight < 0:
            raise ValueError(f"negative weight: {weight}")
        if weight == 0:
            return
        self._samples.append((value, weight))
        self._values = None

    def extend(self, values: Iterable[float]) -> None:
        """Add many unit-weight samples."""
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        """Number of (non-zero-weight) samples."""
        return len(self._samples)

    def _materialize(self) -> None:
        if self._values is not None:
            return
        merged: dict[float, float] = {}
        for value, weight in self._samples:
            merged[value] = merged.get(value, 0.0) + weight
        self._values = sorted(merged)
        cum: list[float] = []
        running = 0.0
        for value in self._values:
            running += merged[value]
            cum.append(running)
        self._cum = cum
        self._total = running

    def fraction_at_or_below(self, value: float) -> float:
        """Fraction of total mass at samples <= ``value``."""
        self._materialize()
        assert self._values is not None and self._cum is not None
        if self._total == 0:
            return 0.0
        index = bisect.bisect_right(self._values, value)
        if index == 0:
            return 0.0
        return self._cum[index - 1] / self._total

    def value_at_fraction(self, fraction: float) -> float:
        """Smallest sample value v with fraction_at_or_below(v) >= fraction.

        This is the inverse CDF / quantile function the paper's prose uses
        ("80% of all runs are less than 2300 bytes").
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        self._materialize()
        assert self._values is not None and self._cum is not None
        if not self._values:
            raise ValueError("empty CDF")
        target = fraction * self._total
        index = bisect.bisect_left(self._cum, target)
        index = min(index, len(self._values) - 1)
        return self._values[index]

    def median(self) -> float:
        """The 50th percentile."""
        return self.value_at_fraction(0.5)

    def points(self, max_points: int = 200) -> list[CdfPoint]:
        """Downsampled (value, fraction) points suitable for plotting.

        Always includes the first and last sample.  Intermediate points
        are chosen uniformly in rank space.
        """
        self._materialize()
        assert self._values is not None and self._cum is not None
        n = len(self._values)
        if n == 0:
            return []
        if max_points < 2:
            raise ValueError(f"max_points must be >= 2, got {max_points}")
        if n <= max_points:
            indices: Sequence[int] = range(n)
        else:
            step = (n - 1) / (max_points - 1)
            indices = sorted({round(i * step) for i in range(max_points)})
        return [
            CdfPoint(value=self._values[i], fraction=self._cum[i] / self._total)
            for i in indices
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cdf(samples={self.count})"
