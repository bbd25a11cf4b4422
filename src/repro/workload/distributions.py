"""Workload distributions.

The paper's headline distributional facts, which these samplers are
calibrated to land inside:

* Most accessed files are small (~40-50% of accesses under 1 KB,
  ~80% under 10 KB) but most bytes come from big files (~40% of bytes
  from files of 1 MB or more) -- Figure 2.
* "Large" files are an order of magnitude larger than in 1985: simulation
  inputs of 20 MB, outputs of 10 MB, kernel binaries of 2-10 MB.
* Most sequential runs are short (~80% under 10 Kbytes) yet at least 10%
  of bytes move in runs longer than 1 Mbyte -- Figure 1.
* Most files are open under a quarter second -- Figure 3.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.rng import RngStream
from repro.common.units import KB, MB


class SizeClass(enum.Enum):
    """Coarse file-size classes used by the application models."""

    TINY = "tiny"  # dotfiles, locks, small sources: ~100 B - 2 KB
    SMALL = "small"  # typical sources, mail, objects: ~1 - 30 KB
    MEDIUM = "medium"  # libraries, documents, images: ~30 KB - 1 MB
    LARGE = "large"  # binaries, kernels: ~1 - 10 MB
    HUGE = "huge"  # simulation inputs/outputs: ~10 - 20+ MB


#: Per-class lognormal parameters: (median bytes, sigma of log).
_CLASS_PARAMS: dict[SizeClass, tuple[float, float]] = {
    SizeClass.TINY: (500.0, 0.9),
    SizeClass.SMALL: (4 * KB, 1.0),
    SizeClass.MEDIUM: (120 * KB, 0.8),
    SizeClass.LARGE: (3 * MB, 0.6),
    SizeClass.HUGE: (14 * MB, 0.25),
}

#: Hard per-class caps keep a fat lognormal tail from generating
#: gigabyte outliers the 1991 cluster could not have stored.
_CLASS_CAPS: dict[SizeClass, int] = {
    SizeClass.TINY: 4 * KB,
    SizeClass.SMALL: 64 * KB,
    SizeClass.MEDIUM: 1 * MB,
    SizeClass.LARGE: 10 * MB,
    SizeClass.HUGE: 24 * MB,
}


@dataclass(frozen=True)
class FileSizeModel:
    """A mixture over size classes.

    ``weights`` maps each class to its mixture probability; the sampler
    draws a class, then a lognormal size within it.  Profiles tune the
    weights (the trace-3/4 simulation workloads push HUGE far up).
    """

    weights: dict[SizeClass, float]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ConfigError("file size model needs at least one class weight")
        bad = [c for c, w in self.weights.items() if w < 0]
        if bad:
            raise ConfigError(f"negative class weights: {bad}")
        if sum(self.weights.values()) <= 0:
            raise ConfigError("file size model weights sum to zero")

    @classmethod
    def typical(cls) -> "FileSizeModel":
        """The day-to-day mix: overwhelmingly small files, thin big tail."""
        return cls(
            weights={
                SizeClass.TINY: 0.33,
                SizeClass.SMALL: 0.47,
                SizeClass.MEDIUM: 0.165,
                SizeClass.LARGE: 0.03,
                SizeClass.HUGE: 0.005,
            }
        )

    def sample_class(self, rng: RngStream) -> SizeClass:
        classes = list(self.weights)
        weights = [self.weights[c] for c in classes]
        return rng.weighted_choice(classes, weights)

    def sample(self, rng: RngStream, size_class: SizeClass | None = None) -> int:
        """Draw a file size in bytes (always at least 1)."""
        chosen = size_class or self.sample_class(rng)
        median, sigma = _CLASS_PARAMS[chosen]
        size = rng.lognormal(math.log(median), sigma)
        return max(1, min(int(size), _CLASS_CAPS[chosen]))


def open_latency(rng: RngStream) -> float:
    """Base open+close processing latency, seconds.

    Opens on a network file system were measured at 4-5x local-FS cost
    (Section 4.2 discussion of Figure 3); ~10-40 ms covers the observed
    range on 10-MIPS clients.
    """
    return rng.uniform(0.010, 0.040)


def process_rate(rng: RngStream) -> float:
    """Application data-processing rate, bytes/second.

    A 10-MIPS workstation touching file data (compiling, simulating,
    formatting) moves on the order of 0.5-2 Mbytes/second through the
    kernel interface; the rate varies per invocation.
    """
    return rng.uniform(0.5 * MB, 2.0 * MB)


def io_duration(nbytes: int, rate: float, latency: float) -> float:
    """Wall time for an application to move ``nbytes`` through an open
    episode at ``rate`` bytes/second plus fixed ``latency``."""
    if nbytes < 0:
        raise ConfigError(f"negative transfer size: {nbytes}")
    if rate <= 0:
        raise ConfigError(f"non-positive rate: {rate}")
    return latency + nbytes / rate


def diurnal_weight(time_of_day_seconds: float) -> float:
    """Relative activity level over a 24-hour day.

    Peaks through the working afternoon, stays substantial into the
    evening (graduate students), and bottoms out before dawn.  Used to
    thin session arrivals.
    """
    hours = (time_of_day_seconds / 3600.0) % 24.0
    # Two raised-cosine humps: a work-day hump and an evening hump.
    work = math.exp(-(((hours - 15.0) / 4.5) ** 2))
    evening = 0.6 * math.exp(-(((hours - 21.5) / 2.5) ** 2))
    base = 0.06
    return base + work + evening
