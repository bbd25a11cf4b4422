"""Deterministic, forkable random streams.

Reproducibility is a requirement for a measurement reproduction: the same
seed must yield the same eight traces, the same simulator run, and hence
the same tables.  The workload generator forks one independent stream per
user, per application, and per trace so that adding a new consumer of
randomness does not perturb every other stream.

Streams are thin wrappers over :class:`random.Random` with a stable
string-keyed forking scheme (SHA-256 of the parent key and child name).
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


def _derive_seed(parent_key: str, name: str) -> int:
    digest = hashlib.sha256(f"{parent_key}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """A named, seeded random stream that can fork child streams.

    >>> root = RngStream.root(42)
    >>> a = root.fork("user-1")
    >>> b = root.fork("user-2")
    >>> a.uniform(0, 1) != b.uniform(0, 1)
    True
    """

    def __init__(self, key: str, seed: int) -> None:
        self.key = key
        self._random = random.Random(seed)

    @classmethod
    def root(cls, seed: int) -> "RngStream":
        """Create the root stream for a whole run."""
        return cls(key=f"root:{seed}", seed=seed)

    def fork(self, name: str) -> "RngStream":
        """Derive an independent child stream.

        Forking is a pure function of the parent *key* and the child name;
        it does not consume state from the parent, so fork order does not
        matter.
        """
        child_key = f"{self.key}/{name}"
        return RngStream(key=child_key, seed=_derive_seed(self.key, name))

    # --- primitive draws ---------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def randoms(self, count: int) -> list[float]:
        """``count`` uniform floats in [0, 1), drawn in sequence.

        Batch form of :meth:`random`: the returned list is exactly what
        ``[self.random() for _ in range(count)]`` would produce, so a
        consumer that uses the values *in order* is byte-identical to
        one drawing them one at a time.  The point is amortization --
        one bound-method lookup for the whole batch -- on vectorized
        paths like the workload generator's rejection sampler.
        """
        draw = self._random.random
        return [draw() for _ in range(count)]

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(seq)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Choice weighted by non-negative weights."""
        return self._random.choices(items, weights=weights, k=1)[0]

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct items."""
        return self._random.sample(seq, k)

    # --- distributions ------------------------------------------------------

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return self._random.expovariate(1.0 / mean)

    def lognormal(self, mu: float, sigma: float) -> float:
        """Lognormal variate; ``mu``/``sigma`` parameterize the log."""
        return self._random.lognormvariate(mu, sigma)

    def normal(self, mean: float, stddev: float) -> float:
        """Gaussian variate."""
        return self._random.gauss(mean, stddev)

    def poisson(self, mean: float) -> int:
        """Poisson variate (Knuth's method for small means, normal approx
        for large ones)."""
        if mean < 0:
            raise ValueError(f"poisson mean must be >= 0, got {mean}")
        if mean == 0:
            return 0
        if mean > 100:
            return max(0, round(self.normal(mean, math.sqrt(mean))))
        limit = math.exp(-mean)
        count = 0
        product = self._random.random()
        while product > limit:
            count += 1
            product *= self._random.random()
        return count

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
        return self._random.random() < p

    def zipf_rank(self, n: int, s: float = 1.0) -> int:
        """Zipf-distributed rank in [0, n), computed by inversion.

        Rank 0 is the most popular item.  ``s`` is the skew exponent.
        """
        if n <= 0:
            raise ValueError(f"zipf needs a positive population, got {n}")
        # Harmonic normalization; cached per (n, s) to keep draws O(log n).
        weights = self._zipf_weights(n, s)
        u = self._random.random() * weights[-1]
        # binary search over the cumulative weights
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if weights[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    _zipf_cache: dict[tuple[int, float], list[float]] = {}

    @classmethod
    def _zipf_weights(cls, n: int, s: float) -> list[float]:
        key = (n, s)
        cached = cls._zipf_cache.get(key)
        if cached is None:
            total = 0.0
            cumulative = []
            for rank in range(1, n + 1):
                total += 1.0 / rank**s
                cumulative.append(total)
            # Bound the cache so long-running processes don't accumulate
            # one entry per distinct population size forever.
            if len(cls._zipf_cache) > 128:
                cls._zipf_cache.clear()
            cls._zipf_cache[key] = cumulative
            cached = cumulative
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(key={self.key!r})"
