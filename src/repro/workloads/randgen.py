"""Seeded random-variate streams for workload generation.

Every generator here wraps one :class:`random.Random` seeded at
construction, so a (parameters, seed) pair names one reproducible
stream of draws -- the property the zero-perturbation and pinned
-fingerprint suites lean on.  Three families:

* **Key popularity** -- which record a transaction touches.
  :class:`ZipfKeys` is the standard heavy-tail model (rank ``k`` drawn
  with probability proportional to ``1/(k+1)**theta``); ``theta=0``
  degenerates to uniform.  :func:`make_keys` builds it by name, the
  ``keys=`` keyword of the drivers.

* **Inter-arrival gaps** -- when open-loop transactions arrive.
  :class:`PoissonArrivals` draws exponential gaps at ``rate`` per
  simulated second (a Poisson arrival process).

* **Think times** -- how long a closed-loop client waits between its
  transactions.  :class:`ThinkTimes` draws exponential pauses with the
  given mean (``mean=0`` thinks not at all).

Zipf sampling precomputes the cumulative weight table once (O(n)) and
draws by binary search (O(log n) per key), so thousand-client runs pay
no per-draw harmonic sums.  :meth:`ZipfKeys.pmf` exposes the analytic
distribution for the property tests to check empirical frequencies
against.
"""

from __future__ import annotations

import random
from bisect import bisect_right

__all__ = ["ZipfKeys", "make_keys", "PoissonArrivals", "ThinkTimes"]


#: Shared cumulative-weight tables, keyed ``(n, theta)``.  Every
#: closed-loop client builds its own :class:`ZipfKeys` over the same
#: keyspace; without sharing, a thousand-client run spends seconds of
#: wall clock recomputing a thousand identical O(n) tables (this was
#: the single largest setup cost in the scaling profile).  The table
#: is read-only after construction -- samplers only ``bisect`` it --
#: so sharing is safe, and the cached values are bit-identical to a
#: fresh computation (same summation order), so sampled streams are
#: unchanged.
_CDF_CACHE = {}
_CDF_CACHE_MAX = 64


class ZipfKeys:
    """Zipf-distributed record indices over ``[0, n)``.

    Rank 0 is the hottest record.  ``theta`` is the skew exponent:
    0 is uniform, 0.9 is the YCSB-style default, >1 concentrates
    almost all traffic on a handful of records.
    """

    def __init__(self, n, theta=0.9, seed=0, rng=None):
        if n <= 0:
            raise ValueError("need at least one record")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        self.n = n
        self.theta = theta
        self._rng = rng if rng is not None else random.Random(seed)
        cached = _CDF_CACHE.get((n, theta))
        if cached is None:
            cum = []
            total = 0.0
            for k in range(n):
                total += (k + 1) ** -theta
                cum.append(total)
            if len(_CDF_CACHE) >= _CDF_CACHE_MAX:
                _CDF_CACHE.clear()
            cached = _CDF_CACHE[(n, theta)] = (cum, total)
        self._cum, self._total = cached

    def sample(self) -> int:
        """One record index, hot ranks most likely."""
        return bisect_right(self._cum, self._rng.random() * self._total)

    def pmf(self, k) -> float:
        """Analytic probability of rank ``k`` (for property tests)."""
        if not 0 <= k < self.n:
            raise IndexError("rank %d out of range" % k)
        return (k + 1) ** -self.theta / self._total


def make_keys(kind, n, *, theta=0.9, seed=0, rng=None):
    """Build a key-popularity generator by name; ``"zipf"`` is the one
    kind (``theta=0`` draws uniformly)."""
    if kind == "zipf":
        return ZipfKeys(n, theta=theta, seed=seed, rng=rng)
    raise ValueError("unknown key distribution %r" % (kind,))


class PoissonArrivals:
    """Open-loop Poisson arrivals: exponential inter-arrival gaps at
    ``rate`` per simulated second."""

    def __init__(self, rate, seed=0, rng=None):
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate = rate
        self._rng = rng if rng is not None else random.Random(seed)

    def next_gap(self) -> float:
        """The gap to the next arrival (mean ``1/rate``)."""
        return self._rng.expovariate(self.rate)

    def times(self, count):
        """Absolute arrival times of the next ``count`` arrivals,
        measured from now -- the batch :meth:`~repro.sim.Engine.\
schedule_many` consumes in one call."""
        out = []
        t = 0.0
        for _ in range(count):
            t += self.next_gap()
            out.append(t)
        return out


class ThinkTimes:
    """Closed-loop think times: exponential pauses with mean ``mean``
    seconds (``mean=0`` never thinks)."""

    def __init__(self, mean, seed=0, rng=None):
        if mean < 0:
            raise ValueError("think time must be >= 0")
        self.mean = mean
        self._rng = rng if rng is not None else random.Random(seed)

    def next_think(self) -> float:
        """The pause before this client's next transaction."""
        if self.mean == 0:
            return 0.0
        return self._rng.expovariate(1.0 / self.mean)
