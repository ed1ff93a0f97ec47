"""Empirical flow-size distributions.

The paper drives its experiments with the public WebSearch [DCTCP] and
FB_Hadoop [Roy et al., SIGCOMM 2015] flow-size CDFs "instead of our own
traffic traces for reproducibility" (Section 2.3) — the same choice this
reproduction inherits.  A CDF is a list of (size, cumulative probability)
control points; sampling inverts it with linear interpolation between
points, the standard trace-replay approach.
"""

from __future__ import annotations

import bisect
import random
from typing import Sequence


class EmpiricalCdf:
    """Inverse-transform sampling over piecewise-linear CDF control points."""

    def __init__(self, points: Sequence[tuple[float, float]], name: str = "cdf") -> None:
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        sizes = [p[0] for p in points]
        probs = [p[1] for p in points]
        if sorted(sizes) != list(sizes) or sorted(probs) != list(probs):
            raise ValueError("CDF points must be non-decreasing")
        if abs(probs[-1] - 1.0) > 1e-9:
            raise ValueError(f"CDF must end at probability 1, got {probs[-1]}")
        if probs[0] < 0:
            raise ValueError("probabilities must be non-negative")
        self.name = name
        self._sizes = [float(s) for s in sizes]
        self._probs = [float(p) for p in probs]

    def sample(self, rng: random.Random) -> int:
        """Draw one flow size (bytes, at least 1)."""
        u = rng.random()
        return max(1, int(round(self.quantile(u))))

    def quantile(self, u: float) -> float:
        """The size at cumulative probability ``u`` (linear interpolation)."""
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"u must be in [0, 1], got {u}")
        probs, sizes = self._probs, self._sizes
        if u <= probs[0]:
            return sizes[0]
        idx = bisect.bisect_left(probs, u)
        if idx >= len(probs):
            return sizes[-1]
        p0, p1 = probs[idx - 1], probs[idx]
        s0, s1 = sizes[idx - 1], sizes[idx]
        if p1 == p0:
            return s1
        return s0 + (s1 - s0) * (u - p0) / (p1 - p0)

    def mean(self) -> float:
        """Expected flow size (exact for the piecewise-linear model)."""
        total = 0.0
        probs, sizes = self._probs, self._sizes
        total += probs[0] * sizes[0]
        for i in range(1, len(probs)):
            mass = probs[i] - probs[i - 1]
            total += mass * (sizes[i] + sizes[i - 1]) / 2.0
        return total

    def cdf_at(self, size: float) -> float:
        """Cumulative probability at a given size."""
        sizes, probs = self._sizes, self._probs
        if size <= sizes[0]:
            return probs[0] if size >= sizes[0] else 0.0
        if size >= sizes[-1]:
            return 1.0
        idx = bisect.bisect_right(sizes, size)
        s0, s1 = sizes[idx - 1], sizes[idx]
        p0, p1 = probs[idx - 1], probs[idx]
        if s1 == s0:
            return p1
        return p0 + (p1 - p0) * (size - s0) / (s1 - s0)

    def deciles(self) -> list[float]:
        """Sizes at cumulative 10%, 20%, ... 100% (figure bucket edges)."""
        return [self.quantile(k / 10.0) for k in range(1, 11)]

    def scaled(self, factor: float) -> "EmpiricalCdf":
        """The same shape with every size multiplied by ``factor``.

        Used to shrink workloads for Python-speed runs while preserving
        the distribution's shape (README "`bench` vs `full` scale"); bucket edges
        scale with it.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        points = [(max(1.0, s * factor), p) for s, p in zip(self._sizes, self._probs)]
        return EmpiricalCdf(points, name=f"{self.name}x{factor:g}")
