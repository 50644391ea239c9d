"""Binomial spread of Monte Carlo rates.

Checks that compare a sampled rate with a prediction or a bound take the
binomial standard deviation and allow a fixed number of sigmas (4, which
keeps the per-check false-alarm rate near 6e-5 even across hundreds of
checks per run).
"""

from __future__ import annotations

import math


def binomial_sigma(rate: float, trials: int) -> float:
    """Standard deviation of an empirical rate at a given true rate."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    rate = min(max(rate, 0.0), 1.0)
    return math.sqrt(rate * (1.0 - rate) / trials)
