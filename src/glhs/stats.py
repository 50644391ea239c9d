"""Binomial interval estimates for Monte Carlo checks.

Estimators report their rate with a Wilson score interval; checks that
compare a sampled rate with an exact prediction take the binomial standard
deviation at the predicted rate and allow a fixed number of sigmas (4 by
default, which keeps the per-check false-alarm rate near 6e-5 even across
hundreds of checks per run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# two-sided 95% normal quantile, to full double precision
Z95 = 1.959963984540054


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float


def wilson_interval(successes: int, trials: int, z: float = Z95) -> Interval:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1 - phat) / trials + z2 / (4 * trials * trials)
    )
    return Interval(max(0.0, center - half), min(1.0, center + half))


def binomial_sigma(rate: float, trials: int) -> float:
    """Standard deviation of an empirical rate at a given true rate."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    rate = min(max(rate, 0.0), 1.0)
    return math.sqrt(rate * (1.0 - rate) / trials)
