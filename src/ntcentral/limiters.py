"""Minmod limiters and the slope fields used by the central schemes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


def minmod(a, b):
    """Classic two-argument minmod: smaller-magnitude argument if signs agree, else 0.

    Written as two clamps, max(min(a, b), 0) + min(max(a, b), 0): when the
    signs agree one clamp keeps the smaller magnitude and the other gives
    +0, and when they differ both give 0.
    """
    lo = np.minimum(a, b, dtype=float)
    hi = np.maximum(a, b, dtype=float)
    if lo.ndim == 0:
        return np.maximum(lo, 0.0) + np.minimum(hi, 0.0)
    np.maximum(lo, 0.0, out=lo)
    np.minimum(hi, 0.0, out=hi)
    return np.add(lo, hi, out=lo)


@dataclass(frozen=True)
class ClipConfig:
    """Optional magnitude clip for limited differences.

    When enabled, every limited difference is additionally capped at
    ``C * dx**delta`` (signed like the backward difference), which bounds the
    reconstruction jumps independently of the data.  Disabled by default.
    ``C`` must be positive and finite and ``delta`` in (0, 1], the config
    schema's range: a cap of zero or less would zero every limited slope.
    """

    enabled: bool = False
    C: float = 1.0
    delta: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.C < math.inf and 0.0 < self.delta <= 1.0):
            raise ConfigurationError(
                f"clip needs 0 < C < inf and 0 < delta <= 1, got C={self.C}, "
                f"delta={self.delta}"
            )

    def cap(self, dx: float) -> float:
        return self.C * dx**self.delta


NO_CLIP = ClipConfig()


def limited_difference(fwd, bwd, dx: float, clip: ClipConfig = NO_CLIP):
    """Limited slope from one-sided differences (not yet divided by dx on input)."""
    if clip.enabled:
        cap = clip.cap(dx)
        d = minmod(minmod(fwd, bwd), np.sign(bwd) * cap)
    else:
        d = minmod(fwd, bwd)
    return d / dx


def slopes_of_extended(a_ext: np.ndarray, dx: float, clip: ClipConfig = NO_CLIP):
    """Limited slopes of an already ghost-extended array; loses one entry per side."""
    d = a_ext[..., 1:] - a_ext[..., :-1]
    return limited_difference(d[..., 1:], d[..., :-1], dx, clip)
